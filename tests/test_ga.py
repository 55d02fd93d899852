"""The evolutionary loop: trace semantics, elitism, determinism."""

import numpy as np
import pytest

import tspga.ga
from tspga import (
    GaConfig,
    Population,
    RngStream,
    evaluate,
    evolve,
    init_population,
    is_permutation,
    tour_length,
)


def _initial(seed, size, n):
    return init_population(GaConfig(population_size=size), n, RngStream(seed))


def test_zero_generations_returns_initial_best(berlin52_dm):
    initial = _initial(1, 10, 52)
    cfg = GaConfig(population_size=10, max_generations=0)
    result = evolve(cfg, berlin52_dm, initial, RngStream(2))
    evaluate(initial, berlin52_dm)
    assert result.trace == ()
    assert result.generations_run == 0
    assert result.best_length == int(initial.lengths.min())
    assert tour_length(berlin52_dm, result.best_tour) == result.best_length


def test_initial_population_left_untouched(berlin52_dm):
    initial = _initial(3, 8, 52)
    tours_before = initial.tours.copy()
    cfg = GaConfig(population_size=8, max_generations=5)
    result = evolve(cfg, berlin52_dm, initial, RngStream(4))
    assert np.array_equal(initial.tours, tours_before)
    assert initial.lengths is None  # evolve evaluates its own container
    # Read-only tours are only read, and cached lengths stay as they were.
    initial.tours.flags.writeable = False
    lengths = evaluate(initial, berlin52_dm).lengths
    lengths_before = lengths.copy()
    again = evolve(cfg, berlin52_dm, initial, RngStream(4))
    assert initial.lengths is lengths and np.array_equal(lengths, lengths_before)
    assert np.array_equal(initial.tours, tours_before)
    assert again.trace == result.trace and np.array_equal(again.best_tour, result.best_tour)


def test_identical_population_with_psm_disabled_stays_constant(berlin52_dm):
    # One tour repeated; PSM at pm=0 is the identity and crossover of equal
    # parents returns the parent, so nothing ever changes.
    tour = RngStream(5).permutation(52)
    initial = Population(np.tile(tour, (6, 1)))
    cfg = GaConfig(population_size=6, max_generations=10, mutation_rate=0.0,
                   mutation_operator="PSM")
    result = evolve(cfg, berlin52_dm, initial, RngStream(6))
    base = tour_length(berlin52_dm, tour)
    assert result.best_length == base
    assert all(rec.best_so_far == base for rec in result.trace)
    assert all(rec.gen_best == base for rec in result.trace)
    assert all(rec.gen_mean == float(base) for rec in result.trace)


def test_evolve_replays_bit_for_bit(berlin52_dm):
    initial = _initial(7, 20, 52)
    cfg = GaConfig(population_size=20, max_generations=40)
    a = evolve(cfg, berlin52_dm, initial, RngStream(8))
    b = evolve(cfg, berlin52_dm, initial, RngStream(8))
    assert a.best_length == b.best_length
    assert np.array_equal(a.best_tour, b.best_tour)
    assert a.trace == b.trace


def test_trace_shape_and_monotone_best(berlin52_dm):
    initial = _initial(9, 15, 52)
    cfg = GaConfig(population_size=15, max_generations=30)
    result = evolve(cfg, berlin52_dm, initial, RngStream(10))
    assert len(result.trace) == 30
    assert [rec.generation for rec in result.trace] == list(range(1, 31))
    best = [rec.best_so_far for rec in result.trace]
    assert all(x >= y for x, y in zip(best, best[1:]))
    assert result.best_length == best[-1]
    for rec in result.trace:
        assert rec.best_so_far <= rec.gen_best
        assert rec.gen_best <= rec.gen_mean


def test_best_never_below_berlin52_optimum(berlin52_dm):
    initial = _initial(11, 30, 52)
    cfg = GaConfig(population_size=30, max_generations=60)
    result = evolve(cfg, berlin52_dm, initial, RngStream(12))
    assert result.best_length >= 7542
    assert is_permutation(result.best_tour, 52)


def test_every_generation_stays_permutations(berlin52_dm, monkeypatch):
    # Wrap variation so a full run fuzzes the closure invariant and the
    # constant population size from inside the loop.
    real_variation = tspga.ga.variation
    seen = []

    def checked(pop, cfg, rng):
        children = real_variation(pop, cfg, rng)
        assert children.size == cfg.population_size
        assert all(is_permutation(t, 52) for t in children.tours)
        seen.append(children.size)
        return children

    monkeypatch.setattr(tspga.ga, "variation", checked)
    initial = _initial(13, 12, 52)
    cfg = GaConfig(population_size=12, max_generations=25)
    evolve(cfg, berlin52_dm, initial, RngStream(14))
    assert len(seen) == 25


def test_elitism_zero_still_runs(berlin52_dm):
    initial = _initial(15, 10, 52)
    cfg = GaConfig(population_size=10, max_generations=20, elitism_count=0)
    result = evolve(cfg, berlin52_dm, initial, RngStream(16))
    best = [rec.best_so_far for rec in result.trace]
    assert all(x >= y for x, y in zip(best, best[1:]))  # best-so-far is historical


def test_elitism_makes_progress_sticky(berlin52_dm):
    # With an elite the reported best must equal the true minimum over
    # everything ever evaluated; spot-check it never regresses across a
    # longer run with a small population.
    initial = _initial(17, 8, 52)
    cfg = GaConfig(population_size=8, max_generations=120)
    result = evolve(cfg, berlin52_dm, initial, RngStream(18))
    evaluate(initial, berlin52_dm)
    assert result.best_length <= int(initial.lengths.min())


def test_initial_size_must_match_config(berlin52_dm):
    initial = _initial(19, 9, 52)
    with pytest.raises(ValueError, match="9 members"):
        evolve(GaConfig(population_size=10), berlin52_dm, initial, RngStream(20))


@pytest.mark.parametrize("operator", ["RSM", "PSM", "HPRM"])
def test_result_does_not_depend_on_the_initial_tour_dtype(berlin52_dm, operator):
    # evolve works on a narrowed copy; the caller's tours and dtype are kept.
    initial = _initial(21, 12, 52)
    cfg = GaConfig(population_size=12, max_generations=30, mutation_operator=operator)
    expected = evolve(cfg, berlin52_dm, initial, RngStream(22))
    for dtype in (np.int16, np.int32, np.int64):
        tours = initial.tours.astype(dtype)
        before = tours.copy()
        result = evolve(cfg, berlin52_dm, Population(tours), RngStream(22))
        assert result.trace == expected.trace
        assert result.best_length == expected.best_length
        assert result.best_tour.dtype == dtype
        assert np.array_equal(result.best_tour, expected.best_tour)
        assert tours.dtype == dtype and np.array_equal(tours, before)


@pytest.mark.parametrize("n,working", [(32_768, np.int16), (32_769, np.int32)])
def test_working_tours_widen_past_32768_cities(monkeypatch, n, working):
    # int16 holds every city index up to 32,767, so it serves up to 32,768
    # cities. A zero matrix broadcast to n x n scores without allocating n².
    real_variation = tspga.ga.variation
    seen = []

    def recorded(pop, cfg, rng):
        seen.append(pop.tours.dtype)
        return real_variation(pop, cfg, rng)

    monkeypatch.setattr(tspga.ga, "variation", recorded)
    cfg = GaConfig(population_size=2, max_generations=1, mutation_operator="RSM")
    initial = _initial(23, 2, n)
    result = evolve(cfg, np.broadcast_to(np.int64(0), (n, n)), initial, RngStream(24))
    assert seen == [working]
    assert result.best_tour.dtype == initial.tours.dtype
    assert is_permutation(result.best_tour, n)
    assert result.best_tour.min() == 0 and result.best_tour.max() == n - 1
