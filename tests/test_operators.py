"""Mutation operators, crossover, roulette selection, variation."""

import itertools
import math

import numpy as np
import pytest

from tspga import (
    GaConfig,
    Population,
    RngStream,
    build_distance_matrix,
    crossover_ox,
    draw_cut_points,
    draw_mutation_points,
    evaluate,
    fitness_of,
    init_population,
    is_permutation,
    mutate_hprm,
    mutate_psm,
    mutate_rsm,
    select_roulette,
    tour_length,
    variation,
    wheel_index,
)
from tspga.operators import _plan, _plan_block, _swap_draws, _unrank_pairs
from tspga.rng import _RawBlock
from conftest import ScriptedRng


# ---------------------------------------------------------------- RSM

def test_rsm_reverses_segment():
    assert mutate_rsm([0, 1, 2, 3, 4], (1, 3)).tolist() == [0, 3, 2, 1, 4]


def test_rsm_single_point_is_identity():
    assert mutate_rsm([0, 1, 2, 3, 4], (2, 2)).tolist() == [0, 1, 2, 3, 4]


def test_rsm_full_reversal():
    assert mutate_rsm([0, 1, 2, 3, 4], (0, 4)).tolist() == [4, 3, 2, 1, 0]


def test_rsm_does_not_modify_input():
    t = np.array([0, 1, 2, 3])
    mutate_rsm(t, (0, 3))
    assert t.tolist() == [0, 1, 2, 3]


def test_rsm_is_involution_on_same_points():
    rng = RngStream(31)
    for _ in range(200):
        n = rng.randint(2, 12)
        t = rng.permutation(n)
        a, b = draw_mutation_points(n, rng)
        twice = mutate_rsm(mutate_rsm(t, (a, b)), (a, b))
        assert np.array_equal(twice, t)


def test_rsm_fixes_positions_outside_segment():
    rng = RngStream(32)
    for _ in range(200):
        n = rng.randint(2, 12)
        t = rng.permutation(n)
        a, b = draw_mutation_points(n, rng)
        out = mutate_rsm(t, (a, b))
        assert np.array_equal(out[:a], t[:a])
        assert np.array_equal(out[b + 1:], t[b + 1:])


def test_rsm_length_delta_is_two_boundary_edges(berlin52_dm):
    # Reversing a segment of a symmetric tour only replaces the two edges
    # crossing the segment boundary; every internal edge keeps its cost.
    dm = berlin52_dm
    rng = RngStream(33)
    for _ in range(100):
        t = rng.permutation(52)
        a, b = draw_mutation_points(52, rng)
        out = mutate_rsm(t, (a, b))
        before = int(t[a - 1]), int(t[(b + 1) % 52])  # neighbors outside the segment
        delta = (
            dm[before[0], t[b]] + dm[t[a], before[1]]
            - dm[before[0], t[a]] - dm[t[b], before[1]]
        )
        if b - a + 1 == 52:  # whole-tour reversal keeps the cycle
            delta = 0
        assert tour_length(dm, out) - tour_length(dm, t) == delta


def test_rsm_rejects_invalid_points():
    with pytest.raises(ValueError):
        mutate_rsm([0, 1, 2], (2, 1))
    with pytest.raises(ValueError):
        mutate_rsm([0, 1, 2], (0, 3))
    with pytest.raises(ValueError):
        mutate_rsm([0, 1, 2], (-1, 1))
    with pytest.raises(ValueError):
        mutate_rsm([0, 1, 2])  # no points and no rng to draw them


def test_hprm_without_rng_needs_zero_probability():
    # With points given, only Pm > 0 makes swap draws that need a stream.
    t = [0, 1, 2, 3, 4, 5, 6, 7]
    with pytest.raises(ValueError, match="rng"):
        mutate_hprm(t, 0.3, pts=(2, 6))
    assert mutate_hprm(t, 0.0, pts=(2, 6)).tolist() == [0, 1, 6, 5, 4, 3, 2, 7]


def test_psm_without_rng_is_a_value_error():
    # PSM makes n probability draws at every Pm, Pm 0 included.
    for pm in (0.3, 0.0):
        with pytest.raises(ValueError, match="rng"):
            mutate_psm([0, 1, 2, 3], pm, None)


# ---------------------------------------------------------------- PSM

def test_psm_zero_probability_is_identity_but_draws_n():
    rng = ScriptedRng(reals=[0.9, 0.9, 0.9, 0.9])
    assert mutate_psm([3, 1, 0, 2], 0.0, rng).tolist() == [3, 1, 0, 2]
    assert rng.exhausted(), "exactly n probability draws must be consumed"


def test_psm_hand_trace_three_cities():
    # pm=1, partners (1,0,2): swaps (0,1),(1,0),(2,2) cancel out.
    rng = ScriptedRng(reals=[0.0, 0.0, 0.0], ints=[1, 0, 2])
    assert mutate_psm([0, 1, 2], 1.0, rng).tolist() == [0, 1, 2]
    assert rng.exhausted()


def test_psm_hand_trace_two_cities_cancelling():
    # pm=1, partners (1,0): the two swaps cancel.
    rng = ScriptedRng(reals=[0.0, 0.0], ints=[1, 0])
    assert mutate_psm([0, 1], 1.0, rng).tolist() == [0, 1]


def test_psm_hand_trace_two_cities_single_effective_swap():
    # pm=1, partners (1,1): position 0 swaps away, position 1 self-swaps.
    rng = ScriptedRng(reals=[0.0, 0.0], ints=[1, 1])
    assert mutate_psm([0, 1], 1.0, rng).tolist() == [1, 0]


def test_psm_self_swap_allowed():
    rng = ScriptedRng(reals=[0.0, 0.0, 0.0], ints=[0, 1, 2])
    assert mutate_psm([0, 1, 2], 1.0, rng).tolist() == [0, 1, 2]


def test_psm_rejects_bad_probability():
    with pytest.raises(ValueError):
        mutate_psm([0, 1], 1.5, ScriptedRng())
    with pytest.raises(ValueError):
        mutate_psm([0, 1], -0.5, ScriptedRng())


# ---------------------------------------------------------------- HPRM

def test_hprm_zero_probability_equals_rsm_example():
    out = mutate_hprm([0, 1, 2, 3, 4], 0.0, (1, 3))
    assert out.tolist() == [0, 3, 2, 1, 4]


def test_hprm_hand_trace():
    # pm=1, segment (0,3), partners (2,3):
    #   pass 1: swap ends -> [3,1,2,0], swap head with 2 -> [2,1,3,0]
    #   pass 2: swap ends -> [2,3,1,0], swap head with 3 -> [2,0,1,3]
    rng = ScriptedRng(reals=[0.0, 0.0], ints=[2, 3])
    assert mutate_hprm([0, 1, 2, 3], 1.0, (0, 3), rng).tolist() == [2, 0, 1, 3]
    assert rng.exhausted()


def test_hprm_single_point_identity_at_zero_probability():
    assert mutate_hprm([0, 1, 2], 0.0, (1, 1)).tolist() == [0, 1, 2]


def test_hprm_zero_probability_consumes_no_draws():
    # This keeps an HPRM run with pm=0 stream-aligned with an RSM run.
    rng = ScriptedRng()  # empty queues: any draw would fail
    out = mutate_hprm([4, 3, 2, 1, 0], 0.0, (0, 4), rng)
    assert out.tolist() == [0, 1, 2, 3, 4]


def test_hprm_middle_element_consumes_a_draw():
    # Odd segment: the middle pass self-swaps but still draws p.
    rng = ScriptedRng(reals=[0.9, 0.9], ints=[])
    out = mutate_hprm([0, 1, 2], 0.5, (0, 2), rng)
    assert out.tolist() == [2, 1, 0]
    assert rng.exhausted()


def test_hprm_point_pair_with_equal_ends_draws_once():
    rng = ScriptedRng(reals=[0.0], ints=[2])
    out = mutate_hprm([0, 1, 2], 1.0, (1, 1), rng)
    # self-swap then swap position 1 with position 2
    assert out.tolist() == [0, 2, 1]
    assert rng.exhausted()


def test_hprm_matches_rsm_exhaustively_small():
    # every tour x every point pair for n <= 5 here; acceptance covers n=6
    for n in range(2, 6):
        for perm in itertools.permutations(range(n)):
            t = np.array(perm)
            for a in range(n):
                for b in range(a, n):
                    assert np.array_equal(
                        mutate_hprm(t, 0.0, (a, b)), mutate_rsm(t, (a, b))
                    )


# ---------------------------------------------------------------- point draws

def test_draw_mutation_points_covers_all_pairs_uniformly():
    n = 5
    rng = RngStream(41)
    counts = {}
    draws = 30_000
    for _ in range(draws):
        a, b = draw_mutation_points(n, rng)
        assert 0 <= a <= b < n
        counts[(a, b)] = counts.get((a, b), 0) + 1
    pairs = n * (n + 1) // 2
    assert len(counts) == pairs
    expected = draws / pairs
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 36.12  # dof=14, alpha=0.001


def test_draw_cut_points_strictly_ordered_and_complete():
    n = 6
    rng = RngStream(42)
    seen = set()
    for _ in range(5_000):
        c1, c2 = draw_cut_points(n, rng)
        assert 0 <= c1 < c2 < n
        seen.add((c1, c2))
    assert seen == {(i, j) for i in range(n) for j in range(i + 1, n)}


def test_draw_cut_points_two_cities():
    assert draw_cut_points(2, RngStream(1)) == (0, 1)


# ---------------------------------------------------------------- OX

def test_ox_equal_parents_yield_the_parent():
    p = np.array([2, 0, 3, 1, 4])
    for cuts in [(0, 1), (1, 3), (0, 4), (3, 4)]:
        assert np.array_equal(crossover_ox(p, p, cuts), p)


def test_ox_hand_trace():
    # keep p1[2..4]; p2 scanned cyclically from index 5 is 4,2,0,1,3,5,7,6;
    # skipping {2,3,4} leaves 0,1,5,7,6 for positions 5,6,7,0,1.
    child = crossover_ox([0, 1, 2, 3, 4, 5, 6, 7], [1, 3, 5, 7, 6, 4, 2, 0], (2, 4))
    assert child.tolist() == [7, 6, 2, 3, 4, 0, 1, 5]


def test_ox_whole_tour_segment_copies_first_parent():
    n = 7
    p1 = np.arange(n)
    p2 = p1[::-1].copy()
    assert np.array_equal(crossover_ox(p1, p2, (0, n - 1)), p1)


def test_ox_child_keeps_segment_and_city_multiset():
    rng = RngStream(50)
    for _ in range(300):
        n = rng.randint(2, 12)
        p1, p2 = rng.permutation(n), rng.permutation(n)
        c1, c2 = draw_cut_points(n, rng)
        child = crossover_ox(p1, p2, (c1, c2))
        assert np.array_equal(child[c1:c2 + 1], p1[c1:c2 + 1])
        assert is_permutation(child, n)


def test_ox_rejects_mismatched_parents():
    with pytest.raises(ValueError, match="differ in size"):
        crossover_ox([0, 1, 2], [1, 0])


def test_ox_rejects_bad_cuts():
    with pytest.raises(ValueError):
        crossover_ox([0, 1, 2], [2, 1, 0], (1, 1))
    with pytest.raises(ValueError):
        crossover_ox([0, 1, 2], [2, 1, 0], (2, 1))
    with pytest.raises(ValueError):
        crossover_ox([0, 1, 2], [2, 1, 0], (0, 3))
    with pytest.raises(ValueError):
        crossover_ox([0, 1, 2], [2, 1, 0])  # no cuts and no rng


# ---------------------------------------------------------------- roulette

def _pool(lengths):
    n = len(lengths)
    tours = np.tile(np.arange(3), (n, 1))
    return Population(tours, np.array(lengths, dtype=np.int64))


def test_roulette_pool_of_one_always_picks_it():
    pool = _pool([120])
    rng = RngStream(6)
    assert all(select_roulette(pool, rng) == 0 for _ in range(50))


def test_roulette_equal_lengths_split_evenly():
    pool = _pool([250, 250])
    rng = RngStream(7)
    draws = 100_000
    ones = sum(select_roulette(pool, rng) for _ in range(draws))
    sigma = (0.25 / draws) ** 0.5
    assert abs(ones / draws - 0.5) < 3 * sigma


def test_roulette_inverse_length_proportions():
    # lengths (100, 300): fitness ratio 3:1, so probabilities (0.75, 0.25).
    pool = _pool([100, 300])
    rng = RngStream(8)
    draws = 100_000
    zeros = sum(1 for _ in range(draws) if select_roulette(pool, rng) == 0)
    sigma = (0.75 * 0.25 / draws) ** 0.5
    assert abs(zeros / draws - 0.75) < 3 * sigma


def test_roulette_matches_fitness_distribution_chi_square():
    lengths = [80, 120, 200, 350, 500]
    pool = _pool(lengths)
    probs = fitness_of(np.array(lengths))
    probs = probs / probs.sum()
    rng = RngStream(9)
    draws = 100_000
    counts = np.zeros(len(lengths))
    for _ in range(draws):
        counts[select_roulette(pool, rng)] += 1
    expected = probs * draws
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 18.47  # dof=4, alpha=0.001


def test_roulette_requires_cached_lengths():
    pool = Population(np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="evaluate"):
        select_roulette(pool, RngStream(1))


def test_wheel_index_batch_matches_scalar():
    cum = np.cumsum(fitness_of(np.array([100, 150, 300, 900])))
    us = RngStream(10).random_array(1000)
    batch = wheel_index(cum, us)
    singles = [int(wheel_index(cum, float(u))) for u in us]
    assert batch.tolist() == singles


# ---------------------------------------------------------------- variation

def _evaluated_population(seed, size, dm):
    pop = init_population(GaConfig(population_size=size), dm.shape[0], RngStream(seed))
    return evaluate(pop, dm)


def test_variation_disabled_yields_copies(berlin52_dm):
    pop = _evaluated_population(60, 12, berlin52_dm)
    cfg = GaConfig(population_size=12, crossover_rate=0.0, mutation_rate=0.0,
                   mutation_operator="PSM")
    children = variation(pop, cfg, berlin52_dm, RngStream(61))
    originals = {tuple(t) for t in pop.tours}
    assert all(tuple(c) in originals for c in children.tours)
    assert not children.evaluated


def test_variation_replays(berlin52_dm):
    pop = _evaluated_population(62, 10, berlin52_dm)
    cfg = GaConfig(population_size=10)
    a = variation(pop, cfg, berlin52_dm, RngStream(63))
    b = variation(pop, cfg, berlin52_dm, RngStream(63))
    assert np.array_equal(a.tours, b.tours)


@pytest.mark.parametrize("operator", ["RSM", "PSM", "HPRM"])
def test_variation_children_are_permutations(berlin52_dm, operator):
    pop = _evaluated_population(64, 15, berlin52_dm)
    cfg = GaConfig(population_size=15, mutation_operator=operator)
    children = variation(pop, cfg, berlin52_dm, RngStream(65))
    assert children.size == 15
    assert all(is_permutation(t, 52) for t in children.tours)


def test_variation_requires_evaluated_population(berlin52_dm):
    pop = init_population(GaConfig(population_size=5), 52, RngStream(66))
    with pytest.raises(ValueError, match="evaluated"):
        variation(pop, GaConfig(population_size=5), berlin52_dm, RngStream(67))


def test_variation_rejects_a_matrix_of_another_size(berlin52_dm):
    pop = _evaluated_population(68, 5, berlin52_dm)
    with pytest.raises(ValueError, match="^population dimension 52 does not match matrix size 3$"):
        variation(pop, GaConfig(population_size=5), np.zeros((3, 3), np.int64), RngStream(69))


def _variation_one_child_at_a_time(pop, cfg, rng):
    """variation written out with the public single-tour operators."""
    size = pop.size
    cum = np.cumsum(fitness_of(pop.lengths))
    parents = wheel_index(cum, rng.random_array(2 * size))
    crossed = rng.random_array(size) < cfg.crossover_rate
    children = []
    for child in range(size):
        p1, p2 = pop.tours[parents[2 * child]], pop.tours[parents[2 * child + 1]]
        t = crossover_ox(p1, p2, rng=rng) if crossed[child] else p1.copy()
        if cfg.mutation_operator == "RSM":
            t = mutate_rsm(t, rng=rng)
        elif cfg.mutation_operator == "PSM":
            t = mutate_psm(t, cfg.mutation_rate, rng)
        else:
            t = mutate_hprm(t, cfg.mutation_rate, rng=rng)
        children.append(t)
    return np.stack(children)


@pytest.mark.parametrize("operator", ["RSM", "PSM", "HPRM"])
@pytest.mark.parametrize("pm", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("seed", [70, 71, 72, 73, 74])
def test_variation_equals_single_tour_operators(berlin52_dm, operator, pm, seed):
    # One implementation: a generation equals the public operators applied
    # child by child on the same stream, which both leave at the same point.
    pop = _evaluated_population(seed, 20, berlin52_dm)
    cfg = GaConfig(population_size=20, crossover_rate=0.7, mutation_rate=pm,
                   mutation_operator=operator)
    batched, manual = RngStream(seed), RngStream(seed)
    children = variation(pop, cfg, berlin52_dm, batched)
    assert np.array_equal(children.tours, _variation_one_child_at_a_time(pop, cfg, manual))
    assert batched._gen.bit_generator.state == manual._gen.bit_generator.state


def test_variation_rsm_applied_to_every_child(berlin52_dm):
    # RSM takes no probability: every child gets one reversal, consuming
    # exactly one point draw per child and no mutation gate draws.
    pop = _evaluated_population(69, 3, berlin52_dm)
    cfg = GaConfig(population_size=3, crossover_rate=0.0, mutation_rate=0.0,
                   mutation_operator="RSM")
    # parent draws of 0.0 pick index 0; gates 0.9 skip crossover; point
    # rank 1 unranks to (a, b) = (0, 1) for every child.
    rng = ScriptedRng(reals=[0.0] * 6 + [0.9] * 3, ints=[1, 1, 1])
    children = variation(pop, cfg, berlin52_dm, rng)
    expected = pop.tours[0].copy()
    expected[[0, 1]] = expected[[1, 0]]
    assert all(np.array_equal(c, expected) for c in children.tours)
    assert rng.exhausted()


# ---------------------------------------------------------------- array plan

def _isqrt_pair(n, r, strict):
    """The unranking as math.isqrt computes it."""
    rows = n - 1 if strict else n
    rev = rows * (rows + 1) // 2 - 1 - r
    k = (math.isqrt(8 * rev + 1) - 1) // 2
    return rows - 1 - k, n - 1 - (rev - k * (k + 1) // 2)


@pytest.mark.parametrize("strict", [False, True])
def test_unranking_equals_isqrt_for_every_rank_up_to_300(strict):
    # isqrt of every integer up to the largest 8 * rev + 1, as a table.
    roots = np.repeat(np.arange(603), 2 * np.arange(603) + 1)
    assert [int(roots[x]) for x in (0, 3, 4, 361_201)] == [0, 1, 2, math.isqrt(361_201)]
    for n in range(1 + strict, 301):
        rows = n - strict
        r = np.arange(rows * (rows + 1) // 2)
        rev = r[::-1]
        k = (roots[8 * rev + 1] - 1) // 2
        first, second = _unrank_pairs(n, r, strict)
        assert np.array_equal(first, rows - 1 - k)
        assert np.array_equal(second, n - 1 - (rev - k * (k + 1) // 2))


@pytest.mark.parametrize("n", [5000, 10**6])
@pytest.mark.parametrize("strict", [False, True])
def test_unranking_equals_isqrt_at_the_ends_of_large_ranges(n, strict):
    count = (n - strict) * (n - strict + 1) // 2
    ranks = np.r_[0:10_000, count - 10_000:count]
    expected = [_isqrt_pair(n, int(r), strict) for r in ranks]
    first, second = _unrank_pairs(n, ranks, strict)
    assert list(zip(first.tolist(), second.tolist())) == expected
    assert [_unrank_pairs(n, int(r), strict) for r in ranks[::97]] == expected[::97]


def _block_end(rng):
    blk = rng._block
    return blk.pos, blk.q, blk.has_half, blk.half


def _assert_same_plan(array_plan, scalar_plan):
    names = ("cuts", "points", "rows", "swap_i", "swap_j")
    for name, got, want in zip(names, array_plan, scalar_plan):
        got = np.asarray(got, dtype=np.intp)
        assert np.array_equal(got, np.array(want, dtype=np.intp).reshape(-1, *got.shape[1:])), name


@pytest.mark.parametrize("operator", ["RSM", "PSM", "HPRM"])
@pytest.mark.parametrize("pm", [0.0, 0.05, 0.3, 1.0])
@pytest.mark.parametrize("crossover_rate", [0.0, 0.7, 1.0])
def test_array_plan_equals_scalar_plan(operator, pm, crossover_rate):
    # At n=2 a cut's span is 0, so it takes no half-word. A 1-word block
    # grows on the first draws after the gates.
    for n, buffered in itertools.product([2, 3, 52, 200, 2000], [False, True]):
        size = 6 if n == 2000 else 20
        seed = n + 7 * buffered
        array_rng, scalar_rng = RngStream(seed), RngStream(seed)
        if buffered:  # leaves the high half-word buffered
            assert array_rng.randint(0, 9) == scalar_rng.randint(0, 9)
        with array_rng.block(1), scalar_rng.block(1):
            crossed = array_rng.random_array(size) < crossover_rate
            assert np.array_equal(crossed, scalar_rng.random_array(size) < crossover_rate)
            array_plan = _plan_block(n, operator, pm, crossed, array_rng)
            scalar_plan = _plan(n, operator, pm, crossed.tolist(), scalar_rng)
            _assert_same_plan(array_plan, scalar_plan)
            assert _block_end(array_rng) == _block_end(scalar_rng), (n, buffered)
        assert array_rng._gen.bit_generator.state == scalar_rng._gen.bit_generator.state
    if pm == 0.05 and crossover_rate == 0.7:
        # Whole generations on one stream (parents, gates, plan), blocks sized
        # as variation sizes them. At pop 10 HPRM's walk grows the block in
        # about one generation in seven; PSM's and RSM's draws fit it.
        for n in [52, 200]:
            array_rng, scalar_rng = RngStream(n), RngStream(n)
            swap_draws = _swap_draws(operator, n, pm, 2 * n // 5)
            words = 10 * (4 + swap_draws) + math.ceil(10 * swap_draws * pm)
            grown = 0
            for generation in range(200):
                with array_rng.block(words), scalar_rng.block(words):
                    assert np.array_equal(array_rng.random_array(20), scalar_rng.random_array(20))
                    crossed = array_rng.random_array(10) < crossover_rate
                    assert np.array_equal(crossed, scalar_rng.random_array(10) < crossover_rate)
                    array_plan = _plan_block(n, operator, pm, crossed, array_rng)
                    scalar_plan = _plan(n, operator, pm, crossed.tolist(), scalar_rng)
                    _assert_same_plan(array_plan, scalar_plan)
                    assert _block_end(array_rng) == _block_end(scalar_rng), (n, generation)
                    grown += array_rng._block.raw.size > words
                assert array_rng._gen.bit_generator.state == scalar_rng._gen.bit_generator.state
            assert (0 < grown < 200) == (operator == "HPRM")


def test_walk_draws_each_cut_and_point_with_one_randint(monkeypatch):
    # The walk draws a crossed child's cut, and an HPRM child's points, with
    # one RngStream.randint call each, in child order, and nothing else.
    # At n=52 no draw of these seeds meets a rejection.
    calls = []
    randint = RngStream.randint
    monkeypatch.setattr(RngStream, "randint",
                        lambda rng, lo, hi: calls.append(hi) or randint(rng, lo, hi))
    n = 52
    cut, point = n * (n - 1) // 2 - 1, n * (n + 1) // 2 - 1
    for operator, seed in itertools.product(["PSM", "HPRM"], range(5)):
        rng = RngStream(seed)
        with rng.block(1):
            crossed = rng.random_array(100) < 0.9
            del calls[:]
            cuts, points, rows, _, _ = _plan_block(n, operator, 0.05, crossed, rng)
            q = rng._block.q
        hprm = operator == "HPRM"
        expected = [span for cross in crossed.tolist() for span in [cut] * cross + [point] * hprm]
        assert calls == expected
        assert q == len(expected) + len(rows)  # one half-word each: no rejection
        assert len(cuts) == crossed.sum() and len(points) == hprm * 100


@pytest.mark.parametrize("n", [92_681, 92_682])
def test_array_plan_leaves_points_of_32_bits_to_the_scalar_plan(monkeypatch, n):
    # From n = 92,682 a point's span passes 2**32 - 1 and takes full words,
    # so a run of half-words cannot serve it. The calls of bounded_at are
    # counted: a run over such spans would wrap its threshold, reject early
    # and reach the scalar plan by luck.
    calls = []
    bounded_at = _RawBlock.bounded_at
    monkeypatch.setattr(_RawBlock, "bounded_at",
                        lambda blk, qs, spans: calls.append(n) or bounded_at(blk, qs, spans))
    for operator, pm, buffered in itertools.product(["RSM", "HPRM"], [0.0, 1e-4], [False, True]):
        array_rng, scalar_rng = RngStream(buffered), RngStream(buffered)
        if buffered:  # leaves the high half-word buffered
            assert array_rng.randint(0, 9) == scalar_rng.randint(0, 9)
        with array_rng.block(1), scalar_rng.block(1):
            crossed = array_rng.random_array(5) < 0.5
            assert np.array_equal(crossed, scalar_rng.random_array(5) < 0.5)
            array_plan = _plan_block(n, operator, pm, crossed, array_rng)
            _assert_same_plan(array_plan, _plan(n, operator, pm, crossed.tolist(), scalar_rng))
            assert _block_end(array_rng) == _block_end(scalar_rng), (operator, pm, buffered)
        assert array_rng._gen.bit_generator.state == scalar_rng._gen.bit_generator.state
    assert bool(calls) == (n < 92_682)


class _Words:
    """Bit generator stand-in for _RawBlock: fixed raw words, served in order."""

    def __init__(self, words):
        self.words = words
        self.used = 0

    def random_raw(self, k):
        self.used += k
        return self.words[self.used - k:self.used].copy()


class _LoggedStream(RngStream):
    """A stream that logs each integer draw's range and where its first half-word sits."""

    def randint(self, lo, hi):
        blk = self._block
        self.log.append((hi, blk.half_at if blk.has_half else 2 * blk.pos))
        return super().randint(lo, hi)


def _on_words(words, buffered, half, stream=RngStream):
    """A stream drawing from a block of the given raw words, as inside its block()."""
    rng = stream(0)
    rng._block = _RawBlock(_Words(words), 1, buffered, half)
    return rng


REJECT_N, REJECT_SIZE = 52, 20
REJECT_CROSSED = np.random.default_rng(3).random(REJECT_SIZE) < 0.7
REJECT_WORDS = np.random.default_rng(11).integers(0, 2**64, size=20_000, dtype=np.uint64)
REJECT_HALF = 0xDEADBEEF


def _craft_rejection(operator, kind, where, buffered):
    """Raw words and buffered half in which one draw's first half-word is 0.

    The draw is the first of the given kind (cut, point or partner) of the
    first, a middle or the last child that makes one. A half-word of 0
    leaves 0 < threshold, so Lemire's method rejects it.
    """
    n = REJECT_N
    his = {"cut": n * (n - 1) // 2 - 1, "point": n * (n + 1) // 2 - 1, "partner": n - 1}
    assert (1 << 32) % (his[kind] + 1), "this range never rejects"
    rng = _on_words(REJECT_WORDS, buffered, REJECT_HALF, _LoggedStream)
    rng.log = []
    plan = _plan(n, operator, 0.3, REJECT_CROSSED.tolist(), rng)
    firsts = [q for hi, q in rng.log if hi == his[kind]]
    owners = {
        "cut": np.flatnonzero(REJECT_CROSSED).tolist(),
        "point": list(range(REJECT_SIZE)),
        "partner": plan[2],
    }[kind]
    children = sorted(set(owners))
    child = {"first": children[0], "middle": children[len(children) // 2], "last": children[-1]}[where]
    at = firsts[owners.index(child)]
    words, half = REJECT_WORDS.copy(), REJECT_HALF
    if at < 0:
        half = 0
    else:
        words[at // 2] &= np.uint64(0xFFFFFFFF << 32 if at % 2 == 0 else 0xFFFFFFFF)
    return words, half


@pytest.mark.parametrize("operator,kind", [
    ("RSM", "cut"), ("RSM", "point"), ("PSM", "cut"), ("PSM", "partner"),
    ("HPRM", "cut"), ("HPRM", "point"), ("HPRM", "partner"),
])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("buffered", [False, True])
def test_array_plan_resolves_every_rejection(operator, kind, where, buffered):
    # Cuts and points rejected in the walk (PSM, HPRM) are redrawn on the
    # spot; a rejected cut or point in a run of half-words (RSM) or a
    # rejected partner sends the whole generation back to the scalar plan.
    words, half = _craft_rejection(operator, kind, where, buffered)
    array_rng, scalar_rng = _on_words(words, buffered, half), _on_words(words, buffered, half)
    array_plan = _plan_block(REJECT_N, operator, 0.3, REJECT_CROSSED, array_rng)
    scalar_plan = _plan(REJECT_N, operator, 0.3, REJECT_CROSSED.tolist(), scalar_rng)
    _assert_same_plan(array_plan, scalar_plan)
    assert _block_end(array_rng) == _block_end(scalar_rng)


@pytest.fixture
def rejections(monkeypatch):
    """Counts the Lemire rejections that _RawBlock's draws meet."""
    seen = []
    bounded, bounded_at = _RawBlock.bounded, _RawBlock.bounded_at

    def counted_bounded(self, span):
        q = self.q
        value = bounded(self, span)
        if self.q - q > 1:
            seen.append(span)
        return value

    def counted_bounded_at(self, qs, spans):
        values, bad = bounded_at(self, qs, spans)
        if bad < len(qs):
            seen.append(int(np.broadcast_to(spans, len(qs))[bad]))
        return values, bad

    monkeypatch.setattr(_RawBlock, "bounded", counted_bounded)
    monkeypatch.setattr(_RawBlock, "bounded_at", counted_bounded_at)
    return seen


# At n=5000 a cut or point draw rejects with about 0.15-0.19 % chance and a
# partner draw with 0.00005 %. Each seed below was chosen because its
# generation meets a real rejection of the named draw.
@pytest.mark.parametrize("operator,seed,kind", [
    ("RSM", 66, "cut"), ("RSM", 71, "point"),
    ("PSM", 156, "cut"), ("PSM", 183, "partner"),
    ("HPRM", 99, "cut"), ("HPRM", 36, "point"), ("HPRM", 2173, "partner"),
])
def test_variation_at_5000_cities_through_a_rejection(rejections, operator, seed, kind):
    n, size = 5000, 10
    gen = np.random.default_rng(0)
    pop = Population(np.stack([gen.permutation(n) for _ in range(size)]),
                     gen.integers(1_000_000, 2_000_000, size))
    cfg = GaConfig(population_size=size, crossover_rate=0.9, mutation_operator=operator)
    batched, manual = RngStream(seed), RngStream(seed)
    children = variation(pop, cfg, np.broadcast_to(np.int64(0), (n, n)), batched)
    spans = {"cut": n * (n - 1) // 2 - 1, "point": n * (n + 1) // 2 - 1, "partner": n - 1}
    assert spans[kind] in rejections
    assert np.array_equal(children.tours, _variation_one_child_at_a_time(pop, cfg, manual))
    assert batched._gen.bit_generator.state == manual._gen.bit_generator.state


@pytest.mark.parametrize("operator", ["RSM", "PSM", "HPRM"])
@pytest.mark.parametrize("n", [52, 5000])
def test_variation_children_do_not_depend_on_the_tour_dtype(operator, n):
    # Crossover runs in blocks of 128 KiB of tour rows: at 5000 cities int64
    # rows take 3 to a block and int16 rows 13, so the 20 children cross in
    # 7 blocks and in 2.
    size = 20
    gen = np.random.default_rng(n)
    tours = np.stack([gen.permutation(n) for _ in range(size)])
    lengths = gen.integers(1_000_000, 2_000_000, size)
    cfg = GaConfig(population_size=size, crossover_rate=0.9, mutation_operator=operator)
    dm = np.broadcast_to(np.int64(0), (n, n))
    wide, narrow = RngStream(n), RngStream(n)
    children = variation(Population(tours, lengths), cfg, dm, wide)
    narrowed = variation(Population(tours.astype(np.int16), lengths), cfg, dm, narrow)
    assert narrowed.tours.dtype == np.int16
    assert np.array_equal(narrowed.tours, children.tours)
    assert wide._gen.bit_generator.state == narrow._gen.bit_generator.state
