"""GaConfig validation, tour sampling, evaluation, fitness."""

import numpy as np
import pytest

import tspga.data
from tspga import (
    GaConfig,
    Population,
    RngStream,
    evaluate,
    fitness_of,
    init_population,
    is_permutation,
    load_tour,
    normalize_operator,
    random_tour,
    tour_length,
)


def test_gaconfig_defaults():
    cfg = GaConfig()
    assert cfg.population_size == 100
    assert cfg.max_generations == 1000
    assert cfg.crossover_rate == 0.9
    assert cfg.mutation_rate == 0.05
    assert cfg.elitism_count == 1
    assert cfg.mutation_operator == "HPRM"


def test_gaconfig_normalizes_operator_case():
    assert GaConfig(mutation_operator="rsm").mutation_operator == "RSM"
    assert normalize_operator("pSm") == "PSM"
    with pytest.raises(ValueError, match="unknown mutation operator"):
        GaConfig(mutation_operator="swap")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"population_size": 0},
        {"max_generations": -1},
        {"crossover_rate": 1.5},
        {"crossover_rate": -0.1},
        {"mutation_rate": 2.0},
        {"elitism_count": -1},
        {"elitism_count": 100},  # must stay strictly below population_size
    ],
)
def test_gaconfig_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        GaConfig(**kwargs)


def test_gaconfig_allows_degenerate_sizes():
    assert GaConfig(population_size=1, elitism_count=0).population_size == 1
    assert GaConfig(max_generations=0).max_generations == 0


def test_random_tour_two_cities_hits_both_orders():
    rng = RngStream(3)
    seen = {tuple(random_tour(2, rng)) for _ in range(200)}
    assert seen == {(0, 1), (1, 0)}


def test_random_tour_requires_two_cities():
    with pytest.raises(ValueError):
        random_tour(1, RngStream(0))


def test_random_tour_replays():
    assert np.array_equal(random_tour(5, RngStream(12)), random_tour(5, RngStream(12)))


def test_random_tour_uniform_over_permutations():
    # n=4: all 24 orders should appear uniformly; chi-square at 1e5 draws
    # with a pinned seed, plus a 3-sigma per-cell band.
    rng = RngStream(2024)
    samples = 100_000
    counts = {}
    for _ in range(samples):
        key = tuple(random_tour(4, rng))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    expected = samples / 24
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 49.73  # dof=23, alpha=0.001
    sigma = (expected * (1 - 1 / 24)) ** 0.5
    assert all(abs(c - expected) < 3 * sigma for c in counts.values())


def test_init_population_size_one():
    cfg = GaConfig(population_size=1, elitism_count=0)
    pop = init_population(cfg, 6, RngStream(1))
    assert pop.size == 1
    assert is_permutation(pop.tours[0], 6)


def test_init_population_replays():
    cfg = GaConfig(population_size=10)
    a = init_population(cfg, 8, RngStream(5))
    b = init_population(cfg, 8, RngStream(5))
    assert np.array_equal(a.tours, b.tours)


def test_init_population_all_valid_permutations():
    cfg = GaConfig(population_size=50)
    pop = init_population(cfg, 52, RngStream(77))
    assert pop.size == 50
    assert pop.lengths is None
    assert all(is_permutation(t, 52) for t in pop.tours)


def test_evaluate_triangle(triangle_dm):
    pop = Population(np.array([[0, 1, 2]]))
    evaluate(pop, triangle_dm)
    assert pop.lengths.tolist() == [12]


def test_evaluate_is_idempotent(triangle_dm):
    pop = Population(np.array([[0, 1, 2], [2, 1, 0]]))
    evaluate(pop, triangle_dm)
    first = pop.lengths
    again = evaluate(pop, triangle_dm)
    assert again is pop
    assert again.lengths is first


def test_evaluate_berlin52_optimum(berlin52_dm):
    opt = load_tour(tspga.data.BERLIN52_OPT_TOUR)
    pop = Population(np.stack([opt, np.arange(52)]))
    evaluate(pop, berlin52_dm)
    assert pop.lengths[0] == 7542


def test_evaluate_dimension_mismatch(triangle_dm):
    with pytest.raises(ValueError, match="does not match"):
        evaluate(Population(np.array([[0, 1, 2, 3]])), triangle_dm)


def test_length_cache_coherent(berlin52_dm):
    rng = RngStream(8)
    pop = init_population(GaConfig(population_size=20), 52, rng)
    evaluate(pop, berlin52_dm)
    for tour, cached in zip(pop.tours, pop.lengths):
        assert cached == tour_length(berlin52_dm, tour)


def test_population_validates_shape():
    with pytest.raises(ValueError):
        Population(np.empty((0, 5), dtype=int))
    with pytest.raises(ValueError):
        Population(np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        Population(np.array([[0.5, 1.5]]))
    with pytest.raises(ValueError):
        Population(np.array([[0, 1, 2]]), lengths=np.array([1, 2]))


def test_population_copy_is_independent(triangle_dm):
    pop = evaluate(Population(np.array([[0, 1, 2]])), triangle_dm)
    dup = pop.copy()
    dup.tours[0, 0] = 2
    dup.tours[0, 2] = 0
    dup.lengths[0] = 999
    assert pop.tours[0].tolist() == [0, 1, 2]
    assert pop.lengths[0] == 12


def test_fitness_of_values():
    assert fitness_of(7542) == 1 / 7542
    assert fitness_of(100) > fitness_of(300)
    assert fitness_of(250) == fitness_of(250)


def test_fitness_of_accepts_arrays():
    out = fitness_of(np.array([100, 300]))
    assert np.allclose(out, [0.01, 1 / 300])


def test_fitness_of_rejects_nonpositive():
    with pytest.raises(ValueError):
        fitness_of(0)
    with pytest.raises(ValueError):
        fitness_of(np.array([10, 0]))
