"""Run configuration, population container, and the fitness transform."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .tsplib import tour_lengths

MUTATION_OPERATORS = ("RSM", "PSM", "HPRM")


def normalize_operator(name: str) -> str:
    """Canonical uppercase operator name; unknown names raise ValueError."""
    op = str(name).upper()
    if op not in MUTATION_OPERATORS:
        known = ", ".join(MUTATION_OPERATORS)
        raise ValueError(f"unknown mutation operator {name!r} (expected one of {known})")
    return op


@dataclass(frozen=True)
class GaConfig:
    """Knobs for one evolutionary run.

    mutation_rate is the per-gene swap probability Pm used by PSM and by
    HPRM's interleaved swaps; RSM ignores it. elitism_count must stay below
    population_size, so a population of 1 requires elitism_count 0.
    """

    population_size: int = 100
    max_generations: int = 1000
    crossover_rate: float = 0.9
    mutation_rate: float = 0.05
    elitism_count: int = 1
    mutation_operator: str = "HPRM"

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be positive")
        if self.max_generations < 0:
            raise ValueError("max_generations must be non-negative")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError("elitism_count must lie in [0, population_size)")
        object.__setattr__(self, "mutation_operator", normalize_operator(self.mutation_operator))


@dataclass
class Population:
    """Tours as rows of a 2D integer array, plus an optional length cache.

    lengths stays None until evaluate fills it; whenever present it is
    parallel to tours (lengths[k] is the closed-tour length of row k).
    """

    tours: np.ndarray
    lengths: np.ndarray | None = None

    def __post_init__(self):
        tours = np.asarray(self.tours)
        if tours.ndim != 2 or tours.shape[0] == 0:
            raise ValueError("tours must be a nonempty 2D array, one tour per row")
        if not np.issubdtype(tours.dtype, np.integer):
            raise ValueError("tours must hold integer city indices")
        self.tours = tours
        if self.lengths is not None:
            lengths = np.asarray(self.lengths)
            if lengths.shape != (tours.shape[0],):
                raise ValueError("lengths must hold one entry per tour")
            self.lengths = lengths

    @property
    def size(self) -> int:
        return self.tours.shape[0]

    @property
    def dimension(self) -> int:
        return self.tours.shape[1]

    @property
    def evaluated(self) -> bool:
        return self.lengths is not None

    def copy(self) -> "Population":
        lengths = None if self.lengths is None else self.lengths.copy()
        return Population(self.tours.copy(), lengths)


def random_tour(n: int, rng: RngStream) -> np.ndarray:
    """Uniformly random city order over 0..n-1."""
    if n < 2:
        raise ValueError(f"a tour needs at least 2 cities, got {n}")
    return rng.permutation(n)


def init_population(cfg: GaConfig, n: int, rng: RngStream) -> Population:
    """population_size independent random tours; lengths left uncached."""
    tours = np.stack([random_tour(n, rng) for _ in range(cfg.population_size)])
    return Population(tours)


def evaluate(pop: Population, dm: np.ndarray) -> Population:
    """Fill the length cache from the distance matrix.

    Members are untouched and repeat calls are no-ops, so evaluating an
    already evaluated population is free.
    """
    if pop.dimension != dm.shape[0]:
        raise ValueError(
            f"population dimension {pop.dimension} does not match matrix size {dm.shape[0]}"
        )
    if pop.lengths is None:
        pop.lengths = tour_lengths(dm, pop.tours)
    return pop


def fitness_of(length):
    """Reciprocal tour length, the quantity roulette selection weights by.

    Shorter tours get proportionally more mass; equal lengths get equal
    fitness. Accepts a scalar or an array (elementwise); lengths must be
    positive.
    """
    arr = np.asarray(length)
    if np.any(arr <= 0):
        raise ValueError("tour length must be positive")
    inv = 1.0 / arr
    if arr.ndim == 0:
        return float(inv)
    return inv
