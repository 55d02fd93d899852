"""The generational loop: variation, evaluation, elitist roulette selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import _wheel, variation, wheel_index
from .population import GaConfig, Population, evaluate
from .rng import RngStream


@dataclass(frozen=True)
class TraceRecord:
    """One generation's convergence snapshot.

    best_so_far is the best length ever observed, initial population
    included. gen_best and gen_mean describe that generation's offspring
    (the freshly varied population, before selection), so they show what
    variation produced rather than echoing the elitist best.
    """

    generation: int
    best_so_far: int
    gen_best: int
    gen_mean: float


@dataclass
class RunResult:
    """Outcome of one evolutionary run."""

    best_tour: np.ndarray
    best_length: int
    trace: tuple[TraceRecord, ...]
    generations_run: int


def evolve(cfg: GaConfig, dm: np.ndarray, initial: Population, rng: RngStream) -> RunResult:
    """Run exactly max_generations generations from an initial population.

    Each generation: variation produces population_size children, the
    children are evaluated, then the next population is selected from the
    merged 2N pool of children and parents: the elitism_count best pool
    members are copied first (stable order, children before parents on
    ties), the remainder drawn by roulette over the whole pool with
    replacement. The initial population is left untouched; the best tour
    ever observed is returned. With max_generations = 0 the trace is empty
    and the result is the best of the initial population.

    The generations run on a copy of the initial tours in int16 up to 32,768
    cities and in int32 beyond, since a generation's crossover, mutation and
    selection traffic scales with the tours' bytes; best_tour comes back in
    the initial tours' dtype.
    """
    if initial.size != cfg.population_size:
        raise ValueError(
            f"initial population has {initial.size} members, config says {cfg.population_size}"
        )
    # Evaluating fills only this container's lengths.
    pop = evaluate(Population(initial.tours, initial.lengths), dm)
    narrow = np.int16 if pop.dimension <= 2**15 else np.int32  # holds every index below n
    pop = Population(pop.tours.astype(narrow), pop.lengths)

    best_idx = int(pop.lengths.argmin())
    best_tour = pop.tours[best_idx].copy()
    best_length = int(pop.lengths[best_idx])

    trace = []
    for gen in range(1, cfg.max_generations + 1):
        children = variation(pop, cfg, rng)
        lengths = evaluate(children, dm).lengths

        gen_best_idx = int(lengths.argmin())
        gen_best = int(lengths[gen_best_idx])
        if gen_best < best_length:
            best_length = gen_best
            best_tour = children.tours[gen_best_idx].copy()
        # np.mean's value: the float64 pairwise sum divided by the count.
        gen_mean = float(np.add.reduce(lengths, dtype=np.float64) / lengths.size)
        trace.append(TraceRecord(gen, best_length, gen_best, gen_mean))

        merged_tours = np.concatenate((children.tours, pop.tours))
        merged_lengths = np.concatenate((lengths, pop.lengths))
        # GaConfig keeps elitism_count below population_size, so one member at least is drawn.
        drawn = cfg.population_size - cfg.elitism_count
        sel = wheel_index(_wheel(merged_lengths), rng.random_array(drawn))
        if cfg.elitism_count:
            sel = np.concatenate((merged_lengths.argsort(kind="stable")[:cfg.elitism_count], sel))
        pop = Population(merged_tours[sel], merged_lengths[sel])

    best_tour = best_tour.astype(initial.tours.dtype)
    return RunResult(best_tour, best_length, tuple(trace), cfg.max_generations)
