"""Genetic-algorithm toolkit for the symmetric TSP.

Permutation chromosomes over TSPLIB EUC_2D instances; RSM, PSM and HPRM
mutations with OX crossover and roulette selection; an elitist generational
loop; and a paired experiment harness that compares the mutation operators
over shared initial populations with fully replayable randomness.
"""

from .experiment import (
    ComparisonReport,
    ExperimentConfig,
    OperatorSummary,
    SummaryStats,
    emit_convergence_csv,
    format_summary_table,
    generations_to_best,
    run_comparison,
    summarize,
)
from .ga import RunResult, TraceRecord, evolve
from .operators import (
    crossover_ox,
    draw_cut_points,
    draw_mutation_points,
    mutate_hprm,
    mutate_psm,
    mutate_rsm,
    select_roulette,
    variation,
    wheel_index,
)
from .population import (
    MUTATION_OPERATORS,
    GaConfig,
    Population,
    evaluate,
    fitness_of,
    init_population,
    normalize_operator,
    random_tour,
)
from .rng import RngStream, derive_stream
from .tsplib import (
    Instance,
    InvalidTourError,
    TsplibParseError,
    build_distance_matrix,
    closed_tour_length,
    is_permutation,
    load_instance,
    load_tour,
    parse_instance,
    parse_tour,
    render_tour,
    tour_length,
    tour_lengths,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ExperimentConfig",
    "GaConfig",
    "Instance",
    "InvalidTourError",
    "MUTATION_OPERATORS",
    "OperatorSummary",
    "Population",
    "RngStream",
    "RunResult",
    "SummaryStats",
    "TraceRecord",
    "TsplibParseError",
    "build_distance_matrix",
    "closed_tour_length",
    "crossover_ox",
    "derive_stream",
    "draw_cut_points",
    "draw_mutation_points",
    "emit_convergence_csv",
    "evaluate",
    "evolve",
    "fitness_of",
    "format_summary_table",
    "generations_to_best",
    "init_population",
    "is_permutation",
    "load_instance",
    "load_tour",
    "mutate_hprm",
    "mutate_psm",
    "mutate_rsm",
    "normalize_operator",
    "parse_instance",
    "parse_tour",
    "random_tour",
    "render_tour",
    "run_comparison",
    "select_roulette",
    "summarize",
    "tour_length",
    "tour_lengths",
    "variation",
    "wheel_index",
]
