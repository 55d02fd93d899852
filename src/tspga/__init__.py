"""Genetic-algorithm toolkit for the symmetric TSP.

Permutation chromosomes over TSPLIB EUC_2D instances; RSM, PSM and HPRM
mutations with OX crossover and roulette selection; an elitist generational
loop; and a paired experiment harness that compares the mutation operators
over shared initial populations with fully replayable randomness.
"""

import types as _types

from .experiment import (
    ComparisonReport,
    ExperimentConfig,
    OperatorSummary,
    SummaryStats,
    emit_convergence_csv,
    format_summary_table,
    generations_to_best,
    run_cell,
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

# Every public name bound above that is not a submodule, so the imports are the one list.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
