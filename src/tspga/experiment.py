"""Paired operator comparison: shared initial populations, shared streams.

The harness generates `runs` initial populations once, then evolves every
operator arm from a fresh copy of each, giving run k of every arm the same
evolution stream. Arms therefore differ only in the mutation operator, which
makes the comparison paired rather than merely same-budget.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .ga import RunResult, evolve
from .population import GaConfig, Population, evaluate, init_population, normalize_operator
from .rng import derive_stream
from .tsplib import Instance, build_distance_matrix, load_instance

# Stream family tags: keep init streams and evolve streams from ever sharing
# a derivation key, whatever the run index.
_INIT_STREAM = 0
_EVOLVE_STREAM = 1

CSV_HEADER = "operator,run,generation,best_so_far,gen_best,gen_mean"
CONVERGENCE_CSV = "convergence.csv"
REPORT_JSON = "report.json"


@dataclass(frozen=True)
class ExperimentConfig:
    """A full comparison: which operators, how many paired runs, where to.

    ga is the template configuration; its mutation_operator is overridden
    per arm, and all streams derive from root_seed.
    Run indices are 0-based and are the stream-derivation keys, so any
    reported run can be replayed from (root_seed, run) alone, by run_cell.
    """

    ga: GaConfig
    operators: tuple[str, ...]
    instance_path: str
    output_dir: str
    root_seed: int
    runs: int = 50
    jobs: int = 1

    def __post_init__(self):
        ops = tuple(normalize_operator(op) for op in self.operators)
        if not ops:
            raise ValueError("operators must be nonempty")
        if len(set(ops)) != len(ops):
            raise ValueError(f"duplicate operator in {ops}")
        object.__setattr__(self, "operators", ops)
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if not 0 <= self.root_seed < 2**64:
            raise ValueError("root_seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class SummaryStats:
    """Descriptive statistics of one arm's final best lengths."""

    best: int
    worst: int
    mean: float
    stddev: float


@dataclass(frozen=True, kw_only=True)
class OperatorSummary(SummaryStats):
    """One arm's statistics, its mean generations to best and every final best."""

    operator: str
    mean_generations_to_best: float
    final_bests: tuple[int, ...]


@dataclass(frozen=True)
class ComparisonReport:
    instance: str
    runs: int
    root_seed: int
    ga: GaConfig
    operators: tuple[OperatorSummary, ...]


def summarize(final_bests) -> SummaryStats:
    """Min, max, mean and sample standard deviation of one arm's results.

    The stddev uses the n-1 denominator and is defined as 0.0 for a single
    run. Empty input is a contract error.
    """
    values = np.asarray(final_bests)
    if values.size == 0:
        raise ValueError("cannot summarize an empty result list")
    stddev = 0.0 if values.size == 1 else float(np.std(values, ddof=1))
    return SummaryStats(
        best=int(values.min()),
        worst=int(values.max()),
        mean=float(values.mean()),
        stddev=stddev,
    )


def generations_to_best(result: RunResult, initial_best: int) -> int:
    """First generation whose best_so_far reached the run's final best.

    0 means the initial population already held the final best (the run
    never improved on it).
    """
    if result.best_length == initial_best:
        return 0
    for rec in result.trace:
        if rec.best_so_far == result.best_length:
            return rec.generation
    raise ValueError("trace never reaches the reported best length")


def emit_convergence_csv(results, path) -> None:
    """Write per-generation traces as CSV, sorted by (operator, run, generation).

    results maps (operator, run) to a trace (a sequence of TraceRecord).
    UTF-8, LF line endings, header first; re-emission of the same results
    is byte-identical.
    """
    if not results:
        raise ValueError("no traces to emit")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for operator, run in sorted(results):
            for rec in results[(operator, run)]:
                f.write(
                    f"{operator},{run},{rec.generation},"
                    f"{rec.best_so_far},{rec.gen_best},{rec.gen_mean!r}\n"
                )


@contextlib.contextmanager
def staged(path):
    """Yield the path to write path's new content to, checked on entry.

    A path that is missing or names a regular file is staged: the yielded
    path is a temporary next to the file path resolves to, with that file's
    mode, renamed onto it when the block completes and removed whatever
    happens. A failed block then leaves the file as it was, and a symlink
    to it stays a link. Any other path (a FIFO, a terminal, /dev/null), and
    a regular file whose directory takes no new file, is yielded as it is
    and held open for writing until the block ends; it is not truncated
    before the block writes it. Either way a path that cannot be written
    raises OSError on entry, before the block's work.
    """
    real = Path(os.path.realpath(path))
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    tmp = None
    if mode is None or stat.S_ISREG(mode):
        tmp = real.with_name(f".{real.name}.{os.getpid()}.tmp")
        try:
            tmp.touch()
        except OSError:
            if mode is None:  # no file to write in place
                raise
            tmp = None
    if tmp is None:
        with open(path, "a"):
            yield Path(path)
        return
    try:
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        yield tmp
        os.replace(tmp, real)
    finally:
        tmp.unlink(missing_ok=True)


def format_summary_table(report: ComparisonReport) -> str:
    """Fixed-width human-readable summary, one row per operator arm."""
    lines = [
        f"{'operator':<10}{'best':>8}{'worst':>8}{'mean':>12}{'stddev':>10}{'gens_to_best':>14}"
    ]
    for s in report.operators:
        lines.append(
            f"{s.operator:<10}{s.best:>8}{s.worst:>8}{s.mean:>12.2f}"
            f"{s.stddev:>10.2f}{s.mean_generations_to_best:>14.1f}"
        )
    return "\n".join(lines)


def _initial(cfg: ExperimentConfig, run: int, dm: np.ndarray) -> Population:
    """Run run's initial population, drawn from (root_seed, run) and scored."""
    return evaluate(init_population(cfg.ga, len(dm), derive_stream(cfg.root_seed, _INIT_STREAM, run)), dm)


def run_cell(
    cfg: ExperimentConfig, operator: str, run: int, dm: np.ndarray, initial: Population | None = None
) -> RunResult:
    """Evolve cell (operator, run) of cfg's comparison, as run_comparison does.

    dm is the distance matrix of cfg's instance. initial is the run's scored
    initial population; when omitted it is drawn and scored here. A run
    outside range(cfg.runs) or an unknown operator raises ValueError.
    """
    if run not in range(cfg.runs):
        raise ValueError(f"run {run} outside range({cfg.runs})")
    ga = replace(cfg.ga, mutation_operator=operator)
    if initial is None:
        initial = _initial(cfg, run, dm)
    return evolve(ga, dm, initial, derive_stream(cfg.root_seed, _EVOLVE_STREAM, run))


def _usable_cpus() -> int:
    """CPUs this process may run on; os.cpu_count() where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_comparison(cfg: ExperimentConfig, inst: Instance | None = None) -> ComparisonReport:
    """Run every operator arm over the shared initial populations.

    Writes convergence.csv and report.json into output_dir and returns the
    report. Identical configs produce byte-identical files; neither file
    carries wall-clock content. Both files are staged before any cell runs,
    so a path that cannot be written fails first, and renamed into place
    once both are complete, so a run that fails leaves the previous pair
    untouched. inst, when given, is the instance at instance_path, already
    loaded. Each cell is run_cell's, given its run's initial population.
    """
    if inst is None:
        inst = load_instance(cfg.instance_path)
    dm = build_distance_matrix(inst)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with staged(out_dir / CONVERGENCE_CSV) as csv_path, staged(out_dir / REPORT_JSON) as json_path:
        inits = [_initial(cfg, run, dm) for run in range(cfg.runs)]  # scored once for every arm
        cells = [(operator, run) for operator in cfg.operators for run in range(cfg.runs)]
        operators, runs = zip(*cells)
        # A pool starts all its workers at once, so it starts only when more than
        # one would run: never more than there are cells, nor CPUs to run them.
        workers = min(cfg.jobs, len(cells), _usable_cpus())
        with contextlib.ExitStack() as stack:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers)) if workers > 1 else None
            args = (repeat(cfg), operators, runs, repeat(dm), [inits[run] for run in runs])
            results = dict(zip(cells, pool.map(run_cell, *args) if pool else map(run_cell, *args)))

        summaries = []
        for operator in cfg.operators:
            finals = [results[(operator, run)].best_length for run in range(cfg.runs)]
            to_best = [
                generations_to_best(results[(operator, run)], int(inits[run].lengths.min()))
                for run in range(cfg.runs)
            ]
            summaries.append(
                OperatorSummary(
                    **asdict(summarize(finals)),
                    operator=operator,
                    mean_generations_to_best=float(np.mean(to_best)),
                    final_bests=tuple(finals),
                )
            )

        report = ComparisonReport(
            instance=inst.name,
            runs=cfg.runs,
            root_seed=cfg.root_seed,
            ga=cfg.ga,
            operators=tuple(summaries),
        )
        emit_convergence_csv({key: res.trace for key, res in results.items()}, csv_path)
        json_path.write_text(_report_json(report), encoding="utf-8")
    return report


def _report_json(report: ComparisonReport) -> str:
    doc = {
        "instance": report.instance,
        "runs": report.runs,
        "root_seed": report.root_seed,
        "config": {k: v for k, v in asdict(report.ga).items() if k != "mutation_operator"},
        "operators_order": list(op.operator for op in report.operators),
        "convergence_csv": CONVERGENCE_CSV,
        "operators": {
            s.operator: {k: v for k, v in asdict(s).items() if k != "operator"}
            for s in report.operators
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
