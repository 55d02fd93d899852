"""Paired operator comparison: shared initial populations, shared streams.

The harness generates `runs` initial populations once, then evolves every
operator arm from a fresh copy of each, giving run k of every arm the same
evolution stream. Arms therefore differ only in the mutation operator, which
makes the comparison paired rather than merely same-budget.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .ga import RunResult, evolve
from .population import GaConfig, evaluate, init_population, normalize_operator
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
    reported run can be replayed from (root_seed, run) alone.
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


def _run_cell(payload):
    """Evolve one (operator, run) cell; module-level so process pools can ship it."""
    operator, run, ga, dm, initial, root_seed = payload
    cfg = replace(ga, mutation_operator=operator)
    rng = derive_stream(root_seed, _EVOLVE_STREAM, run)
    return operator, run, evolve(cfg, dm, initial, rng)


def _usable_cpus() -> int:
    """CPUs this process may run on; os.cpu_count() where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_comparison(cfg: ExperimentConfig, inst: Instance | None = None) -> ComparisonReport:
    """Run every operator arm over the shared initial populations.

    Writes convergence.csv and report.json into output_dir and returns the
    report. Identical configs produce byte-identical files; neither file
    carries wall-clock content. Both files are written to temporaries in
    output_dir and renamed into place once both are complete, so a run that
    fails leaves the previous pair untouched. inst, when given, is the
    instance at instance_path, already loaded.
    """
    if inst is None:
        inst = load_instance(cfg.instance_path)
    dm = build_distance_matrix(inst)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    inits = []
    init_bests = []
    for run in range(cfg.runs):
        pop = init_population(cfg.ga, inst.dimension, derive_stream(cfg.root_seed, _INIT_STREAM, run))
        evaluate(pop, dm)
        inits.append(pop)
        init_bests.append(int(pop.lengths.min()))

    payloads = [
        (operator, run, cfg.ga, dm, inits[run], cfg.root_seed)
        for operator in cfg.operators
        for run in range(cfg.runs)
    ]
    results: dict[tuple[str, int], RunResult] = {}
    if cfg.jobs > 1:
        # A pool starts all its workers at once; never more than there are
        # cells, nor than there are CPUs to run them.
        workers = min(cfg.jobs, len(payloads), _usable_cpus())
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for operator, run, res in pool.map(_run_cell, payloads):
                results[(operator, run)] = res
    else:
        for payload in payloads:
            operator, run, res = _run_cell(payload)
            results[(operator, run)] = res

    summaries = []
    for operator in cfg.operators:
        finals = [results[(operator, run)].best_length for run in range(cfg.runs)]
        to_best = [
            generations_to_best(results[(operator, run)], init_bests[run])
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
    report_text = _report_json(report)
    names = (CONVERGENCE_CSV, REPORT_JSON)
    staged = [out_dir / f".{name}.{os.getpid()}.tmp" for name in names]
    try:
        emit_convergence_csv({key: res.trace for key, res in results.items()}, staged[0])
        staged[1].write_text(report_text, encoding="utf-8")
        for tmp, name in zip(staged, names):
            os.replace(tmp, out_dir / name)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
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
