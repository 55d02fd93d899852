"""Command-line interface: solve, compare and validate subcommands.

Exit codes: 0 success, 1 file or parse errors, 2 invalid flags or
configuration, 3 invalid tour under validate. Diagnostics go to standard
error; standard output stays parseable.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from pathlib import Path

from .experiment import (
    CONVERGENCE_CSV,
    REPORT_JSON,
    ExperimentConfig,
    emit_convergence_csv,
    format_summary_table,
    run_comparison,
)
from .ga import evolve
from .population import GaConfig, init_population
from .rng import RngStream
from .tsplib import (
    InvalidTourError,
    TsplibParseError,
    build_distance_matrix,
    closed_tour_length,
    load_instance,
    load_tour,
)

_CONFIG_KEYS = {
    "operator", "operators", "pop", "generations", "pm", "crossover_rate",
    "elitism", "seed", "runs", "out", "jobs", "trace",
}

# (flag dest and config key, GaConfig field, type)
_GA_FLAGS = (
    ("pop", "population_size", int),
    ("generations", "max_generations", int),
    ("pm", "mutation_rate", float),
    ("crossover_rate", "crossover_rate", float),
    ("elitism", "elitism_count", int),
)


class _Failure(Exception):
    """A failure main reports as one 'tspga: ...' line and exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one line, as every failure is
        raise _Failure(2, message)


def _add_ga_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pop", type=int, default=None, metavar="N", help="population size (default 100)")
    p.add_argument("--generations", type=int, default=None, metavar="N",
                   help="generations to run (default 1000)")
    p.add_argument("--pm", type=float, default=None, metavar="P",
                   help="per-gene mutation probability (default 0.05)")
    p.add_argument("--crossover-rate", type=float, default=None, metavar="P", dest="crossover_rate",
                   help="crossover probability (default 0.9)")
    p.add_argument("--elitism", type=int, default=None, metavar="N",
                   help="elites copied each generation (default 1)")
    p.add_argument("--seed", type=int, default=None, metavar="U64",
                   help="root seed; omitted draws one and prints it")
    p.add_argument("--config", default=None, metavar="PATH",
                   help="JSON config file; precedence defaults < config < flags")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tspga",
        description="Genetic-algorithm toolkit for the symmetric TSP.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the GA once on an instance")
    solve.add_argument("instance", help="TSPLIB .tsp file")
    solve.add_argument("--operator", default=None, metavar="OP",
                       help="mutation operator: rsm, psm or hprm (default hprm)")
    _add_ga_flags(solve)
    solve.add_argument("--trace", default=None, metavar="PATH",
                       help="write this run's convergence trace CSV here")

    compare = sub.add_parser("compare", help="paired comparison of mutation operators")
    compare.add_argument("instance", help="TSPLIB .tsp file")
    compare.add_argument("--operators", default=None, metavar="LIST",
                         help="comma list from rsm,psm,hprm (default all three)")
    _add_ga_flags(compare)
    compare.add_argument("--runs", type=int, default=None, metavar="N",
                         help="paired runs per operator (default 50)")
    compare.add_argument("--out", default=None, metavar="DIR",
                         help="output directory (default compare_out)")
    compare.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes (default 1)")

    validate = sub.add_parser("validate", help="score a tour file against an instance")
    validate.add_argument("instance", help="TSPLIB .tsp file")
    validate.add_argument("tour", help="TSPLIB .tour file")
    return parser


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise _Failure(2, f"cannot read config {path}: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise _Failure(2, f"config {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise _Failure(2, f"config {path} must hold a JSON object")
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise _Failure(2, f"config {path} has unknown keys: {', '.join(unknown)}")
    return doc


def _pick(flag_value, config: dict, key: str, default, cast=str):
    """The flag's value, else the config's read as that flag's text, else default.

    A config value is a JSON string or number, and means what its text
    would mean given to the flag.
    """
    if flag_value is not None:
        return flag_value
    if key not in config:
        return default
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise _Failure(2, f"config key {key!r} must be a string or a number, not {json.dumps(value)}")
    try:
        return cast(str(value))
    except ValueError:
        raise _Failure(2, f"config key {key!r}: invalid {cast.__name__} value {value!r}") from None


def _ga_config(args, config: dict, operator) -> GaConfig:
    kwargs = {}
    for key, field, cast in _GA_FLAGS:
        value = _pick(getattr(args, key), config, key, None, cast)
        if value is not None:
            kwargs[field] = value
    if operator is not None:
        kwargs["mutation_operator"] = operator
    try:
        return GaConfig(**kwargs)
    except ValueError as e:
        raise _Failure(2, str(e)) from None


def _resolve_seed(args, config: dict) -> int:
    seed = _pick(args.seed, config, "seed", None, int)
    if seed is None:
        return secrets.randbits(64)
    if not 0 <= seed < 2**64:
        raise _Failure(2, "seed must be an unsigned 64-bit integer")
    return seed


def _load(loader, path, **kwargs):
    """loader(path, **kwargs), its file and parse errors as exit codes."""
    try:
        return loader(path, **kwargs)
    except InvalidTourError as e:
        raise _Failure(3, f"{path}: {e}") from None
    except TsplibParseError as e:
        raise _Failure(1, f"{path}: {e}") from None
    except OSError as e:
        raise _Failure(1, f"cannot read {path}: {e}") from None


def cmd_solve(args, config: dict) -> int:
    inst = _load(load_instance, args.instance)
    seed = _resolve_seed(args, config)
    ga = _ga_config(args, config, _pick(args.operator, config, "operator", None))
    print(f"seed {seed}", flush=True)

    dm = build_distance_matrix(inst)
    rng = RngStream(seed)
    result = evolve(ga, dm, init_population(ga, inst.dimension, rng), rng)

    trace_path = _pick(args.trace, config, "trace", None)
    if trace_path:
        try:
            emit_convergence_csv({(ga.mutation_operator, 0): result.trace}, trace_path)
        except OSError as e:
            raise _Failure(1, f"cannot write {trace_path}: {e}") from None
    print(f"best_length {result.best_length}")
    print("best_tour " + " ".join(str(int(c)) for c in result.best_tour))
    return 0


def cmd_compare(args, config: dict) -> int:
    inst = _load(load_instance, args.instance)
    operators = _pick(args.operators, config, "operators", "rsm,psm,hprm")
    seed = _resolve_seed(args, config)
    try:
        ecfg = ExperimentConfig(
            ga=_ga_config(args, config, None),
            operators=tuple(p.strip() for p in operators.split(",") if p.strip()),
            instance_path=args.instance,
            output_dir=_pick(args.out, config, "out", "compare_out"),
            root_seed=seed,
            runs=_pick(args.runs, config, "runs", 50, int),
            jobs=_pick(args.jobs, config, "jobs", 1, int),
        )
    except ValueError as e:
        raise _Failure(2, str(e)) from None
    print(f"root_seed {seed}", flush=True)
    try:
        report = run_comparison(ecfg, inst)
    except OSError as e:
        raise _Failure(1, f"cannot write {ecfg.output_dir}: {e}") from None
    print(format_summary_table(report))
    out = Path(ecfg.output_dir)
    print(f"wrote {out / CONVERGENCE_CSV} and {out / REPORT_JSON}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    inst = _load(load_instance, args.instance)
    tour = _load(load_tour, args.tour, dimension=inst.dimension)
    print(closed_tour_length(inst, tour))
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _load_config(args.config) if getattr(args, "config", None) else {}
        if args.command == "solve":
            return cmd_solve(args, config)
        if args.command == "compare":
            return cmd_compare(args, config)
        return cmd_validate(args)
    except _Failure as e:
        print(f"tspga: {e}", file=sys.stderr)
        return e.code
