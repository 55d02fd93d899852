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

from .experiment import ExperimentConfig, emit_convergence_csv, format_summary_table, run_comparison
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

# (flag dest, config key, GaConfig field, cast)
_GA_FLAGS = (
    ("pop", "pop", "population_size", int),
    ("generations", "generations", "max_generations", int),
    ("pm", "pm", "mutation_rate", float),
    ("crossover_rate", "crossover_rate", "crossover_rate", float),
    ("elitism", "elitism", "elitism_count", int),
)


class _ConfigError(ValueError):
    pass


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
    parser = argparse.ArgumentParser(
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
    except OSError as e:
        raise _ConfigError(f"cannot read config {path}: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise _ConfigError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise _ConfigError(f"config {path} must hold a JSON object")
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise _ConfigError(f"config {path} has unknown keys: {', '.join(unknown)}")
    return doc


def _pick(flag_value, config: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _ga_config(args, config: dict, operator, seed: int = 0) -> GaConfig:
    kwargs = {"seed": seed}
    for dest, key, field, cast in _GA_FLAGS:
        value = _pick(getattr(args, dest), config, key, None)
        if value is not None:
            kwargs[field] = cast(value)
    if operator is not None:
        kwargs["mutation_operator"] = operator
    return GaConfig(**kwargs)


def _resolve_seed(args, config: dict) -> int:
    value = _pick(args.seed, config, "seed", None)
    if value is None:
        return secrets.randbits(64)
    return int(value)


def cmd_solve(args, config: dict) -> int:
    try:
        inst = load_instance(args.instance)
    except TsplibParseError as e:
        print(f"tspga: {args.instance}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"tspga: cannot read {args.instance}: {e}", file=sys.stderr)
        return 1
    seed = _resolve_seed(args, config)
    try:
        ga = _ga_config(args, config, _pick(args.operator, config, "operator", None), seed)
    except ValueError as e:
        print(f"tspga: {e}", file=sys.stderr)
        return 2
    print(f"seed {seed}", flush=True)

    dm = build_distance_matrix(inst)
    rng = RngStream(seed)
    result = evolve(ga, dm, init_population(ga, inst.dimension, rng), rng)

    trace_path = _pick(args.trace, config, "trace", None)
    if trace_path:
        try:
            emit_convergence_csv({(ga.mutation_operator, 0): result.trace}, trace_path)
        except OSError as e:
            print(f"tspga: cannot write {trace_path}: {e}", file=sys.stderr)
            return 1
    print(f"best_length {result.best_length}")
    print("best_tour " + " ".join(str(int(c)) for c in result.best_tour))
    return 0


def cmd_compare(args, config: dict) -> int:
    raw = _pick(args.operators, config, "operators", "rsm,psm,hprm")
    parts = raw if isinstance(raw, (list, tuple)) else [p for p in str(raw).split(",") if p.strip()]
    seed = _resolve_seed(args, config)
    try:
        ga = _ga_config(args, config, None)
        ecfg = ExperimentConfig(
            ga=ga,
            operators=tuple(str(p).strip() for p in parts),
            instance_path=args.instance,
            output_dir=str(_pick(args.out, config, "out", "compare_out")),
            root_seed=seed,
            runs=int(_pick(args.runs, config, "runs", 50)),
            jobs=int(_pick(args.jobs, config, "jobs", 1)),
        )
    except ValueError as e:
        print(f"tspga: {e}", file=sys.stderr)
        return 2
    print(f"root_seed {seed}", flush=True)
    try:
        report = run_comparison(ecfg)
    except TsplibParseError as e:
        print(f"tspga: {args.instance}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"tspga: {e}", file=sys.stderr)
        return 1
    print(format_summary_table(report))
    out = Path(ecfg.output_dir)
    print(f"wrote {out / report.convergence_csv} and {out / report.report_file}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    try:
        inst = load_instance(args.instance)
    except TsplibParseError as e:
        print(f"tspga: {args.instance}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"tspga: cannot read {args.instance}: {e}", file=sys.stderr)
        return 1
    try:
        tour = load_tour(args.tour, dimension=inst.dimension)
    except InvalidTourError as e:
        print(f"tspga: {args.tour}: {e}", file=sys.stderr)
        return 3
    except TsplibParseError as e:
        print(f"tspga: {args.tour}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"tspga: cannot read {args.tour}: {e}", file=sys.stderr)
        return 1
    print(closed_tour_length(inst, tour))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config) if getattr(args, "config", None) else {}
    except _ConfigError as e:
        print(f"tspga: {e}", file=sys.stderr)
        return 2
    if args.command == "solve":
        return cmd_solve(args, config)
    if args.command == "compare":
        return cmd_compare(args, config)
    return cmd_validate(args)
