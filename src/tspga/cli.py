"""Command-line interface: solve, compare and validate subcommands.

Exit codes: 0 success, 1 file or parse errors, a failed allocation or a
closed standard output, 2 invalid flags or configuration, 3 invalid tour
under validate. Diagnostics go to standard error; standard output stays
parseable.
"""

from __future__ import annotations

import argparse
import json
import os
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
from .population import MUTATION_OPERATORS, GaConfig, init_population
from .rng import RngStream
from .tsplib import (
    InvalidTourError,
    TsplibParseError,
    build_distance_matrix,
    closed_tour_length,
    load_instance,
    load_tour,
)

# (flag dest, the GaConfig field it sets and takes its default from, type, metavar, help)
_GA_FLAGS = (
    ("pop", "population_size", int, "N", "population size"),
    ("generations", "max_generations", int, "N", "generations to run"),
    ("pm", "mutation_rate", float, "P", "per-gene mutation probability"),
    ("crossover_rate", "crossover_rate", float, "P", "crossover probability"),
    ("elitism", "elitism_count", int, "N", "elites copied each generation"),
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
    for dest, field, cast, metavar, text in _GA_FLAGS:
        p.add_argument("--" + dest.replace("_", "-"), type=cast, default=getattr(GaConfig, field),
                       metavar=metavar, help=text + " (default %(default)s)")
    p.add_argument("--seed", type=int, metavar="U64",
                   help="root seed; omitted draws one and prints it")
    p.add_argument("--config", metavar="PATH",
                   help="JSON config file; precedence defaults < config < flags")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and the subcommand parsers that take --config by name."""
    parser = _Parser(
        prog="tspga",
        description="Genetic-algorithm toolkit for the symmetric TSP.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the GA once on an instance")
    solve.add_argument("instance", help="TSPLIB .tsp file")
    solve.add_argument("--operator", default=GaConfig.mutation_operator.lower(), metavar="OP",
                       help="mutation operator: rsm, psm or hprm (default %(default)s)")
    _add_ga_flags(solve)
    solve.add_argument("--trace", metavar="PATH",
                       help="write this run's convergence trace CSV here")

    compare = sub.add_parser("compare", help="paired comparison of mutation operators")
    compare.add_argument("instance", help="TSPLIB .tsp file")
    compare.add_argument("--operators", default=",".join(MUTATION_OPERATORS).lower(), metavar="LIST",
                         help="comma list from %(default)s (default all three)")
    _add_ga_flags(compare)
    compare.add_argument("--runs", type=int, default=ExperimentConfig.runs, metavar="N",
                         help="paired runs per operator (default %(default)s)")
    compare.add_argument("--out", default="compare_out", metavar="DIR",
                         help="output directory (default %(default)s)")
    compare.add_argument("--jobs", type=int, default=ExperimentConfig.jobs, metavar="N",
                         help="worker processes (default %(default)s)")

    validate = sub.add_parser("validate", help="score a tour file against an instance")
    validate.add_argument("instance", help="TSPLIB .tsp file")
    validate.add_argument("tour", help="TSPLIB .tour file")
    return parser, {"solve": solve, "compare": compare}


def _load_config(path: str, parsers: dict, command: str) -> dict:
    """The config file's values for command's flags, each read as that flag's text.

    The keys are the flags of every parser in parsers, bar --help and
    --config; a key of another command is accepted and ignored. A value is
    a JSON string or number, and means what its text would mean given to
    the flag.
    """
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
    flags = {
        name: {a.dest: a for a in p._actions if a.option_strings and a.dest not in ("help", "config")}
        for name, p in parsers.items()
    }
    unknown = sorted(set(doc).difference(*flags.values()))
    if unknown:
        raise _Failure(2, f"config {path} has unknown keys: {', '.join(unknown)}")
    values = {}
    for key, action in flags[command].items():
        if key not in doc:
            continue
        value, cast = doc[key], action.type or str
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise _Failure(2, f"config key {key!r} must be a string or a number, not {json.dumps(value)}")
        try:
            values[key] = cast(str(value))
        except ValueError:
            raise _Failure(2, f"config key {key!r}: invalid {cast.__name__} value {value!r}") from None
    return values


def _ga_config(args, **fields) -> GaConfig:
    for dest, field, *_ in _GA_FLAGS:
        fields[field] = getattr(args, dest)
    try:
        return GaConfig(**fields)
    except ValueError as e:
        raise _Failure(2, str(e)) from None


def _resolve_seed(seed) -> int:
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


def cmd_solve(args) -> int:
    inst = _load(load_instance, args.instance)
    seed = _resolve_seed(args.seed)
    ga = _ga_config(args, mutation_operator=args.operator)
    print(f"seed {seed}", flush=True)

    dm = build_distance_matrix(inst)
    rng = RngStream(seed)
    result = evolve(ga, dm, init_population(ga, inst.dimension, rng), rng)

    if args.trace:
        try:
            emit_convergence_csv({(ga.mutation_operator, 0): result.trace}, args.trace)
        except OSError as e:
            raise _Failure(1, f"cannot write {args.trace}: {e}") from None
    print(f"best_length {result.best_length}")
    print("best_tour " + " ".join(str(int(c)) for c in result.best_tour))
    return 0


def cmd_compare(args) -> int:
    inst = _load(load_instance, args.instance)
    seed = _resolve_seed(args.seed)
    try:
        ecfg = ExperimentConfig(
            ga=_ga_config(args),
            operators=tuple(p.strip() for p in args.operators.split(",") if p.strip()),
            instance_path=args.instance,
            output_dir=args.out,
            root_seed=seed,
            runs=args.runs,
            jobs=args.jobs,
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
        parser, parsers = _build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # The file's values become the defaults; argv is parsed again so flags win.
            parsers[args.command].set_defaults(**_load_config(args.config, parsers, args.command))
            args = parser.parse_args(argv)
        commands = {"solve": cmd_solve, "compare": cmd_compare, "validate": cmd_validate}
        code = commands[args.command](args)
        sys.stdout.flush()  # a closed pipe is reported here, not at interpreter exit
        return code
    except _Failure as e:
        print(f"tspga: {e}", file=sys.stderr)
        return e.code
    except MemoryError as e:  # numpy's names the array it could not allocate
        print("tspga: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 1
    except BrokenPipeError as e:
        # The reader left (as with `| head`): as in Python's SIGPIPE note, point
        # stdout at /dev/null so that the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"tspga: cannot write standard output: {e}", file=sys.stderr)
        return 1
