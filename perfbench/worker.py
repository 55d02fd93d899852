"""One fresh benchmark process: set-up, a timed closed loop, output checks.

Started by run.py, never imported. ``--mode setup`` stops after set-up and
reports its duration; ``--mode run`` also drives the workload's requests
back to back for the given seconds and writes latencies, work done, check
results and (with ``--trace 1``) per-layer metrics to ``--result``.
Set-up time counts from before ``import tspga``, so it includes the import.

Request times are normalized for machine speed. Just before and after
each request the worker asks calibration helper processes (calibrate.py),
one pinned to each CPU the run is pinned to, to time a fixed kernel; a
time is reported as measured × the kernel's reference time ÷ its mean time
around the request, i.e. in seconds on a machine that runs the kernel in
its reference time. The kernel runs in processes of its own, so nothing
the program does to this process's heap moves the factor. Each workload
names its kernel in spec.json. Set-up time is normalized in run.py the same
way. Raw times are reported too.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tspga  # noqa: E402
import tspga.cli  # noqa: E402
import tspga.data  # noqa: E402

import inputs  # noqa: E402
from calibrate import KERNELS, Calibration  # noqa: E402
from tracer import Tracer, span_times  # noqa: E402

BERLIN52_OPTIMUM = 7542
OPERATORS = ("RSM", "PSM", "HPRM")
CSV_HEADER = "operator,run,generation,best_so_far,gen_best,gen_mean"


@dataclass
class Checks:
    """Operations attempted and failed; keeps the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append("; ".join(problems))


@dataclass
class Window:
    """Requests made in one timed loop: measured seconds and speed factors."""

    first: int
    raw: list = field(default_factory=list)
    scale: list = field(default_factory=list)
    work: int = 0
    rel: list = field(default_factory=list)

    @property
    def end(self) -> int:
        return self.first + len(self.raw)

    @property
    def latencies(self) -> list:
        """Normalized request latencies (see the module docstring)."""
        return [t * k for t, k in zip(self.raw, self.scale)]

    @property
    def rate(self) -> float:
        return self.work / sum(self.latencies)

    def extend(self, later: "Window") -> None:
        """Append the requests of a window that started where this one ends."""
        self.raw += later.raw
        self.scale += later.scale
        self.work += later.work
        self.rel += later.rel


def ga_config(p, operator="RSM"):
    return tspga.population.GaConfig(
        population_size=p["population"],
        max_generations=p["generations"],
        crossover_rate=p["crossover_rate"],
        mutation_rate=p["mutation_rate"],
        elitism_count=p["elitism"],
        mutation_operator=operator,
    )


def run_cli(argv):
    """tspga.cli.main with standard output captured: (exit code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tspga.cli.main(argv)
    return code, out.getvalue()


class Compare:
    """run_comparison on bundled berlin52: RSM, PSM and HPRM over shared runs.

    Request r compares with root seed derived from (seed, r), so the jobs=1
    and jobs=2 workloads make the same cells for the same r. ``expect``
    maps r to the bytes another job count wrote for it.
    """

    group = 1

    def __init__(self, p, seed, run_dir, jobs, expect=None):
        self.p, self.seed, self.jobs = p, seed, jobs
        self.out = Path(run_dir) / f"compare-jobs{jobs}"
        self.outputs = {}
        self.expect = expect

    def setup(self, checks):
        inst = tspga.tsplib.load_instance(tspga.data.BERLIN52_TSP)
        tspga.tsplib.build_distance_matrix(inst)
        code, out = run_cli(["validate", str(tspga.data.BERLIN52_TSP), str(tspga.data.BERLIN52_OPT_TOUR)])
        checks.record([] if (code, out.strip()) == (0, str(BERLIN52_OPTIMUM)) else
                      [f"berlin52.opt.tour validated to {out.strip()!r} with exit {code}"])

    def prepare(self, r):
        return tspga.experiment.ExperimentConfig(
            ga=ga_config(self.p),
            operators=OPERATORS,
            instance_path=str(tspga.data.BERLIN52_TSP),
            output_dir=str(self.out),
            root_seed=(self.seed << 24 | r) % 2**64,
            runs=self.p["runs"],
            jobs=self.jobs,
        )

    def call(self, cfg):
        return tspga.experiment.run_comparison(cfg)

    def check(self, r, cfg, report):
        """(generations done, best / optimum per cell, problems)."""
        problems = []
        report_bytes = (self.out / "report.json").read_bytes()
        csv_bytes = (self.out / "convergence.csv").read_bytes()
        self.outputs[r] = (report_bytes, csv_bytes)
        if self.expect is not None and self.expect.get(r) != self.outputs[r]:
            problems.append(f"request {r}: jobs={self.jobs} output differs from the other job count")
        doc = json.loads(report_bytes)
        runs, gens = self.p["runs"], self.p["generations"]
        finals = {op: doc["operators"][op]["final_bests"] for op in doc["operators_order"]}
        if doc["operators_order"] != list(OPERATORS) or any(len(v) != runs for v in finals.values()):
            problems.append(f"request {r}: report lists {doc['operators_order']} with wrong run counts")
            return 0, [], problems
        lines = csv_bytes.decode().splitlines()
        if lines[0] != CSV_HEADER or len(lines) != 1 + len(OPERATORS) * runs * gens:
            problems.append(f"request {r}: convergence.csv has {len(lines)} lines")
        bests = {}
        for line in lines[1:]:
            op, run, gen, best_so_far, gen_best, _ = line.split(",")
            bests.setdefault((op, int(run)), []).append((int(gen), int(best_so_far), int(gen_best)))
        for (op, run), rows in bests.items():
            seq = [b for _, b, _ in rows]
            if [g for g, _, _ in rows] != list(range(1, gens + 1)):
                problems.append(f"request {r}: {op} run {run} generations out of order")
            if any(a < b for a, b in zip(seq, seq[1:])):
                problems.append(f"request {r}: {op} run {run} best_so_far increases")
            if seq[-1] != finals[op][run]:
                problems.append(f"request {r}: {op} run {run} trace ends at {seq[-1]}, report says {finals[op][run]}")
            if min(min(b, g) for _, b, g in rows) < BERLIN52_OPTIMUM:
                problems.append(f"request {r}: {op} run {run} beats the berlin52 optimum")
        for op, values in finals.items():
            summary = doc["operators"][op]
            if (summary["best"], summary["worst"]) != (min(values), max(values)):
                problems.append(f"request {r}: {op} best/worst disagree with final_bests")
        rel = [v / BERLIN52_OPTIMUM for values in finals.values() for v in values]
        return len(OPERATORS) * runs * gens, rel, problems


class Solve:
    """evolve on a synthetic instance, RSM, PSM and HPRM from one population.

    Requests come in groups of three, one per operator. The three share
    the group's stream key, as the arms of a paired comparison do.
    """

    group = len(OPERATORS)

    def __init__(self, p, seed, instance):
        self.p, self.seed, self.instance = p, seed, instance
        self.coords = inputs.coordinates(seed, p["n"])

    def setup(self, checks):
        inst = tspga.tsplib.load_instance(self.instance)
        self.dm = tspga.tsplib.build_distance_matrix(inst)
        self.initial = tspga.population.init_population(
            ga_config(self.p), inst.dimension, tspga.rng.derive_stream(self.seed, 0)
        )
        tspga.population.evaluate(self.initial, self.dm)
        self.reference = int(self.initial.lengths.min())
        checks.record([] if inst.dimension == self.p["n"] else [f"instance has {inst.dimension} cities"])

    def prepare(self, r):
        cfg = ga_config(self.p, OPERATORS[r % self.group])
        return cfg, tspga.rng.derive_stream(self.seed, 1, r // self.group)

    def call(self, arg):
        cfg, rng = arg
        return tspga.ga.evolve(cfg, self.dm, self.initial, rng)

    def check(self, r, arg, res):
        problems = []
        n = self.p["n"]
        seq = [rec.best_so_far for rec in res.trace]
        if not inputs.is_permutation(res.best_tour, n):
            problems.append(f"request {r}: best_tour is not a permutation")
        elif inputs.closed_length(self.coords, np.asarray(res.best_tour)) != res.best_length:
            problems.append(f"request {r}: best_length {res.best_length} is not the tour's length")
        if len(seq) != self.p["generations"] or any(a < b for a, b in zip(seq, seq[1:])):
            problems.append(f"request {r}: trace is short or best_so_far increases")
        if res.best_length > self.reference:
            problems.append(f"request {r}: best {res.best_length} worse than the initial best")
        return res.generations_run, [res.best_length / self.reference], problems


class Validate:
    """``tspga validate`` on one synthetic instance, a new random tour per call."""

    group = 1

    def __init__(self, p, seed, run_dir, instance):
        self.p, self.seed, self.instance = p, seed, instance
        self.run_dir = Path(run_dir)
        self.coords = inputs.coordinates(seed, p["n"])

    def setup(self, checks):
        # One untimed call, so whatever the program sets up on first use is
        # paid here and shows in setup_s. Its tour's length is the reference
        # of best_rel.
        arg = self.prepare(inputs.WARMUP_TOUR_KEY)
        self.reference = arg[1]
        _, _, problems = self.check(-1, arg, self.call(arg))
        checks.record(problems)

    def prepare(self, r):
        order = inputs.tour(self.seed, self.p["n"], r)
        path = self.run_dir / f"tour-{r}.tour"
        path.write_text(inputs.tour_text(f"bench{r}", order))
        return path, inputs.closed_length(self.coords, order)

    def call(self, arg):
        return run_cli(["validate", str(self.instance), str(arg[0])])

    def check(self, r, arg, out):
        path, expected = arg
        path.unlink()
        code, text = out
        if code != 0 or text.strip() != str(expected):
            return 1, [], [f"request {r}: validate exited {code} printing {text.strip()!r}, expected {expected}"]
        return 1, [int(text) / self.reference], []


def window(wl, calibration, seconds, first, min_requests, checks, limit=None, on_min=None):
    """Closed loop: next request once the previous returns, whole groups only.

    Runs at least min_requests, then until seconds have passed, stopping at
    a group boundary (or at request ``limit``). on_min runs once the first
    min_requests are done. calibration, a Calibration, times its kernel
    around every request.
    """
    w = Window(first)
    deadline = time.perf_counter() + seconds
    r = first
    before = calibration.time_s()
    while limit is None or r < limit:
        done = r - first
        if done == min_requests and on_min is not None:
            on_min()
        if done >= min_requests and done % wl.group == 0 and time.perf_counter() >= deadline:
            break
        arg = wl.prepare(r)
        t0 = time.perf_counter()
        out = wl.call(arg)
        w.raw.append(time.perf_counter() - t0)
        after = calibration.time_s()
        w.scale.append(calibration.factor(before, after))
        before = after
        work, rel, problems = wl.check(r, arg, out)
        checks.record(problems)
        w.work += work
        if done < min_requests:
            w.rel.extend(rel)
        r += 1
    return w


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def per_layer(names, prefix, traced, untraced, parallel_eff) -> dict:
    """Per-layer metrics over set-up and the traced window's first requests.

    prefix holds the spans and counts recorded up to the end of the first
    ``prefix_requests`` requests, a fixed amount of work, so a layer's time
    moves with that layer's speed alone. Span times are scaled by the
    median speed factor of those requests.
    """
    counts = prefix["counts"]
    times = span_times(prefix["spans"], names)
    k = float(np.median(traced.scale[: prefix["requests"]]))
    t, own = times["by_name"], times["layer_self"]
    c = lambda key: int(counts.get(key, 0))  # noqa: E731
    s = lambda name: k * t.get(name, 0.0)  # noqa: E731
    return {
        "operators.variation_s": k * times["variation_self"],
        "operators.children": c("operators.children"),
        "operators.crossover_ox_s": s("operators.crossover_ox"),
        "operators.crossover_ox_calls": c("operators.crossover_ox_calls"),
        "operators.mutate_rsm_s": s("operators.mutate_rsm"),
        "operators.mutate_psm_s": s("operators.mutate_psm"),
        "operators.mutate_hprm_s": s("operators.mutate_hprm"),
        "operators.mutate_calls": c("operators.mutate_calls"),
        "operators.wheel_index_s": s("operators.wheel_index"),
        "rng.scalar_calls": c("rng.scalar_calls"),
        "rng.array_calls": c("rng.array_calls"),
        "rng.values_drawn": c("rng.values_drawn"),
        "population.init_s": s("population.init_population"),
        "population.evaluate_s": s("population.evaluate"),
        "population.evaluate_calls": c("population.evaluate_calls"),
        "tsplib.parse_instance_s": s("tsplib.parse_instance"),
        "tsplib.parse_tour_s": s("tsplib.parse_tour"),
        "tsplib.dm_build_s": s("tsplib.build_distance_matrix"),
        "tsplib.dm_bytes": c("tsplib.dm_bytes"),
        "tsplib.tour_lengths_s": s("tsplib.tour_lengths"),
        "tsplib.tours_scored": c("tsplib.tours_scored"),
        "tsplib.tour_length_s": s("tsplib.tour_length"),
        "ga.evolve_s": s("ga.evolve"),
        "ga.self_s": k * own.get("ga", 0.0),
        "ga.generations": c("ga.generations"),
        "experiment.run_comparison_s": s("experiment.run_comparison"),
        "experiment.self_s": k * own.get("experiment", 0.0),
        "experiment.cells": c("experiment.cells"),
        "experiment.emit_csv_s": s("experiment.emit_convergence_csv"),
        "experiment.csv_bytes": c("experiment.csv_bytes"),
        "experiment.parallel_eff": parallel_eff,
        "cli.main_s": s("cli.main"),
        "cli.self_s": k * own.get("cli", 0.0),
        "trace.overhead": 1.0 - traced.rate / untraced.rate,
    }


def make_workload(kind, p, seed, run_dir, instance):
    if kind == "compare":
        return Compare(p, seed, run_dir, p["jobs"])
    if kind == "solve":
        return Solve(p, seed, instance)
    return Validate(p, seed, run_dir, instance)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--kind", choices=("compare", "solve", "validate"), required=True)
    ap.add_argument("--params", required=True, help="workload parameters as JSON")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--calibration", choices=sorted(KERNELS), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--instance", default="")
    ap.add_argument("--trace-file", default="")
    ap.add_argument("--result", required=True)
    a = ap.parse_args(argv)
    if Path(tspga.__file__).resolve().parent != ROOT / "src" / "tspga":
        print(f"worker: imported tspga from {tspga.__file__}, not from this checkout", file=sys.stderr)
        return 2
    p = json.loads(a.params)
    run_dir = Path(a.run_dir)
    wl = make_workload(a.kind, p, a.seed, run_dir, a.instance)
    checks = Checks()

    tracer = None
    if a.trace:
        (run_dir / "trace").mkdir()
        tracer = Tracer(tspga, run_dir / "trace")
        tracer.install()
    wl.setup(checks)
    result = {"setup_s": time.perf_counter() - T0}
    if a.mode == "run":
        with Calibration(a.calibration) as calibration:
            run(a, p, wl, calibration, tracer, checks, result)
    result.update(attempted=checks.attempted, failed=checks.failed, failures=checks.messages)
    Path(a.result).write_text(json.dumps(result))
    return 0


def run(a, p, wl, calibration, tracer, checks, result) -> None:
    """The timed loop and, when traced, the untraced windows after it."""
    prefix = {"requests": p["prefix_requests"]}
    main_window = window(
        wl, calibration, a.seconds, 0, p["prefix_requests"], checks,
        on_min=(lambda: prefix.update(counts=tracer.total_counts(), spans=tracer.spans())) if tracer else None,
    )
    final_counts = tracer.total_counts() if tracer else {}
    jobs = wl.jobs if a.kind == "compare" else 1
    # With several jobs, the first requests run again with one job: the
    # output files must be byte-identical.
    single = Compare(p, a.seed, a.run_dir, 1, expect=wl.outputs) if jobs > 1 else None
    measured, parallel_eff = main_window, 0.0
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(a.trace_file))
        # Untraced requests give trace.overhead and, alternated in short
        # windows with the one-job re-runs so that drift in machine speed
        # hits both alike, parallel_eff.
        measured, baseline = Window(main_window.end), Window(0)
        for _ in range(4):
            measured.extend(window(wl, calibration, a.seconds / 16, measured.end, wl.group, checks))
            if single is not None:
                baseline.extend(window(single, calibration, a.seconds / 16, baseline.end, 1, checks,
                                       limit=main_window.end))
        if single is not None:
            parallel_eff = measured.rate / (jobs * baseline.rate)
    elif single is not None:
        window(single, calibration, 0.0, 0, 2, checks, limit=main_window.end)
    result.update(
        latencies=main_window.latencies,
        raw_latencies=main_window.raw,
        work=main_window.work,
        best_rel=float(np.mean(main_window.rel)),
        peak_rss_mb=peak_rss_mb(),
    )
    if tracer is not None:
        result["per_layer"] = per_layer(tracer.names, prefix, main_window, measured, parallel_eff)
        # Every cell the traced window ran, not only those of the prefix.
        if final_counts.get("check.cells_failed"):
            checks.failed += final_counts["check.cells_failed"]
            checks.messages.append(f"{final_counts['check.cells_failed']} traced cells failed their checks")
        checks.attempted += final_counts.get("check.cells", 0)


if __name__ == "__main__":
    sys.exit(main())
