"""tspga benchmark: one workload, one seed, every metric by name and unit.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-compare --seed 1 --seconds 20 --trace 0

Workloads and their parameters live in perfbench/spec.json. The inputs are
generated from --seed. Each set-up sample and the measured run happen in a
fresh worker process (perfbench/worker.py), so setup_s includes importing
tspga and peak_rss_mb belongs to this workload alone. The run is pinned to
as many CPUs as the workload uses. Request and set-up times are normalized
for machine speed by a calibration kernel that helper processes, one per
pinned CPU, time around each request and each set-up process (see
calibrate.py); the raw times are printed above the JSON line. With
--trace 0 the end-to-end metrics are printed; with --trace 1 the per-layer
metrics of a separate traced run. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0 when
every output check passed, 1 when one failed, 2 when the benchmark could
not run. --smoke swaps in the spec's tiny sizes for a quick self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from calibrate import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s, first run included


def tail(samples):
    """(value, percentile, count): the highest percentile with ten samples beyond it.

    With n samples that is the (n-10)-th smallest, at percentile 100(n-10)/n.
    Fewer than eleven samples have no such percentile; the maximum is
    reported at 100 instead.
    """
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0, len(s)
    k = len(s) - 10
    return s[k - 1], 100.0 * k / len(s), len(s)


def run_worker(args, deadline):
    """Run one worker to completion in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def setup_samples(count, kernel, base, run_dir, deadline):
    """Normalized and raw set-up times of count fresh worker processes.

    Each is scaled like a request time, by the calibration kernel timed
    just before and after the process. Empty lists if a process failed.
    """
    normalized, raw = [], []
    with Calibration(kernel) as calibration:
        before = calibration.time_s()
        for k in range(count):
            path = run_dir / f"setup-{k}.json"
            if run_worker(["--mode", "setup", *base, "--result", str(path)], deadline) != 0:
                return [], []
            after = calibration.time_s()
            raw.append(json.loads(path.read_text())["setup_s"])
            normalized.append(raw[-1] * calibration.factor(before, after))
            before = after
    return normalized, raw


def write_inputs(kind, p, seed, run_dir):
    """Generate the workload's instance file; returns (path, n, bytes)."""
    if kind == "compare":
        return "", 52, 0
    path = run_dir / "instance.tsp"
    text = inputs.instance_text(f"uniform{p['n']}-seed{seed}", inputs.coordinates(seed, p["n"]))
    path.write_text(text)
    return str(path), p["n"], len(text.encode())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    a = ap.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    if not (ROOT / "src" / "tspga" / "__init__.py").is_file():
        print(f"run.py: no tspga sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if a.workload not in spec["workloads"]:
        print(f"run.py: unknown workload {a.workload!r}; known: {', '.join(spec['workloads'])}", file=sys.stderr)
        return 2
    if a.seed < 0 or a.seconds <= 0:
        print("run.py: --seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2
    wl = spec["workloads"][a.workload]
    p = wl["smoke" if a.smoke else "params"]
    # Pin this process, and with it every process it starts, to as many
    # CPUs as the work uses: one for the set-up samples, the workload's job
    # count for the measured run. The vCPUs of a shared host change speed
    # independently, and calibrate.py times its kernel on exactly these.
    cpus = sorted(os.sched_getaffinity(0))[: p.get("jobs", 1)]

    run_dir = OUT / f"{a.workload}-seed{a.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        instance, n, nbytes = write_inputs(wl["kind"], p, a.seed, run_dir)
        print(f"workload {a.workload}: seed {a.seed}, n {n}, instance bytes {nbytes}, cpus {cpus},"
              f" params {json.dumps(p)}")
        base = [
            "--kind", wl["kind"], "--params", json.dumps(p), "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--calibration", wl["calibration"],
            "--run-dir", str(run_dir), "--instance", instance,
        ]
        setups = raw_setups = []
        if not a.trace:
            os.sched_setaffinity(0, cpus[:1])
            setups, raw_setups = setup_samples(p["setup_samples"], wl["setup_calibration"], base, run_dir, deadline)
            if not setups:
                print("run.py: a set-up process failed", file=sys.stderr)
                return 2
        os.sched_setaffinity(0, cpus)
        path = run_dir / "result.json"
        trace_file = OUT / f"trace-{a.workload}.npz"
        code = run_worker(
            ["--mode", "run", *base, "--trace", str(a.trace), "--trace-file", str(trace_file),
             "--result", str(path)],
            deadline,
        )
        if code != 0:
            print(f"run.py: the workload process exited with {code}", file=sys.stderr)
            return 2
        res = json.loads(path.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if a.trace:
        metrics = res["per_layer"]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        lat, raw = res["latencies"], res["raw_latencies"]
        value, pct, count = tail(lat)
        metrics = {
            "setup_s": statistics.median(setups),
            "work_per_s": res["work"] / sum(lat),
            "request_s_p50": statistics.median(lat),
            "request_s_tail": value,
            "best_rel": res["best_rel"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        print(f"requests {len(lat)}; request_s_tail is p{pct:.1f} of {count} samples;"
              f" setup samples {len(setups)}")
        print(f"raw, before machine-speed normalization:"
              f" work_per_s {res['work'] / sum(raw):.6g}, request_s_p50 {statistics.median(raw):.6g},"
              f" request_s_tail {tail(raw)[0]:.6g}; median factor"
              f" {statistics.median(l / r for l, r in zip(lat, raw)):.4g}; setup_s {statistics.median(raw_setups):.6g}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    fail_ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':32s} {fail_ratio:>16.6g} ({res['failed']} of {res['attempted']} operations)")
    for message in res["failures"]:
        print(f"  check failed: {message}")
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
