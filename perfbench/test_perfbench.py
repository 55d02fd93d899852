"""Self-test of the benchmark at the spec's smoke sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from calibrate import Calibration
from run import tail
from tracer import SPAN_DTYPE, call_sites, span_times, traced_functions

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def smoke(workload, trace, seed=3, cwd=HERE.parent, run_py=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return proc


def test_workloads_match_spec():
    assert WORKLOADS == list(SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    runs = [json.loads(smoke("large-solve", 1, seed=5).stdout.strip().splitlines()[-1]) for _ in range(2)]
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "bytes")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["rng.scalar_calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("paper-compare", 0, cwd=tmp_path, run_py=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_every_traced_function_is_bound_where_callers_look_it_up():
    sys.path.insert(0, str(HERE.parent / "src"))
    import tspga.cli  # noqa: F401
    import tspga.tsplib

    traced = traced_functions(tspga.tsplib)
    sites = {(module.__name__, attr): name for module, attr, name in call_sites(traced)}
    assert set(sites.values()) == set(traced)
    assert sites[("tspga.ga", "variation")] == "operators.variation"
    assert sites[("tspga.population", "tour_lengths")] == "tsplib.tour_lengths"
    assert sites[("tspga.cli", "load_instance")] == "tsplib.load_instance"


def test_calibration_helpers_run_on_every_allowed_cpu_and_exit():
    with Calibration("small-array") as calibration:
        helpers = calibration._procs
        assert len(helpers) == len(os.sched_getaffinity(0))
        before, after = calibration.time_s(), calibration.time_s()
    assert before > 0 and after > 0
    assert calibration.factor(before, after) == pytest.approx(2 * 0.020 / (before + after))
    assert all(proc.returncode == 0 for proc in helpers)


def test_tail_has_ten_samples_beyond():
    value, pct, count = tail(list(range(1, 41)))
    assert (value, pct, count) == (30, 75.0, 40)
    assert sum(1 for s in range(1, 41) if s > value) == 10
    assert tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_self_time_covers_overlapping_children_once():
    names = ["experiment.run_comparison", "ga.evolve", "operators.variation", "operators.crossover_ox"]
    rows = [
        (1, -1, 0, 0.0, 10.0),  # comparison waits on two workers
        (2, 1, 1, 1.0, 6.0),    # cell in worker A
        (3, 1, 1, 2.0, 8.0),    # cell in worker B, overlapping A
        (4, 2, 2, 1.0, 5.0),    # variation inside cell A
        (5, 4, 3, 2.0, 3.0),    # crossover inside variation: same layer
    ]
    spans = np.array(rows, dtype=SPAN_DTYPE)
    t = span_times(spans, names)
    assert t["layer_self"]["experiment"] == pytest.approx(10.0 - 7.0)
    assert t["layer_self"]["ga"] == pytest.approx(1.0 + 6.0)
    assert t["layer_self"]["operators"] == pytest.approx(4.0)
    assert t["variation_self"] == pytest.approx(4.0)
    assert t["by_name"]["operators.crossover_ox"] == pytest.approx(1.0)
