"""The eight acceptance gates, one test per criterion.

Criterion 2 evolves the full-size paired comparison (3 operators x 50
shared populations x 1000 generations) once as a module fixture that
criterion 8 reuses; expect a few minutes for this module. The root seed 0
was fixed before the first full-size run and never reselected.
"""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import ScriptedRng, cli_env

import tspga.data
from tspga import (
    ExperimentConfig,
    GaConfig,
    Population,
    RngStream,
    crossover_ox,
    is_permutation,
    mutate_hprm,
    mutate_psm,
    mutate_rsm,
    run_comparison,
    select_roulette,
)

BERLIN = str(tspga.data.BERLIN52_TSP)
OPT_TOUR = str(tspga.data.BERLIN52_OPT_TOUR)


def _gate(criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def full_comparison(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_full")
    cfg = ExperimentConfig(
        ga=GaConfig(),
        operators=("rsm", "psm", "hprm"),
        instance_path=BERLIN,
        output_dir=str(out),
        root_seed=0,
        runs=50,
        jobs=1,
    )
    start = time.monotonic()
    report = run_comparison(cfg)
    elapsed = time.monotonic() - start
    return report, elapsed, out


def test_criterion_1_ground_truth_under_one_second():
    env = cli_env()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "tspga", "validate", BERLIN, OPT_TOUR],
        capture_output=True,
        text=True,
        env=env,
    )
    elapsed = time.monotonic() - start
    ok = proc.returncode == 0 and proc.stdout.strip() == "7542" and elapsed < 1.0
    _gate(1, ok, f"validate printed {proc.stdout.strip()!r} in {elapsed:.3f} s")


@pytest.mark.slow
def test_criterion_2_direction_and_budget(full_comparison):
    report, elapsed, _ = full_comparison
    means = {s.operator: s.mean for s in report.operators}
    ok = (
        means["HPRM"] <= means["RSM"]
        and means["HPRM"] <= means["PSM"]
        and elapsed < 600.0
    )
    _gate(
        2,
        ok,
        f"means HPRM={means['HPRM']:.2f} RSM={means['RSM']:.2f} "
        f"PSM={means['PSM']:.2f}, full comparison in {elapsed:.1f} s",
    )


def test_criterion_3_hprm_at_zero_pm_equals_rsm_exhaustively():
    mismatches = 0
    cases = 0
    for n in range(2, 7):
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        for perm in itertools.permutations(range(n)):
            tour = np.array(perm)
            for pts in pairs:
                cases += 1
                if not np.array_equal(
                    mutate_hprm(tour, 0.0, pts), mutate_rsm(tour, pts)
                ):
                    mismatches += 1
    _gate(3, mismatches == 0, f"{cases} tour/point cases, {mismatches} mismatches")


@pytest.mark.slow
def test_criterion_4_closure_fuzz():
    per_op = 10**5
    rng = RngStream(20260822)
    violations = 0

    for _ in range(per_op):
        n = rng.randint(2, 12)
        if not is_permutation(mutate_rsm(rng.permutation(n), rng=rng), n):
            violations += 1
    for _ in range(per_op):
        n = rng.randint(2, 12)
        if not is_permutation(mutate_psm(rng.permutation(n), 0.2, rng), n):
            violations += 1
    for _ in range(per_op):
        n = rng.randint(2, 12)
        if not is_permutation(mutate_hprm(rng.permutation(n), 0.2, rng=rng), n):
            violations += 1
    for _ in range(per_op):
        n = rng.randint(2, 12)
        child = crossover_ox(rng.permutation(n), rng.permutation(n), rng=rng)
        if not is_permutation(child, n):
            violations += 1

    _gate(4, violations == 0, f"4x{per_op} applications, {violations} violations")


def test_criterion_5_scripted_hand_traces():
    failures = []

    out = mutate_psm(np.array([0, 1, 2]), 1.0, ScriptedRng(reals=[0, 0, 0], ints=[1, 0, 2]))
    if not np.array_equal(out, [0, 1, 2]):
        failures.append(f"PSM (1,0,2) gave {out.tolist()}")
    out = mutate_psm(np.array([0, 1]), 1.0, ScriptedRng(reals=[0, 0], ints=[1, 0]))
    if not np.array_equal(out, [0, 1]):
        failures.append(f"PSM (1,0) gave {out.tolist()}")
    out = mutate_psm(np.array([0, 1]), 1.0, ScriptedRng(reals=[0, 0], ints=[1, 1]))
    if not np.array_equal(out, [1, 0]):
        failures.append(f"PSM (1,1) gave {out.tolist()}")

    out = mutate_hprm(np.array([0, 1, 2, 3]), 1.0, (0, 3),
                      ScriptedRng(reals=[0, 0], ints=[2, 3]))
    if not np.array_equal(out, [2, 0, 1, 3]):
        failures.append(f"HPRM (2,3) gave {out.tolist()}")

    out = crossover_ox(np.arange(8), np.array([1, 3, 5, 7, 6, 4, 2, 0]), (2, 4))
    if not np.array_equal(out, [7, 6, 2, 3, 4, 0, 1, 5]):
        failures.append(f"OX (2,4) gave {out.tolist()}")

    _gate(5, not failures, "; ".join(failures) or "5 hand traces exact")


def test_criterion_6_roulette_distribution():
    pool = Population(
        np.array([[0, 1, 2], [2, 1, 0]]), np.array([100, 300])
    )
    rng = RngStream(6)
    draws = 10**5
    hits = sum(select_roulette(pool, rng) == 0 for _ in range(draws))
    freq = hits / draws
    sigma = 0.00137
    ok = abs(freq - 0.75) <= 3 * sigma
    _gate(6, ok, f"P(shorter)={freq:.5f}, expected 0.75 within {3 * sigma:.5f}")


def test_criterion_7_compare_byte_determinism(tmp_path):
    args = [
        sys.executable, "-m", "tspga", "compare", BERLIN,
        "--operators", "rsm,psm,hprm", "--runs", "3",
        "--pop", "20", "--generations", "40", "--seed", "123",
    ]
    env = cli_env()
    for out in ("first", "second"):
        proc = subprocess.run(
            args + ["--out", str(tmp_path / out)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
    same = all(
        (tmp_path / "first" / name).read_bytes()
        == (tmp_path / "second" / name).read_bytes()
        for name in ("convergence.csv", "report.json")
    )
    _gate(7, same, "convergence.csv and report.json byte-identical across reruns")


@pytest.mark.slow
def test_criterion_8_monotonicity_and_lower_bound(full_comparison):
    report, _, out = full_comparison
    rows = (out / "convergence.csv").read_text(encoding="utf-8").splitlines()[1:]
    regressions = 0
    below = 0
    last = {}
    for row in rows:
        op, run, _, best_so_far, gen_best, gen_mean = row.split(",")
        best_so_far, gen_best = int(best_so_far), int(gen_best)
        if best_so_far < 7542 or gen_best < 7542 or float(gen_mean) < 7542:
            below += 1
        key = (op, run)
        if key in last and best_so_far > last[key]:
            regressions += 1
        last[key] = best_so_far
    for s in report.operators:
        below += sum(1 for v in s.final_bests if v < 7542)
    _gate(
        8,
        regressions == 0 and below == 0,
        f"{len(rows)} trace rows: {regressions} best_so_far regressions, "
        f"{below} lengths below 7542",
    )
