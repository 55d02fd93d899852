"""The paired comparison harness: pairing, statistics, emitted files."""

import json
import math
import os

import numpy as np
import pytest

import tspga.data
import tspga.experiment
import tspga.population
from tspga import (
    ExperimentConfig,
    GaConfig,
    RunResult,
    TraceRecord,
    emit_convergence_csv,
    generations_to_best,
    run_comparison,
    summarize,
)
from tspga.experiment import _EVOLVE_STREAM, _INIT_STREAM
from tspga import derive_stream, init_population, evaluate, build_distance_matrix, load_instance


def _config(tmp_path, **kwargs):
    defaults = dict(
        ga=GaConfig(population_size=16, max_generations=25),
        operators=("rsm", "psm", "hprm"),
        instance_path=str(tspga.data.BERLIN52_TSP),
        output_dir=str(tmp_path / "out"),
        root_seed=99,
        runs=2,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------- summarize

def test_summarize_single_value():
    stats = summarize([7542])
    assert (stats.best, stats.worst, stats.mean, stats.stddev) == (7542, 7542, 7542.0, 0.0)


def test_summarize_two_values():
    stats = summarize([2, 4])
    assert stats.mean == 3.0
    assert math.isclose(stats.stddev, math.sqrt(2))


def test_summarize_orders_statistics():
    rng = np.random.default_rng(1)
    values = rng.integers(7542, 20000, size=30).tolist()
    stats = summarize(values)
    assert stats.best <= stats.mean <= stats.worst
    assert stats.stddev >= 0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


# ---------------------------------------------------------- generations_to_best

def _result(best_length, trace_rows):
    trace = tuple(TraceRecord(g, bsf, gb, gm) for g, bsf, gb, gm in trace_rows)
    return RunResult(np.arange(3), best_length, trace, len(trace))


def test_generations_to_best_initial_population_wins():
    res = _result(100, [(1, 100, 120, 130.0), (2, 100, 115, 125.0)])
    assert generations_to_best(res, initial_best=100) == 0


def test_generations_to_best_first_reaching_generation():
    res = _result(90, [(1, 100, 110, 130.0), (2, 90, 90, 120.0), (3, 90, 95, 118.0)])
    assert generations_to_best(res, initial_best=100) == 2


def test_generations_to_best_zero_generation_run():
    res = _result(140, [])
    assert generations_to_best(res, initial_best=140) == 0


# ---------------------------------------------------------------- CSV

def test_csv_shape_and_sorting(tmp_path):
    results = {
        ("RSM", 1): [TraceRecord(1, 10, 12, 15.0), TraceRecord(2, 9, 9, 14.5)],
        ("RSM", 0): [TraceRecord(1, 11, 11, 16.0)],
        ("HPRM", 0): [TraceRecord(1, 8, 8, 12.25)],
    }
    path = tmp_path / "trace.csv"
    emit_convergence_csv(results, path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "operator,run,generation,best_so_far,gen_best,gen_mean"
    assert lines[1:] == [
        "HPRM,0,1,8,8,12.25",
        "RSM,0,1,11,11,16.0",
        "RSM,1,1,10,12,15.0",
        "RSM,1,2,9,9,14.5",
    ]
    assert "\r" not in text
    assert text.endswith("\n")


def test_csv_reemission_is_byte_identical(tmp_path):
    results = {("PSM", 0): [TraceRecord(1, 5, 5, 6.5)]}
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_convergence_csv(results, a)
    emit_convergence_csv(results, b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_rejects_empty_results(tmp_path):
    with pytest.raises(ValueError):
        emit_convergence_csv({}, tmp_path / "x.csv")


# ---------------------------------------------------------------- harness

def test_degenerate_run_reports_initial_best(tmp_path):
    ga = GaConfig(population_size=12, max_generations=0)
    cfg = _config(tmp_path, ga=ga, operators=("rsm",), runs=1, root_seed=5)
    report = run_comparison(cfg)

    inst = load_instance(cfg.instance_path)
    dm = build_distance_matrix(inst)
    pop = init_population(ga, inst.dimension, derive_stream(5, _INIT_STREAM, 0))
    expected = int(evaluate(pop, dm).lengths.min())

    arm = report.operators[0]
    assert arm.operator == "RSM"
    assert arm.final_bests == (expected,)
    assert arm.mean == expected
    assert arm.stddev == 0.0
    assert arm.mean_generations_to_best == 0.0


def test_a_loaded_instance_is_used_in_place_of_the_path(tmp_path):
    read = _config(tmp_path / "read", operators=("psm",), runs=1)
    loaded = _config(tmp_path / "loaded", operators=("psm",), runs=1,
                     instance_path=str(tmp_path / "never-read.tsp"))
    run_comparison(read)
    run_comparison(loaded, load_instance(read.instance_path))
    for name in ("convergence.csv", "report.json"):
        assert (tmp_path / "read" / "out" / name).read_bytes() == (tmp_path / "loaded" / "out" / name).read_bytes()


def test_rsm_and_hprm_arms_identical_at_zero_pm(tmp_path):
    # Shared per-run evolution streams plus HPRM's no-draw pm=0 path make
    # the two arms the same experiment; any divergence is a pairing bug.
    ga = GaConfig(population_size=14, max_generations=20, mutation_rate=0.0)
    cfg = _config(tmp_path, ga=ga, operators=("rsm", "hprm"), runs=3)
    report = run_comparison(cfg)
    by_op = {s.operator: s for s in report.operators}
    assert by_op["RSM"].final_bests == by_op["HPRM"].final_bests
    assert by_op["RSM"].mean_generations_to_best == by_op["HPRM"].mean_generations_to_best


def test_arm_results_do_not_depend_on_which_arms_run(tmp_path):
    # Pairing comes from the stream derivation alone: the RSM arm must
    # produce the same per-run results whether it runs by itself or next
    # to other arms.
    ga = GaConfig(population_size=14, max_generations=20)
    alone = run_comparison(_config(tmp_path / "a", ga=ga, operators=("rsm",), runs=3))
    beside = run_comparison(_config(tmp_path / "b", ga=ga, operators=("psm", "rsm"), runs=3))
    rsm_alone = alone.operators[0]
    rsm_beside = next(s for s in beside.operators if s.operator == "RSM")
    assert rsm_alone.final_bests == rsm_beside.final_bests
    assert rsm_alone.mean_generations_to_best == rsm_beside.mean_generations_to_best


def test_initial_populations_shared_across_arms():
    # The derivation alone fixes the initial populations: same root seed,
    # same run index, identical tours, independent of the operator arm.
    a = init_population(GaConfig(population_size=10), 52, derive_stream(42, _INIT_STREAM, 3))
    b = init_population(GaConfig(population_size=10), 52, derive_stream(42, _INIT_STREAM, 3))
    assert np.array_equal(a.tours, b.tours)
    c = init_population(GaConfig(population_size=10), 52, derive_stream(42, _EVOLVE_STREAM, 3))
    assert not np.array_equal(a.tours, c.tours)


def test_comparison_replay_is_byte_identical(tmp_path):
    cfg_a = _config(tmp_path / "a")
    cfg_b = _config(tmp_path / "b")
    run_comparison(cfg_a)
    run_comparison(cfg_b)
    for name in ("convergence.csv", "report.json"):
        assert (tmp_path / "a" / "out" / name).read_bytes() == \
               (tmp_path / "b" / "out" / name).read_bytes()


def test_report_json_contents(tmp_path):
    cfg = _config(tmp_path)
    report = run_comparison(cfg)
    doc = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert doc["instance"] == "berlin52"
    assert doc["runs"] == 2
    assert doc["root_seed"] == 99
    assert doc["operators_order"] == ["RSM", "PSM", "HPRM"]
    assert doc["convergence_csv"] == "convergence.csv"
    assert set(doc["operators"]) == {"RSM", "PSM", "HPRM"}
    for name, stats in doc["operators"].items():
        assert stats["best"] <= stats["mean"] <= stats["worst"]
        assert stats["best"] >= 7542
        assert len(stats["final_bests"]) == 2
    assert doc["config"]["population_size"] == 16
    # the dataclass view matches the file
    assert [s.operator for s in report.operators] == ["RSM", "PSM", "HPRM"]


def test_csv_from_comparison_monotone_and_bounded(tmp_path):
    cfg = _config(tmp_path)
    run_comparison(cfg)
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()[1:]
    assert len(lines) == 3 * 2 * 25
    last = {}
    for line in lines:
        op, run, gen, best, gen_best, gen_mean = line.split(",")
        best = int(best)
        assert best >= 7542
        key = (op, run)
        if key in last:
            assert best <= last[key]
        last[key] = best


def test_parallel_jobs_match_sequential(tmp_path):
    cfg1 = _config(tmp_path / "seq", runs=2, ga=GaConfig(population_size=10, max_generations=8))
    cfg2 = _config(tmp_path / "par", runs=2, ga=GaConfig(population_size=10, max_generations=8), jobs=2)
    run_comparison(cfg1)
    run_comparison(cfg2)
    for name in ("convergence.csv", "report.json"):
        assert (tmp_path / "seq" / "out" / name).read_bytes() == \
               (tmp_path / "par" / "out" / name).read_bytes()


@pytest.fixture
def inline_pool(monkeypatch):
    """A process pool stand-in that records its size and maps cells in-process."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(tspga.experiment, "ProcessPoolExecutor", InlinePool)
    return sizes


def test_pool_never_exceeds_the_cell_count(tmp_path, monkeypatch, inline_pool):
    # A process pool starts every worker it is sized for, so --jobs above the
    # cell count must not reach it, even with CPUs to spare.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    ga = GaConfig(population_size=10, max_generations=8)
    run_comparison(_config(tmp_path / "seq", ga=ga))
    run_comparison(_config(tmp_path / "wide", ga=ga, jobs=64))
    assert inline_pool == [6]  # 3 operators x 2 runs
    for name in ("convergence.csv", "report.json"):
        assert (tmp_path / "seq" / "out" / name).read_bytes() == \
               (tmp_path / "wide" / "out" / name).read_bytes()


def test_pool_never_exceeds_the_usable_cpus(tmp_path, monkeypatch, inline_pool):
    # --jobs 1000 must not start 1,000 processes: the pool is capped at the
    # CPUs this process may use, else at os.cpu_count(); with neither known
    # the cells run in this process.
    ga = GaConfig(population_size=10, max_generations=8)
    run_comparison(_config(tmp_path / "seq", ga=ga))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    run_comparison(_config(tmp_path / "affinity", ga=ga, jobs=1000))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    run_comparison(_config(tmp_path / "count", ga=ga, jobs=1000))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_comparison(_config(tmp_path / "unknown", ga=ga, jobs=1000))
    assert inline_pool == [3, 4]
    for out in ("affinity", "count", "unknown"):
        for name in ("convergence.csv", "report.json"):
            assert (tmp_path / "seq" / "out" / name).read_bytes() == \
                   (tmp_path / out / "out" / name).read_bytes()


@pytest.mark.parametrize("cpus,runs,operators", [(1, 2, ("RSM", "PSM")), (4, 1, ("HPRM",))], ids=["one-cpu", "one-cell"])
def test_a_pool_of_one_worker_is_never_started(tmp_path, monkeypatch, inline_pool, cpus, runs, operators):
    # One worker would only fork and pickle every cell for nothing.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    ga = GaConfig(population_size=10, max_generations=8)
    run_comparison(_config(tmp_path / "seq", ga=ga, runs=runs, operators=operators))
    run_comparison(_config(tmp_path / "jobs", ga=ga, runs=runs, operators=operators, jobs=2))
    assert inline_pool == []
    for name in ("convergence.csv", "report.json"):
        assert (tmp_path / "seq" / "out" / name).read_bytes() == \
               (tmp_path / "jobs" / "out" / name).read_bytes()


def test_cells_do_not_score_their_initial_populations_again(tmp_path, monkeypatch):
    # run_comparison scores each run's initial population once and ships the
    # lengths with the cells, so each cell scores only its children.
    real_tour_lengths = tspga.population.tour_lengths
    scored = []

    def counted(dm, tours):
        scored.append(np.array(tours))
        return real_tour_lengths(dm, tours)

    monkeypatch.setattr(tspga.population, "tour_lengths", counted)
    cfg = _config(tmp_path, ga=GaConfig(population_size=10, max_generations=8))
    run_comparison(cfg)
    initial = scored[:cfg.runs]
    assert len(scored) == cfg.runs + 3 * cfg.runs * 8  # initial runs, then one per generation
    assert not any(
        np.array_equal(t, init) for t in scored[cfg.runs:] for init in initial
    )


def _fail_report_json(report):
    raise RuntimeError("simulated crash while rendering the report")


def _fail_replace(src, dst):
    raise OSError("simulated failed rename")


@pytest.mark.parametrize("owner,attr,failure", [
    (tspga.experiment, "_report_json", _fail_report_json),
    (os, "replace", _fail_replace),
], ids=["report", "rename"])
def test_failed_run_leaves_previous_outputs_intact(tmp_path, monkeypatch, owner, attr, failure):
    ga = GaConfig(population_size=10, max_generations=8)
    run_comparison(_config(tmp_path, ga=ga))
    out = tmp_path / "out"
    before = {name: (out / name).read_bytes() for name in ("convergence.csv", "report.json")}
    monkeypatch.setattr(owner, attr, failure)
    with pytest.raises((RuntimeError, OSError), match="simulated"):
        run_comparison(_config(tmp_path, ga=ga, root_seed=100))
    assert {name: (out / name).read_bytes() for name in before} == before
    assert sorted(p.name for p in out.iterdir()) == sorted(before)  # no temporaries left


@pytest.mark.parametrize(
    "kwargs",
    [
        {"operators": ()},
        {"operators": ("rsm", "rsm")},
        {"operators": ("rsm", "RSM")},  # duplicates after normalization
        {"runs": 0},
        {"jobs": 0},
        {"root_seed": -1},
    ],
)
def test_experiment_config_rejects_bad_values(tmp_path, kwargs):
    with pytest.raises(ValueError):
        _config(tmp_path, **kwargs)
