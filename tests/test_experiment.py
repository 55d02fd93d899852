"""The paired comparison harness: pairing, statistics, emitted files."""

import concurrent.futures
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import tspga.data
import tspga.experiment
import tspga.population
from tspga import (
    ExperimentConfig,
    GaConfig,
    RngStream,
    RunResult,
    TraceRecord,
    emit_convergence_csv,
    generations_to_best,
    run_cell,
    run_comparison,
    summarize,
)
from tspga.experiment import _EVOLVE_STREAM, _INIT_STREAM
from tspga import derive_stream, init_population, evaluate, build_distance_matrix, load_instance
from conftest import cli_env


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_cell_replays_from_the_root_seed_and_its_run(tmp_path, jobs):
    # The replay contract: run_cell(cfg, operator, run, dm) is the comparison's
    # own cell, whether the comparison ran its cells in-process or in a pool.
    cfg = _config(tmp_path, jobs=jobs)
    run_comparison(cfg)
    doc = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    rows = (tmp_path / "out" / "convergence.csv").read_text(encoding="utf-8").splitlines()
    dm = build_distance_matrix(load_instance(cfg.instance_path))
    for operator in cfg.operators:
        for run in range(cfg.runs):
            cell = run_cell(cfg, operator, run, dm)
            assert cell.best_length == doc["operators"][operator]["final_bests"][run]
            emit_convergence_csv({(operator, run): cell.trace}, tmp_path / "cell.csv")
            cell_rows = (tmp_path / "cell.csv").read_text(encoding="utf-8").splitlines()
            assert cell_rows[1:] == [row for row in rows if row.startswith(f"{operator},{run},")]

            initial = evaluate(init_population(cfg.ga, len(dm), derive_stream(cfg.root_seed, _INIT_STREAM, run)), dm)
            given = run_cell(cfg, operator, run, dm, initial)
            assert (given.best_length, given.trace, given.generations_run) == \
                   (cell.best_length, cell.trace, cell.generations_run)
            assert np.array_equal(given.best_tour, cell.best_tour)


@pytest.mark.parametrize("operator", ["RSM", "PSM", "HPRM"])
def test_a_shorter_cell_is_the_head_of_a_longer_one(tmp_path, berlin52_dm, operator):
    # One long run answers every shorter budget: the stream reads its words
    # ahead across generations, and no draw depends on where a run stops.
    for run in range(2):
        short, long = (
            run_cell(_config(tmp_path, ga=GaConfig(population_size=20, max_generations=g,
                                                   mutation_rate=0.05)), operator, run, berlin52_dm)
            for g in (40, 80)
        )
        assert short.trace == long.trace[:40]
        assert (short.best_length == long.best_length) == np.array_equal(short.best_tour, long.best_tour)


class _RawWordsOnly(np.random.Generator):
    """A Generator whose random and integers raise."""

    def random(self, *args, **kwargs):
        raise AssertionError("Generator.random called")

    def integers(self, *args, **kwargs):
        raise AssertionError("Generator.integers called")


def test_draws_call_no_generator_method_but_permutation(tmp_path, monkeypatch, berlin52_dm):
    # Every draw but permutation comes from the stream's raw words, so the
    # package has one implementation of each; a call to Generator.random or
    # Generator.integers would be a second one.
    cfg = _config(tmp_path, ga=GaConfig(population_size=20, max_generations=10, mutation_rate=0.05))

    def outputs():
        initial = init_population(cfg.ga, 52, RngStream(7)).tours.tolist()
        cells = [run_cell(cfg, operator, 1, berlin52_dm) for operator in ("RSM", "PSM", "HPRM")]
        return initial, [(cell.best_length, cell.trace, cell.best_tour.tolist()) for cell in cells]

    expected = outputs()
    monkeypatch.setattr(np.random, "Generator", _RawWordsOnly)
    assert isinstance(RngStream(0)._gen, _RawWordsOnly)
    assert outputs() == expected


def test_run_cell_rejects_a_cell_outside_the_comparison(tmp_path, berlin52_dm):
    cfg = _config(tmp_path)
    for operator, run in [("RSM", cfg.runs), ("RSM", -1), ("2OPT", 0)]:
        with pytest.raises(ValueError):
            run_cell(cfg, operator, run, berlin52_dm)


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
        def __init__(self, max_workers, **pinning):
            sizes.append(max_workers)
            self.shut = False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self):
            self.shut = True

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
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


def _outputs(out_dir):
    return [(out_dir / "out" / name).read_bytes() for name in ("convergence.csv", "report.json")]


def _worker_pids():
    return {p.pid for p in multiprocessing.active_children()}


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_consecutive_parallel_comparisons_share_one_pool(tmp_path, monkeypatch):
    # The pool outlives a comparison: the next one with as many workers runs
    # on the same processes, and each still writes the bytes of jobs=1.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    configs = [dict(ga=GaConfig(population_size=10, max_generations=8)),
               dict(ga=GaConfig(population_size=12, max_generations=6), root_seed=5, operators=("psm", "hprm"))]
    pids = []
    for k, kwargs in enumerate(configs):
        run_comparison(_config(tmp_path / f"seq{k}", **kwargs))
        run_comparison(_config(tmp_path / f"par{k}", jobs=2, **kwargs))
        pids.append(_worker_pids())
        assert _outputs(tmp_path / f"par{k}") == _outputs(tmp_path / f"seq{k}")
    assert len(pids[0]) == 2 and pids[0] == pids[1]


def test_another_worker_count_replaces_the_pool(tmp_path, monkeypatch):
    # The old pool is shut down before the new one forks: its workers exit.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    ga = GaConfig(population_size=10, max_generations=8)
    run_comparison(_config(tmp_path / "seq", ga=ga))
    run_comparison(_config(tmp_path / "two", ga=ga, jobs=2))
    two = _worker_pids()
    run_comparison(_config(tmp_path / "three", ga=ga, jobs=3))
    three = _worker_pids()
    assert len(two) == 2 and len(three) == 3 and not two & three
    assert not any(_alive(pid) for pid in two)
    assert _outputs(tmp_path / "two") == _outputs(tmp_path / "seq") == _outputs(tmp_path / "three")


def test_a_dead_worker_fails_one_comparison_and_the_next_starts_a_fresh_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    ga = GaConfig(population_size=10, max_generations=8)
    run_comparison(_config(tmp_path / "seq", ga=ga))
    run_comparison(_config(tmp_path / "par", ga=ga, jobs=2))
    before = _outputs(tmp_path / "par")
    dead = multiprocessing.active_children()[0]
    os.kill(dead.pid, signal.SIGKILL)
    dead.join(timeout=60)
    with pytest.raises(BrokenProcessPool):
        run_comparison(_config(tmp_path / "par", ga=ga, jobs=2, root_seed=100))
    assert _outputs(tmp_path / "par") == before
    old = {dead.pid} | _worker_pids()
    run_comparison(_config(tmp_path / "again", ga=ga, jobs=2))
    assert len(_worker_pids()) == 2 and not _worker_pids() & old
    assert _outputs(tmp_path / "again") == _outputs(tmp_path / "seq")


_pinning = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")


@_pinning
@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs two usable CPUs")
def test_each_worker_keeps_to_its_own_share_of_the_cpus(tmp_path):
    # Idle workers woken onto one CPU may stay there while the other idles;
    # worker k keeps to every second usable CPU from the k-th.
    tspga.experiment._close_pool()  # a pool left by another test may hold shares of a stand-in CPU set
    cpus = sorted(os.sched_getaffinity(0))
    ga = GaConfig(population_size=10, max_generations=8)
    run_comparison(_config(tmp_path / "seq", ga=ga))
    run_comparison(_config(tmp_path / "par", ga=ga, jobs=2))
    shares = sorted((os.sched_getaffinity(pid) for pid in _worker_pids()), key=min)
    assert shares == [set(cpus[0::2]), set(cpus[1::2])]
    assert os.sched_getaffinity(0) == set(cpus)
    assert _outputs(tmp_path / "par") == _outputs(tmp_path / "seq")


@_pinning
def test_a_worker_that_cannot_keep_to_its_share_runs_unpinned(tmp_path, monkeypatch):
    tspga.experiment._close_pool()
    cpus = os.sched_getaffinity(0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(cpus), 10**6} if pid == 0 else cpus, raising=False)
    ga = GaConfig(population_size=10, max_generations=8)
    run_comparison(_config(tmp_path / "seq", ga=ga))
    run_comparison(_config(tmp_path / "par", ga=ga, jobs=2))
    monkeypatch.undo()
    shares = sorted((os.sched_getaffinity(pid) for pid in _worker_pids()), key=len)
    assert shares == [{min(cpus)}, cpus]  # no CPU 10**6: that worker runs where the system puts it
    assert _outputs(tmp_path / "par") == _outputs(tmp_path / "seq")
    tspga.experiment._close_pool()  # its unpinned worker serves no later test


def test_a_stand_in_pool_never_serves_a_later_comparison(tmp_path, monkeypatch, inline_pool):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    ga = GaConfig(population_size=10, max_generations=8)
    run_comparison(_config(tmp_path / "stand-in", ga=ga, jobs=2))
    stand_in = tspga.experiment._pool[2]
    monkeypatch.undo()  # the real executor class is back
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    run_comparison(_config(tmp_path / "real", ga=ga, jobs=2))
    assert inline_pool == [2] and stand_in.shut
    assert len(_worker_pids()) == 2
    assert _outputs(tmp_path / "real") == _outputs(tmp_path / "stand-in")


def test_no_worker_outlives_its_process(tmp_path):
    # Two parallel comparisons in a child process that, as a test runner
    # does, keeps tspga.experiment alive until the interpreter's last
    # clean-up. Once it has exited, none of its workers is left running, and
    # it printed nothing on the way out.
    script = f"""
import multiprocessing, os
import tspga.experiment
from tspga import ExperimentConfig, GaConfig, run_comparison
os.sched_getaffinity = lambda pid: {{0, 1}}
for seed in (1, 2):
    run_comparison(ExperimentConfig(ga=GaConfig(population_size=8, max_generations=4), operators=("rsm", "psm"),
                                    instance_path={str(tspga.data.BERLIN52_TSP)!r}, output_dir={str(tmp_path)!r},
                                    root_seed=seed, runs=2, jobs=2))
print(*(p.pid for p in multiprocessing.active_children()))
cycle = [tspga.experiment]
cycle.append(cycle)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=cli_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)


def test_a_forked_child_starts_a_pool_of_its_own(tmp_path):
    # The child has a copy of the parent's executor but not its threads: a
    # comparison there on the parent's pool would wait forever.
    script = f"""
import os, signal, sys
from tspga import ExperimentConfig, GaConfig, run_comparison
os.sched_getaffinity = lambda pid: {{0, 1}}
cfg = ExperimentConfig(ga=GaConfig(population_size=8, max_generations=4), operators=("rsm", "psm"),
                       instance_path={str(tspga.data.BERLIN52_TSP)!r}, output_dir={str(tmp_path)!r},
                       root_seed=1, runs=2, jobs=2)
run_comparison(cfg)
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child that waits on its parent's pool ends here
    run_comparison(cfg)
    sys.exit(0)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=cli_env(), timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


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
