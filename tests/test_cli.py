"""End-to-end command-line tests, through real subprocesses and in-process."""

import json
import math
import multiprocessing
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import FUZZ_BYTES, TRIANGLE_TSP, cli_env

import tspga.cli
import tspga.data
import tspga.experiment
from tspga import TsplibParseError, load_instance, load_tour
from tspga.cli import main

BERLIN = str(tspga.data.BERLIN52_TSP)
OPT_TOUR = str(tspga.data.BERLIN52_OPT_TOUR)


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tspga", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.tsp"
    path.write_text(TRIANGLE_TSP, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- validate

def test_validate_scores_canonical_optimum():
    proc = run_cli("validate", BERLIN, OPT_TOUR)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7542"


def test_validate_triangle_tour(triangle_file, tmp_path):
    tour = tmp_path / "abc.tour"
    tour.write_text("TYPE: TOUR\nTOUR_SECTION\n1\n2\n3\n-1\nEOF\n")
    proc = run_cli("validate", triangle_file, str(tour))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "12"


def test_validate_duplicate_city_is_exit_3(tmp_path):
    tour = tmp_path / "dup.tour"
    tour.write_text("TOUR_SECTION\n" + "\n".join(["1", "2", "2"] + [str(i) for i in range(4, 53)]) + "\n-1\n")
    proc = run_cli("validate", BERLIN, str(tour))
    assert proc.returncode == 3
    assert proc.stdout == ""


def test_validate_wrong_length_tour_is_exit_3(triangle_file, tmp_path):
    tour = tmp_path / "short.tour"
    tour.write_text("TOUR_SECTION\n1\n2\n-1\n")
    proc = run_cli("validate", triangle_file, str(tour))
    assert proc.returncode == 3


def test_missing_instance_is_exit_1_and_names_file(tmp_path):
    missing = str(tmp_path / "nope.tsp")
    proc = run_cli("validate", missing, OPT_TOUR)
    assert proc.returncode == 1
    assert "nope.tsp" in proc.stderr


def test_unparseable_instance_is_exit_1(tmp_path):
    bad = tmp_path / "bad.tsp"
    bad.write_text("DIMENSION: x\n")
    proc = run_cli("validate", str(bad), OPT_TOUR)
    assert proc.returncode == 1


def test_non_finite_coordinates_are_exit_1_in_one_line(tmp_path):
    bad = tmp_path / "nan.tsp"
    bad.write_text(TRIANGLE_TSP.replace("1 0 0", "1 nan 0").replace("3 0 4", "3 0 inf"))
    proc = run_cli("solve", str(bad), "--seed", "1", "--pop", "4", "--generations", "2")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "line 6: non-finite" in proc.stderr


@pytest.mark.parametrize("x", ["1e300", "4e18"])
def test_coordinates_that_can_overflow_are_exit_1_in_one_line(tmp_path, x):
    bad = tmp_path / "wide.tsp"
    bad.write_text(f"DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 {x} 0\n2 -{x} 0\nEOF\n")
    tour = tmp_path / "two.tour"
    tour.write_text("TOUR_SECTION\n1\n2\n-1\n")
    proc = run_cli("validate", str(bad), str(tour))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "overflow" in proc.stderr


# The process's own peak resident set. ru_maxrss would not do: on Linux it
# keeps the peak of the test process that started this one.
_REPORT_PEAK_RSS = """\
import re, sys
from tspga.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as f:
    print(re.search(r"^VmHWM:\\s*(\\d+) kB", f.read(), re.M).group(1))
sys.exit(code)
"""


def _euc_2d_exact(dx, dy):
    # floor(sqrt(s) + 0.5) in integers: the largest k with (2k - 1)**2 <= 4s.
    return (math.isqrt(4 * (dx * dx + dy * dy)) + 1) // 2


def test_validate_50k_cities_in_bounded_memory(tmp_path):
    # The 50,000-city distance matrix alone would take 20 GB.
    n = 50_000
    rng = np.random.default_rng(50_000)
    coords = rng.integers(0, 1_000_000, size=(n, 2)).tolist()
    order = rng.permutation(n).tolist()
    inst = tmp_path / "big.tsp"
    inst.write_text(
        f"DIMENSION: {n}\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
        + "".join(f"{i} {x} {y}\n" for i, (x, y) in enumerate(coords, 1)) + "EOF\n"
    )
    tour = tmp_path / "big.tour"
    tour.write_text("TOUR_SECTION\n" + "".join(f"{c + 1}\n" for c in order) + "-1\n")
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_PEAK_RSS, "validate", str(inst), str(tour)],
        capture_output=True, text=True, env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    length, peak_kb = proc.stdout.split()
    expected = sum(
        _euc_2d_exact(coords[a][0] - coords[b][0], coords[a][1] - coords[b][1])
        for a, b in zip(order, order[1:] + order[:1])
    )
    assert int(length) == expected
    assert int(peak_kb) < 300 * 1024


def _fuzz_edit(data: bytes, rng) -> bytes:
    """data with one to three seeded edits: delete, insert, replace or splice."""
    b = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(0, len(b) + 1))
        byte = FUZZ_BYTES[int(rng.integers(0, len(FUZZ_BYTES)))]
        kind = int(rng.integers(0, 4))
        if kind == 0:
            del b[pos:pos + 1]
        elif kind == 1:
            b.insert(pos, byte)
        elif kind == 2:
            b[pos:pos + 1] = bytes([byte])
        else:
            start = int(rng.integers(0, len(b) + 1))
            b[pos:pos] = b[start:start + int(rng.integers(1, 40))]
    return bytes(b)


@pytest.mark.parametrize("target", ["instance", "tour"])
def test_validate_fuzzed_inputs_fail_cleanly(tmp_path, capsys, target):
    # Every edit either parses or raises TsplibParseError, and validate ends
    # in exit 0, 1 or 3 with one line on stderr, never a traceback.
    rng = np.random.default_rng(["instance", "tour"].index(target))
    paths = {"instance": BERLIN, "tour": OPT_TOUR}
    original = Path(paths[target]).read_bytes()
    fuzzed = paths[target] = tmp_path / f"fuzzed.{target}"
    load = load_instance if target == "instance" else (lambda path: load_tour(path, dimension=52))
    codes = set()
    for _ in range(800):
        fuzzed.write_bytes(_fuzz_edit(original, rng))
        try:
            load(fuzzed)
        except TsplibParseError:
            pass
        code = main(["validate", str(paths["instance"]), str(paths["tour"])])
        out, err = capsys.readouterr()
        codes.add(code)
        assert code in (0, 1, 3)
        assert err.count("\n") == (code != 0)
        assert (out == "") == (code != 0)
    assert codes == ({0, 1} if target == "instance" else {0, 1, 3})


@pytest.mark.parametrize("section", ["", "\n  \n\t\n"], ids=["empty", "blank"])
@pytest.mark.parametrize("target,tail", [
    ("instance", "EOF\n"), ("tour", "EOF\n"), ("tour", "-1\nEOF\n"),
], ids=["instance", "tour", "tour-terminated"])
def test_validate_empty_section_is_one_line(tmp_path, capsys, target, tail, section):
    # A section with no data is a count or terminator error: one line, no warning.
    inst, tour = tmp_path / "t.tsp", tmp_path / "t.tour"
    head = "DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
    inst.write_text(head + section + tail if target == "instance" else TRIANGLE_TSP)
    tour.write_text("DIMENSION: 3\nTOUR_SECTION\n" + (section + tail if target == "tour" else "1 2 3 -1\n"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["validate", str(inst), str(tour)])
    out, err = capsys.readouterr()
    assert code in (1, 3)
    assert out == "" and err.count("\n") == 1 and err.startswith("tspga: ")
    assert caught == []


def test_validate_reads_an_instance_rewritten_in_place(tmp_path, capsys, triangle_file, section_reads):
    # Same byte length, one coordinate changed: size and mtime may match, the text does not.
    tour = tmp_path / "abc.tour"
    tour.write_text("TOUR_SECTION\n1 2 3 -1\n")
    argv = ["validate", triangle_file, str(tour)]
    assert main(argv) == main(argv) == 0
    Path(triangle_file).write_text(TRIANGLE_TSP.replace("3 0 4", "3 0 8"))
    assert main(argv) == 0
    assert capsys.readouterr().out == "12\n12\n20\n"
    assert section_reads == [3, 3]


# ---------------------------------------------------------------- solve

def test_solve_replays_exactly(triangle_file):
    args = ("solve", triangle_file, "--seed", "42", "--pop", "6", "--generations", "5")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.splitlines()[0] == "seed 42"


def test_solve_finds_triangle_optimum(triangle_file):
    proc = run_cli("solve", triangle_file, "--seed", "3", "--pop", "6", "--generations", "5")
    lines = proc.stdout.splitlines()
    assert lines[1] == "best_length 12"
    tour = lines[2].split()
    assert tour[0] == "best_tour"
    assert sorted(tour[1:]) == ["0", "1", "2"]


def test_solve_zero_generations(triangle_file):
    proc = run_cli("solve", triangle_file, "--seed", "1", "--pop", "4", "--generations", "0")
    assert proc.returncode == 0
    assert any(line.startswith("best_length ") for line in proc.stdout.splitlines())


def test_solve_without_seed_prints_replayable_seed(triangle_file):
    first = run_cli("solve", triangle_file, "--pop", "6", "--generations", "4")
    assert first.returncode == 0
    head = first.stdout.splitlines()[0].split()
    assert head[0] == "seed"
    replay = run_cli("solve", triangle_file, "--pop", "6", "--generations", "4",
                     "--seed", head[1])
    assert replay.stdout == first.stdout


ZERO_LENGTH_TSP = TRIANGLE_TSP.replace("2 3 0", "2 0 0").replace("3 0 4", "3 0 0")


def test_solve_zero_length_instance(tmp_path):
    # Every tour has length 0: the roulette weights them all equally.
    inst = tmp_path / "point.tsp"
    inst.write_text(ZERO_LENGTH_TSP)
    proc = run_cli("solve", str(inst), "--seed", "4", "--pop", "6", "--generations", "5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "best_length 0"


def test_solve_trace_writes_csv(tmp_path, triangle_file):
    trace = tmp_path / "trace.csv"
    proc = run_cli("solve", triangle_file, "--seed", "2", "--pop", "5",
                   "--generations", "7", "--operator", "rsm", "--trace", str(trace))
    assert proc.returncode == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "operator,run,generation,best_so_far,gen_best,gen_mean"
    assert len(lines) == 1 + 7
    assert all(line.startswith("RSM,0,") for line in lines[1:])


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_solve_unwritable_trace_fails_before_the_run(tmp_path, monkeypatch, capsys, triangle_file, where):
    def never(*args):
        raise AssertionError("evolve ran")

    monkeypatch.setattr(tspga.cli, "evolve", never)
    trace = tmp_path / "nope" / "trace.csv" if where == "missing directory" else tmp_path
    assert main(["solve", triangle_file, "--seed", "1", "--trace", str(trace)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"tspga: cannot write {trace}: ") and err.count("\n") == 1
    assert sorted(f.name for f in tmp_path.iterdir()) == ["triangle.tsp"]


def test_solve_failed_run_leaves_an_existing_trace_untouched(tmp_path, monkeypatch, capsys, triangle_file):
    def refuse(*args):
        raise MemoryError

    trace = tmp_path / "trace.csv"
    trace.write_text("the previous trace\n")
    monkeypatch.setattr(tspga.cli, "evolve", refuse)
    assert main(["solve", triangle_file, "--seed", "1", "--trace", str(trace)]) == 1
    assert capsys.readouterr() == ("seed 1\n", "tspga: out of memory\n")
    assert trace.read_text() == "the previous trace\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["trace.csv", "triangle.tsp"]


def _solve_trace(triangle_file, trace):
    return main(["solve", triangle_file, "--seed", "4", "--pop", "5", "--generations", "6", "--trace", str(trace)])


@pytest.fixture()
def reference_trace(tmp_path, capsys, triangle_file):
    """The trace of _solve_trace written to a new regular file, and the run's stdout."""
    path = tmp_path / "reference" / "trace.csv"
    path.parent.mkdir()
    assert _solve_trace(triangle_file, path) == 0
    return path.read_bytes(), capsys.readouterr().out


@pytest.mark.parametrize("target_exists", [True, False], ids=["existing", "dangling"])
def test_solve_trace_through_a_symlink_keeps_the_link(tmp_path, capsys, triangle_file, reference_trace,
                                                      target_exists):
    target = tmp_path / "elsewhere" / "trace.csv"
    target.parent.mkdir()
    if target_exists:
        target.write_text("the previous trace\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert _solve_trace(triangle_file, link) == 0
    assert (target.read_bytes(), capsys.readouterr().out) == reference_trace
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert [f.name for f in target.parent.iterdir()] == ["trace.csv"]  # no temporary left


def test_solve_trace_into_a_fifo_writes_through_it(tmp_path, capsys, triangle_file, reference_trace):
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert _solve_trace(triangle_file, fifo) == 0
    reader.join(timeout=30)
    assert (received, capsys.readouterr().out) == ([reference_trace[0]], reference_trace[1])
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert not [f for f in tmp_path.iterdir() if f.name.startswith(".")]


def test_solve_trace_keeps_an_existing_files_mode(tmp_path, capsys, triangle_file, reference_trace):
    trace = tmp_path / "trace.csv"
    trace.write_text("the previous trace\n")
    trace.chmod(0o640)
    assert _solve_trace(triangle_file, trace) == 0
    assert (trace.read_bytes(), capsys.readouterr().out) == reference_trace
    assert stat.S_IMODE(trace.stat().st_mode) == 0o640


@pytest.fixture()
def closed_directory(monkeypatch):
    """Creating a file fails as in a directory without write permission.

    Only Path.touch, which makes the temporary, is refused: a test that
    chmods a directory shows nothing when it runs as root.
    """
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "touch", refuse)


def test_solve_trace_in_a_closed_directory_is_written_in_place(tmp_path, capsys, triangle_file, reference_trace,
                                                               closed_directory):
    trace = tmp_path / "trace.csv"
    trace.write_text("the previous trace, longer than the new one " * 100)
    inode = trace.stat().st_ino
    assert _solve_trace(triangle_file, trace) == 0
    assert (trace.read_bytes(), capsys.readouterr().out) == reference_trace
    assert trace.stat().st_ino == inode


def test_solve_trace_in_a_closed_directory_is_untouched_by_a_failed_run(tmp_path, monkeypatch, capsys,
                                                                        triangle_file, closed_directory):
    def refuse(*args):
        raise MemoryError

    trace = tmp_path / "trace.csv"
    trace.write_text("the previous trace\n")
    monkeypatch.setattr(tspga.cli, "evolve", refuse)
    assert _solve_trace(triangle_file, trace) == 1
    assert capsys.readouterr() == ("seed 4\n", "tspga: out of memory\n")
    assert trace.read_text() == "the previous trace\n"


def test_solve_new_trace_in_a_closed_directory_fails_before_the_run(tmp_path, monkeypatch, capsys, triangle_file,
                                                                    closed_directory):
    def never(*args):
        raise AssertionError("evolve ran")

    monkeypatch.setattr(tspga.cli, "evolve", never)
    trace = tmp_path / "trace.csv"
    assert _solve_trace(triangle_file, trace) == 1
    assert capsys.readouterr() == ("", f"tspga: cannot write {trace}: Permission denied\n")
    assert not trace.exists()


def test_solve_trace_in_a_read_only_directory(tmp_path, capsys, triangle_file, reference_trace):
    closed = tmp_path / "closed"
    closed.mkdir()
    trace = closed / "trace.csv"
    trace.write_text("the previous trace\n")
    closed.chmod(0o555)
    try:
        if os.access(closed, os.W_OK):
            pytest.skip("this user may write into a read-only directory")
        assert _solve_trace(triangle_file, trace) == 0
        assert _solve_trace(triangle_file, closed / "new.csv") == 1
    finally:
        closed.chmod(0o755)
    out, err = capsys.readouterr()
    assert (trace.read_bytes(), out) == reference_trace
    assert err == f"tspga: cannot write {closed / 'new.csv'}: Permission denied\n"


def test_solve_rejects_bad_population_value(triangle_file):
    proc = run_cli("solve", triangle_file, "--pop", "0", "--generations", "1", "--seed", "0")
    assert proc.returncode == 2
    assert proc.stderr != ""


def test_solve_rejects_unknown_operator(triangle_file):
    proc = run_cli("solve", triangle_file, "--operator", "wat", "--seed", "0")
    assert proc.returncode == 2


def _assert_one_line_exit_2(proc):
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("tspga: "), proc.stderr


def test_unknown_flag_is_exit_2(triangle_file):
    proc = run_cli("solve", triangle_file, "--bogus", "1")
    _assert_one_line_exit_2(proc)


def test_non_integer_flag_value_is_exit_2(triangle_file):
    proc = run_cli("solve", triangle_file, "--pop", "many")
    _assert_one_line_exit_2(proc)


def test_missing_subcommand_is_exit_2():
    proc = run_cli()
    _assert_one_line_exit_2(proc)


# ---------------------------------------------------------------- config file

def test_config_file_sets_values_and_flags_override(tmp_path, triangle_file):
    cfg = tmp_path / "ga.json"
    cfg.write_text(json.dumps({"pop": 6, "generations": 5, "seed": 9}))
    trace_a = tmp_path / "a.csv"
    proc = run_cli("solve", triangle_file, "--config", str(cfg), "--trace", str(trace_a))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "seed 9"
    assert len(trace_a.read_text().splitlines()) == 1 + 5  # config generations

    trace_b = tmp_path / "b.csv"
    proc = run_cli("solve", triangle_file, "--config", str(cfg),
                   "--generations", "3", "--trace", str(trace_b))
    assert len(trace_b.read_text().splitlines()) == 1 + 3  # flag wins


def test_config_value_means_its_text_as_a_flag(tmp_path, triangle_file):
    cfg = tmp_path / "ga.json"
    cfg.write_text(json.dumps({"pop": "6", "generations": 2, "seed": "9", "trace": 5}))
    proc = run_cli("solve", triangle_file, "--config", str(cfg), cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "seed 9"
    assert len((tmp_path / "5").read_text().splitlines()) == 1 + 2


def _out_flag(command, tmp_path):
    # Should compare not fail, it writes here, not into the working directory.
    return ["--out", str(tmp_path / "out")] if command == "compare" else []


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("solve", {"seed": [1]}, "seed"),
        ("solve", {"seed": "x"}, "seed"),
        ("solve", {"pop": [1]}, "pop"),
        ("solve", {"pop": 6.5}, "pop"),
        ("solve", {"pm": True}, "pm"),
        ("solve", {"operator": None}, "operator"),
        ("compare", {"runs": None}, "runs"),
        ("compare", {"operators": ["rsm"]}, "operators"),
        ("compare", {"jobs": "two"}, "jobs"),
        ("solve", {"trace": [1]}, "trace"),
        ("solve", {"generations": "1e3"}, "generations"),
        ("solve", {"crossover_rate": "high"}, "crossover_rate"),
        ("solve", {"elitism": {}}, "elitism"),
        ("compare", {"out": None}, "out"),
        ("compare", {"pm": False}, "pm"),
    ],
)
def test_malformed_config_value_is_exit_2_in_one_line(tmp_path, capsys, triangle_file, command, doc, key):
    cfg = tmp_path / "ga.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, triangle_file, "--config", str(cfg), *_out_flag(command, tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and repr(key) in err


def test_malformed_config_value_comes_before_a_missing_instance(tmp_path, capsys):
    # The config is read with the flags, before any file the command names.
    cfg = tmp_path / "ga.json"
    cfg.write_text(json.dumps({"pop": "many"}))
    assert main(["solve", str(tmp_path / "missing.tsp"), "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "tspga: config key 'pop': invalid int value 'many'\n"


def test_config_key_of_the_other_command_is_ignored(tmp_path, capsys, triangle_file):
    cfg = tmp_path / "ga.json"
    cfg.write_text(json.dumps({"runs": [1], "out": None, "seed": 3}))
    assert main(["solve", triangle_file, "--config", str(cfg), "--pop", "4", "--generations", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "seed 3"


_SOLVE_BASE = {"seed": "5", "pop": "6", "generations": "3", "trace": "trace.csv"}
_COMPARE_BASE = {"seed": "5", "pop": "6", "generations": "2", "runs": "1", "operators": "rsm",
                 "out": "out"}


def _run_in(directory, monkeypatch, capsys, argv):
    """main(argv) run in a fresh directory: its stdout and every file it wrote."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    assert main(argv) == 0
    files = {str(f.relative_to(directory)): f.read_bytes() for f in directory.rglob("*") if f.is_file()}
    return capsys.readouterr().out, files


@pytest.mark.parametrize(
    "command, key, text",
    [
        ("solve", "operator", "psm"),
        ("solve", "pop", "7"),
        ("solve", "generations", "4"),
        ("solve", "pm", "0.2"),
        ("solve", "crossover_rate", "0.5"),
        ("solve", "elitism", "2"),
        ("solve", "seed", "11"),
        ("solve", "trace", "other.csv"),
        ("compare", "operators", "psm,hprm"),
        ("compare", "runs", "2"),
        ("compare", "out", "elsewhere"),
        ("compare", "jobs", "2"),
    ],
)
def test_config_key_equals_its_flag(tmp_path, monkeypatch, capsys, command, key, text):
    base = dict(_SOLVE_BASE if command == "solve" else _COMPARE_BASE)
    base.pop(key, None)
    flags = [a for k, v in base.items() for a in ("--" + k.replace("_", "-"), v)]
    cfg = tmp_path / "ga.json"
    cfg.write_text(json.dumps({key: text}))
    by_config = _run_in(tmp_path / "config", monkeypatch, capsys,
                        [command, BERLIN, *flags, "--config", str(cfg)])
    by_flag = _run_in(tmp_path / "flag", monkeypatch, capsys,
                      [command, BERLIN, *flags, "--" + key.replace("_", "-"), text])
    assert by_config == by_flag
    assert by_flag[0].startswith("seed " if command == "solve" else "root_seed ")
    assert by_flag[1]  # the trace, or the comparison's two files


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_config_call_leaves_the_next_call_its_built_in_defaults(tmp_path, monkeypatch, capsys, command):
    # The parser is built once per process; a --config call must not leave
    # its values behind as the next call's defaults.
    base = dict(_SOLVE_BASE if command == "solve" else _COMPARE_BASE)
    del base["pop"]
    flags = [a for k, v in base.items() for a in ("--" + k.replace("_", "-"), v)]
    cfg = tmp_path / "ga.json"
    cfg.write_text(json.dumps({"pop": 7, "pm": 0.3}))
    _run_in(tmp_path / "config", monkeypatch, capsys, [command, BERLIN, *flags, "--config", str(cfg)])
    in_process = _run_in(tmp_path / "plain", monkeypatch, capsys, [command, BERLIN, *flags])
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    proc = run_cli(command, BERLIN, *flags, cwd=str(fresh))
    assert proc.returncode == 0, proc.stderr
    files = {str(f.relative_to(fresh)): f.read_bytes() for f in fresh.rglob("*") if f.is_file()}
    assert in_process == (proc.stdout, files)


@pytest.fixture()
def fresh_parser():
    """No parser cached before the test, and none it built kept after."""
    tspga.cli._build_parser.cache_clear()
    yield
    tspga.cli._build_parser.cache_clear()


def test_two_calls_build_the_parser_once(monkeypatch, capsys, fresh_parser):
    built = []

    class Counting(tspga.cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(tspga.cli, "_Parser", Counting)
    for _ in range(2):
        assert main(["validate", BERLIN, OPT_TOUR]) == 0
    assert capsys.readouterr().out == "7542\n7542\n"
    assert built.count("tspga") == 1


def test_a_config_call_builds_no_second_parser(tmp_path, monkeypatch, capsys, fresh_parser):
    built = []

    class Counting(tspga.cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(tspga.cli, "_Parser", Counting)
    cfg = tmp_path / "ga.json"
    cfg.write_text(json.dumps({"pop": 7, "generations": 1, "seed": 3}))
    assert main(["validate", BERLIN, OPT_TOUR]) == 0
    assert main(["solve", BERLIN, "--config", str(cfg), "--pop", "6"]) == 0
    assert capsys.readouterr().out.startswith("7542\nseed 3\n")
    assert built.count("tspga") == 1


@pytest.mark.parametrize("command", [[], ["solve"], ["compare"], ["validate"]], ids=lambda c: c[0] if c else "tspga")
def test_help_returns_0_with_the_text_of_a_fresh_process(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "90")
    assert main([*command, "--help"]) == 0
    out, err = capsys.readouterr()
    proc = run_cli(*command, "--help")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, err)
    assert out.startswith("usage: tspga")


def test_help_after_a_config_call_shows_the_built_in_defaults(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "ga.json"
    cfg.write_text(json.dumps({"pop": 7, "generations": 1, "seed": 3}))
    assert main(["solve", BERLIN, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("seed 3\n")
    monkeypatch.setenv("COLUMNS", "90")
    assert main(["solve", "--help"]) == 0
    out = capsys.readouterr().out
    assert out == run_cli("solve", "--help").stdout
    assert re.search(r"^ +--pop N +population size \(default 100\)$", out, re.MULTILINE), out


@pytest.mark.parametrize("command", ["solve", "compare"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_u64_is_exit_2(tmp_path, capsys, triangle_file, command, seed):
    assert main([command, triangle_file, "--seed", seed, *_out_flag(command, tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "tspga: seed must be an unsigned 64-bit integer\n"


def test_config_unknown_key_is_exit_2(tmp_path, triangle_file):
    cfg = tmp_path / "ga.json"
    cfg.write_text(json.dumps({"popsize": 6}))
    proc = run_cli("solve", triangle_file, "--config", str(cfg))
    assert proc.returncode == 2
    assert "popsize" in proc.stderr


def test_config_must_be_json_object(tmp_path, triangle_file):
    cfg = tmp_path / "ga.json"
    cfg.write_text("[1, 2]")
    proc = run_cli("solve", triangle_file, "--config", str(cfg))
    assert proc.returncode == 2


# ---------------------------------------------------------------- compare

def test_compare_writes_outputs_and_table(tmp_path):
    out = tmp_path / "cmp"
    proc = run_cli(
        "compare", BERLIN, "--operators", "rsm,hprm", "--runs", "2",
        "--pop", "10", "--generations", "6", "--seed", "7", "--out", str(out),
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "root_seed 7"
    assert lines[1].split() == ["operator", "best", "worst", "mean", "stddev", "gens_to_best"]
    assert lines[2].split()[0] == "RSM"
    assert lines[3].split()[0] == "HPRM"
    assert (out / "convergence.csv").is_file()
    assert (out / "report.json").is_file()
    assert str(out / "convergence.csv") in proc.stderr


def test_compare_single_run_has_zero_stddev(tmp_path):
    out = tmp_path / "cmp"
    proc = run_cli(
        "compare", BERLIN, "--operators", "psm", "--runs", "1",
        "--pop", "8", "--generations", "4", "--seed", "11", "--out", str(out),
    )
    assert proc.returncode == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["operators"]["PSM"]["stddev"] == 0.0


def test_compare_duplicate_operators_is_exit_2(tmp_path):
    proc = run_cli(
        "compare", BERLIN, "--operators", "rsm,rsm", "--runs", "1",
        "--seed", "0", "--out", str(tmp_path / "x"),
    )
    assert proc.returncode == 2


def test_compare_zero_length_instance(tmp_path):
    inst = tmp_path / "point.tsp"
    inst.write_text(ZERO_LENGTH_TSP)
    out = tmp_path / "cmp"
    proc = run_cli("compare", str(inst), "--runs", "2", "--pop", "6", "--generations", "4",
                   "--seed", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "report.json").read_text())
    assert all(s["final_bests"] == [0, 0] for s in doc["operators"].values())


def test_compare_missing_instance_is_exit_1_in_one_line(tmp_path, capsys):
    missing = tmp_path / "nope.tsp"
    assert main(["compare", str(missing), "--seed", "1", "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"tspga: cannot read {missing}: ") and err.count("\n") == 1


def test_compare_output_under_a_file_is_exit_1_naming_the_directory(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out_dir = blocker / "out"
    argv = ["compare", BERLIN, "--runs", "1", "--pop", "4", "--generations", "1",
            "--seed", "1", "--out", str(out_dir)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "root_seed 1\n"
    assert err.startswith(f"tspga: cannot write {out_dir}: ") and err.count("\n") == 1


def test_compare_in_a_closed_directory_fails_before_any_cell_runs(tmp_path, monkeypatch, capsys, closed_directory):
    def never(*args):
        raise AssertionError("evolve ran")

    monkeypatch.setattr(tspga.experiment, "evolve", never)
    out = tmp_path / "out"
    assert main(["compare", BERLIN, "--runs", "3", "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("root_seed 1\n", f"tspga: cannot write {out}: Permission denied\n")
    assert list(out.iterdir()) == []


def test_a_worker_that_dies_is_exit_1_in_one_line_and_the_next_compare_runs(tmp_path, monkeypatch, capsys):
    # The first call leaves its pool of two workers running; one of them is
    # killed. The next call fails in one line, and the one after that starts
    # a fresh pool.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argv = ["compare", BERLIN, "--runs", "2", "--pop", "6", "--generations", "3",
            "--seed", "1", "--jobs", "2", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    table = capsys.readouterr().out
    dead = multiprocessing.active_children()[0]
    os.kill(dead.pid, signal.SIGKILL)
    dead.join(timeout=60)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "root_seed 1\n"
    assert err.startswith("tspga: a worker process died: ") and err.count("\n") == 1, err
    assert main(argv) == 0
    assert capsys.readouterr().out == table


def test_import_loads_no_process_pool_and_no_secrets():
    # concurrent.futures loads when the first pool starts; the default seed
    # comes from os.urandom.
    code = "import sys, tspga.cli; print(*(m for m in ('concurrent.futures', 'secrets') if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_compare_default_output_dir(tmp_path):
    proc = run_cli(
        "compare", BERLIN, "--operators", "rsm", "--runs", "1",
        "--pop", "8", "--generations", "3", "--seed", "5",
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0
    assert (tmp_path / "compare_out" / "report.json").is_file()


@pytest.mark.parametrize("command", ["solve", "compare"])
@pytest.mark.parametrize("message", ["", "Unable to allocate 2.33 GiB for an array with shape (25000, 25000)"],
                         ids=["bare", "numpy"])
def test_allocation_failure_is_exit_1_in_one_line(tmp_path, monkeypatch, capsys, command, message):
    # As a matrix too large for memory: raised where the n^2 array is built,
    # without allocating it. solve builds it in tspga.cli, compare in
    # tspga.experiment.
    def refuse(inst):
        raise MemoryError(message)

    monkeypatch.setattr(tspga.cli, "build_distance_matrix", refuse)
    monkeypatch.setattr(tspga.experiment, "build_distance_matrix", refuse)
    argv = [command, BERLIN, "--seed", "1", *_out_flag(command, tmp_path)]
    if command == "compare":
        argv += ["--jobs", "1"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ("seed 1\n" if command == "solve" else "root_seed 1\n")
    assert err == "tspga: out of memory" + (f": {message}" if message else "") + "\n"


# ---------------------------------------------------------------- closed stdout

@pytest.mark.parametrize("command", ["solve", "compare"])
def test_stdout_closed_after_the_first_line_is_exit_1_without_traceback(tmp_path, command):
    # As `tspga ... | head -1`: the reader takes the seed line and leaves
    # while the GA still runs, so the later lines meet a closed pipe.
    out = tmp_path / "cmp"
    sizes = ["--pop", "30", "--generations", "300"] if command == "solve" else \
        ["--pop", "20", "--generations", "100", "--runs", "2", "--out", str(out)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "tspga", command, BERLIN, "--seed", "1", *sizes],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert first.split()[1] == "1"
    assert "Traceback" not in err and "Exception ignored" not in err
    lines = err.splitlines()
    assert len(lines) <= 1 and all(line.startswith("tspga: ") for line in lines), err
    if command == "compare":
        assert (out / "convergence.csv").is_file() and (out / "report.json").is_file()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", [[], ["solve"]], ids=["tspga", "solve"])
def test_help_that_cannot_be_written_is_exit_1_in_one_line(command, unbuffered):
    # argparse's own print_help drops the write error: unbuffered, the help
    # was lost with exit 0; buffered, the final flush failed with exit 120.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "tspga", *command, "--help"],
            stdout=full, stderr=subprocess.PIPE, text=True,
            env={**cli_env(), "PYTHONUNBUFFERED": unbuffered},
        )
    assert proc.returncode == 1
    assert proc.stderr == "tspga: cannot write standard output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["validate", "compare"])
def test_stdout_that_cannot_be_written_is_exit_1_in_one_line(tmp_path, command):
    # /dev/full takes no byte: the first line written (the length, or
    # root_seed) fails with ENOSPC.
    args = [OPT_TOUR] if command == "validate" else \
        ["--pop", "6", "--generations", "2", "--runs", "1", "--seed", "1", "--out", str(tmp_path / "cmp")]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "tspga", command, BERLIN, *args],
            stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env(),
        )
    assert proc.returncode == 1
    assert proc.stderr == "tspga: cannot write standard output: [Errno 28] No space left on device\n"
