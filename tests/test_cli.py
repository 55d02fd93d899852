"""End-to-end command-line tests, through real subprocesses and in-process."""

import json
import math
import subprocess
import sys
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
