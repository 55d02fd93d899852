"""Golden outputs: sha256 digests of seeded runs, pinned byte for byte.

A change that alters any random draw, its order, or the arithmetic of an
operator changes these digests. Regenerate them only for a deliberate change
of behaviour, and say so where the change is recorded.

Run as a script, `python tests/test_golden.py`, this file prints every digest
table as the checkout it sits in computes it, and edits no file. A new
case's digest is taken from the commit before the change: copy this file,
with the new case in it, into a checkout of that commit and run it there.
"""

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

if __name__ == "__main__":  # the package of this checkout, also when installed elsewhere
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

import tspga.data
from tspga import (
    ExperimentConfig,
    GaConfig,
    Instance,
    RngStream,
    build_distance_matrix,
    evolve,
    init_population,
    load_instance,
    parse_instance,
    parse_tour,
    render_tour,
    run_comparison,
)
from tspga.cli import main
from conftest import FUZZ_BYTES


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- compare

COMPARE_DIGESTS = {
    "report.json": "c0667f21f626d269081718dda8e8d00bca09ed8a44ce61ff8b2af3ed329c0927",
    "convergence.csv": "b460141cab819e49c90b249a7e8372cc586113cde54887bc5f062997f54cbc55",
}


def _compare_digests(out_dir, jobs):
    cfg = ExperimentConfig(
        ga=GaConfig(population_size=30, max_generations=40),
        operators=("RSM", "PSM", "HPRM"),
        instance_path=str(tspga.data.BERLIN52_TSP),
        output_dir=str(out_dir),
        root_seed=2012,
        runs=3,
        jobs=jobs,
    )
    run_comparison(cfg)
    return {name: _sha((out_dir / name).read_bytes()) for name in COMPARE_DIGESTS}


@pytest.mark.parametrize("jobs", [1, 2])
def test_compare_outputs_are_golden(tmp_path, jobs):
    assert _compare_digests(tmp_path, jobs) == COMPARE_DIGESTS


# ---------------------------------------------------------------- solve

SOLVE_DIGESTS = {
    "rsm": "1d7c0425ef782ab7f2a28d017af8e378b226444ba1f6decd431175231953301c",
    "psm": "26487e65e9a364ec374bb3260e2acbcd6aa92b2d49cebeabb1d7c610aa280e5f",
    "hprm": "2c2d605aef96881655db0a96417c3aacd285d295260920d277811de466d7a777",
}


def _stdout(argv):
    """The standard output of a successful in-process CLI call."""
    with redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def _solve_digest(operator):
    return _sha(_stdout([
        "solve", str(tspga.data.BERLIN52_TSP), "--operator", operator,
        "--pop", "30", "--generations", "60", "--seed", "1203",
    ]).encode())


@pytest.mark.parametrize("operator", sorted(SOLVE_DIGESTS))
def test_solve_stdout_is_golden(operator):
    assert _solve_digest(operator) == SOLVE_DIGESTS[operator]


# ---------------------------------------------------------------- evolve at size

# Large enough that a generation's crossed children span several blocks of
# the crossover kernel.
LARGE_N = 2000
LARGE_POP = 80

EVOLVE_DIGESTS = {
    ("RSM", 0.3): "18215d5aeaab99061861fde1b83994d7a01380c526a1877dec9e45f0a099a964",
    ("PSM", 0.3): "9c3fc891be83a31aeab378f08df6309ccd0a9fbc9af96bbf0a3d2404db4ca22d",
    ("HPRM", 0.3): "5d6499970f05762d7cd99e5be85fbb8c44c6fc33cc535a4d069801c4df96388f",
    ("HPRM", 0.0): "18215d5aeaab99061861fde1b83994d7a01380c526a1877dec9e45f0a099a964",
}


def _large_dm():
    coords = np.random.default_rng(5000).uniform(0.0, 10_000.0, size=(LARGE_N, 2))
    return build_distance_matrix(Instance("synthetic", coords))


@pytest.fixture(scope="module")
def large_dm():
    return _large_dm()


def _evolve_digest(dm, operator, pm):
    cfg = GaConfig(
        population_size=LARGE_POP, max_generations=3, crossover_rate=0.5,
        mutation_rate=pm, mutation_operator=operator,
    )
    rng = RngStream(77)
    result = evolve(cfg, dm, init_population(cfg, LARGE_N, rng), rng)
    trace = repr([(r.generation, r.best_so_far, r.gen_best, r.gen_mean) for r in result.trace])
    return _sha(trace.encode() + result.best_tour.astype("<i8").tobytes())


@pytest.mark.parametrize("operator,pm", sorted(EVOLVE_DIGESTS))
def test_evolve_trace_and_best_tour_are_golden(large_dm, operator, pm):
    assert _evolve_digest(large_dm, operator, pm) == EVOLVE_DIGESTS[(operator, pm)]


# ---------------------------------------------------------------- distance matrix and validate

DM_DIGESTS = {
    "berlin52": "cee59c78d79425575eaca496358d32e5741eee67cb7eaee0686d8261bf43e5ff",
    5000: "b0afa82b9106b32668a1e31955e3d1ef6dc893c3fc4f35ebf5483793d5e30137",
}

# Instance size -> digest of the validate stdout of VALIDATE_TOURS seeded tours.
VALIDATE_DIGESTS = {
    2000: "a54f4b4e31b0080b335314390813423e28073ad3edcfbc361b500dc5bf2280fa",
    5000: "3702f86e226c285bbdab18cac6a39744394dc5c27b0278004aa19c7d707488f9",
}
VALIDATE_TOURS = 3


def _synthetic_instance(n):
    # One decimal keeps the written text an exact image of the array.
    coords = np.random.default_rng([2012, n]).uniform(0.0, 10_000.0, size=(n, 2)).round(1)
    return Instance("synthetic", coords)


def _instance_text(inst):
    head = [f"NAME: {inst.name}", "TYPE: TSP", f"DIMENSION: {inst.dimension}",
            "EDGE_WEIGHT_TYPE: EUC_2D", "NODE_COORD_SECTION"]
    body = [f"{i} {x!r} {y!r}" for i, (x, y) in enumerate(inst.coords.tolist(), 1)]
    return "\n".join(head + body + ["EOF"]) + "\n"


def _dm_digest(inst):
    return _sha(build_distance_matrix(inst).astype("<i8").tobytes())


def test_berlin52_distance_matrix_is_golden(berlin52):
    assert _dm_digest(berlin52) == DM_DIGESTS["berlin52"]


def test_large_distance_matrix_is_golden():
    # At n=5000 the matrix is built in hundreds of row blocks.
    assert _dm_digest(_synthetic_instance(5000)) == DM_DIGESTS[5000]


def _validate_digest(out_dir, n):
    inst_path = out_dir / "synthetic.tsp"
    inst_path.write_text(_instance_text(_synthetic_instance(n)), encoding="utf-8")
    rng = np.random.default_rng([77, n])
    out = []
    for k in range(VALIDATE_TOURS):
        tour_path = out_dir / f"t{k}.tour"
        tour_path.write_text(render_tour(rng.permutation(n)), encoding="utf-8")
        out.append(_stdout(["validate", str(inst_path), str(tour_path)]))
    return _sha("".join(out).encode())


@pytest.mark.parametrize("n", sorted(VALIDATE_DIGESTS))
def test_validate_stdout_is_golden(tmp_path, n):
    assert _validate_digest(tmp_path, n) == VALIDATE_DIGESTS[n]


# ---------------------------------------------------------------- parse outcomes

# Edit tokens beyond FUZZ_BYTES: separators and markers a number parser may
# treat differently from str.split, int() and float(), and line breaks that
# str.splitlines knows.
PARSE_TOKENS = [bytes([b]) for b in FUZZ_BYTES] + [
    b"_", b"#", b",", b"nan", b"inf", b"\x0c", b"\x1f", b"\xc2\xa0", b"\r\n",
]
PARSE_EDITS = 1000  # edited texts per file

_COORD_HEAD = "NAME: t\nTYPE: TSP\nDIMENSION: {}\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
_TOUR_HEAD = "NAME: t\nTYPE: TOUR\nDIMENSION: {}\nTOUR_SECTION\n"
_TEN_ROWS = [f"{i} {3 * i} {i * i}" for i in range(1, 11)]
_TEN_CITIES = [str(i) for i in (3, 1, 4, 10, 5, 9, 2, 6, 8, 7)]


def _coords_text(rows, dimension=10, tail="EOF\n"):
    return _COORD_HEAD.format(dimension) + "".join(r + "\n" for r in rows) + tail


def _tour_text(cities, dimension=10, tail="-1\nEOF\n"):
    return _TOUR_HEAD.format(dimension) + "".join(c + "\n" for c in cities) + tail


def _swap_row(rows, k, row):
    return rows[:k] + [row] + rows[k + 1:]


INSTANCE_CASES = [
    _coords_text(_TEN_ROWS),
    _coords_text(_swap_row(_TEN_ROWS, 0, "1.0 3 1")),
    _coords_text(_swap_row(_TEN_ROWS, 0, "1e0 3 1")),
    _coords_text(_swap_row(_TEN_ROWS, 9, "1_0 30 100")),
    _coords_text(_swap_row(_TEN_ROWS, 1, "2 6_0 4")),
    _coords_text(_swap_row(_TEN_ROWS, 2, "٣ 9 9")),
    _coords_text(_swap_row(_TEN_ROWS, 2, "3 ٣ 9")),
    _coords_text(_swap_row(_TEN_ROWS, 0, "-01 3 1")),
    _coords_text(_swap_row(_TEN_ROWS, 0, "+1 +3 +1")),
    _coords_text(_swap_row(_TEN_ROWS, 0, "1 3 1 7")),
    _coords_text(_swap_row(_TEN_ROWS, 0, "1 3")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "5 nan 25")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "5 15 inf")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "5 1e999 25")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "5 4e-320 25")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "5 1e300 25")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "4 15 25")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "0 15 25")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "11 15 25")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "99999999999999999999 15 25")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "5 15 25 # note")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "5,15,25")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "5\t15\xa025\x1f")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "5 15 25\x0c6 18 36")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "5 15 2\x005")),
    _coords_text(_swap_row(_TEN_ROWS, 4, "NODE_COORD_SECTION")),
    _coords_text(_TEN_ROWS[:5] + ["EOF"] + _TEN_ROWS[5:]),
    _coords_text(_TEN_ROWS, tail="EOF\n11 0 0\n"),
    _coords_text(_TEN_ROWS, tail="EOF\n\n  \n"),
    _coords_text(_TEN_ROWS, tail="EOF\nEOF\n"),
    _coords_text(_TEN_ROWS, tail="  EOF  \n"),
    _coords_text(_TEN_ROWS, tail=""),
    _coords_text(_TEN_ROWS[:9]),
    _coords_text(_TEN_ROWS + ["11 0 0"]),
    _coords_text(_TEN_ROWS[:3] + [""] * 3 + _TEN_ROWS[3:]),
    _coords_text(_TEN_ROWS).replace("\n", "\r\n"),
    _coords_text(_TEN_ROWS).replace("\n", "\x0c"),
    _coords_text(_TEN_ROWS).replace("EDGE_WEIGHT_TYPE: EUC_2D\n", ""),
    _coords_text(_TEN_ROWS).replace("DIMENSION: 10\n", ""),
    _coords_text([], 2),
    _coords_text(["", "  ", "\t"], 2),
    _coords_text([], 2, tail=""),
    _coords_text(["1 0 0"], 1),
    _coords_text(_TEN_ROWS[:3], 10**12),
    _coords_text(_TEN_ROWS[:3], -3),
    _coords_text(_TEN_ROWS[:3], 0),
]

TOUR_CASES = [
    _tour_text(_TEN_CITIES),
    _tour_text(["1.0"] + _TEN_CITIES[1:]),
    _tour_text(["1e0"] + _TEN_CITIES[1:]),
    _tour_text(["1_0" if c == "10" else c for c in _TEN_CITIES]),
    _tour_text(["٣" if c == "3" else c for c in _TEN_CITIES]),
    _tour_text(_TEN_CITIES, tail="-01\n"),
    _tour_text(_TEN_CITIES, tail="-1 5\n"),
    _tour_text(_TEN_CITIES[:-1], tail=f"{_TEN_CITIES[-1]} -1 5\n"),
    _tour_text(_TEN_CITIES, tail="-1\n5\n"),
    _tour_text(_TEN_CITIES, tail="-1 -1\n"),
    _tour_text(_TEN_CITIES, tail="-1\n-1\n"),
    _tour_text(_TEN_CITIES[:4] + ["EOF"] + _TEN_CITIES[4:]),
    _tour_text(_TEN_CITIES[:4], tail="EOF\n" + "\n".join(_TEN_CITIES[4:]) + "\n-1\n"),
    _tour_text(_TEN_CITIES, tail="-1\nEOF\n7\n"),
    _tour_text(_TEN_CITIES, tail="-1\nEOF\n\n EOF \n"),
    _tour_text(_TEN_CITIES, tail=""),
    _tour_text([" ".join(_TEN_CITIES) + " -1"], tail=""),
    _tour_text(["\t".join(_TEN_CITIES[:5]), "\xa0".join(_TEN_CITIES[5:])]),
    _tour_text(_TEN_CITIES[:5] + ["\x1f".join(_TEN_CITIES[5:])]),
    _tour_text(_TEN_CITIES[:5] + ["\x0c".join(_TEN_CITIES[5:])]),
    _tour_text(_TEN_CITIES).replace("\n", "\r\n"),
    _tour_text(_TEN_CITIES[:-1] + ["3"]),
    _tour_text(_TEN_CITIES[:-1] + ["0"]),
    _tour_text(_TEN_CITIES[:-1] + ["11"]),
    _tour_text(_TEN_CITIES[:-1] + ["99999999999999999999"]),
    _tour_text(_TEN_CITIES[:-1] + ["7,"]),
    _tour_text(_TEN_CITIES[:-1] + ["7#"]),
    _tour_text(_TEN_CITIES[:-1] + ["TOUR_SECTION"]),
    _tour_text(_TEN_CITIES[:-1]),
    _tour_text(_TEN_CITIES + ["11"]),
    _tour_text(_TEN_CITIES, 9),
    _tour_text(_TEN_CITIES, 11),
    _tour_text(_TEN_CITIES).replace("DIMENSION: 10\n", ""),
    _tour_text(_TEN_CITIES).replace("DIMENSION: 10\n", "DIMENSION: ten\n"),
    _tour_text(_TEN_CITIES).replace("TOUR_SECTION\n", ""),
    _tour_text([], 2),
    _tour_text(["", "  ", "\t"], 2),
    _tour_text([], 2, tail=""),
    _tour_text(["", "  "], 2, tail=""),
    _tour_text([], 0),
    _tour_text([]).replace("DIMENSION: 10\n", ""),
    _tour_text(_TEN_CITIES[:3], 10**12),
]

# Texts at the edge of the one-call tour read, which takes a section that
# holds only ASCII digits and ASCII whitespace before a final "-1": numbers
# that int() and np.fromstring read differently, separators one of them does
# not split at, and header lines that move the section or the line numbers.
_SECTION = "\n".join(_TEN_CITIES) + "\n"
TOUR_FAST_PATH_CASES = [
    _tour_text(_TEN_CITIES[:5] + ["- 1"] + _TEN_CITIES[5:]),
    _tour_text(_TEN_CITIES[:-1] + [_TEN_CITIES[-1] + " - 1"], tail="EOF\n"),
    _tour_text(_TEN_CITIES, tail="-1 EOF\n"),
    _tour_text(_TEN_CITIES, tail="-1\tEOF\n"),
    _tour_text(["", "", ""], tail=""),
    _tour_text(["", " ", "\t"], tail="\n\n"),
    _tour_text(["", " \n\t"], tail="-1\n"),
    _tour_text(["1 2"], 3, tail="3 -1\n"),
    _tour_text(["1 2"], 3, tail="3\t-1\nEOF\n"),
    _tour_text(["3 1 4 10 5", "9 2 6 8 7 -1"], tail="EOF\n"),
    _tour_text(_TEN_CITIES[:-1] + ["-9223372036854775809"]),
    _tour_text(_TEN_CITIES[:-1] + ["9223372036854775808"]),
    _tour_text(_TEN_CITIES[:-1] + ["18446744073709551623"]),
    _tour_text(_TEN_CITIES[:-1] + ["0007"]),
    _tour_text(["+1" if c == "1" else c for c in _TEN_CITIES]),
    _tour_text(_TEN_CITIES, tail="+1\n"),
    _tour_text(_TEN_CITIES, tail="--1\n"),
    _tour_text(_TEN_CITIES[:-1], tail=_TEN_CITIES[-1] + "-1\n"),
    _tour_text(_TEN_CITIES[:5] + ["\x1c".join(_TEN_CITIES[5:])]),
    _tour_text(_TEN_CITIES[:5] + ["\x85".join(_TEN_CITIES[5:])]),
    _tour_text(_TEN_CITIES[:5] + ["\xa0".join(_TEN_CITIES[5:])]),
    _tour_text(_TEN_CITIES[:5] + ["\x0b".join(_TEN_CITIES[5:])]),
    _tour_text(_TEN_CITIES[:5] + ["\x00".join(_TEN_CITIES[5:])]),
    _tour_text(_TEN_CITIES, tail="-1\n\x85\xa0\n"),
    _tour_text(_TEN_CITIES).replace("\n", "\r\n"),
    _TOUR_HEAD.format(10) + _SECTION.replace("\n", "\r\n") + "-1\r\nEOF\r\n",
    _TOUR_HEAD.format(10) + _SECTION.replace("\n", "\r") + "-1\rEOF\r",
    "TOUR_SECTION\n" + _SECTION + "-1\nEOF\n",
    "\nTOUR_SECTION\n" + _SECTION + "-1\nEOF\n",
    "TOUR_SECTION\n" + _SECTION + "7#\n-1\n",
    "\nTOUR_SECTION\n" + _SECTION + "7#\n-1\n",
    "COMMENT: see TOUR_SECTION\n" + _tour_text(_TEN_CITIES),
    "COMMENT: see TOUR_SECTION\n" + _tour_text(_TEN_CITIES[:-1] + ["7#"]),
    "\nDIMENSION: ten\nTOUR_SECTION\n" + _SECTION + "-1\n",
    "\n\nDIMENSION: 10\x0c\nTOUR_SECTION\n" + _SECTION + "7#\n-1\n",
    "DIMENSION: 10\r\nTOUR_SECTION\n" + _SECTION + "7#\n-1\n",
    "DIMENSION: 10\n TOUR_SECTION\n" + _SECTION + "-1\n",
    "TOUR_SECTION\n\nTOUR_SECTION\n" + _SECTION + "-1\n",
    "DIMENSION: 10\n TOUR_SECTION\nTOUR_SECTION\n" + _SECTION + "-1\n",
    "DIMENSION: 10\nTOUR_SECTION \n" + _SECTION + "-1\n",
    _tour_text(_TEN_CITIES).replace("DIMENSION: 10\n", "DIMENSION: 10\nEOF\n"),
    _tour_text(_TEN_CITIES, tail="-1\nEOF\nEOF\n"),
    _tour_text(_TEN_CITIES, tail="-1\n  EOF  \n"),
    _tour_text(_TEN_CITIES, tail="-1\nEOF\n-1\n"),
    _tour_text(_TEN_CITIES[:4] + ["EOF"] + _TEN_CITIES[4:]),
    _tour_text([], 0),
    _tour_text([], 0, tail="\t-1\n"),
    _tour_text(_TEN_CITIES, 10**12),
]


def _parse_edit(data: bytes, rng) -> bytes:
    """data with one to three seeded edits: delete, insert, replace or splice."""
    b = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(0, len(b) + 1))
        token = PARSE_TOKENS[int(rng.integers(0, len(PARSE_TOKENS)))]
        kind = int(rng.integers(0, 4))
        if kind == 0:
            del b[pos:pos + int(rng.integers(1, 4))]
        elif kind == 1:
            b[pos:pos] = token
        elif kind == 2:
            b[pos:pos + 1] = token
        else:
            start = int(rng.integers(0, len(b) + 1))
            b[pos:pos] = b[start:start + int(rng.integers(1, 40))]
    return bytes(b)


def _edited_texts(path, seed):
    rng = np.random.default_rng(seed)
    original = path.read_bytes()
    return [_parse_edit(original, rng).decode("utf-8", errors="replace") for _ in range(PARSE_EDITS)]


def _outcome_digest(calls):
    """One digest over each call's result bytes, or its exception's type and message."""
    h = hashlib.sha256()
    for parse, text in calls:
        try:
            out = b"ok " + parse(text)
        except Exception as e:  # pins the failure's type, not only that it failed
            out = f"{type(e).__name__}: {e}".encode("utf-8", errors="backslashreplace")
        h.update(len(out).to_bytes(8, "little") + out)
    return h.hexdigest()


def _instance_calls(texts):
    def parse(text):
        inst = parse_instance(text)
        return f"{inst.name!r} {inst.dimension} ".encode() + inst.coords.astype("<f8").tobytes()

    return [(parse, text) for text in texts]


def _tour_calls(texts, dimension=52):
    # Each text read as its file declares it, and cross-checked as validate reads it.
    return [
        (lambda text, d=d: parse_tour(text, d).astype("<i8").tobytes(), text)
        for text in texts for d in (None, dimension)
    ]


def _large_instance_text():
    # Coordinates over eleven decades, written in full repr: fractions and exponents.
    rng = np.random.default_rng(9)
    coords = rng.uniform(0.0, 10_000.0, size=(5000, 2)) * 10.0 ** rng.integers(-8, 3, size=(5000, 2))
    return _instance_text(Instance("large", coords))


PARSE_CORPORA = {
    "instance edits": lambda: _instance_calls(_edited_texts(tspga.data.BERLIN52_TSP, 0)),
    "tour edits": lambda: _tour_calls(_edited_texts(tspga.data.BERLIN52_OPT_TOUR, 1)),
    "instance cases": lambda: _instance_calls(INSTANCE_CASES),
    "tour cases": lambda: _tour_calls(TOUR_CASES),
    "tour fast-path cases": lambda: _tour_calls(TOUR_FAST_PATH_CASES, 10),
    "instance 5000": lambda: _instance_calls([_large_instance_text()]),
    "tour 5000": lambda: _tour_calls([render_tour(np.random.default_rng(10).permutation(5000))]),
}

PARSE_DIGESTS = {
    "instance edits": "6ab6106312ab01edfdb14283b3341ce692ccde187ed129c3e34d47282e8692bf",
    "tour edits": "c44a8794027135995becc4fb466d4bdcedbfc52935f2d6eeac0bcc92ee736b38",
    "instance cases": "e517ebd0e07aadbd61b72dd3d7d1a23df087dc93bee3e869dcc4ba34bd712afc",
    "tour cases": "5bd986677e5229bf74c9f7fc613149578e893c13857669f0f37e1847e082b0fb",
    "tour fast-path cases": "4b4aca61e1fb2856619c9b8272246423861d874887b9701fb2800f58d7472fb6",
    "instance 5000": "8eac0c892abb5487edb68ad48dcbac0c520af146e5ea406cdb64118fd552af47",
    "tour 5000": "73393445da17e65404d51af23058d80f84893e20484925fa5d9447dc9cbfd0e5",
}


@pytest.mark.parametrize("corpus", sorted(PARSE_CORPORA))
def test_parse_outcomes_are_golden(corpus):
    assert _outcome_digest(PARSE_CORPORA[corpus]()) == PARSE_DIGESTS[corpus]


def _tables(out_dir):
    """Every digest table of this file, as this checkout computes it."""
    large_dm = _large_dm()
    return {
        "COMPARE_DIGESTS": _compare_digests(out_dir, jobs=1),
        "SOLVE_DIGESTS": {op: _solve_digest(op) for op in SOLVE_DIGESTS},
        "EVOLVE_DIGESTS": {key: _evolve_digest(large_dm, *key) for key in EVOLVE_DIGESTS},
        "DM_DIGESTS": {
            "berlin52": _dm_digest(load_instance(tspga.data.BERLIN52_TSP)),
            5000: _dm_digest(_synthetic_instance(5000)),
        },
        "VALIDATE_DIGESTS": {n: _validate_digest(out_dir, n) for n in VALIDATE_DIGESTS},
        "PARSE_DIGESTS": {name: _outcome_digest(calls()) for name, calls in PARSE_CORPORA.items()},
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for table, digests in _tables(Path(tmp)).items():
            print(f"{table} = {{")
            for key, digest in digests.items():
                print(f'    {key!r}: "{digest}",')
            print("}")
