"""Shared fixtures, the RNG test doubles and plan checks, and the CLI subprocess environment."""

import os
from pathlib import Path

import numpy as np
import pytest

import tspga.data
import tspga.tsplib
from tspga import RngStream, build_distance_matrix, load_instance
from tspga.rng import _RawBlock


class ScriptedRng:
    """Hand-fed stand-in for RngStream with separate real and integer queues.

    Keeping the queues separate makes hand traces insensitive to whether an
    operator batches its probability draws, which is exactly the freedom the
    operators reserve. randint asserts the scripted value fits the requested
    range, so a trace that desynchronizes fails loudly.
    """

    def __init__(self, reals=(), ints=()):
        self.reals = list(reals)
        self.ints = list(ints)

    def random(self):
        return self.reals.pop(0)

    def random_array(self, k):
        return np.array([self.reals.pop(0) for _ in range(k)], dtype=float)

    def randint(self, lo, hi):
        value = self.ints.pop(0)
        assert lo <= value <= hi, f"scripted draw {value} outside [{lo}, {hi}]"
        return value

    def exhausted(self):
        return not self.reals and not self.ints


def assert_same_draw(rng, gen, call):
    """An RngStream call, as (method name, *args), draws what numpy's Generator does.

    random and random_array are Generator.random, randint(lo, hi) is
    Generator.integers(lo, hi + 1) and permutation is itself.
    """
    name, *args = call
    if name == "randint":
        want = gen.integers(args[0], args[1] + 1)
    else:
        want = getattr(gen, "random" if name == "random_array" else name)(*args)
    got = getattr(rng, name)(*args)
    assert np.array_equal(got, want) and np.asarray(got).dtype == np.asarray(want).dtype, call


def stream_end(rng):
    """Where a stream stands: the half-words it has drawn and its next draws.

    The first draw takes the buffered half-word, if any, and the double after
    it the next word. Drawing them moves the stream on.
    """
    return rng._block.q, [rng.randint(0, 2**32 - 1), rng.random(), rng.randint(0, 2**32 - 1)]


def buffer_half(bitgen, half):
    """Make half numpy's buffered half-word in a bit generator."""
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = 1, half
    bitgen.state = state


def assert_same_plan(array_plan, scalar_plan):
    names = ("cuts", "points", "rows", "swap_i", "swap_j")
    for name, got, want in zip(names, array_plan, scalar_plan):
        got = np.asarray(got, dtype=np.intp)
        assert np.array_equal(got, np.array(want, dtype=np.intp).reshape(-1, *got.shape[1:])), name


class LoggedStream(RngStream):
    """A stream that logs each integer draw's range and where its first half-word sits.

    The places are positions in the word buffer, which keeps them only while held.
    """

    def randint(self, lo, hi):
        blk = self._block
        self.log.append((hi, blk.half_at if blk.has_half else 2 * blk.pos))
        return super().randint(lo, hi)


class WordBits:
    """Bit generator stand-in for _RawBlock: fixed raw words in order, and numpy's half-word buffer."""

    def __init__(self, words, has_half, half):
        self.words, self.used = words, 0
        self.state = {"has_uint32": int(has_half), "uinteger": half}

    def random_raw(self, k):
        self.used += k
        assert self.used <= self.words.size, "the stand-in's words ran out"
        return self.words[self.used - k:self.used].copy()

    def advance(self, delta):
        """Move by delta words and empty the half-word buffer, as PCG64.advance does."""
        self.used += delta
        self.state = {"has_uint32": 0, "uinteger": 0}


def on_words(words, has_half, half, stream=RngStream):
    """A stream whose bit generator serves the given raw words."""
    rng = stream(0)
    rng._block = _RawBlock(WordBits(words, has_half, half))
    return rng


def plant_rejections(words, half, ats):
    """Copies of the raw words and buffered half with a half-word of 0 at each of ats.

    ats name half-words as _RawBlock does: word w's low half at 2w, its high
    half at 2w + 1, and the buffered half at -1.
    """
    words = words.copy()
    for at in ats:
        if at < 0:
            half = 0
        else:
            words[at // 2] &= np.uint64(0xFFFFFFFF << 32 if at % 2 == 0 else 0xFFFFFFFF)
    return words, half


def cli_env():
    """Environment for a ``python -m tspga`` subprocess.

    PYTHONPATH starts with the absolute directory holding the ``tspga`` package
    this test process imported, followed by the existing entries made absolute.
    The subprocess then runs the code under test from any working directory,
    whether the suite runs from a checkout (``PYTHONPATH=src``) or against an
    installed copy, and regardless of any other ``tspga`` on the path.
    """
    package_root = str(Path(tspga.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH", "")
    entries = [os.path.abspath(entry) for entry in existing.split(os.pathsep) if entry]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([package_root, *entries])
    return env


# Bytes a fuzz edit inserts: digits, signs, separators, keywords' letters,
# and bytes that are not UTF-8.
FUZZ_BYTES = b"0123456789-+.eE: \t\nDIMENSIONTOURSECaf\xff\xc3\x00"


TRIANGLE_TSP = """\
NAME: triangle
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 0
3 0 4
EOF
"""


@pytest.fixture(scope="session")
def berlin52():
    return load_instance(tspga.data.BERLIN52_TSP)


@pytest.fixture(scope="session")
def berlin52_dm(berlin52):
    return build_distance_matrix(berlin52)


@pytest.fixture(scope="session")
def triangle():
    from tspga import parse_instance

    return parse_instance(TRIANGLE_TSP)


@pytest.fixture(scope="session")
def triangle_dm(triangle):
    return build_distance_matrix(triangle)


@pytest.fixture()
def section_reads(monkeypatch):
    """No instance text remembered; returns the dimensions of the coordinate sections read."""
    monkeypatch.setattr(tspga.tsplib, "_last_parsed", None)
    reads = []
    read = tspga.tsplib._read_coord_section
    monkeypatch.setattr(tspga.tsplib, "_read_coord_section",
                        lambda lines, dimension: reads.append(dimension) or read(lines, dimension))
    return reads
