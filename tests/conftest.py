"""Shared fixtures, the scripted RNG test double and the CLI subprocess environment."""

import os
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import tspga.data
from tspga import build_distance_matrix, load_instance


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

    def block(self, words):
        # Scripted values need no raw-word block; draws stay in queue order.
        return nullcontext(self)

    def exhausted(self):
        return not self.reals and not self.ints


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
