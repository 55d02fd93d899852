"""Seeded benchmark inputs: TSPLIB instance and tour text, reference lengths.

Everything here is the benchmark's own code and imports nothing from tspga,
so the reference lengths it computes are independent of the program under
test. The same (seed, n, key) always yields the same bytes.
"""

from __future__ import annotations

import numpy as np

# Integer coordinates keep the TSPLIB text an exact image of the array, so
# the program parses back the very values the reference lengths use.
COORD_LIMIT = 1_000_000

# Key of the tour the validate workload scores during set-up; timed calls use
# keys 0, 1, 2, ... so the warm-up input is never repeated inside the window.
WARMUP_TOUR_KEY = 2**32


def coordinates(seed: int, n: int) -> np.ndarray:
    """(n, 2) int64 city coordinates drawn uniformly from [0, COORD_LIMIT)."""
    return np.random.default_rng([seed, n]).integers(0, COORD_LIMIT, size=(n, 2))


def instance_text(name: str, coords: np.ndarray) -> str:
    """TSPLIB EUC_2D instance text with 1-based city indices."""
    head = [
        f"NAME: {name}",
        "TYPE: TSP",
        "COMMENT: uniform random cities, benchmark input",
        f"DIMENSION: {len(coords)}",
        "EDGE_WEIGHT_TYPE: EUC_2D",
        "NODE_COORD_SECTION",
    ]
    body = [f"{i} {x} {y}" for i, (x, y) in enumerate(coords.tolist(), 1)]
    return "\n".join(head + body + ["EOF"]) + "\n"


def tour(seed: int, n: int, key: int) -> np.ndarray:
    """A uniformly random 0-based city order, fixed by (seed, n, key)."""
    return np.random.default_rng([seed, n, key]).permutation(n)


def tour_text(name: str, order: np.ndarray) -> str:
    """TSPLIB TOUR_SECTION text for a 0-based city order."""
    head = [f"NAME: {name}", "TYPE: TOUR", f"DIMENSION: {len(order)}", "TOUR_SECTION"]
    body = [str(c) for c in (order + 1).tolist()]
    return "\n".join(head + body + ["-1", "EOF"]) + "\n"


def is_permutation(order, n: int) -> bool:
    """True when order holds each of 0..n-1 exactly once."""
    order = np.asarray(order)
    return order.shape == (n,) and bool((np.sort(order) == np.arange(n)).all())


def closed_length(coords: np.ndarray, order: np.ndarray) -> int:
    """Closed-tour length in O(n) under TSPLIB EUC_2D (nearest integer, ties up)."""
    xy = coords[order].astype(float)
    step = np.roll(xy, -1, axis=0) - xy
    return int(np.floor(np.sqrt((step * step).sum(axis=1)) + 0.5).astype(np.int64).sum())
