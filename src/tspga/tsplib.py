"""TSPLIB-style instance and tour files, distance matrices, tour lengths.

File indices are 1-based on disk and 0-based everywhere inside the package;
the conversion happens here and only here.

The EUC_2D distance, floor(sqrt(dx**2 + dy**2) + 0.5), is defined once, in
_euc_2d, and has two users that give the same integers for the same pair:
build_distance_matrix, whose matrix the GA gathers from, and
closed_tour_length, which scores one tour from consecutive coordinates in
O(n) time and memory.

A well-formed NODE_COORD_SECTION or TOUR_SECTION is read in one numpy pass
and checked as arrays. When that read fails or a check does not pass, the
line loop reads the section instead and its error names the first bad line,
so the result or the error is the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, isfinite
from pathlib import Path

import numpy as np


class TsplibParseError(ValueError):
    """Malformed instance or tour text; the message names the offending line."""


class InvalidTourError(TsplibParseError):
    """Tour text that parses but is not a permutation of the expected cities."""


@dataclass(frozen=True)
class Instance:
    """A Euclidean city set.

    coords is an (n, 2) float array in file order; distances are the rounded
    2D Euclidean metric (TSPLIB EUC_2D), the only one parse_instance admits.
    """

    name: str
    dimension: int
    coords: np.ndarray

    def __post_init__(self):
        if self.dimension < 2:
            raise TsplibParseError(f"dimension must be at least 2, got {self.dimension}")
        coords = np.asarray(self.coords, dtype=float)
        if coords.shape != (self.dimension, 2):
            raise TsplibParseError(
                f"coordinate array shape {coords.shape} does not match dimension {self.dimension}"
            )
        coords.setflags(write=False)  # shared read-only across concurrent runs
        object.__setattr__(self, "coords", coords)
        # Keeps every closed tour's length below the int64 limit. Python
        # floats overflow to inf without a warning.
        bound = _edge_bound(coords)
        if not self.dimension * bound < 2.0**63:
            raise TsplibParseError(
                f"coordinates span {bound - 1.0:.6g}; a {self.dimension}-city tour length "
                "could overflow 64 bits"
            )


def _edge_bound(coords: np.ndarray) -> float:
    """The bounding-box diagonal plus one, which no EUC_2D edge here reaches."""
    (x0, y0), (x1, y1) = coords.min(axis=0).tolist(), coords.max(axis=0).tolist()
    return hypot(x1 - x0, y1 - y0) + 1.0


def parse_instance(text: str) -> Instance:
    """Parse TSPLIB instance text into an Instance.

    Requires DIMENSION, EDGE_WEIGHT_TYPE: EUC_2D and a NODE_COORD_SECTION
    with one "index x y" line per city, 1-based indices and finite
    coordinates, terminated by an EOF keyword or the end of the text.
    Header keys not understood (COMMENT and friends) are ignored. A
    well-formed section is read in one numpy pass; otherwise the line loop
    reads it, and its errors name the first bad line's 1-based number.
    """
    name = ""
    dimension: int | None = None
    weight_type: str | None = None
    coords: dict[int, tuple[float, float]] = {}
    ordered: np.ndarray | None = None
    in_coords = False
    done = False

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if done:
            raise TsplibParseError(f"line {lineno}: content after EOF keyword")
        if line == "EOF":
            done = True
            continue
        if not in_coords:
            if line == "NODE_COORD_SECTION":
                if dimension is None:
                    raise TsplibParseError(f"line {lineno}: NODE_COORD_SECTION before DIMENSION")
                in_coords = True
                ordered = _read_coord_section(lines[lineno:], dimension)
                if ordered is not None:
                    break
                continue
            key, _, value = line.partition(":")
            if not _:
                raise TsplibParseError(f"line {lineno}: expected 'KEY: value' header, got {line!r}")
            key = key.strip()
            value = value.strip()
            if key == "NAME":
                name = value
            elif key == "TYPE":
                if value != "TSP":
                    raise TsplibParseError(f"line {lineno}: TYPE is {value!r}, expected TSP")
            elif key == "DIMENSION":
                try:
                    dimension = int(value)
                except ValueError:
                    raise TsplibParseError(f"line {lineno}: DIMENSION is not an integer: {value!r}") from None
            elif key == "EDGE_WEIGHT_TYPE":
                weight_type = value
                if value != "EUC_2D":
                    raise TsplibParseError(f"line {lineno}: unsupported EDGE_WEIGHT_TYPE {value!r}")
            # other headers carry no information this package uses
            continue
        # coordinate line: "index x y"
        parts = line.split()
        if len(parts) != 3:
            raise TsplibParseError(f"line {lineno}: expected 'index x y', got {line!r}")
        try:
            idx = int(parts[0])
            x = float(parts[1])
            y = float(parts[2])
        except ValueError:
            raise TsplibParseError(f"line {lineno}: non-numeric coordinate line {line!r}") from None
        if not (isfinite(x) and isfinite(y)):
            raise TsplibParseError(f"line {lineno}: non-finite coordinate in {line!r}")
        if not 1 <= idx <= dimension:
            raise TsplibParseError(f"line {lineno}: city index {idx} outside 1..{dimension}")
        if idx in coords:
            raise TsplibParseError(f"line {lineno}: duplicate city index {idx}")
        coords[idx] = (x, y)

    if dimension is None:
        raise TsplibParseError("missing DIMENSION header")
    if weight_type is None:
        raise TsplibParseError("missing EDGE_WEIGHT_TYPE header")
    if not in_coords:
        raise TsplibParseError("missing NODE_COORD_SECTION")
    if ordered is None:
        if len(coords) != dimension:
            raise TsplibParseError(
                f"DIMENSION is {dimension} but NODE_COORD_SECTION has {len(coords)} cities"
            )
        ordered = np.array([coords[i] for i in range(1, dimension + 1)], dtype=float)
    return Instance(name=name, dimension=dimension, coords=ordered)


# One NODE_COORD_SECTION row, "index x y", as np.loadtxt reads it.
_COORD_ROW = np.dtype([("index", np.int64), ("xy", np.float64, (2,))])


def _read_coord_section(lines: list[str], dimension: int) -> np.ndarray | None:
    """The (dimension, 2) coordinates of a well-formed section, else None.

    lines follow the NODE_COORD_SECTION keyword. One np.loadtxt call reads
    them; its numbers are a subset of int()'s and float()'s, with the same
    values, and it splits a line where str.split does. Every check the line
    loop makes must pass before a result is returned; is_permutation sizes
    nothing by dimension until the row count equals it.
    """
    end = len(lines)
    while end and not lines[end - 1].strip():
        end -= 1
    if end and lines[end - 1].strip() == "EOF":
        end -= 1
    section = lines[:end]
    if not any(map(str.strip, section)):
        return None  # np.loadtxt would warn on stderr about a section with no rows
    try:
        rows = np.loadtxt(section, dtype=_COORD_ROW, comments=None, ndmin=1)
    except ValueError:
        return None
    city, xy = rows["index"] - 1, rows["xy"]
    if not (is_permutation(city, dimension) and np.isfinite(xy).all()):
        return None
    coords = np.empty((dimension, 2))
    coords[city] = xy
    return coords


def _read_tour_section(
    lines: list[str], declared: int | None, dimension: int | None
) -> np.ndarray | None:
    """The 0-based tour of a well-formed section, else None.

    lines follow the TOUR_SECTION keyword. One split and one int64
    conversion, which calls int() on each token as the line loop does,
    read them. Every check the loop makes must pass before a result is
    returned.
    """
    end = len(lines)
    while end and lines[end - 1].strip() in ("", "EOF"):
        end -= 1
    try:
        values = np.array(" ".join(lines[:end]).split(), dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    # Only the last token may be the -1 terminator; an earlier -1 fails is_permutation.
    if values.size == 0 or values[-1] != -1:
        return None
    tour = values[:-1] - 1
    n = declared if declared is not None else tour.size
    if (dimension is not None and n != dimension) or not is_permutation(tour, n):
        return None
    return tour


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise TsplibParseError(f"not UTF-8 text: {e}") from None


def load_instance(path: str | Path) -> Instance:
    return parse_instance(_read_text(path))


# Elements per block of build_distance_matrix's upper triangle: the float
# temporaries of a block stay small, whatever n is.
_DM_BLOCK_ELEMENTS = 2**16


def _euc_2d(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """TSPLIB EUC_2D distances of coordinate differences, computed in dx.

    Euclidean distance rounded to the nearest integer with ties going up
    (the rule under which berlin52's optimal tour measures exactly 7542).
    Overwrites dx and dy; returns dx holding sqrt(dx**2 + dy**2) + 0.5, at
    least 0.5 everywhere, so a cast to an integer type, which truncates,
    floors it to the distance.
    """
    np.multiply(dx, dx, out=dx)
    np.multiply(dy, dy, out=dy)
    np.add(dx, dy, out=dx)
    np.sqrt(dx, out=dx)
    return np.add(dx, 0.5, out=dx)


def build_distance_matrix(inst: Instance) -> np.ndarray:
    """Pairwise EUC_2D distances as an (n, n) integer array, read-only.

    The entries are int32 when the bounding-box diagonal plus one is below
    2**31, so that no edge can exceed int32, and int64 otherwise. Sums of
    many entries need an int64 accumulator: tour_length and tour_lengths
    use one. Only the upper triangle is computed, in blocks of rows of
    about _DM_BLOCK_ELEMENTS elements (at least one row), more rows as they
    get shorter. Each block is copied below the diagonal as it stands,
    since (xi - xj)**2 equals (xj - xi)**2 in floating point. So the matrix
    is symmetric with a zero diagonal, and the memory beyond it is one
    block, whatever n is.
    """
    x, y = inst.coords[:, 0], inst.coords[:, 1]
    n = inst.dimension
    d = np.empty((n, n), dtype=np.int32 if _edge_bound(inst.coords) < 2.0**31 else np.int64)
    # Every block's differences go into these two buffers. Allocated afresh
    # per block, they would fault their pages in again whenever the heap
    # returns the freed block to the system.
    size = min(n * n, max(n, _DM_BLOCK_ELEMENTS))
    dx, dy = np.empty(size), np.empty(size)
    start = 0
    while start < n:
        m = n - start
        rows = min(m, max(1, _DM_BLOCK_ELEMENTS // m))
        stop = start + rows
        bx, by = dx[:rows * m].reshape(rows, m), dy[:rows * m].reshape(rows, m)
        np.subtract(x[start:stop, None], x[start:], out=bx)
        np.subtract(y[start:stop, None], y[start:], out=by)
        d[start:stop, start:] = _euc_2d(bx, by)
        d[stop:, start:stop] = d[start:stop, stop:].T
        start = stop
    d.setflags(write=False)
    return d


def is_permutation(tour, n: int | None = None) -> bool:
    """True when tour is a permutation of 0..n-1 (n defaults to len(tour))."""
    t = np.asarray(tour)
    if t.ndim != 1 or t.size == 0 or not np.issubdtype(t.dtype, np.integer):
        return False
    size = t.size if n is None else n
    if t.size != size:
        return False
    if ((t < 0) | (t >= size)).any():
        return False
    seen = np.zeros(size, dtype=bool)
    seen[t] = True
    return bool(seen.all())


def tour_length(dm: np.ndarray, tour) -> int:
    """Length of the closed tour: consecutive hops plus the edge back home."""
    t = np.asarray(tour)
    n = dm.shape[0]
    if not is_permutation(t, n):
        raise ValueError(f"tour is not a permutation of 0..{n - 1}")
    return int(dm[t[:-1], t[1:]].sum(dtype=np.int64) + dm[t[-1], t[0]])


def closed_tour_length(inst: Instance, tour) -> int:
    """Length of the closed tour, scored from the coordinates in O(n).

    Equal to tour_length(build_distance_matrix(inst), tour) without
    building the matrix.
    """
    t = np.asarray(tour)
    n = inst.dimension
    if not is_permutation(t, n):
        raise ValueError(f"tour is not a permutation of 0..{n - 1}")
    xy = inst.coords[t]
    step = np.roll(xy, -1, axis=0) - xy
    return int(_euc_2d(step[:, 0], step[:, 1]).astype(np.int64).sum())


def tour_lengths(dm: np.ndarray, tours) -> np.ndarray:
    """Closed-tour lengths for a batch, one tour per row, as int64.

    Rows are assumed valid; a city index of n or more raises IndexError.
    All edges, closing ones included, are one gather from the flat matrix
    at t*n + next(t), indexed in intp so that narrow tour types cannot
    overflow. A matrix that is not C-contiguous has no flat view, so it is
    gathered at (t, next(t)) instead of being copied.
    """
    t = np.asarray(tours)
    if not dm.flags.c_contiguous:
        return dm[t, np.roll(t, -1, axis=1)].sum(axis=1, dtype=np.int64)
    flat = np.multiply(t, dm.shape[0], dtype=np.intp)
    # Next cities as one shifted add over the rows run together; a row's
    # last entry then holds the next row's first city, which is replaced.
    flat.reshape(-1)[:-1] += t.reshape(-1)[1:]
    flat[:-1, -1] -= t[1:, 0]
    flat[:, -1] += t[:, 0]
    return dm.reshape(-1)[flat].sum(axis=1, dtype=np.int64)


def parse_tour(text: str, dimension: int | None = None) -> np.ndarray:
    """City order from a TOUR_SECTION, converted to 0-based indices.

    The section holds 1-based indices terminated by -1. The result must be
    a permutation of 1..n where n is the declared DIMENSION header if
    present, else the number of indices read; a caller-supplied dimension
    is cross-checked against it. Violations raise InvalidTourError. A
    well-formed section is read in one numpy pass; otherwise the line loop
    reads it, and its errors name the first bad line.
    """
    declared: int | None = None
    indices: list[int] = []
    in_tour = False
    terminated = False

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line == "EOF":
            continue
        if not in_tour:
            if line == "TOUR_SECTION":
                in_tour = True
                tour = _read_tour_section(lines[lineno:], declared, dimension)
                if tour is not None:
                    return tour
                continue
            key, _, value = line.partition(":")
            if _ and key.strip() == "DIMENSION":
                try:
                    declared = int(value.strip())
                except ValueError:
                    raise TsplibParseError(f"line {lineno}: DIMENSION is not an integer") from None
            continue
        if terminated:
            raise TsplibParseError(f"line {lineno}: content after the -1 terminator")
        tokens = line.split()
        for k, token in enumerate(tokens, 1):
            try:
                value = int(token)
            except ValueError:
                raise TsplibParseError(f"line {lineno}: non-integer tour entry {token!r}") from None
            if value == -1:
                if k < len(tokens):
                    raise TsplibParseError(f"line {lineno}: content after the -1 terminator")
                terminated = True
                break
            indices.append(value)

    if not in_tour:
        raise TsplibParseError("missing TOUR_SECTION")
    if not terminated:
        raise TsplibParseError("TOUR_SECTION not terminated by -1")

    n = declared if declared is not None else len(indices)
    if dimension is not None and n != dimension:
        raise InvalidTourError(f"tour has {n} cities, expected {dimension}")
    if len(indices) != n:
        raise InvalidTourError(f"tour lists {len(indices)} cities, expected {n}")
    seen = set()
    for value in indices:
        if not 1 <= value <= n:
            raise InvalidTourError(f"city index {value} outside 1..{n}")
        if value in seen:
            raise InvalidTourError(f"duplicate city index {value}")
        seen.add(value)
    return np.array(indices, dtype=np.int64) - 1


def load_tour(path: str | Path, dimension: int | None = None) -> np.ndarray:
    return parse_tour(_read_text(path), dimension=dimension)


def render_tour(tour, name: str = "tour") -> str:
    """TOUR_SECTION text for a 0-based city order; inverse of parse_tour."""
    t = np.asarray(tour)
    if not is_permutation(t):
        raise ValueError("cannot render a non-permutation as a tour")
    lines = [
        f"NAME: {name}",
        "TYPE: TOUR",
        f"DIMENSION: {t.size}",
        "TOUR_SECTION",
    ]
    lines.extend(str(int(city) + 1) for city in t)
    lines.append("-1")
    lines.append("EOF")
    return "\n".join(lines) + "\n"
