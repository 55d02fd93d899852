"""Instance and tour parsing, distances, tour lengths."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import tspga.data
import tspga.tsplib
from tspga import (
    Instance,
    InvalidTourError,
    Population,
    RngStream,
    TsplibParseError,
    build_distance_matrix,
    closed_tour_length,
    evaluate,
    is_permutation,
    load_tour,
    parse_instance,
    parse_tour,
    render_tour,
    tour_length,
    tour_lengths,
)
from conftest import TRIANGLE_TSP


def _instance(coords):
    coords = np.asarray(coords, dtype=float)
    return Instance("test", len(coords), coords)


def test_parse_minimal_triangle(triangle):
    assert triangle.name == "triangle"
    assert triangle.dimension == 3
    assert triangle.coords.shape == (3, 2)
    assert triangle.coords[2].tolist() == [0.0, 4.0]
    assert triangle.edge_weight_kind == "EUC_2D"


def test_parse_berlin52(berlin52):
    assert berlin52.dimension == 52
    assert berlin52.name == "berlin52"


def test_parse_is_whitespace_tolerant():
    text = TRIANGLE_TSP.replace("NAME: triangle", "NAME :  triangle").replace("1 0 0", "  1   0  0 ")
    inst = parse_instance(text)
    assert inst.name == "triangle"
    assert inst.dimension == 3


def test_parse_errors_name_the_line():
    bad = TRIANGLE_TSP.replace("2 3 0", "2 3 zebra")
    with pytest.raises(TsplibParseError, match="line 7"):
        parse_instance(bad)


def test_dimension_mismatch_rejected():
    with pytest.raises(TsplibParseError, match="DIMENSION is 4"):
        parse_instance(TRIANGLE_TSP.replace("DIMENSION: 3", "DIMENSION: 4"))


def test_unsupported_edge_weight_type_rejected():
    with pytest.raises(TsplibParseError, match="GEO"):
        parse_instance(TRIANGLE_TSP.replace("EUC_2D", "GEO"))


def test_missing_headers_rejected():
    with pytest.raises(TsplibParseError, match="DIMENSION"):
        parse_instance("\n".join(l for l in TRIANGLE_TSP.splitlines() if "DIMENSION" not in l))
    with pytest.raises(TsplibParseError, match="EDGE_WEIGHT_TYPE"):
        parse_instance("\n".join(l for l in TRIANGLE_TSP.splitlines() if "EDGE_WEIGHT" not in l))


def test_single_city_rejected():
    text = "DIMENSION: 1\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\nEOF\n"
    with pytest.raises(TsplibParseError, match="at least 2"):
        parse_instance(text)


def test_duplicate_city_index_rejected():
    with pytest.raises(TsplibParseError, match="duplicate"):
        parse_instance(TRIANGLE_TSP.replace("2 3 0", "1 3 0"))


@pytest.mark.parametrize("old,new,line", [
    ("1 0 0", "1 nan 0", 6),
    ("3 0 4", "3 0 inf", 8),
    ("2 3 0", "2 -inf 0", 7),
])
def test_non_finite_coordinate_rejected(old, new, line):
    with pytest.raises(TsplibParseError, match=f"line {line}: non-finite"):
        parse_instance(TRIANGLE_TSP.replace(old, new))


@pytest.mark.parametrize("parse,text,message", [
    (parse_instance,
     "DIMENSION: 1000000000000\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 3 0\n3 0 4\nEOF\n",
     "DIMENSION is 1000000000000 but NODE_COORD_SECTION has 3 cities"),
    (parse_tour, "DIMENSION: 1000000000000\nTOUR_SECTION\n1\n2\n3\n-1\nEOF\n",
     "tour lists 3 cities, expected 1000000000000"),
], ids=["instance", "tour"])
def test_declared_dimension_is_not_allocated_before_the_count_matches(parse, text, message):
    tracemalloc.start()
    try:
        with pytest.raises(TsplibParseError, match=f"^{message}$"):
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("x", ["1e300", "4e18"])
def test_coordinates_that_can_overflow_a_tour_length_rejected(x):
    text = f"DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 {x} 0\n2 -{x} 0\nEOF\n"
    with pytest.raises(TsplibParseError, match="overflow"):
        parse_instance(text)


def test_widest_accepted_span_scores_without_overflow():
    inst = _instance([(-2e18, 0.0), (2e18, 0.0)])
    assert closed_tour_length(inst, [0, 1]) == 8 * 10**18
    assert tour_length(build_distance_matrix(inst), [0, 1]) == 8 * 10**18


@pytest.mark.parametrize("x,dtype", [
    (2.0**31 - 1.5, np.int32),   # diagonal + 1 just below 2**31: edge 2**31 - 1
    (2.0**31 - 1.0, np.int64),   # diagonal + 1 at 2**31
    (2.0**31 - 0.5, np.int64),   # the edge itself reaches 2**31
])
def test_matrix_entries_are_int32_below_the_bound(x, dtype):
    inst = _instance([(0.0, 0.0), (x, 0.0)])
    dm = build_distance_matrix(inst)
    assert dm.dtype == dtype
    assert int(dm[0, 1]) == int(x + 0.5)
    # Two edges near 2**31 overflow int32 unless summed in int64.
    assert tour_length(dm, [0, 1]) == closed_tour_length(inst, [0, 1]) == 2 * int(x + 0.5)
    assert tour_lengths(dm, [[0, 1], [1, 0]]).tolist() == [2 * int(x + 0.5)] * 2


def test_sums_accumulate_in_int64():
    rng = np.random.default_rng(31)
    n = 5000
    inst = _instance(rng.uniform(0.0, 1e6, size=(n, 2)))
    dm = build_distance_matrix(inst)
    assert dm.dtype == np.int32
    tours = np.stack([rng.permutation(n) for _ in range(4)])
    want = [closed_tour_length(inst, t) for t in tours]
    assert min(want) > np.iinfo(np.int32).max
    assert tour_lengths(dm, tours).tolist() == want
    assert [tour_length(dm, t) for t in tours] == want
    assert evaluate(Population(tours), dm).lengths.tolist() == want


@pytest.mark.parametrize("layout", ["int64", "int64 transposed", "int32"])
@pytest.mark.parametrize("tour_type", [np.int16, np.int32, np.int64])
def test_tour_lengths_do_not_depend_on_layout_or_tour_type(layout, tour_type):
    # n * n exceeds int16, so indices computed in the tours' type would wrap.
    n = 300
    rng = np.random.default_rng(7)
    dm = rng.integers(0, 2**20, size=(n, n)).astype(layout.split()[0])
    if layout.endswith("transposed"):
        dm = dm.T
        assert not dm.flags.c_contiguous
    t = np.stack([rng.permutation(n) for _ in range(6)]).astype(tour_type)
    want = dm[t[:, :-1], t[:, 1:]].sum(1) + dm[t[:, -1], t[:, 0]]
    tracemalloc.start()
    try:
        got = tour_lengths(dm, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == want.tolist()
    assert peak < dm.nbytes / 4  # no copy of the matrix, whatever its layout
    t[2, 5] = n
    with pytest.raises(IndexError):
        tour_lengths(dm, t)


def test_triangle_distance_matrix(triangle_dm):
    assert triangle_dm.tolist() == [[0, 3, 4], [3, 0, 5], [4, 5, 0]]


def test_rounding_is_nearest_integer_half_up():
    def dist(x, y):
        inst = parse_instance(
            "DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
            f"1 0 0\n2 {x} {y}\nEOF\n"
        )
        return int(build_distance_matrix(inst)[0, 1])

    assert dist(1, 1) == 1      # sqrt(2) = 1.414 rounds down
    assert dist(1.5, 0) == 2    # exact tie rounds up
    assert dist(2.5, 0) == 3    # also at values where round-half-even differs
    assert dist(1.4, 0) == 1
    assert dist(1.6, 0) == 2


def _pairwise_euc_2d(coords):
    """Every entry from the EUC_2D formula over all n x n pairs, as int64."""
    x, y = coords[:, 0], coords[:, 1]
    dx, dy = x[:, None] - x, y[:, None] - y
    return np.floor(np.sqrt(dx * dx + dy * dy) + 0.5).astype(np.int64)


def _assert_built_as_pairwise(coords, dtype):
    dm = build_distance_matrix(SimpleNamespace(dimension=len(coords), coords=coords))
    assert dm.dtype == dtype and not dm.flags.writeable and dm.flags.c_contiguous
    assert np.array_equal(dm, _pairwise_euc_2d(coords))
    assert np.array_equal(dm, dm.T) and not np.diag(dm).any()
    return dm


@pytest.mark.parametrize("n", [1, 2, 3, 52])
def test_matrix_equals_the_pairwise_formula(n):
    # One city is below Instance's minimum, but the build itself takes it.
    coords = np.random.default_rng(n).uniform(-5000.0, 5000.0, size=(n, 2)).round(2)
    _assert_built_as_pairwise(coords, np.int32)


@pytest.mark.parametrize("block_elements,n,shapes", [
    # 218 of 300 rows: the block straddles the diagonal with 82 columns beyond it.
    (tspga.tsplib._DM_BLOCK_ELEMENTS, 300, [(218, 300), (82, 82)]),
    # The last block is a single row; the first holds 70 of 72 elements.
    (72, 14, [(5, 14), (8, 9), (1, 1)]),
    # Rows longer than a block: one row per block until they fit.
    (8, 12, [(1, 12), (1, 11), (1, 10), (1, 9), (1, 8), (1, 7), (1, 6), (1, 5), (2, 4), (2, 2)]),
])
def test_matrix_blocks_equal_the_pairwise_formula(monkeypatch, block_elements, n, shapes):
    seen = []
    euc_2d = tspga.tsplib._euc_2d
    monkeypatch.setattr(tspga.tsplib, "_DM_BLOCK_ELEMENTS", block_elements)
    monkeypatch.setattr(tspga.tsplib, "_euc_2d", lambda dx, dy: seen.append(dx.shape) or euc_2d(dx, dy))
    coords = np.random.default_rng(n).uniform(0.0, 1e6, size=(n, 2)).round(1)
    _assert_built_as_pairwise(coords, np.int32)
    assert seen == shapes


def test_matrix_of_int64_entries_equals_the_pairwise_formula():
    # Edges up to 4.2e9: the bound passes 2**31 and every entry is int64.
    coords = np.random.default_rng(64).uniform(0.0, 3e9, size=(40, 2)).round()
    _assert_built_as_pairwise(coords, np.int64)


def test_matrix_of_duplicate_cities_equals_the_pairwise_formula():
    coords = np.random.default_rng(5).integers(0, 4, size=(30, 2)).astype(float)
    dm = _assert_built_as_pairwise(coords, np.int32)
    assert (dm == 0).sum() > 30  # cities that share a point are 0 apart


def test_matrix_build_memory_is_one_block_beyond_the_matrix():
    # Two float64 differences of one block and numpy's iteration buffers.
    # Differences of all pairs would take 2 * 8 * n * n bytes, and those of
    # two blocks at once twice the block's share.
    inst = _instance(np.random.default_rng(2000).uniform(0.0, 1e6, size=(2000, 2)))
    tracemalloc.start()
    try:
        dm = build_distance_matrix(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dm.nbytes == 2000 * 2000 * 4
    assert peak <= dm.nbytes + 2 * 8 * tspga.tsplib._DM_BLOCK_ELEMENTS + 2**18


def test_distance_matrix_symmetric_zero_diagonal(berlin52_dm):
    assert np.array_equal(berlin52_dm, berlin52_dm.T)
    assert np.all(np.diag(berlin52_dm) == 0)
    assert np.all(berlin52_dm >= 0)


def test_berlin52_optimum_is_7542(berlin52, berlin52_dm):
    tour = load_tour(tspga.data.BERLIN52_OPT_TOUR, dimension=berlin52.dimension)
    assert is_permutation(tour, 52)
    assert tour_length(berlin52_dm, tour) == 7542


def test_tour_length_triangle(triangle_dm):
    assert tour_length(triangle_dm, [0, 1, 2]) == 12


def test_tour_length_two_cities_is_out_and_back():
    inst = parse_instance(
        "DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 7 0\nEOF\n"
    )
    dm = build_distance_matrix(inst)
    assert tour_length(dm, [0, 1]) == 2 * dm[0, 1]


def test_tour_length_rejects_non_permutations(triangle_dm):
    with pytest.raises(ValueError):
        tour_length(triangle_dm, [0, 1, 1])
    with pytest.raises(ValueError):
        tour_length(triangle_dm, [0, 1])
    with pytest.raises(ValueError):
        tour_length(triangle_dm, [0, 1, 3])


@pytest.mark.parametrize("n", [2, 3, 52, 2000])
def test_closed_tour_length_agrees_with_matrix(n):
    rng = np.random.default_rng(n)
    inst = _instance(rng.uniform(0.0, 10_000.0, size=(n, 2)).round(1))
    dm = build_distance_matrix(inst)
    for _ in range(5):
        tour = rng.permutation(n)
        assert closed_tour_length(inst, tour) == tour_length(dm, tour)


def test_closed_tour_length_of_berlin52_optimum(berlin52, berlin52_dm):
    tour = load_tour(tspga.data.BERLIN52_OPT_TOUR, dimension=berlin52.dimension)
    assert closed_tour_length(berlin52, tour) == tour_length(berlin52_dm, tour) == 7542


@pytest.mark.parametrize("tie,length", [(1.5, 4), (2.5, 6)])
def test_closed_tour_length_rounds_half_ties_up(tie, length):
    inst = _instance([(0.0, 0.0), (tie, 0.0)])
    assert closed_tour_length(inst, [0, 1]) == tour_length(build_distance_matrix(inst), [0, 1]) == length


def test_closed_tour_length_rejects_non_permutations(triangle):
    for tour in ([0, 1, 1], [0, 1], [0, 1, 3]):
        with pytest.raises(ValueError):
            closed_tour_length(triangle, tour)


def test_tour_length_invariant_under_rotation_and_reversal(berlin52_dm):
    rng = RngStream(4021)
    for _ in range(25):
        t = rng.permutation(52)
        base = tour_length(berlin52_dm, t)
        shift = rng.randint(1, 51)
        assert tour_length(berlin52_dm, np.roll(t, shift)) == base
        assert tour_length(berlin52_dm, t[::-1]) == base


def test_tour_lengths_batch_matches_scalar(berlin52_dm):
    rng = RngStream(11)
    tours = np.stack([rng.permutation(52) for _ in range(8)])
    batch = tour_lengths(berlin52_dm, tours)
    assert batch.tolist() == [tour_length(berlin52_dm, t) for t in tours]


def test_parse_tour_basic():
    assert parse_tour("TOUR_SECTION\n1\n2\n3\n-1\n").tolist() == [0, 1, 2]


def test_parse_tour_duplicate_rejected():
    with pytest.raises(InvalidTourError, match="duplicate"):
        parse_tour("TOUR_SECTION\n1\n1\n2\n-1\n")


def test_parse_tour_out_of_range_rejected():
    with pytest.raises(InvalidTourError, match="outside"):
        parse_tour("DIMENSION: 3\nTOUR_SECTION\n1\n2\n4\n-1\n")


def test_parse_tour_dimension_cross_check():
    with pytest.raises(InvalidTourError, match="expected 5"):
        parse_tour("TOUR_SECTION\n1\n2\n3\n-1\n", dimension=5)


def test_parse_tour_requires_terminator():
    with pytest.raises(TsplibParseError, match="-1"):
        parse_tour("TOUR_SECTION\n1\n2\n3\n")


@pytest.mark.parametrize("tail, line", [
    ("3 -1 5\n", 4), ("3\n-1 5\n", 5), ("3\n-1 -1\n", 5), ("3\n-1\n5\n", 6),
])
def test_parse_tour_rejects_content_after_the_terminator(tail, line):
    # On the terminator's own line as on a later one.
    with pytest.raises(TsplibParseError, match=f"line {line}: content after the -1 terminator"):
        parse_tour("TOUR_SECTION\n1\n2\n" + tail)


def test_parse_tour_requires_section():
    with pytest.raises(TsplibParseError, match="TOUR_SECTION"):
        parse_tour("1\n2\n3\n-1\n")


def test_berlin52_opt_tour_is_a_permutation():
    tour = load_tour(tspga.data.BERLIN52_OPT_TOUR)
    assert is_permutation(tour, 52)


def test_render_parse_round_trip():
    rng = RngStream(99)
    for n in (2, 5, 17):
        t = rng.permutation(n)
        back = parse_tour(render_tour(t, name="roundtrip"), dimension=n)
        assert np.array_equal(back, t)


def test_render_rejects_non_permutation():
    with pytest.raises(ValueError):
        render_tour([0, 2, 2])
