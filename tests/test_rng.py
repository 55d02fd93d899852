"""Replay determinism and stream derivation."""

import numpy as np
import pytest

from tspga import RngStream, derive_stream


def test_same_seed_same_draws():
    a = RngStream(1234)
    b = RngStream(1234)
    seq_a = [a.random(), a.randint(0, 99), a.random(), a.randint(5, 5)]
    seq_b = [b.random(), b.randint(0, 99), b.random(), b.randint(5, 5)]
    assert seq_a == seq_b
    assert np.array_equal(a.permutation(20), b.permutation(20))


def test_batched_reals_match_scalar_reals():
    # The whole hot path leans on this: one array draw advances the stream
    # exactly like k scalar draws.
    scalar = RngStream(77)
    batched = RngStream(77)
    singles = np.array([scalar.random() for _ in range(1000)])
    assert np.array_equal(batched.random_array(1000), singles)
    # and the streams stay aligned afterwards
    assert scalar.random() == batched.random()


def test_randint_is_inclusive_and_validates():
    rng = RngStream(5)
    assert rng.randint(3, 3) == 3
    draws = {rng.randint(0, 2) for _ in range(200)}
    assert draws == {0, 1, 2}
    try:
        rng.randint(2, 1)
    except ValueError:
        pass
    else:
        raise AssertionError("empty range accepted")


def test_permutation_is_a_permutation():
    rng = RngStream(9)
    p = rng.permutation(30)
    assert sorted(p.tolist()) == list(range(30))


def test_derive_stream_keys_separate_streams():
    root = 42
    # same key twice: identical stream
    x = derive_stream(root, 1, 3).random_array(5)
    y = derive_stream(root, 1, 3).random_array(5)
    assert np.array_equal(x, y)
    # different run index: different stream
    z = derive_stream(root, 1, 4).random_array(5)
    assert not np.array_equal(x, z)
    # different family tag, same index: different stream
    w = derive_stream(root, 0, 3).random_array(5)
    assert not np.array_equal(x, w)


def test_derive_stream_run_zero_differs_from_root():
    # Plain XOR derivation would hand run 0 the root stream itself.
    root = 42
    direct = RngStream(root).random_array(5)
    derived = derive_stream(root, 0).random_array(5)
    assert not np.array_equal(direct, derived)


def test_derive_stream_trailing_zero_key_is_distinct():
    # Seeding with the flat entropy tuple would absorb a trailing 0 key
    # component (SeedSequence zero-pads short entropy), collapsing these.
    a = derive_stream(42, 1).random_array(5)
    b = derive_stream(42, 1, 0).random_array(5)
    assert not np.array_equal(a, b)


def test_derive_stream_without_a_key_rejected():
    with pytest.raises(ValueError, match="^derive_stream requires at least one key component$"):
        derive_stream(42)


def test_derive_stream_is_order_independent():
    a_first = derive_stream(7, 1, 0).random_array(3)
    _ = derive_stream(7, 1, 1).random_array(3)
    a_again = derive_stream(7, 1, 0).random_array(3)
    assert np.array_equal(a_first, a_again)


# ---------------------------------------------------------------- block mode
#
# RngStream.block serves draws by replaying numpy's consumption of raw words.
# These tests pin that replay against numpy's own draws, so a numpy release
# that consumes words differently fails here instead of changing reports.

# Numbers of values per integer draw: 2**31 + 1 rejects about half of its
# 32-bit draws, so the rejection path always runs; 2**32 and up take numpy's
# full-word paths, where 2**63 + 1 rejects about half of its words.
RANGES = [1, 2, 52, 1378, 12_502_500, 2**31 + 1, 2**32, 2**40 + 3, 2**63 + 1, 2**64]


def _low(meta, size):
    # Ranges wider than 2**63 fit int64 only when they start at its minimum.
    return -(2**63) if size > 2**63 else int(meta.integers(-3, 4))


def _random_calls(meta, count, ranges=RANGES):
    calls = []
    for _ in range(count):
        kind = int(meta.integers(3))
        if kind == 0:
            calls.append(("random",))
        elif kind == 1:
            calls.append(("random_array", int(meta.integers(0, 9))))
        else:
            size = ranges[int(meta.integers(len(ranges)))]
            lo = _low(meta, size)
            calls.append(("randint", lo, lo + size - 1))
    return calls


def _draw(rng, calls):
    out = []
    for name, *args in calls:
        value = getattr(rng, name)(*args)
        out.append(value.tolist() if name == "random_array" else value)
    return out


def _state(rng):
    return rng._gen.bit_generator.state


@pytest.mark.parametrize("buffer_full", [False, True])
def test_block_draws_equal_direct_draws(buffer_full):
    meta = np.random.default_rng(2024)
    for trial in range(150):
        calls = _random_calls(meta, int(meta.integers(1, 40)))
        direct, blocked = RngStream(trial), RngStream(trial)
        if buffer_full:  # a 32-bit draw leaves the high half-word buffered
            assert direct.randint(0, 9) == blocked.randint(0, 9)
        assert _state(blocked)["has_uint32"] == int(buffer_full)
        expected = _draw(direct, calls)
        with blocked.block(int(meta.integers(0, 30))):  # too small blocks grow
            got = _draw(blocked, calls)
        assert got == expected, calls
        assert _state(blocked) == _state(direct)
        assert blocked.random() == direct.random()
        assert blocked.randint(0, 51) == direct.randint(0, 51)


@pytest.mark.parametrize("size", RANGES)
def test_block_integer_range_runs_of_one_size(size):
    lo = _low(np.random.default_rng(size % 1000), size)
    direct, blocked = RngStream(size % 1000), RngStream(size % 1000)
    expected = [direct.randint(lo, lo + size - 1) for _ in range(400)]
    with blocked.block(50):
        got = [blocked.randint(lo, lo + size - 1) for _ in range(400)]
    assert got == expected
    assert _state(blocked) == _state(direct)


def test_block_commits_the_draws_made_before_an_exception():
    direct, blocked = RngStream(8), RngStream(8)
    expected = [direct.random(), direct.randint(0, 99)]
    with pytest.raises(KeyError):
        with blocked.block(4):
            got = [blocked.random(), blocked.randint(0, 99)]
            raise KeyError("stop")
    assert got == expected
    assert _state(blocked) == _state(direct)


def test_block_refuses_permutation_and_bad_ranges():
    rng = RngStream(4)
    with rng.block(8):
        with pytest.raises(RuntimeError):
            rng.permutation(5)
        with pytest.raises(ValueError):
            rng.randint(3, 2)
        with pytest.raises(ValueError):
            rng.randint(0, 2**63)
    assert _state(rng) == _state(RngStream(4))


def test_nested_block_is_the_outer_block():
    direct, blocked = RngStream(6), RngStream(6)
    expected = [direct.random(), direct.randint(0, 9), direct.random()]
    with blocked.block(2):
        got = [blocked.random()]
        with blocked.block(2):
            got.append(blocked.randint(0, 9))
        got.append(blocked.random())
    assert got == expected
    assert _state(blocked) == _state(direct)


# Spans (values minus one) of integer draws that take one half-word each;
# 2**31 rejects about half of its half-words, so a run of them meets many
# rejections. Spans of 0 and full-word spans are covered by
# test_block_draws_equal_direct_draws.
NARROW_SPANS = [1, 51, 1377, 12_502_499, 2**31]


@pytest.mark.parametrize("buffer_full", [False, True])
def test_block_bounded_at_equals_bounded_draws(buffer_full):
    # A run of placed half-words gives bounded()'s draws up to the first
    # draw bounded() rejects, and bad names that draw.
    meta = np.random.default_rng(7)
    outcomes = set()
    for trial in range(60):
        picks = meta.integers(len(NARROW_SPANS), size=int(meta.integers(1, 40)))
        run = [NARROW_SPANS[i] for i in picks]
        array_rng, scalar_rng = RngStream(trial), RngStream(trial)
        if buffer_full:
            assert array_rng.randint(0, 9) == scalar_rng.randint(0, 9)
        with array_rng.block(1), scalar_rng.block(1):
            blk, ref = array_rng._block, scalar_rng._block
            values, bad = blk.bounded_at(blk.halves(len(run)), np.array(run, dtype=np.uint64))
            expected, rejected = [], []
            for span in run:
                q = ref.q
                expected.append(ref.bounded(span))
                rejected.append(ref.q - q > 1)
        first = rejected.index(True) if True in rejected else len(run)
        assert bad == first, (trial, run)
        assert values[:bad].tolist() == expected[:bad]
        outcomes.add(bad < len(run))
    assert outcomes == {False, True}


def test_block_half_words_placed_first_are_drawn_later():
    # Half-words placed by halves(), with doubles between them, give the
    # draws bounded() would have made in their places.
    placed, direct = RngStream(12), RngStream(12)
    with placed.block(1), direct.block(1):
        blk, ref = placed._block, direct._block
        numbers, expected = [], []
        for count in [3, 0, 1, 4, 2]:
            numbers += blk.halves(count).tolist()
            expected += [ref.bounded(51) for _ in range(count)]
            assert blk.double() == ref.double()
        values, bad = blk.bounded_at(numbers, 51)
        assert bad == len(numbers) and values.tolist() == expected
    assert _state(placed) == _state(direct)


def test_block_below_lists_the_words_whose_double_is_below_p():
    rng = RngStream(13)
    with rng.block(4):
        blk = rng._block
        for p in [0.0, 0.05, 0.5, 1.0]:
            hits = blk.below(p)
            assert hits == np.flatnonzero((blk.raw >> 11) * 2.0**-53 < p).tolist()
            blk.reserve(blk.raw.size + 1)  # the lists grow with the block
            assert blk.below(p) == np.flatnonzero((blk.raw >> 11) * 2.0**-53 < p).tolist()
            assert blk.hit_words.tolist() == blk.below(p)
