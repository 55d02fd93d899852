"""Replay determinism and stream derivation."""

import numpy as np
import pytest

from tspga import RngStream, derive_stream
from tspga.rng import _READ_WORDS, _RawBlock
from conftest import assert_same_draw, stream_end


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


def test_random_array_rejects_a_negative_count():
    # numpy's own call raises; the stream must neither return [] nor move.
    rng, fresh = RngStream(3), RngStream(3)
    assert rng.random_array(2).tolist() == fresh.random_array(2).tolist()
    with pytest.raises(ValueError, match="^negative dimensions are not allowed$"):
        rng.random_array(-1)
    assert rng.random_array(2).tolist() == fresh.random_array(2).tolist()


def test_randint_rejects_ranges_outside_int64_and_draws_nothing():
    rng = RngStream(4)
    for lo, hi in [(3, 2), (0, 2**63), (-(2**63) - 1, 0)]:
        with pytest.raises(ValueError):
            rng.randint(lo, hi)
    assert stream_end(rng) == stream_end(RngStream(4))


def test_word_buffer_drops_the_words_drawn():
    # Outside a plan a refill first drops the words drawn, so the buffer
    # holds one refill while the stream draws 300,000 words.
    rng = RngStream(1)
    for _ in range(300):
        rng.random_array(1000)
        rng.randint(0, 51)
    assert rng._block.raw.size == _READ_WORDS


def test_only_a_stream_ahead_of_its_bit_generator_moves_it_back(monkeypatch):
    # A permutation restarts the buffer from the bit generator; one that
    # must first move the generator back restarts it twice. Permutations
    # of a fresh stream, as init_population draws them, move nothing.
    restarts = []
    restart = _RawBlock.restart
    monkeypatch.setattr(_RawBlock, "restart", lambda blk: restarts.append(blk) or restart(blk))
    rng = RngStream(5)
    for _ in range(100):
        rng.permutation(52)
    assert len(restarts) == 101  # with the constructor's
    rng.random()
    rng.permutation(52)
    assert len(restarts) == 103


# ---------------------------------------------------------------- block draws
#
# RngStream serves random, random_array and randint from its block of raw
# words (_RawBlock), by numpy 2.x's rules, and permutation by numpy's
# Generator.permutation on its rewound bit generator. NumPy's RNG policy
# (NEP 19) keeps PCG64's raw words stable, not Generator's methods. These
# tests pin every draw against numpy's direct Generator calls on the same
# seed, so a numpy release whose Generator draws differently fails here,
# naming the method, instead of changing reports.

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
        kind = int(meta.integers(4))
        if kind == 0:
            calls.append(("random",))
        elif kind == 1:  # now and then more words than one refill reads
            calls.append(("random_array", int(meta.integers(0, 9 if meta.random() < 0.9 else 20_000))))
        elif kind == 2:
            size = ranges[int(meta.integers(len(ranges)))]
            lo = _low(meta, size)
            calls.append(("randint", lo, lo + size - 1))
        else:
            calls.append(("permutation", int(meta.choice([0, 1, 2, 5, 52, 1000]))))
    return calls


@pytest.mark.parametrize("buffer_full", [False, True])
def test_block_draws_equal_direct_draws(buffer_full):
    meta = np.random.default_rng(2024)
    for trial in range(150):
        calls = _random_calls(meta, int(meta.integers(1, 40)))
        rng, gen = RngStream(trial), np.random.Generator(np.random.PCG64(trial))
        if buffer_full:  # a 32-bit draw leaves the high half-word buffered
            assert rng.randint(0, 9) == gen.integers(0, 10)
        for call in calls:
            assert_same_draw(rng, gen, call)


@pytest.mark.parametrize("size", RANGES)
def test_block_integer_range_runs_of_one_size(size):
    lo = _low(np.random.default_rng(size % 1000), size)
    rng, gen = RngStream(size % 1000), np.random.Generator(np.random.PCG64(size % 1000))
    got = [rng.randint(lo, lo + size - 1) for _ in range(400)]
    assert got == [int(gen.integers(lo, lo + size)) for _ in range(400)]
    assert rng.random() == gen.random()


# Spans (values minus one) of integer draws that take one half-word each;
# 2**31 rejects about half of its half-words, so a run of them meets many
# rejections. Spans of 0 and full-word spans are covered by
# test_block_draws_equal_direct_draws.
NARROW_SPANS = [1, 51, 1377, 12_502_499, 2**31]


def _entering(seed, buffer_full, moved):
    """A stream that buffers a half-word or not; moved, a refill has since
    dropped the word it came from."""
    rng = RngStream(seed)
    if buffer_full:  # leaves the high half-word buffered
        rng.randint(0, 9)
    if moved:
        rng.random_array(_READ_WORDS)
        assert rng._block.half_at == -1
    return rng


@pytest.mark.parametrize("buffer_full", [False, True])
def test_block_bounded_at_equals_bounded_draws(buffer_full):
    # A run of placed half-words gives bounded()'s draws up to the first
    # draw bounded() rejects, and bad names that draw.
    meta = np.random.default_rng(7)
    outcomes = set()
    for trial in range(60):
        picks = meta.integers(len(NARROW_SPANS), size=int(meta.integers(1, 40)))
        run = [NARROW_SPANS[i] for i in picks]
        moved = trial % 2 == 1
        blk = _entering(trial, buffer_full, moved)._block
        ref = _entering(trial, buffer_full, moved)._block
        blk.hold(1)  # the placed half-words stay where halves() put them
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
    blk, ref = placed._block, direct._block
    blk.hold(1)
    numbers, expected = [], []
    for count in [3, 0, 1, 4, 2]:
        numbers += blk.halves(count).tolist()
        expected += [ref.bounded(51) for _ in range(count)]
        assert blk.double() == ref.double()
    values, bad = blk.bounded_at(numbers, 51)
    assert bad == len(numbers) and values.tolist() == expected
    assert stream_end(placed) == stream_end(direct)


def test_block_below_lists_the_words_whose_double_is_below_p():
    # The undrawn words only, and the lists grow with the held buffer.
    rng = RngStream(13)
    blk = rng._block
    blk.hold(4)
    for p in [0.0, 0.05, 0.5, 1.0]:
        blk.reserve(3)
        first = blk.pos
        hits = blk.below(p)
        assert hits == (np.flatnonzero((blk.raw[first:] >> 11) * 2.0**-53 < p) + first).tolist()
        size = blk.raw.size
        blk.reserve(size + 1 - blk.pos)
        assert blk.raw.size > size
        expected = (np.flatnonzero((blk.raw[first:] >> 11) * 2.0**-53 < p) + first).tolist()
        assert blk.hits == expected and blk.hit_words.tolist() == expected
