"""Properties of the draw contract, searched by hypothesis.

The array plan must replay the scalar plan's draws exactly: the same plan,
and the stream left where the scalar plan leaves it. Every draw a stream
makes equals numpy's Generator's on the same seed, also with a half-word
buffered and with permutations among the draws. The profile is
derandomized and bounded, so the suite stays deterministic and quick.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from tspga import RngStream  # noqa: E402
from tspga.operators import _plan, _plan_block  # noqa: E402
from tspga.rng import _READ_WORDS  # noqa: E402
from conftest import (  # noqa: E402
    LoggedStream, assert_same_draw, assert_same_plan, buffer_half, on_words, plant_rejections,
    stream_end,
)

PROFILE = settings(max_examples=150, derandomize=True, deadline=None, database=None)

# Integer spans: nothing to draw, small, the widest half-word span, the
# narrowest full-word span, the full 64 bits, and any in between.
SPANS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(1, 1000),
    st.integers(0, 2**64 - 1),
)


@st.composite
def draw_calls(draw):
    """One RngStream call, as (method name, *args)."""
    kind = draw(st.sampled_from(["random", "random_array", "randint", "permutation"]))
    if kind == "random":
        return ("random",)
    if kind == "random_array":  # now and then more words than one refill reads
        return ("random_array", draw(st.one_of(st.integers(0, 8), st.integers(1000, 20_000))))
    if kind == "permutation":
        return ("permutation", draw(st.sampled_from([0, 1, 2, 5, 52, 1000])))
    span = draw(SPANS)
    lo = draw(st.integers(-(2**63), 2**63 - 1 - span))
    return ("randint", lo, lo + span)


def _entering_with(seed, half, stream=RngStream):
    """A stream whose bit generator buffers the given half-word, or none."""
    rng = stream(seed)
    if half is not None:
        buffer_half(rng._gen.bit_generator, half)
        rng._block.restart()
    return rng


# (n, pm, children): tours of up to 300 cities, or a few children at the
# edge where a point's span passes 2**32 - 1. There 92,681 is the last n the
# half-word walk serves and 92,682 the first it hands to _plan; swaps are
# rare, so that the scalar plan's partner draws stay quick.
PLAN_SIZES = st.one_of(
    st.tuples(st.integers(2, 300), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
              st.integers(1, 24)),
    st.tuples(st.sampled_from([92_681, 92_682]), st.floats(0.0, 1e-4), st.integers(1, 3)),
)


@PROFILE
@given(
    size=PLAN_SIZES,
    operator=st.sampled_from(["RSM", "PSM", "HPRM"]),
    crossover_rate=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    half=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
# PSM at the edge, its first cut rejected on the buffered half of 0.
@example(size=(92_681, 1e-4, 3), operator="PSM", crossover_rate=1.0, seed=1, half=0)
@example(size=(92_682, 1e-4, 3), operator="PSM", crossover_rate=1.0, seed=1, half=0)
def test_array_plan_equals_scalar_plan(size, operator, crossover_rate, seed, half):
    # A buffered half of 0 makes the first bounded draw reject whenever its
    # range does not divide 2**32.
    n, pm, children = size
    array_rng, scalar_rng = _entering_with(seed, half), _entering_with(seed, half)
    crossed = array_rng.random_array(children) < crossover_rate
    assert np.array_equal(crossed, scalar_rng.random_array(children) < crossover_rate)
    array_plan = _plan_block(n, operator, pm, crossed, array_rng)
    scalar_plan = _plan(n, operator, pm, crossed.tolist(), scalar_rng)
    assert_same_plan(array_plan, scalar_plan)
    assert stream_end(array_rng) == stream_end(scalar_rng)


@PROFILE
@given(
    n=st.integers(2, 300),
    operator=st.sampled_from(["RSM", "PSM", "HPRM"]),
    pm=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    crossover_rate=st.floats(0.0, 1.0),
    children=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    half=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
)
def test_array_plan_equals_scalar_plan_through_planted_rejections(
    n, operator, pm, crossover_rate, children, seed, half, picks
):
    # The scalar plan on the stream's own words logs where each integer draw
    # takes its first half-word, a place among the words read while held; a
    # 0 planted at the picked ones makes Lemire's method reject them, unless
    # the draw's range divides 2**32.
    probe = _entering_with(seed, half, LoggedStream)
    probe.log = []
    probe._block.hold(1)
    crossed = probe.random_array(children) < crossover_rate
    _plan(n, operator, pm, crossed.tolist(), probe)
    firsts = [at for _, at in probe.log]
    ats = {firsts[p % len(firsts)] for p in picks} if firsts else set()
    # More of the stream's words than the plans and the draws after them take.
    words = np.random.PCG64(seed).random_raw(2 * probe._block.raw.size + 4 * _READ_WORDS)
    words, entering = plant_rejections(words, half, ats)
    array_rng, scalar_rng = (on_words(words, half is not None, entering) for _ in range(2))
    crossed = array_rng.random_array(children) < crossover_rate
    assert np.array_equal(crossed, scalar_rng.random_array(children) < crossover_rate)
    array_plan = _plan_block(n, operator, pm, crossed, array_rng)
    scalar_plan = _plan(n, operator, pm, crossed.tolist(), scalar_rng)
    assert_same_plan(array_plan, scalar_plan)
    assert stream_end(array_rng) == stream_end(scalar_rng)


@PROFILE
@given(
    calls=st.lists(draw_calls(), max_size=40),
    seed=st.integers(0, 2**32 - 1),
    half=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_block_draws_equal_direct_draws(calls, seed, half):
    rng = _entering_with(seed, half)
    gen = np.random.Generator(np.random.PCG64(seed))
    if half is not None:
        buffer_half(gen.bit_generator, half)
    for call in calls:
        assert_same_draw(rng, gen, call)
