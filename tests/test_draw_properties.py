"""Properties of the draw contract, searched by hypothesis.

The array plan must replay the scalar plan's draws exactly: the same plan,
the same raw-word block afterwards and the same generator state once the
block is left. Every draw a block serves equals the direct call, and
leaving a block, also by an exception, puts the generator where the direct
calls would have. The profile is derandomized and bounded, so the suite
stays deterministic and quick.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from test_operators import _assert_same_plan, _block_end, _LoggedStream, _plant_rejections  # noqa: E402
from tspga import RngStream  # noqa: E402
from tspga.operators import _plan, _plan_block  # noqa: E402

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
    """One RngStream call that a block serves, as (method name, *args)."""
    kind = draw(st.sampled_from(["random", "random_array", "randint"]))
    if kind == "random":
        return ("random",)
    if kind == "random_array":
        return ("random_array", draw(st.integers(0, 8)))
    span = draw(SPANS)
    lo = draw(st.integers(-(2**63), 2**63 - 1 - span))
    return ("randint", lo, lo + span)


def _call(rng, call):
    name, *args = call
    return getattr(rng, name)(*args)


class _Leave(Exception):
    pass


def _entering_with(seed, half, stream=RngStream):
    """A stream whose generator buffers the given half-word, or none."""
    rng = stream(seed)
    if half is not None:
        bitgen = rng._gen.bit_generator
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, half
        bitgen.state = state
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
    # range does not divide 2**32. A 1-word block grows on the first draws.
    n, pm, children = size
    array_rng, scalar_rng = _entering_with(seed, half), _entering_with(seed, half)
    with array_rng.block(1), scalar_rng.block(1):
        crossed = array_rng.random_array(children) < crossover_rate
        assert np.array_equal(crossed, scalar_rng.random_array(children) < crossover_rate)
        array_plan = _plan_block(n, operator, pm, crossed, array_rng)
        scalar_plan = _plan(n, operator, pm, crossed.tolist(), scalar_rng)
        _assert_same_plan(array_plan, scalar_plan)
        assert _block_end(array_rng) == _block_end(scalar_rng)
    assert array_rng._gen.bit_generator.state == scalar_rng._gen.bit_generator.state


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
    # takes its first half-word; a 0 planted at the picked ones makes Lemire's
    # method reject them, unless the draw's range divides 2**32.
    probe = _entering_with(seed, half, _LoggedStream)
    probe.log = []
    with probe.block(1):
        crossed = probe.random_array(children) < crossover_rate
        _plan(n, operator, pm, crossed.tolist(), probe)
    firsts = [at for _, at in probe.log]
    ats = {firsts[p % len(firsts)] for p in picks} if firsts else set()
    entering = 0 if -1 in ats else half
    words = max(ats, default=0) // 2 + 1  # the block holds every planted half-word
    array_rng, scalar_rng = _entering_with(seed, entering), _entering_with(seed, entering)
    with array_rng.block(words), scalar_rng.block(words):
        for rng in (array_rng, scalar_rng):
            rng._block.raw = _plant_rejections(rng._block.raw, entering, ats)[0]
        crossed = array_rng.random_array(children) < crossover_rate
        assert np.array_equal(crossed, scalar_rng.random_array(children) < crossover_rate)
        array_plan = _plan_block(n, operator, pm, crossed, array_rng)
        scalar_plan = _plan(n, operator, pm, crossed.tolist(), scalar_rng)
        _assert_same_plan(array_plan, scalar_plan)
        assert _block_end(array_rng) == _block_end(scalar_rng)
    assert array_rng._gen.bit_generator.state == scalar_rng._gen.bit_generator.state


@PROFILE
@given(
    calls=st.lists(draw_calls(), max_size=40),
    seed=st.integers(0, 2**32 - 1),
    half=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_block_draws_equal_direct_draws(calls, seed, half):
    # The 1-word block must grow as soon as the calls need a second word.
    blocked, direct = _entering_with(seed, half), _entering_with(seed, half)
    with blocked.block(1):
        for call in calls:
            served, wanted = _call(blocked, call), _call(direct, call)
            assert type(served) is type(wanted), call
            assert np.array_equal(served, wanted), call


@PROFILE
@given(
    calls=st.lists(draw_calls(), max_size=40),
    by_exception=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    half=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_leaving_a_block_leaves_the_direct_state(calls, by_exception, seed, half):
    blocked, direct = _entering_with(seed, half), _entering_with(seed, half)
    try:
        with blocked.block(1):
            for call in calls:
                _call(blocked, call)
            if by_exception:
                raise _Leave
    except _Leave:
        pass
    for call in calls:
        _call(direct, call)
    assert blocked._gen.bit_generator.state == direct._gen.bit_generator.state
