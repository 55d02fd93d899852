"""Properties of the draw contract, searched by hypothesis.

The array plan must replay the scalar plan's draws exactly: the same plan,
the same raw-word block afterwards and the same generator state once the
block is left. The profile is derandomized and bounded, so the suite stays
deterministic and quick.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_operators import _assert_same_plan, _block_end  # noqa: E402
from tspga import RngStream  # noqa: E402
from tspga.operators import _plan, _plan_block  # noqa: E402

PROFILE = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def _entering_with(seed, half):
    """A stream whose generator buffers the given half-word, or none."""
    rng = RngStream(seed)
    if half is not None:
        bitgen = rng._gen.bit_generator
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, half
        bitgen.state = state
    return rng


@PROFILE
@given(
    n=st.integers(2, 300),
    operator=st.sampled_from(["RSM", "PSM", "HPRM"]),
    pm=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    crossover_rate=st.floats(0.0, 1.0),
    children=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    half=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_array_plan_equals_scalar_plan(n, operator, pm, crossover_rate, children, seed, half):
    # A buffered half of 0 makes the first bounded draw reject whenever its
    # range does not divide 2**32. A 1-word block grows on the first draws.
    array_rng, scalar_rng = _entering_with(seed, half), _entering_with(seed, half)
    with array_rng.block(1), scalar_rng.block(1):
        crossed = array_rng.random_array(children) < crossover_rate
        assert np.array_equal(crossed, scalar_rng.random_array(children) < crossover_rate)
        array_plan = _plan_block(n, operator, pm, crossed, array_rng)
        scalar_plan = _plan(n, operator, pm, crossed.tolist(), scalar_rng)
        _assert_same_plan(array_plan, scalar_plan)
        assert _block_end(array_rng) == _block_end(scalar_rng)
    assert array_rng._gen.bit_generator.state == scalar_rng._gen.bit_generator.state
