"""Property test of the public scalar entry points: for any float input,
including NaN, +-inf, subnormals and actions past 354, each returns a finite
number or raises a TunnelTimesError."""

import math

import pytest

from tunneltimes import (
    TunnelTimesError,
    bracket,
    ett_general,
    ett_he,
    inverse_temperature,
    keldysh_gamma,
    pt_rectangular_exact,
    pt_wkb,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# every float, with the edges and the phi ~ 354 underflow region drawn often
ANY = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1.0, 354.0, 355.0, 710.0, 1.8e308]),
    st.floats(300.0, 800.0),
)

ENTRY_POINTS = {
    bracket: 1,
    inverse_temperature: 2,
    pt_wkb: 1,
    pt_rectangular_exact: 3,
    ett_general: 3,
    ett_he: 2,
    keldysh_gamma: 3,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
@settings(max_examples=200, deadline=None)
@given(args=st.lists(ANY, min_size=3, max_size=3))
def test_finite_or_tunneltimes_error(entry, args):
    try:
        value = entry(*args[: ENTRY_POINTS[entry]])
    except TunnelTimesError:
        return
    assert math.isfinite(value)
