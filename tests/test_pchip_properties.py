"""Property tests of the tabulated barrier's monotone cubic interpolant."""

import numpy as np
import pytest

from tunneltimes.potentials import Tabulated

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

EPS = np.finfo(float).eps


@st.composite
def samples(draw):
    n = draw(st.integers(8, 40))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
    start = draw(st.floats(-1e3, 1e3))
    xs = start + np.concatenate(([0.0], np.cumsum(steps)))
    values = st.floats(-1e6, 1e6, allow_subnormal=False)
    vs = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return xs, vs


@settings(max_examples=300, deadline=None)
@given(samples())
def test_interpolant_stays_between_its_knot_samples(data):
    # PCHIP slopes lie in [0, 3] times the interval's secant, so the cubic
    # is monotone on every knot interval
    xs, vs = data
    assume(np.all(np.diff(xs) > 0.0))
    b = Tabulated(xs, vs)
    t = np.linspace(0.0, 1.0, 33)
    # rounding can carry x_j + h_j past x_j+1, into the next interval
    q = np.minimum(xs[:-1, None] + t * np.diff(xs)[:, None], xs[1:, None])
    got = b.potential(q)
    lo = np.minimum(vs[:-1], vs[1:])[:, None]
    hi = np.maximum(vs[:-1], vs[1:])[:, None]
    # a few ulps of the largest term of the cubic's evaluation
    slack = 8.0 * EPS * (np.maximum(np.abs(lo), np.abs(hi)) + 3.0 * (hi - lo))
    assert np.all(got >= lo - slack)
    assert np.all(got <= hi + slack)
