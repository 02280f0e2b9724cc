"""Property test of the mass scaling: phi and tau_c are sqrt(m) times their
unit-mass values on every barrier family, up to a few roundings, or
compute_wkb raises DomainError where that product leaves the float range."""

import math
import sys
import warnings

import numpy as np
import pytest

from tunneltimes.errors import DomainError
from tunneltimes.potentials import KULLIE, SAE, LaserCoulomb, Rectangular, Tabulated, Triangular
from tunneltimes.turning import resolve_problem
from tunneltimes.wkb import compute_wkb

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_SECH2_X = np.linspace(-10.0, 10.0, 200)

# (barrier, energy) under the barrier; at a wide rectangle sqrt(m) phi
# overflows for large m and tau_c stays normal for small m, and at a tall
# truncated ramp 2 m (V - E) would overflow at m above about 1.8e8
CASES = {
    "rectangle": (Rectangular(1.0, 2.0), 0.5),
    "wide rectangle": (Rectangular(1e300, 1e50), 5e299),
    "full ramp": (Triangular(1.0, 0.25, 4.0), 0.5),
    "truncated ramp": (Triangular(1.0, 0.25, 1.5), 0.5),
    "tall truncated ramp": (Triangular(1e300, 1e-8, 6.5e-31), 5e-324),
    "constant charge": (LaserCoulomb(0.05, KULLIE), -0.904),
    "SAE": (LaserCoulomb(0.05, SAE), -0.904),
    "sech2 table": (Tabulated(_SECH2_X, np.cosh(_SECH2_X) ** -2), 0.5),
}


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(sorted(CASES)), exponent=st.floats(-323.0, 308.0))
def test_phi_and_tau_c_scale_as_sqrt_mass(case, exponent):
    # m from a subnormal, where m/2 rounds, to 1e308, where 2m overflows
    barrier, energy = CASES[case]
    mass = 10.0**exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = compute_wkb(resolve_problem(barrier, energy))
        want = math.sqrt(mass) * unit.phi, math.sqrt(mass) * unit.tau_c
        problem = resolve_problem(barrier, energy, mass)
        if not (math.isfinite(want[0]) and math.isfinite(want[1])):
            with pytest.raises(DomainError, match="leave the float range"):
                compute_wkb(problem)
            return
        got = compute_wkb(problem)
    for value, expected in zip((got.phi, got.tau_c), want):
        if expected >= sys.float_info.min:
            # sqrt(2m) u against sqrt(m) (sqrt(2) u): at most six roundings
            assert value == pytest.approx(expected, rel=4 * sys.float_info.epsilon, abs=0.0)
