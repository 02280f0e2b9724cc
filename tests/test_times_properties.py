"""Property tests of times_report: the entropic time's sign is the one that
positivity_flag states, on rectangles, full and truncated ramps and
constant-charge Coulomb barriers."""

import math

import pytest

from tunneltimes.errors import TunnelTimesError
from tunneltimes.potentials import ConstantZeff, LaserCoulomb, Rectangular, Triangular
from tunneltimes.stattherm import PHI_STAR
from tunneltimes.times import times_report
from tunneltimes.turning import resolve_problem

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


FRACTION = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# an action to aim a rectangle at: any magnitude, and often just outside the
# band of 1e-9 around PHI_STAR where rounding may decide the sign
SIGNED_OFFSET = st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform(1.1e-9, 1e-2))
PHI_TARGET = st.one_of(
    log_uniform(1e-6, 1e3), SIGNED_OFFSET.map(lambda sd: PHI_STAR * (1.0 + sd[0] * sd[1]))
)


def assert_sign_matches_flag(barrier, energy, mass):
    try:
        report = times_report(resolve_problem(barrier, energy, mass))
    except TunnelTimesError:
        return
    assume(abs(report.phi / PHI_STAR - 1.0) > 1e-9)
    assert (report.ett > 0.0) == report.positivity_flag, report
    assert (report.ett < 0.0) == (not report.positivity_flag), report


@settings(max_examples=300, deadline=None)
@given(v0=log_uniform(1e-6, 1e6), ratio=FRACTION, phi=PHI_TARGET, mass=log_uniform(1e-3, 1e4))
def test_rectangle_ett_sign_matches_positivity_flag(v0, ratio, phi, mass):
    # a length that gives about the drawn action at this depth and mass
    energy = ratio * v0
    length = phi / math.sqrt(2.0 * mass * (v0 - energy))
    assume(0.0 < energy and 0.0 < length < math.inf)
    assert_sign_matches_flag(Rectangular(v0, length), energy, mass)


def assert_ramp_sign_matches_flag(v0, ratio, phi, mass, reach):
    # a slope that gives about the drawn action on a support that ends at
    # reach times the ramp's root, which holds 1 - (1 - reach)^1.5 of the
    # full ramp's action when reach < 1
    energy = ratio * v0
    d = v0 - energy
    share = 1.0 - (1.0 - min(reach, 1.0)) ** 1.5
    slope = math.sqrt(2.0 * mass) * (2.0 / 3.0) * d * math.sqrt(d) * share / phi
    assume(0.0 < energy and 0.0 < slope < math.inf)
    length = reach * d / slope
    assume(0.0 < length < math.inf)
    assert_sign_matches_flag(Triangular(v0, slope, length), energy, mass)


@settings(max_examples=300, deadline=None)
@given(v0=log_uniform(1e-6, 1e6), ratio=FRACTION, phi=PHI_TARGET, mass=log_uniform(1e-3, 1e4),
       reach=st.floats(1.0, 4.0))
def test_full_ramp_ett_sign_matches_positivity_flag(v0, ratio, phi, mass, reach):
    assert_ramp_sign_matches_flag(v0, ratio, phi, mass, reach)


@settings(max_examples=300, deadline=None)
@given(v0=log_uniform(1e-6, 1e6), ratio=FRACTION, phi=PHI_TARGET, mass=log_uniform(1e-3, 1e4),
       reach=FRACTION)
def test_truncated_ramp_ett_sign_matches_positivity_flag(v0, ratio, phi, mass, reach):
    assert_ramp_sign_matches_flag(v0, ratio, phi, mass, reach)


@settings(max_examples=300, deadline=None)
@given(z=log_uniform(1e-2, 1e2), energy=log_uniform(1e-3, 1e2), fraction=FRACTION,
       mass=log_uniform(1e-3, 1e4))
def test_constant_charge_ett_sign_matches_positivity_flag(z, energy, fraction, mass):
    # a field at a fraction of the barrier top E^2/(4z), so that -E lies below it
    field = fraction * energy**2 / (4.0 * z)
    assume(field > 0.0)
    assert_sign_matches_flag(LaserCoulomb(field, ConstantZeff(z)), -energy, mass)
