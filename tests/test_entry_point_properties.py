"""Property tests of the public entry points: for any float input, including
NaN, +-inf, subnormals and actions past 354, each returns finite numbers or
raises a TunnelTimesError."""

import math

import pytest

from tunneltimes import (
    ConstantZeff,
    LaserCoulomb,
    TunnelTimesError,
    bracket,
    ett_general,
    ett_he,
    inverse_temperature,
    keldysh_gamma,
    pt_rectangular_exact,
    pt_wkb,
    resolve_problem,
    times_report,
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


# any float, and besides it fields and charges of every positive magnitude,
# subnormals included, and negative energies, so that many draws have a
# forbidden region
HELIUM = st.sampled_from([1e-300, 1e-20, 0.04, 0.11, 1.375, 16.0])
POSITIVE = st.one_of(st.floats(), HELIUM, st.floats(0.0, exclude_min=True, allow_infinity=False))
NEGATIVE = st.one_of(
    st.floats(), st.sampled_from([-0.904, -1e300]), st.floats(max_value=0.0, exclude_max=True)
)


@settings(max_examples=300, deadline=None)
@given(field=POSITIVE, z=POSITIVE, energy=NEGATIVE)
def test_constant_charge_times_report_finite_or_tunneltimes_error(field, z, energy):
    try:
        report = times_report(resolve_problem(LaserCoulomb(field, ConstantZeff(z)), energy))
    except TunnelTimesError:
        return
    # kBT is +inf by design once exp(2 phi) overflows
    assert all(map(math.isfinite, (report.phi, report.tau_c, report.ett, report.p_t_used)))
