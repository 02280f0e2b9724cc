import math

import numpy as np
import pytest

from tunneltimes.errors import DomainError, RegimeError
from tunneltimes.potentials import (
    CLEMENTI,
    KULLIE,
    SAE,
    Barrier,
    LaserCoulomb,
    Rectangular,
    Tabulated,
    Triangular,
)
from tunneltimes.stattherm import PHI_STAR, bracket, inverse_temperature
from tunneltimes.times import (
    _ett,
    dwell_time_rectangular,
    ett_general,
    ett_he,
    ett_rectangular,
    phase_time_rectangular,
    phi_rectangular,
    tau_c_rectangular,
    times_report,
    triangular_scalings,
)
from tunneltimes.transmission import pt_rectangular_exact, pt_wkb
from tunneltimes.turning import resolve_problem
from tunneltimes.wkb import QUAD_TOL_DEFAULT, action_phi, classical_time

from quadref import mapped_quad

RATIO = np.linspace(0.1, 0.9, 9)
PHI = np.linspace(0.5, 10.0, 9)


class TestClosedForms:
    def test_phi_rectangular(self):
        assert phi_rectangular(0.5, 1.0, 2.0) == pytest.approx(2.0, rel=1e-15)

    def test_tau_c_rectangular(self):
        assert tau_c_rectangular(0.5, 1.0, 2.0) == pytest.approx(2.0, rel=1e-15)

    def test_match_quadrature(self):
        p = resolve_problem(Rectangular(1.0, 2.0), 0.5)
        phi = mapped_quad(p, False, QUAD_TOL_DEFAULT)
        tau_c = mapped_quad(p, True, QUAD_TOL_DEFAULT)
        assert phi == pytest.approx(phi_rectangular(0.5, 1.0, 2.0), rel=1e-10)
        assert tau_c == pytest.approx(tau_c_rectangular(0.5, 1.0, 2.0), rel=1e-9)


class TestEttGeneral:
    def test_frozen_value(self):
        assert ett_general(1.0, 1.0, pt_wkb(1.0)) == pytest.approx(
            0.039248962447167246, rel=1e-13
        )

    def test_zero_at_critical_action(self):
        assert abs(ett_general(1.0, PHI_STAR, pt_wkb(PHI_STAR))) < 1e-12

    def test_sign_change_across_critical_action(self):
        assert ett_general(1.0, PHI_STAR + 1e-3, pt_wkb(PHI_STAR + 1e-3)) > 0.0
        assert ett_general(1.0, PHI_STAR - 1e-3, pt_wkb(PHI_STAR - 1e-3)) < 0.0

    def test_deep_action_stays_finite(self):
        # exp(-2 phi) and p_t sit near the double-precision floor at
        # phi = 350; the log-space ratio must survive their near-underflow
        val = ett_general(1.0, 350.0, pt_wkb(350.0))
        # limit: exp(-2 phi) * cosh^2(phi) -> 1/4
        expected = -(1.0 / (2.0 * math.pi)) * 0.25 * bracket(350.0)
        assert val == pytest.approx(expected, rel=1e-10)
        assert val > 0.0

    def test_underflowed_transmission_rejected(self):
        # past the floor the WKB probability is exactly zero and the general
        # form must refuse it; the folded he form keeps going
        with pytest.raises(DomainError):
            ett_general(1.0, 400.0, pt_wkb(400.0))
        assert math.isfinite(ett_he(1.0, 400.0))
        assert ett_he(1.0, 400.0) > 0.0

    def test_transmission_domain(self):
        with pytest.raises(DomainError):
            ett_general(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_non_finite_transmission_rejected(self, bad):
        # p_t = inf returned 0.0
        with pytest.raises(DomainError, match="transmission probability"):
            ett_general(1.0, 1.0, bad)

    @pytest.mark.parametrize("bad", [-1000.0, -1.0, math.inf, math.nan])
    def test_he_phi_domain(self, bad):
        # phi = -1000 overflowed exp(-2 phi) with a bare OverflowError
        with pytest.raises(DomainError, match="phi"):
            ett_he(1.0, bad)

    def test_overflow_rejected(self):
        # at a subnormal energy exp(-2 phi)/p_t ~ 1/E exceeds the float range
        with pytest.raises(DomainError):
            ett_rectangular(1e-310, 1.0, 2.0)
        with pytest.raises(DomainError):
            ett_general(1.0, 0.0, 1e-320)


class TestSpecializations:
    @pytest.mark.parametrize("phi", PHI)
    def test_he_matches_general(self, phi):
        general = ett_general(1.0, phi, pt_wkb(phi))
        assert ett_he(1.0, phi) == pytest.approx(general, rel=1e-12)

    def test_he_frozen_value(self):
        assert ett_he(1.0, 1.0) == pytest.approx(0.039248962447167246, rel=1e-13)

    def test_rectangular_frozen_value(self):
        assert ett_rectangular(0.5, 1.0, 2.0) == pytest.approx(
            0.1163056766916047, rel=1e-12
        )

    @pytest.mark.parametrize("ratio", RATIO)
    @pytest.mark.parametrize("phi", PHI)
    def test_rectangular_matches_general(self, ratio, phi):
        length = phi / math.sqrt(2.0 * (1.0 - ratio))
        tau_c = tau_c_rectangular(ratio, 1.0, length)
        p_t = pt_rectangular_exact(ratio, 1.0, phi)
        general = ett_general(tau_c, phi, p_t)
        assert ett_rectangular(ratio, 1.0, length) == pytest.approx(general, rel=1e-12)

    def test_grows_with_length(self):
        vals = [ett_rectangular(0.5, 1.0, L) for L in (25.0, 50.0, 100.0, 200.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_negative_below_critical_action(self):
        # thin barrier: phi = sqrt(0.2) * 0.5 < PHI_STAR
        assert ett_rectangular(0.9, 1.0, 0.5) < 0.0


class TestPhaseAndDwell:
    def test_wide_barrier_limits(self):
        # saturation values (hbar/E) sqrt(E/(v0-E)) and (hbar/v0) sqrt(...)
        assert phase_time_rectangular(0.5, 1.0, 200.0) == pytest.approx(2.0, rel=0.01)
        assert dwell_time_rectangular(0.5, 1.0, 200.0) == pytest.approx(1.0, rel=0.01)

    def test_wide_barrier_limit_other_height(self):
        # (hbar/E) sqrt(E/(v0-E)) and (hbar/v0) sqrt(E/(v0-E)) at v0 = 2
        root = math.sqrt(0.5 / 1.5)
        assert phase_time_rectangular(0.5, 2.0, 200.0) == pytest.approx(
            root / 0.5, rel=0.01
        )
        assert dwell_time_rectangular(0.5, 2.0, 200.0) == pytest.approx(
            root / 2.0, rel=0.01
        )

    def test_thin_barrier_limit(self):
        assert 0.0 < phase_time_rectangular(0.5, 1.0, 1e-8) < 1e-6
        assert 0.0 < dwell_time_rectangular(0.5, 1.0, 1e-8) < 1e-6

    def test_dwell_shrinks_with_barrier_height(self):
        assert dwell_time_rectangular(0.5, 10.0, 5.0) < dwell_time_rectangular(
            0.5, 1.0, 5.0
        )

    @pytest.mark.parametrize("ratio", RATIO)
    @pytest.mark.parametrize("length", [1.0, 5.0, 20.0])
    def test_dwell_never_exceeds_phase(self, ratio, length):
        dw = dwell_time_rectangular(ratio, 1.0, length)
        ph = phase_time_rectangular(ratio, 1.0, length)
        assert 0.0 < dw <= ph * (1.0 + 1e-12)

    def test_saturation_contrast_with_entropic_time(self):
        # phase and dwell have stopped moving between L = 20 and L = 40
        # while the entropic time keeps growing
        ph = [phase_time_rectangular(0.5, 1.0, L) for L in (20.0, 40.0)]
        dw = [dwell_time_rectangular(0.5, 1.0, L) for L in (20.0, 40.0)]
        et = [ett_rectangular(0.5, 1.0, L) for L in (20.0, 40.0)]
        assert abs(ph[1] - ph[0]) / ph[0] < 1e-3
        assert abs(dw[1] - dw[0]) / dw[0] < 1e-3
        assert et[1] / et[0] > 1.5

    def test_tiny_energy(self):
        # phi_e^3 ~ 1e-449 underflows; the closed forms must not divide by
        # it. Reference values: the unsimplified formulas at 60 digits.
        assert phase_time_rectangular(1e-300, 1.0, 2.0) == pytest.approx(
            1.0070114730592384e150, rel=1e-12
        )
        assert dwell_time_rectangular(1e-300, 1.0, 2.0) == pytest.approx(
            1.0468134018409807e-150, rel=1e-12
        )


class TestTriangularScalings:
    def test_exact_values(self):
        phi_tri, tau_tri = triangular_scalings(1.0, 0.5, 0.25, 2.0)
        assert phi_tri == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert tau_tri == pytest.approx(4.0, rel=1e-15)

    def test_stronger_field_thins_the_ramp(self):
        phi_tri, _ = triangular_scalings(1.0, 0.5, 0.5, 2.0)
        assert phi_tri == pytest.approx(2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize(
        "v0, energy, field, length",
        [
            (1.0, 0.5, 0.25, 4.0),
            (2.0, 0.7, 0.5, 3.0),
            (1.0, 0.2, 0.4, 2.5),
        ],
    )
    def test_matches_quadrature(self, v0, energy, field, length):
        phi_tri, tau_tri = triangular_scalings(v0, energy, field, length)
        p = resolve_problem(Triangular(v0, field, length), energy)
        assert mapped_quad(p, False, QUAD_TOL_DEFAULT) == pytest.approx(phi_tri, rel=1e-8)
        assert mapped_quad(p, True, QUAD_TOL_DEFAULT) == pytest.approx(tau_tri, rel=1e-8)

    def test_regime_boundary(self):
        # the turning point lands exactly on the support edge at field 0.25
        triangular_scalings(1.0, 0.5, 0.25, 2.0)
        with pytest.raises(RegimeError):
            triangular_scalings(1.0, 0.5, 0.24, 2.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            triangular_scalings(1.0, 1.5, 0.25, 2.0)
        with pytest.raises(DomainError):
            triangular_scalings(1.0, 0.5, -0.25, 2.0)
        with pytest.raises(DomainError):
            triangular_scalings(1.0, 0.5, 0.25, 0.0)
        with pytest.raises(DomainError):
            triangular_scalings(1.0, 0.5, 0.0, 4.0)

    def test_root_underflowing_to_the_support_edge_is_zero(self):
        # (v0 - E)/field underflows to the support edge x = 0: the window has
        # no float end, so the ramp refuses it rather than report width 0
        args = (7.065801873723301e-195, 1e-300, 8.668968103196274e229, 2.0,
                1.1992419133293476e-82)
        with pytest.raises(DomainError, match="underflows to 0"):
            triangular_scalings(*args)


HELPERS = [
    (phi_rectangular, (0.5, 1.0, 2.0)),
    (tau_c_rectangular, (0.5, 1.0, 2.0)),
    (ett_rectangular, (0.5, 1.0, 2.0)),
    (phase_time_rectangular, (0.5, 1.0, 2.0)),
    (dwell_time_rectangular, (0.5, 1.0, 2.0)),
    (triangular_scalings, (1.0, 0.5, 0.25, 4.0)),
]
HELPER_IDS = [helper.__name__ for helper, _ in HELPERS]


class TestHelpersReadThePipeline:
    @pytest.mark.parametrize("mass", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("helper, args", HELPERS, ids=HELPER_IDS)
    def test_mass_refused(self, helper, args, mass):
        with pytest.raises(DomainError, match="mass must be positive"):
            helper(*args, mass=mass)

    @pytest.mark.parametrize("helper, args", HELPERS, ids=HELPER_IDS)
    def test_energy_over_the_barrier_is_a_domain_error(self, helper, args):
        # E = v0 is a DomainError, not the OverBarrier of resolve_problem;
        # both argument orders start with energy and v0, in either order
        with pytest.raises(DomainError):
            helper(1.0, 1.0, *args[2:])

    @pytest.mark.parametrize("helper", [ett_rectangular, phase_time_rectangular,
                                        dwell_time_rectangular])
    def test_box_times_past_the_float_range_refused(self, helper):
        # phase and dwell times used to come out NaN here
        with pytest.raises(DomainError, match="rectangular times leave the float range"):
            helper(4.149430639092227e-68, 1.0, 0.5, 1e300)

    def test_same_numbers_as_the_report(self):
        report = times_report(resolve_problem(Rectangular(1.0, 2.0), 0.3, 2.0))
        args = (0.3, 1.0, 2.0, 2.0)
        assert phi_rectangular(*args) == report.phi
        assert tau_c_rectangular(*args) == report.tau_c
        assert ett_rectangular(*args) == report.ett
        assert phase_time_rectangular(*args) == report.phase_time
        assert dwell_time_rectangular(*args) == report.dwell_time


def seeded_problems(count=12, seed=30):
    """count seeded problems of each family: rectangles, full and truncated
    ramps, Kullie, Clementi and SAE barriers, and sech^2 tables, at masses
    log-uniform over 1e-2..1e2."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(-8.0, 8.0, 101)
    for _ in range(count):
        v0, length = rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(-0.3, 1.6)
        energy, mass = v0 * rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-2.0, 2.0)
        root = length * rng.uniform(0.3, 0.95)
        yield Rectangular(v0, length), energy, mass
        yield Triangular(v0, (v0 - energy) / root, length), energy, mass
        yield Triangular(v0, (v0 - energy) / (length / root * length), length), energy, mass
        field = rng.uniform(0.04, 0.11)
        for zeff in (KULLIE, CLEMENTI, SAE):
            yield LaserCoulomb(field, zeff), -0.904, mass
        yield Tabulated(xs, v0 / np.cosh(xs) ** 2), energy, mass


def bits(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestTimesReport:
    @pytest.mark.parametrize("barrier, energy, mass", list(seeded_problems()))
    def test_fields_are_the_public_pieces_bit_for_bit(self, barrier, energy, mass):
        # the pieces on a problem resolved apart from the report's, so that
        # neither reads the other's kept integrals
        pieces = resolve_problem(barrier, energy, mass)
        phi, tau_c = action_phi(pieces), classical_time(pieces)
        p_t, rho, phase, dwell = barrier.transmission(energy, phi, tau_c, mass)
        inv = inverse_temperature(phi, tau_c)
        want = (_ett(tau_c, rho, bracket(phi)), tau_c, phase, dwell, p_t, phi,
                1.0 / inv if inv != 0.0 else math.inf, phi > PHI_STAR)
        report = times_report(resolve_problem(barrier, energy, mass))
        assert bits(report) == bits(want)

    def test_rectangular_report(self):
        report = times_report(resolve_problem(Rectangular(1.0, 2.0), 0.5))
        assert report.phi == pytest.approx(2.0, rel=1e-10)
        assert report.p_t_used == pytest.approx(
            pt_rectangular_exact(0.5, 1.0, report.phi), rel=1e-12
        )
        assert report.ett == pytest.approx(0.1163056766916047, rel=1e-9)
        assert report.phase_time is not None
        assert report.dwell_time is not None
        assert report.positivity_flag

    def test_ett_reconstructs_from_parts(self):
        report = times_report(resolve_problem(LaserCoulomb(0.04, KULLIE), -0.904))
        rebuilt = ett_general(report.tau_c, report.phi, report.p_t_used)
        assert report.ett == pytest.approx(rebuilt, rel=1e-12)

    def test_non_rectangular_uses_wkb_and_skips_phase_dwell(self):
        report = times_report(resolve_problem(LaserCoulomb(0.04, KULLIE), -0.904))
        assert report.p_t_used == pytest.approx(pt_wkb(report.phi), rel=1e-12)
        assert report.phase_time is None
        assert report.dwell_time is None

    @pytest.mark.parametrize("barrier, energy", [
        (Triangular(1.0, 0.5, 3.0), 0.5),
        (Triangular(1.0, 0.1, 2.0), 0.5),
        (LaserCoulomb(0.05, SAE), -0.904),
        (Tabulated(np.linspace(-6.0, 6.0, 200), np.cosh(np.linspace(-6.0, 6.0, 200)) ** -2), 0.5),
    ], ids=["full-ramp", "truncated-ramp", "sae", "sech2-table"])
    def test_other_families_inherit_the_wkb_transmission(self, barrier, energy):
        report = times_report(resolve_problem(barrier, energy))
        assert isinstance(barrier, Barrier)
        assert report.p_t_used == pt_wkb(report.phi)
        assert report.ett == ett_he(report.tau_c, report.phi)
        assert report.phase_time is None and report.dwell_time is None

    @pytest.mark.parametrize("v0, length, energy, mass", [
        (1.0, 1e-5, 1e-318, 1.0),  # 2 m E L^2 underflows
        (1.0, 1e-200, 0.5, 1e-200),  # m L^2 underflows
    ])
    def test_box_terms_leaving_the_floats_are_a_domain_error(self, v0, length, energy, mass):
        with pytest.raises(DomainError, match="rectangular times leave the float range"):
            times_report(resolve_problem(Rectangular(v0, length), energy, mass))

    def test_box_entropic_time_past_the_floats_is_a_domain_error(self):
        # 16 E (v0 - E) is formed from scaled E and v0, so the box terms stay
        # finite; rho = exp(-2 phi)/p_t, about v0/(16 E), and the ETT do not
        problem = resolve_problem(Rectangular(0.01, 2.0), 5e-324)
        p_t, rho, phase, dwell = problem.barrier.transmission(
            5e-324, action_phi(problem), classical_time(problem), 1.0)
        assert 0.0 < p_t and math.isfinite(phase) and math.isfinite(dwell) and rho == math.inf
        with pytest.raises(DomainError, match="entropic time is not finite"):
            times_report(problem)

    def test_kbt_inverts_inverse_temperature(self):
        report = times_report(resolve_problem(Rectangular(1.0, 2.0), 0.5))
        inv = inverse_temperature(report.phi, report.tau_c)
        assert report.kBT == pytest.approx(1.0 / inv, rel=1e-12)

    def test_thick_rectangle_matches_closed_form(self):
        # phi = 500: exp(-2 phi) and p_t are both 0 in double precision
        report = times_report(resolve_problem(Rectangular(1.0, 500.0), 0.5))
        assert report.p_t_used == 0.0
        assert report.ett == pytest.approx(ett_rectangular(0.5, 1.0, 500.0), rel=1e-12)

    def test_thick_helium_barrier(self):
        report = times_report(resolve_problem(LaserCoulomb(1e-4, SAE), -0.904))
        assert report.phi > 354.0
        assert report.p_t_used == 0.0
        assert math.isfinite(report.ett) and report.ett > 0.0
        assert report.ett == pytest.approx(ett_he(report.tau_c, report.phi), rel=1e-15)
        assert report.kBT == math.inf

    def test_thin_barrier_flag_cleared(self):
        report = times_report(resolve_problem(Rectangular(1.0, 0.5), 0.9))
        assert not report.positivity_flag
        assert report.ett < 0.0
        assert report.kBT < 0.0
