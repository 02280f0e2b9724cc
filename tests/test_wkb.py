import math
import random
import sys
import threading
import warnings

import numpy as np
import pytest

from tunneltimes import wkb
from tunneltimes.errors import DomainError, QuadratureFailure, SingularityError
from tunneltimes.potentials import (
    CLEMENTI,
    KULLIE,
    ConstantZeff,
    SAE,
    LaserCoulomb,
    Rectangular,
    Tabulated,
    Triangular,
)
from tunneltimes.times import (
    phi_rectangular,
    tau_c_rectangular,
    times_report,
    triangular_scalings,
)
from tunneltimes.turning import TunnelingProblem, resolve_problem
from tunneltimes.units import to_attoseconds
from tunneltimes.wkb import (
    QUAD_TOL_DEFAULT,
    action_phi,
    classical_time,
    compute_wkb,
    dphi_dE,
)

from quadref import mapped_quad

HE_ENERGY = -0.904


def count_rules(monkeypatch):
    """Count the _rules passes of the panel rule into the list returned;
    the kept result is dropped, so every problem is evaluated."""
    passes = []
    rules = wkb._rules

    def spy(*args):
        passes.append(True)
        return rules(*args)

    monkeypatch.setattr(wkb, "_last", None)
    monkeypatch.setattr(wkb, "_rules", spy)
    return passes


@pytest.fixture
def no_fallback(monkeypatch):
    """Fail the test if any call of the family's own panel rule takes more
    than its first _rules pass, that is, bisects a panel."""
    passes, panel = count_rules(monkeypatch), wkb._panel_rule

    def one_pass(*args):
        passes.clear()
        result = panel(*args)
        if len(passes) > 1:
            raise AssertionError("panel bisected")
        return result

    monkeypatch.setattr(wkb, "_panel_rule", one_pass)


def sech2_barrier(knots, v0=1.0, a=1.0, span=10.0):
    x = np.linspace(-span * a, span * a, knots)
    return Tabulated(x, v0 / np.cosh(x / a) ** 2)


def rect_problem(v0=1.0, length=2.0, energy=0.5, mass=1.0):
    return resolve_problem(Rectangular(v0, length), energy, mass=mass)


def panel_values(problem, quad_tol=QUAD_TOL_DEFAULT):
    """The panel rule's (phi, tau_c), even where the family has a closed
    form, with the mass applied; with no_fallback, the first pass alone must
    meet quad_tol."""
    u, v = wkb._panel_rule(problem, quad_tol)  # the unit-mass pair
    return math.sqrt(2.0 * problem.mass) * u, math.sqrt(0.5 * problem.mass) * v


def two_humps(knots, gap, quad_tol):
    """Two Gaussian humps on knots of [-8, 8] at an energy gap below their
    middle dip, a knot, and the panel rule's (phi, tau_c) there."""
    xs = np.linspace(-8.0, 8.0, knots)
    vs = np.exp(-((xs - 2.0) ** 2)) + np.exp(-((xs + 2.0) ** 2))
    problem = resolve_problem(Tabulated(xs, vs), float(vs[knots // 2]) - gap)
    return panel_values(problem, quad_tol)


class TestActionPhi:
    def test_rectangular_closed_form(self):
        assert action_phi(rect_problem()) == pytest.approx(2.0, rel=1e-12)

    def test_triangular_closed_form(self):
        p = resolve_problem(Triangular(1.0, 0.25, 4.0), 0.5)
        assert action_phi(p) == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_degenerate_window_is_zero(self):
        p = TunnelingProblem(0.5, 1.0, Rectangular(1.0, 2.0), 1.0, 1.0)
        assert action_phi(p) == 0.0

    def test_scales_as_sqrt_mass(self):
        phi_1 = action_phi(rect_problem(mass=1.0))
        phi_2 = action_phi(rect_problem(mass=2.0))
        assert phi_2 == pytest.approx(math.sqrt(2.0) * phi_1, rel=1e-10)

    def test_tolerance_honesty(self):
        p = resolve_problem(LaserCoulomb(0.04, KULLIE), HE_ENERGY)
        loose = action_phi(p, quad_tol=1e-8)
        tight = action_phi(p, quad_tol=1e-12)
        assert abs(loose - tight) / tight < 1e-9

    def test_tolerance_honesty_sae(self):
        # the constant charge has a closed form; SAE keeps the panel rule
        # on a window a distance x_L from the Coulomb pole
        p = resolve_problem(LaserCoulomb(0.04, SAE), HE_ENERGY)
        loose = action_phi(p, quad_tol=1e-8)
        tight = action_phi(p, quad_tol=1e-12)
        assert abs(loose - tight) / tight < 1e-9

    def test_window_reaching_the_coulomb_pole_flagged(self):
        # not the quadratic's roots, so the panel rule and not the closed form
        bad = TunnelingProblem(HE_ENERGY, 1.0, LaserCoulomb(0.04, KULLIE), 0.0, 20.0)
        with pytest.raises(SingularityError):
            action_phi(bad)

    def test_quad_tol_validated(self):
        p = rect_problem()
        with pytest.raises(DomainError):
            action_phi(p, quad_tol=1e-5)
        with pytest.raises(DomainError):
            action_phi(p, quad_tol=1e-14)

    def test_interior_zero_flagged(self, no_fallback):
        # raised by the vectorized panel rule, before any fallback
        bad = TunnelingProblem(0.5, 1.0, Rectangular(1.0, 2.0), 0.0, 3.0)
        with pytest.raises(SingularityError):
            action_phi(bad)
        with pytest.raises(SingularityError):
            compute_wkb(bad)


class TestClassicalTime:
    def test_rectangular_closed_form(self):
        # tau_c = m L / sqrt(2 m (v0 - E)) = 2.0 here
        assert classical_time(rect_problem()) == pytest.approx(2.0, rel=1e-9)

    def test_kullie_weak_field_attoseconds(self):
        p = resolve_problem(LaserCoulomb(0.04, KULLIE), HE_ENERGY)
        assert to_attoseconds(classical_time(p)) == pytest.approx(850.73, rel=0.01)

    def test_clementi_strong_field_attoseconds(self):
        p = resolve_problem(LaserCoulomb(0.11, CLEMENTI), HE_ENERGY)
        assert to_attoseconds(classical_time(p)) == pytest.approx(326.50, rel=0.01)

    def test_endpoint_singularity_integrates_cleanly(self):
        # quadrature must agree with itself across tolerance decades despite
        # the 1/p endpoint behavior
        p = resolve_problem(LaserCoulomb(0.11, CLEMENTI), HE_ENERGY)
        loose = classical_time(p, quad_tol=1e-8)
        tight = classical_time(p, quad_tol=1e-12)
        assert abs(loose - tight) / tight < 1e-8

    def test_endpoint_singularity_integrates_cleanly_sae(self):
        p = resolve_problem(LaserCoulomb(0.11, SAE), HE_ENERGY)
        loose = classical_time(p, quad_tol=1e-8)
        tight = classical_time(p, quad_tol=1e-12)
        assert abs(loose - tight) / tight < 1e-8


class TestEnergyDerivative:
    def test_rectangular_matches_closed_form(self):
        # d(phi)/dE = -L sqrt(m / (2 (v0 - E))) = -2 at these parameters
        assert dphi_dE(rect_problem()) == pytest.approx(-2.0, rel=1e-6)

    def test_step_halving_stable(self):
        p = resolve_problem(LaserCoulomb(0.04, KULLIE), HE_ENERGY)
        d1 = dphi_dE(p, step=1e-5)
        d2 = dphi_dE(p, step=5e-6)
        assert abs(d1 - d2) / abs(d2) < 1e-6

    def test_step_halving_stable_sae(self):
        p = resolve_problem(LaserCoulomb(0.04, SAE), HE_ENERGY)
        d1 = dphi_dE(p, step=1e-5)
        d2 = dphi_dE(p, step=5e-6)
        assert abs(d1 - d2) / abs(d2) < 1e-6

    def test_step_validated(self):
        with pytest.raises(DomainError):
            dphi_dE(rect_problem(), step=0.0)


class TestComputeWkb:
    def test_bundle_consistency(self):
        q = compute_wkb(rect_problem())
        assert q.phi == pytest.approx(2.0, rel=1e-12)
        assert q.tau_c == pytest.approx(2.0, rel=1e-9)
        assert q.p_m == math.exp(-2.0 * q.phi)

    def test_penetration_decreases_with_length(self):
        pms = [compute_wkb(rect_problem(length=L)).p_m for L in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(pms, pms[1:]))

    def test_default_tolerance_exported(self):
        assert QUAD_TOL_DEFAULT == 1e-10


def elliptic_reference(problem):
    """40-digit (phi, tau_c) of a constant-charge problem on its float turning
    points a < b, from mpmath's complete elliptic integrals of m = 1 - a/b;
    the working precision grows with log10(b/a), so that m keeps 40 digits
    below 1."""
    mp = pytest.importorskip("mpmath")
    a, b = problem.x_left, problem.x_right
    with mp.workdps(40 + int(math.log10(b / a))):
        a, b, f, mu = (mp.mpf(v) for v in (a, b, problem.barrier.field, problem.mass))
        m = 1 - a / b
        k, e = mp.ellipk(m), mp.ellipe(m)
        g = (2 - m) * e - 2 * (1 - m) * k
        phi = mp.sqrt(2 * mu * f) * 2 * b * mp.sqrt(b) * g / 3
        return float(phi), float(mp.sqrt(mu / (2 * f)) * 2 * mp.sqrt(b) * e)


class TestConstantChargeClosedForm:
    @pytest.mark.parametrize("z", [1.375, 1.6875, 1.0, 16.0])
    @pytest.mark.parametrize("frac", [1e-20, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99])
    def test_matches_mpmath_elliptic_integrals(self, z, frac):
        # fields from a vanishing fraction of the barrier top E^2/(4z) up to
        # 0.99 of it
        field = frac * HE_ENERGY**2 / (4.0 * z)
        problem = resolve_problem(LaserCoulomb(field, ConstantZeff(z)), HE_ENERGY)
        q = compute_wkb(problem)
        phi, tau_c = elliptic_reference(problem)
        assert q.phi == pytest.approx(phi, rel=1e-14, abs=0.0)
        assert q.tau_c == pytest.approx(tau_c, rel=1e-14, abs=0.0)

    def test_elliptic_reference_is_the_integral(self):
        # the reference itself, once against mpmath quadrature of
        # sqrt(2 F (x - a)(b - x)/x) and its reciprocal over [a, b]
        mp = pytest.importorskip("mpmath")
        problem = resolve_problem(LaserCoulomb(0.05, CLEMENTI), HE_ENERGY)
        phi, tau_c = elliptic_reference(problem)
        with mp.workdps(40):
            a, b, f = (mp.mpf(v) for v in (problem.x_left, problem.x_right, 0.05))
            p = lambda x: mp.sqrt(2 * f * (x - a) * (b - x) / x)
            assert phi == pytest.approx(float(mp.quad(p, [a, b])), rel=1e-15)
            assert tau_c == pytest.approx(float(mp.quad(lambda x: 1 / p(x), [a, b])), rel=1e-15)

    @pytest.mark.parametrize("mass", [1.0, 1836.15])
    def test_mass_scaling(self, mass):
        problem = resolve_problem(LaserCoulomb(0.07, KULLIE), HE_ENERGY, mass=mass)
        q = compute_wkb(problem)
        phi, tau_c = elliptic_reference(problem)
        assert q.phi == pytest.approx(phi, rel=1e-14, abs=0.0)
        assert q.tau_c == pytest.approx(tau_c, rel=1e-14, abs=0.0)

    def test_vanishing_field_is_finite(self):
        # at F = 1e-300 the window spans 300 decades
        problem = resolve_problem(LaserCoulomb(1e-300, KULLIE), HE_ENERGY)
        q = compute_wkb(problem)
        phi, tau_c = elliptic_reference(problem)
        assert math.isfinite(q.phi) and math.isfinite(q.tau_c)
        assert q.phi == pytest.approx(phi, rel=1e-12, abs=0.0)
        assert q.tau_c == pytest.approx(tau_c, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("z", [1.375, 16.0])
    @pytest.mark.parametrize("field", [1e-100, 1e-300])
    def test_weak_field_series_matches_mpmath(self, z, field):
        # k' = sqrt(a/b) is below 1e-5, where E and G come from their
        # complementary-modulus series; the AGM's forms cancel by a factor of
        # about ln(4/k')/2 there
        problem = resolve_problem(LaserCoulomb(field, ConstantZeff(z)), HE_ENERGY)
        q = compute_wkb(problem)
        phi, tau_c = elliptic_reference(problem)
        assert q.phi == pytest.approx(phi, rel=1e-15, abs=0.0)
        assert q.tau_c == pytest.approx(tau_c, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "zeff, energy, window",
        [
            (KULLIE, HE_ENERGY, (0.0, 20.0)),  # a hand-built window
            (KULLIE, HE_ENERGY, "shifted"),  # x_R one ulp short of its root
            (KULLIE, -0.3, (1.0, 2.0)),  # above the barrier top
            (KULLIE, 0.5, (1.0, 2.0)),  # no roots at all
            (KULLIE, math.nan, (1.0, 2.0)),
            (SAE, HE_ENERGY, "roots"),  # Z_eff depends on x
        ],
    )
    def test_only_the_full_constant_charge_window(self, zeff, energy, window):
        barrier = LaserCoulomb(0.04, zeff)
        if isinstance(window, str):
            x_l, x_r = barrier.turning_points(energy)
            window = (x_l, math.nextafter(x_r, 0.0) if window == "shifted" else x_r)
        assert barrier.closed_form(energy, *window) is None


def ramp_reference(v0, slope, length, energy, mass=1.0):
    """phi and tau_c of Triangular(v0, slope, length) at 40 digits, the floats
    taken as exact, over [0, w], w = min(root, length). With d = V - E at 0
    and rest at w they are sqrt(2m) (2/3) w (d + sqrt(d rest) + rest)/(sqrt(d)
    + sqrt(rest)) and sqrt(2m) w/(sqrt(d) + sqrt(rest)), which do not cancel
    as d^1.5 - rest^1.5 does."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        v0, slope, length, energy, mass = map(mp.mpf, (v0, slope, length, energy, mass))
        d = v0 - energy
        w, rest = (length, d - slope * length) if d / slope > length else (d / slope, 0)
        s2m, sum_roots = mp.sqrt(2 * mass), mp.sqrt(d) + mp.sqrt(rest)
        phi = s2m * 2 * w * (d + mp.sqrt(d * rest) + rest) / (3 * sum_roots)
        return float(phi), float(s2m * w / sum_roots)


class TestRampClosedForm:
    @pytest.mark.parametrize(
        "v0, slope, length, energy, mass",
        [
            (1.0, 0.25, 4.0, 0.5, 1.0),  # full
            (1.0, 0.2, 1.5, 0.3, 1.0),  # truncated
            (1.0, 0.25, 1.5, 0.5, 1836.15),
            (1.7611870358684913, 0.4027403462582623, 3.6649615658314723,
             0.2850962342515535, 1.0),  # ends 4e-5 of the root short of it
            (1.0, 0.25, 2.0 * (1.0 - 1e-12), 0.5, 1.0),
            (1.0, 0.25, math.nextafter(2.0, 0.0), 0.5, 1.0),  # one ulp short
            (1e300, 1e-8, 6.5e-31, 5e-324, 1e8),  # 2 m (V - E) overflows
            (1.56e-109, 1.46e199, 1.8e-280, 1.559e-109, 1.0),  # subnormal root
        ],
    )
    def test_matches_mpmath(self, v0, slope, length, energy, mass):
        q = compute_wkb(resolve_problem(Triangular(v0, slope, length), energy, mass))
        phi, tau_c = ramp_reference(v0, slope, length, energy, mass)
        assert q.phi == pytest.approx(phi, rel=1e-15, abs=0.0)
        assert q.tau_c == pytest.approx(tau_c, rel=1e-15, abs=0.0)

    def test_seeded_ramps_match_mpmath(self):
        # the benchmark's ramps: the root at 0.3 to 2 lengths, so full and
        # truncated ramps alternate, at unit and at wild masses
        rng = random.Random(11)
        for i in range(200):
            v0, length = rng.uniform(0.5, 2.0), 10 ** rng.uniform(math.log10(0.5), math.log10(40.0))
            frac, mass = rng.uniform(0.05, 0.95), 10 ** rng.uniform(-300, 300) if i % 2 else 1.0
            slope = (1 - frac) * v0 / (length * rng.uniform(0.3, 2.0))
            q = compute_wkb(resolve_problem(Triangular(v0, slope, length), frac * v0, mass))
            phi, tau_c = ramp_reference(v0, slope, length, frac * v0, mass)
            assert q.phi == pytest.approx(phi, rel=1e-15, abs=0.0)
            assert q.tau_c == pytest.approx(tau_c, rel=1e-15, abs=0.0)

    def test_root_past_the_float_range(self):
        # (v0 - E)/slope overflows, but V - E on the support does not
        q = compute_wkb(resolve_problem(Triangular(1e300, 1e-10, 1.0), 0.5))
        phi, tau_c = ramp_reference(1e300, 1e-10, 1.0, 0.5)
        assert q.phi == pytest.approx(phi, rel=1e-15, abs=0.0)
        assert q.tau_c == pytest.approx(tau_c, rel=1e-15, abs=0.0)

    def test_ramp_of_subnormal_width_reports_quietly(self):
        problem = resolve_problem(Triangular(174.3677613659157, 0.49834162096036433, 5e-324),
                                  22.18307377286827, 1.5500943504288656)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = times_report(problem)
        phi, tau_c = ramp_reference(174.3677613659157, 0.49834162096036433, 5e-324,
                                    22.18307377286827, 1.5500943504288656)
        # tau_c is below the smallest subnormal, and phi a few of them
        assert (report.tau_c, report.ett) == (0.0, 0.0) and tau_c < 2.5e-324
        assert report.phi == pytest.approx(phi, rel=0.05)

    @pytest.mark.parametrize(
        "window, energy",
        [((1.0, 1.0), 0.5), ((0.0, 2.5), 0.5), ((-1.0, 1.0), 0.5), ((0.0, 5.0), 0.1),
         ((0.0, 1.0), 1.5), ((0.0, 1.0), math.nan), ((0.0, math.nan), 0.5)],
        ids=["zero-width", "past-the-root", "left-of-support", "right-of-support",
             "above-the-top", "nan-energy", "nan-window"],
    )
    def test_windows_without_a_closed_form(self, window, energy):
        assert Triangular(1.0, 0.25, 4.0).closed_form(energy, *window) is None

    def test_infinite_v_minus_e_refused(self):
        with pytest.raises(DomainError, match="V - E leaves the float range"):
            Triangular(1.0, 0.25, 4.0).closed_form(-math.inf, 0.0, 1.0)


class TestClosedFormsInTheFloatRange:
    def test_constant_charge_action_overflow_refused(self):
        barrier = LaserCoulomb(6.744451725862725e-102, ConstantZeff(4.6500291184773253e285))
        problem = resolve_problem(barrier, -5.414123228191195e158)
        with pytest.raises(DomainError, match="leave the float range"):
            compute_wkb(problem)

    def test_rectangle_classical_time_past_an_intermediate_overflow(self):
        # m / (2 d) overflows, though tau_c = w sqrt(m / (2 d)) is about 4.2e-123
        mp = pytest.importorskip("mpmath")
        v0, length, energy, mass = 2e-208, 1e-310, 7e-232, 7e167
        with mp.workdps(40):
            want = mp.mpf(length) * mp.sqrt(mp.mpf(mass) / (2 * (mp.mpf(v0) - mp.mpf(energy))))
        problem = resolve_problem(Rectangular(v0, length), energy, mass)
        assert classical_time(problem) == pytest.approx(float(want), rel=1e-15, abs=0.0)


    @pytest.mark.parametrize("barrier, energy, mass, refused, kept", [
        # sqrt(d) w and w/sqrt(d): w/sqrt(d) = 1.4e-450, then sqrt(m/2) = 7.1e149;
        # tau_c = 1e-300, phi = 1
        (Rectangular(1e300, 1e-300), 5e299, 1e300, "tau_c", 1.0000000000000002),
        # a truncated ramp whose unit-mass tau_c underflows; tau_c = 2.3e-274
        (Triangular(4.030106397854087e216, 2.9886751774603917e-281, 4.799028117630726e-277),
         4.029741828674e216, 1.6159057725883548e218, "tau_c", None),
        # sqrt(d) w = 1.4e-414 under sqrt(2m) = 1.2e84; tau_c = 4.2e-123 stays
        (Rectangular(2e-208, 1e-310), 7e-232, 7e167, "phi", 4.183300132670364e-123),
    ], ids=["rectangle", "truncated-ramp", "rectangle-phi"])
    def test_unit_pair_underflow_before_the_mass_refused(self, barrier, energy, mass, refused,
                                                         kept):
        problem = resolve_problem(barrier, energy, mass)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"{refused} underflows"):
                compute_wkb(problem)
            with pytest.raises(DomainError, match=f"{refused} underflows"):
                times_report(problem)
            if kept is not None:
                other = classical_time if refused == "phi" else action_phi
                assert other(problem) == pytest.approx(kept, rel=1e-15, abs=0.0)

    def test_ramp_root_underflowing_to_zero_refused(self):
        # (v0 - E)/slope = 5.3e-402 rounds to 0, yet tau_c = 5.8e-260 is normal
        barrier = Triangular(1.0197316834435322e-283, 3.1602399658658525e117,
                             1.3562743169284906e177)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="underflows to 0"):
                resolve_problem(barrier, 8.522561563835673e-284)


class TestPanelRule:
    def test_non_finite_panel_sum_refused_at_once(self, monkeypatch):
        # x in units of 4.78e296 and V of 8.9e-228: w / sqrt(V - E) overflows
        passes = count_rules(monkeypatch)
        xs = np.linspace(-10.0, 10.0, 60)
        table = Tabulated(xs * 4.78e296, 8.9e-228 / np.cosh(xs) ** 2)
        problem = resolve_problem(table, 4.31e-228, 11.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                times_report(problem)
        assert len(passes) == 1

    @pytest.mark.parametrize(
        "v0, length, energy", [(1.0, 2.0, 0.5), (2.0, 40.0, 0.1), (0.5, 0.5, 0.45)]
    )
    def test_rectangular_closed_forms(self, no_fallback, v0, length, energy):
        phi, tau_c = panel_values(resolve_problem(Rectangular(v0, length), energy), 1e-13)
        assert phi == pytest.approx(phi_rectangular(energy, v0, length), rel=1e-13)
        assert tau_c == pytest.approx(tau_c_rectangular(energy, v0, length), rel=1e-13)

    @pytest.mark.parametrize(
        "v0, slope, length, energy",
        [(1.0, 0.25, 4.0, 0.5), (2.0, 1.0, 3.0, 0.1), (1.0, 0.5, 10.0, 0.95)],
    )
    def test_triangular_scalings(self, no_fallback, v0, slope, length, energy):
        phi, tau_c = panel_values(resolve_problem(Triangular(v0, slope, length), energy))
        phi_tri, tau_c_tri = triangular_scalings(v0, energy, slope, length)
        assert phi == pytest.approx(phi_tri, rel=1e-12)
        assert tau_c == pytest.approx(tau_c_tri, rel=1e-12)

    def test_rectangle_window_inside_the_support(self, no_fallback):
        p = TunnelingProblem(0.5, 1.0, Rectangular(1.0, 2.0), 0.3, 1.7)
        phi, tau_c = panel_values(p, 1e-13)
        q = compute_wkb(p)
        phi_1, tau_c_1 = p.barrier.closed_form(0.5, 0.3, 1.7)
        assert (q.phi, q.tau_c) == (math.sqrt(2.0) * phi_1, math.sqrt(0.5) * tau_c_1)
        assert q.phi == pytest.approx(phi, rel=1e-13)
        assert q.tau_c == pytest.approx(tau_c, rel=1e-13)

    @pytest.mark.parametrize(
        "v0, slope, length, energy",
        [(1.0, 0.25, 4.0, 0.5), (1.0, 0.5, 10.0, 0.95), (2.0, 1.0, 3.0, 0.1)],
    )
    def test_full_ramp_closed_form_matches_adaptive(self, v0, slope, length, energy):
        ramp = Triangular(v0, slope, length)
        p = resolve_problem(ramp, energy)
        assert ramp.closed_form(energy, p.x_left, p.x_right) is not None
        q = compute_wkb(p)
        assert q.phi == pytest.approx(mapped_quad(p, False, 1e-13), rel=1e-13)
        assert q.tau_c == pytest.approx(mapped_quad(p, True, 1e-13), rel=1e-13)

    @pytest.mark.parametrize(
        "barrier, energy, integrated",
        [
            (Rectangular(1.0, 2.0), 0.5, False),
            (Triangular(1.0, 0.25, 4.0), 0.5, False),
            (Triangular(1.0, 0.25, 1.5), 0.5, False),
            (LaserCoulomb(0.05, KULLIE), HE_ENERGY, False),
            (LaserCoulomb(0.05, CLEMENTI), HE_ENERGY, False),
            (LaserCoulomb(0.05, SAE), HE_ENERGY, True),
            (sech2_barrier(200), 0.5, True),
        ],
        ids=["rect", "full-ramp", "truncated-ramp", "kullie", "clementi", "sae", "tabulated"],
    )
    def test_times_report_integrates_only_without_a_closed_form(
        self, monkeypatch, barrier, energy, integrated
    ):
        # one report asks the family for its closed form once, and enters
        # the panel rule once where there is none
        problem = resolve_problem(barrier, energy)
        calls = []
        panel, evaluate, closed = wkb._panel_rule, wkb.eval_potential, type(barrier).closed_form
        monkeypatch.setattr(wkb, "_last", None)

        def closed_spy(*args):
            calls.append("closed_form")
            return closed(*args)

        def panel_spy(p, quad_tol):
            calls.append("_panel_rule")
            return panel(p, quad_tol)

        def eval_spy(b, x):
            calls.append("eval_potential")
            return evaluate(b, x)

        monkeypatch.setattr(type(barrier), "closed_form", closed_spy)
        monkeypatch.setattr(wkb, "_panel_rule", panel_spy)
        monkeypatch.setattr(wkb, "eval_potential", eval_spy)
        times_report(problem)
        if integrated:
            assert calls.count("closed_form") == calls.count("_panel_rule") == 1
            assert "eval_potential" in calls
        else:
            assert calls == ["closed_form"]

    def test_kept_pair_belongs_to_the_problem_that_asks(self):
        first = resolve_problem(LaserCoulomb(0.05, SAE), HE_ENERGY)
        second = resolve_problem(LaserCoulomb(0.05, KULLIE), HE_ENERGY)
        want = compute_wkb(first)
        action_phi(first)
        action_phi(second)
        assert classical_time(first) == want.tau_c
        assert classical_time(second) == compute_wkb(second).tau_c != want.tau_c

    def test_threads_alternating_problems_get_their_own_pairs(self):
        # each thread alternates two problems while the other does the same,
        # so the kept pair changes hands between action_phi and
        # classical_time; every report must still be its own problem's
        problems = [
            resolve_problem(LaserCoulomb(0.05, SAE), HE_ENERGY),
            resolve_problem(LaserCoulomb(0.05, KULLIE), HE_ENERGY),
        ]
        want = [compute_wkb(p) for p in problems]
        wrong, start = [], threading.Barrier(2)

        def alternate(first):
            start.wait(timeout=60)
            for k in range(400):
                i = (first + k) % 2
                if compute_wkb(problems[i]) != want[i]:
                    wrong.append(i)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=alternate, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("knots", [200, 1000])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_sech2_closed_form(self, no_fallback, knots, frac):
        # V0 sech^2(x/a): phi = pi a sqrt(2m) (sqrt(V0) - sqrt(E)) and
        # tau_c = pi a sqrt(m / (2E)), up to the PCHIP error O(h^2)
        v0, a = 1.3, 0.8
        energy = frac * v0
        q = compute_wkb(resolve_problem(sech2_barrier(knots, v0, a), energy))
        h = 20.0 * a / (knots - 1)
        tol = 2.0 * h * h
        phi = math.pi * a * math.sqrt(2.0) * (math.sqrt(v0) - math.sqrt(energy))
        assert q.phi == pytest.approx(phi, rel=tol)
        assert q.tau_c == pytest.approx(math.pi * a / math.sqrt(2.0 * energy), rel=tol)

    @pytest.mark.parametrize("zeff", [KULLIE, SAE])
    @pytest.mark.parametrize("field", [0.04, 0.07, 0.11])
    def test_coulomb_matches_adaptive(self, no_fallback, zeff, field):
        p = resolve_problem(LaserCoulomb(field, zeff), HE_ENERGY)
        q = compute_wkb(p)
        phi = mapped_quad(p, False, 1e-13)
        tau_c = mapped_quad(p, True, 1e-13)
        assert q.phi == pytest.approx(phi, rel=1e-12)
        assert q.tau_c == pytest.approx(tau_c, rel=1e-12)

    @pytest.mark.parametrize("quad_tol", [1e-10, 1e-8, 1e-6])
    def test_refines_when_rules_disagree(self, monkeypatch, quad_tol):
        # the middle dip of two humps on 101 knots sits 1e-6 above E: p nearly
        # vanishes there, the n- and 2n-node rules disagree on tau_c, and
        # bisecting the panels certifies both integrals. The reference is a
        # 30-digit mpmath integral of the same PCHIP over every knot interval
        passes = count_rules(monkeypatch)
        phi, tau_c = two_humps(101, 1e-6, quad_tol)
        assert len(passes) > 1
        assert phi == pytest.approx(6.223712901447394, rel=quad_tol)
        assert tau_c == pytest.approx(26.68673599759373, rel=quad_tol)

    def test_dip_near_roundoff_raises(self):
        # a dip 1e-10 above E asks for 1e-13: bisection walks toward the dip
        # and the turning points, where V - E rounds to zero at nodes close
        # enough; no number is returned
        with pytest.raises(QuadratureFailure, match="quad_tol 1e-13"):
            two_humps(401, 1e-10, 1e-13)

    @pytest.mark.parametrize("quad_tol", [1e-10, 1e-6])
    def test_touching_dip_is_never_certified(self, quad_tol):
        # the dip sits at E itself, so tau_c diverges. Near it V - E rounds
        # to zero at every node of a small panel, where both rules agree on
        # m * jac / _P_FLOOR: such a panel must not count as converged, or a
        # tau_c near 1e291 would be returned as certified
        with pytest.raises(QuadratureFailure) as failure:
            two_humps(401, 0.0, quad_tol)
        x = float(str(failure.value).split("near x = ")[1].split(":")[0].split(";")[0])
        assert abs(x) < 1e-6

    def test_plateau_at_the_energy_is_never_certified(self, monkeypatch):
        # samples 7-9 of the 17-knot humps set to E make V = E on the
        # plateau [-1, 1] inside the forbidden region, so tau_c diverges.
        # Every node of the first pass's two plateau panels clamps V - E to
        # zero, where both rules agree on m * jac / _P_FLOOR: the first pass
        # raises at once, and names the divergence rather than quad_tol
        xs = np.linspace(-8.0, 8.0, 17)
        vs = np.exp(-((xs - 2.0) ** 2)) + np.exp(-((xs + 2.0) ** 2))
        vs[7:10] = 0.25
        problem = resolve_problem(Tabulated(xs, vs), 0.25)
        monkeypatch.setattr(wkb, "_last", None)
        passes = []
        rules = wkb._rules

        def spy(*args):
            passes.append(True)
            return rules(*args)

        monkeypatch.setattr(wkb, "_rules", spy)
        with pytest.raises(QuadratureFailure) as failure:
            times_report(problem)
        message = str(failure.value)
        x = float(message.split("near x = ")[1].split(":")[0])
        assert -1.0 <= x <= 1.0
        assert passes == [True]
        assert "tau_c diverges" in message and "loosen quad_tol" not in message
        assert "turning point" not in message

    def test_clamped_panel_next_to_a_turning_point_names_it(self):
        # at quad_tol 3e-13 bisection walks toward x_R, where V - E rounds to
        # zero at every node of a small enough half. No plateau lies there,
        # and a looser quad_tol certifies the same problem
        problem = resolve_problem(LaserCoulomb(0.2, SAE), HE_ENERGY)
        with pytest.raises(QuadratureFailure) as failure:
            times_report(problem, 3e-13)
        message = str(failure.value)
        assert f"next to the turning point x_R = {problem.x_right:.6g}: either V = E" in message
        assert "too few digits" in message and "a looser quad_tol may pass" in message
        assert math.isfinite(times_report(problem, 1e-12).ett)

    def test_truncated_ramp_graded_toward_its_root(self, no_fallback):
        # the support ends just short of the ramp root, so p stays small but
        # nonzero at x_R, where the closed form rounds V - E once from its
        # exact value
        v0, slope, energy = 1.0, 0.25, 0.5
        for gap in (1e-2, 1e-4, 1e-8):
            length = (v0 - energy) / slope * (1.0 - gap)
            q = compute_wkb(resolve_problem(Triangular(v0, slope, length), energy))
            top, bottom = v0 - energy, v0 - energy - slope * length
            phi = 2.0 * math.sqrt(2.0) / (3.0 * slope) * (top**1.5 - bottom**1.5)
            tau_c = math.sqrt(2.0) / slope * (math.sqrt(top) - math.sqrt(bottom))
            assert q.phi == pytest.approx(phi, rel=1e-10)
            assert q.tau_c == pytest.approx(tau_c, rel=1e-10)

    def test_ramp_root_far_beyond_the_window(self, no_fallback):
        # at slope 1e-300 the ramp's root lies 5e299 past the support, so
        # V = 1 over the whole window to every digit
        q = compute_wkb(resolve_problem(Triangular(1.0, 1e-300, 1.0), 0.5))
        assert (q.phi, q.tau_c) == (pytest.approx(1.0, rel=1e-14), pytest.approx(1.0, rel=1e-14))

    def test_one_potential_evaluation_serves_both_integrals(self, monkeypatch):
        calls = []
        evaluate = wkb.eval_potential

        def counting(barrier, x):
            calls.append(np.shape(x))
            return evaluate(barrier, x)

        monkeypatch.setattr(wkb, "eval_potential", counting)
        compute_wkb(resolve_problem(LaserCoulomb(0.05, SAE), HE_ENERGY))
        assert len(calls) == 1

    def test_tabulated_energy_derivative_is_classical_time(self, no_fallback):
        p = resolve_problem(sech2_barrier(500), 0.3)
        assert -dphi_dE(p) == pytest.approx(classical_time(p), rel=1e-7)
