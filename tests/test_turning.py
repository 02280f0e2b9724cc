import math

import numpy as np
import pytest

from tunneltimes import potentials, turning
from tunneltimes.errors import (
    BracketFailure,
    DomainError,
    NoConvergence,
    OverBarrier,
    TunnelTimesError,
)
from tunneltimes.potentials import (
    CLEMENTI,
    KULLIE,
    SAE,
    LaserCoulomb,
    Rectangular,
    SaeZeff,
    Tabulated,
    Triangular,
    barrier_peak,
    eval_potential,
)
from tunneltimes.turning import (
    TunnelingProblem,
    bracketed_root,
    resolve_problem,
    turning_points_bracketed,
    turning_points_quadratic,
)

HE_ENERGY = -0.904


class TestProblemContainer:
    def test_width(self):
        p = TunnelingProblem(0.5, 1.0, Rectangular(1.0, 2.0), 0.0, 2.0)
        assert p.width == 2.0

    def test_degenerate_zero_width_tolerated(self):
        p = TunnelingProblem(0.5, 1.0, Rectangular(1.0, 2.0), 1.0, 1.0)
        assert p.width == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            TunnelingProblem(0.5, 0.0, Rectangular(1.0, 2.0), 0.0, 2.0)
        with pytest.raises(DomainError):
            TunnelingProblem(0.5, 1.0, Rectangular(1.0, 2.0), 2.0, 0.0)

    @pytest.mark.parametrize(
        "x_left, x_right", [(math.nan, 2.0), (0.0, math.nan), (math.nan, math.nan)]
    )
    def test_nan_turning_point_rejected(self, x_left, x_right):
        with pytest.raises(DomainError):
            TunnelingProblem(0.5, 1.0, Rectangular(1.0, 2.0), x_left, x_right)


class TestBracketedRoot:
    @pytest.mark.parametrize("a, b", [(0.0, 2.0), (2.0, 0.0)])
    def test_cube_root(self, a, b):
        root = bracketed_root(lambda x: x**3 - 2.0, a, b)
        assert root == pytest.approx(2.0 ** (1 / 3), rel=4e-16)

    @pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: math.nan,
                                   lambda x: math.nan if x > 1.0 else -1.0])
    def test_bracket_failure(self, f):
        with pytest.raises(BracketFailure):
            bracketed_root(f, 0.0, 2.0)

    def test_exact_zero_at_an_end_returned_as_is(self):
        assert bracketed_root(lambda x: x - 0.3, 0.3, 1.0) == 0.3
        assert bracketed_root(lambda x: x - 1.0, 0.3, 1.0) == 1.0

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(turning, "_MAX_ITER", 3)
        with pytest.raises(NoConvergence):
            bracketed_root(math.cos, 0.0, 3.0)

    @pytest.mark.parametrize("f", [math.cos, lambda x: math.exp(x) - 5.0, lambda x: x**9 - 0.5,
                                   lambda x: math.copysign(1.0, x - 1.3)])
    def test_bracket_closes_to_the_tolerance(self, f):
        root = bracketed_root(f, 0.0, 3.0)
        step = turning._XTOL + turning._RTOL * abs(root)
        assert (f(root - step) < 0.0) != (f(root + step) < 0.0) or f(root) == 0.0


class TestQuadratic:
    def test_kullie_weak_field(self):
        x_l, x_r = turning_points_quadratic(KULLIE.z, HE_ENERGY, 0.04)
        assert x_l == pytest.approx(1.64, abs=0.01)
        assert x_r == pytest.approx(20.96, abs=0.01)

    def test_clementi_strong_field(self):
        x_l, x_r = turning_points_quadratic(CLEMENTI.z, HE_ENERGY, 0.11)
        assert x_l == pytest.approx(2.87, abs=0.01)
        assert x_r == pytest.approx(5.35, abs=0.01)

    def test_roots_satisfy_potential_equation(self):
        b = LaserCoulomb(0.04, KULLIE)
        for x in turning_points_quadratic(KULLIE.z, HE_ENERGY, 0.04):
            assert eval_potential(b, x) == pytest.approx(HE_ENERGY, abs=1e-12)

    def test_critical_charge_boundary(self):
        # roots merge at x = |E| / (2 field) when E**2 = 4 z field
        z_crit = HE_ENERGY**2 / (4.0 * 0.04)
        with pytest.raises(OverBarrier):
            turning_points_quadratic(z_crit * (1.0 + 1e-12), HE_ENERGY, 0.04)
        x_l, x_r = turning_points_quadratic(z_crit * (1.0 - 1e-9), HE_ENERGY, 0.04)
        assert x_l == pytest.approx(11.3, abs=0.1)
        assert x_r == pytest.approx(11.3, abs=0.1)

    def test_validation(self):
        with pytest.raises(DomainError):
            turning_points_quadratic(0.0, HE_ENERGY, 0.04)
        with pytest.raises(DomainError):
            turning_points_quadratic(1.375, HE_ENERGY, 0.0)
        with pytest.raises(DomainError):
            turning_points_quadratic(1.375, 0.1, 0.04)

    def test_exit_widens_with_weaker_field(self):
        fields = [0.04, 0.06, 0.08, 0.10, 0.11]
        roots = [turning_points_quadratic(KULLIE.z, HE_ENERGY, f) for f in fields]
        x_ls = [r[0] for r in roots]
        x_rs = [r[1] for r in roots]
        assert all(a < b for a, b in zip(x_ls, x_ls[1:]))
        assert all(a > b for a, b in zip(x_rs, x_rs[1:]))

    @pytest.mark.parametrize("z", [1.375, 1.6875, 1.0, 16.0])
    @pytest.mark.parametrize(
        "frac", [1e-300, 1e-100, 1e-20, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99]
    )
    def test_roots_match_mpmath(self, z, frac):
        # fields from a vanishing fraction of the barrier top E^2/(4z) up to
        # 0.99 of it; x_L must not lose digits to |E| - s in weak fields,
        # where that difference rounded it to 0 below a field of about 1e-17
        mp = pytest.importorskip("mpmath")
        field = frac * HE_ENERGY**2 / (4.0 * z)
        x_l, x_r = turning_points_quadratic(z, HE_ENERGY, field)
        with mp.workdps(40):
            ae, zm, f = -mp.mpf(HE_ENERGY), mp.mpf(z), mp.mpf(field)
            s = mp.sqrt(ae * ae - 4 * zm * f)
            assert x_l == pytest.approx(float(2 * zm / (ae + s)), rel=1e-15, abs=0.0)
            assert x_r == pytest.approx(float((ae + s) / (2 * f)), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("z, energy, field", [(1.375, HE_ENERGY, 5e-324),
                                                  (1.375, HE_ENERGY, 1e-309),
                                                  (5e-324, -1e100, 1e-100)])
    def test_roots_leaving_the_floats_are_a_domain_error(self, z, energy, field):
        # an x_R that overflows (or an x_L that underflows) is not a turning
        # point; the panel rule would otherwise meet V - E = -inf at x = inf
        with pytest.raises(DomainError, match="floating-point range"):
            turning_points_quadratic(z, energy, field)

    def test_discriminant_past_the_floats_keeps_ordinary_roots(self):
        # E^2 = 1e600 and 4 z field = 4e400 overflow, yet the roots z/|E| and
        # |E|/field are ordinary floats
        x_l, x_r = turning_points_quadratic(1e200, -1e300, 1e200)
        assert x_l == pytest.approx(1e-100, rel=1e-15, abs=0.0)
        assert x_r == pytest.approx(1e100, rel=1e-15, abs=0.0)

    def test_gap_shrinks_as_energy_rises(self):
        energies = [-1.2, -1.0, -0.904, -0.7, -0.5]
        widths = [
            np.diff(turning_points_quadratic(KULLIE.z, e, 0.04))[0] for e in energies
        ]
        assert all(a > b for a, b in zip(widths, widths[1:]))


def _sae_roots(field):
    p = resolve_problem(LaserCoulomb(field, SAE), HE_ENERGY)
    return p.x_left, p.x_right


class TestSelfConsistent:
    """SAE roots, which resolve_problem finds by the bracketed root solve."""

    def test_sae_weak_field(self):
        x_l, x_r = _sae_roots(0.04)
        assert x_l == pytest.approx(1.24, abs=0.01)
        assert x_r == pytest.approx(21.43, abs=0.01)

    def test_sae_strong_field(self):
        x_l, x_r = _sae_roots(0.11)
        assert x_l == pytest.approx(1.39, abs=0.01)
        assert x_r == pytest.approx(6.90, abs=0.01)

    @pytest.mark.parametrize("field", [0.04, 0.07, 0.11])
    def test_residuals_meet_root_tol(self, field):
        b = LaserCoulomb(field, SAE)
        for x in _sae_roots(field):
            assert abs(eval_potential(b, x) - HE_ENERGY) < 1e-9

    def test_barrier_suppressed_by_strong_field(self):
        with pytest.raises(OverBarrier):
            _sae_roots(0.5)

    @pytest.mark.parametrize("energy", [math.nan, -math.inf])
    def test_non_finite_energy_rejected(self, energy):
        with pytest.raises(DomainError, match="energy must be finite"):
            resolve_problem(LaserCoulomb(0.04, SAE), energy)

    @pytest.mark.parametrize("field", [1e-5, 1e-4, 0.04, 0.07, 0.11, 0.2])
    def test_roots_match_mpmath(self, field):
        # an independent 30-digit root of V(x) = E, seeded at the float root
        mp = pytest.importorskip("mpmath")
        z = SAE
        with mp.workdps(30):
            v = lambda x: (
                -(
                    z.Z
                    + z.a1 * mp.exp(-z.a2 * x)
                    + z.a3 * x * mp.exp(-z.a4 * x)
                    + z.a5 * mp.exp(-z.a6 * x)
                )
                / x
                - mp.mpf(field) * x
                - mp.mpf(HE_ENERGY)
            )
            for x in _sae_roots(field):
                ref = float(mp.findroot(v, mp.mpf(x)))
                assert x == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.fixture
def sae_calls(monkeypatch):
    """Counts of SaeZeff evaluations: Z_eff ('zeff') and Z_eff' ('derivative')."""
    counts = {"zeff": 0, "derivative": 0}
    call, derivative = SaeZeff.__call__, SaeZeff.derivative

    def counting_call(self, x):
        counts["zeff"] += 1
        return call(self, x)

    def counting_derivative(self, x):
        counts["derivative"] += 1
        return derivative(self, x)

    monkeypatch.setattr(SaeZeff, "__call__", counting_call)
    monkeypatch.setattr(SaeZeff, "derivative", counting_derivative)
    return counts


class TestSaeBrackets:
    """The SAE split: sqrt(Z/F) with Z taken at 1/sqrt(F) where V > E there,
    else the peak; halving and doubling walks from the split."""

    @pytest.mark.parametrize("field", np.linspace(0.04, 0.11, 8).tolist())
    def test_resolve_needs_no_peak(self, sae_calls, field):
        resolve_problem(LaserCoulomb(field, SAE), HE_ENERGY)
        assert sae_calls["derivative"] == 0
        assert sae_calls["zeff"] <= 30

    @pytest.mark.parametrize("field", [0.04, 0.11])
    def test_energy_just_below_the_peak_takes_the_peak_path(self, sae_calls, field):
        b = LaserCoulomb(field, SAE)
        x_peak, v_max = b.peak()
        energy = v_max - 1e-8 * abs(v_max)
        sae_calls["derivative"] = 0
        p = resolve_problem(b, energy)
        assert sae_calls["derivative"] > 0
        assert p.x_left < x_peak < p.x_right

    def test_over_barrier_names_the_maximum(self):
        b = LaserCoulomb(0.3, SAE)
        with pytest.raises(OverBarrier, match=f"barrier maximum {b.peak()[1]:.6g}"):
            resolve_problem(b, HE_ENERGY)

    @pytest.mark.parametrize("energy", [HE_ENERGY, -1.2, "near peak"])
    @pytest.mark.parametrize("field", [1e-4, 0.04, 0.07, 0.11])
    def test_brackets_hold_their_root_within_a_factor_of_two(self, field, energy):
        b = LaserCoulomb(field, SAE)
        if energy == "near peak":
            energy = b.peak()[1] * (1.0 + 1e-8)
        brackets = b.root_brackets(energy)
        for (_, lo, hi), root in zip(brackets, b.turning_points(energy)):
            assert 0.0 < lo <= root <= hi <= 2.0 * lo
            assert (b.potential(lo) < energy) != (b.potential(hi) < energy)

    def test_non_positive_charge_at_the_split_is_an_error_of_the_package(self):
        # Z_eff = -1 everywhere: the split's sqrt(Z/F) does not exist, and
        # the peak path must fail with one of the package's errors
        b = LaserCoulomb(0.04, SaeZeff(Z=-1.0, a1=0.0, a3=0.0, a5=0.0))
        with pytest.raises(TunnelTimesError):
            resolve_problem(b, HE_ENERGY)

    def test_failed_walk_names_its_start(self):
        with pytest.raises(BracketFailure, match="no sign change below x = 3"):
            potentials._walk_down(lambda x: 1.0, 3.0, 0.5)


class TestBracketed:
    # rectangles and ramps return their support edges and linear roots in
    # closed form; the other families go through the bracketed solver
    def test_rectangular_edges(self):
        assert Rectangular(1.0, 2.0).turning_points(0.5) == (0.0, 2.0)

    def test_rectangular_over_and_under(self):
        with pytest.raises(OverBarrier):
            Rectangular(1.0, 2.0).turning_points(1.0)
        with pytest.raises(DomainError):
            Rectangular(1.0, 2.0).turning_points(-0.1)

    def test_triangular_exit_inside_support(self):
        x_l, x_r = Triangular(1.0, 0.25, 4.0).turning_points(0.5)
        assert x_l == 0.0
        assert x_r == pytest.approx(2.0, rel=1e-15)

    def test_triangular_truncated_by_support(self):
        x_l, x_r = Triangular(1.0, 0.25, 1.0).turning_points(0.5)
        assert (x_l, x_r) == (0.0, 1.0)

    @pytest.mark.parametrize("field", [0.04, 0.06, 0.08, 0.10, 0.11])
    def test_matches_quadratic_for_constant_charge(self, field):
        b = LaserCoulomb(field, KULLIE)
        got = turning_points_bracketed(b, HE_ENERGY)
        ref = turning_points_quadratic(KULLIE.z, HE_ENERGY, field)
        assert got[0] == pytest.approx(ref[0], abs=1e-8)
        assert got[1] == pytest.approx(ref[1], abs=1e-8)

    def test_root_missing_the_residual_raises(self):
        # a family whose bracket function disagrees with its potential: the
        # root of x - 1 is found exactly, yet the box's V - E there is 0.5
        class Skewed(Rectangular):
            def root_brackets(self, energy):
                f = lambda x: x - 1.0
                return (f, 0.0, 2.0), (f, 0.0, 2.0)

        with pytest.raises(NoConvergence, match=r"root residual at x = 1\.0 exceeds 1e-10"):
            turning_points_bracketed(Skewed(1.0, 2.0), 0.5)

    def test_tabulated_against_analytic_roots(self):
        # samples of -1.375/x - 0.04 x + 0.904; V(x) = 0.2 is the quadratic
        # 0.04 x**2 - 0.704 x + 1.375 = 0 with known roots
        xs = np.linspace(1.64, 20.96, 801)
        vs = -1.375 / xs - 0.04 * xs + 0.904
        b = Tabulated(xs, vs)
        s = math.sqrt(0.704**2 - 4.0 * 0.04 * 1.375)
        ref_l = (0.704 - s) / 0.08
        ref_r = (0.704 + s) / 0.08
        x_l, x_r = b.turning_points(0.2)
        assert x_l == pytest.approx(ref_l, abs=5e-4)
        assert x_r == pytest.approx(ref_r, abs=5e-4)


class TestResolve:
    @pytest.mark.parametrize(
        "barrier",
        [
            Rectangular(1.0, 2.0),
            Triangular(1.0, 0.25, 4.0),
        ],
    )
    def test_dispatch_support_barriers(self, barrier):
        p = resolve_problem(barrier, 0.5)
        assert p.x_left == 0.0
        assert p.width > 0
        assert p.barrier is barrier

    def test_dispatch_constant_charge(self):
        p = resolve_problem(LaserCoulomb(0.04, KULLIE), HE_ENERGY)
        ref = turning_points_quadratic(KULLIE.z, HE_ENERGY, 0.04)
        assert (p.x_left, p.x_right) == ref

    def test_dispatch_selfconsistent_brackets_peak(self):
        b = LaserCoulomb(0.04, SAE)
        p = resolve_problem(b, HE_ENERGY, mass=1.0)
        x_peak, _ = barrier_peak(b)
        assert p.x_left < x_peak < p.x_right
        assert abs(eval_potential(b, p.x_left) - HE_ENERGY) < 1e-9
        assert abs(eval_potential(b, p.x_right) - HE_ENERGY) < 1e-9

    def test_mass_validated(self):
        with pytest.raises(DomainError):
            resolve_problem(Rectangular(1.0, 2.0), 0.5, mass=-1.0)
        with pytest.raises(DomainError):
            resolve_problem(Rectangular(1.0, 2.0), 0.5, mass=math.inf)
