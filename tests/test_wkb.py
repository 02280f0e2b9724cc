import math

import pytest

from tunneltimes.errors import DomainError, SingularityError
from tunneltimes.potentials import CLEMENTI, KULLIE, LaserCoulomb, Rectangular, Triangular
from tunneltimes.turning import TunnelingProblem, resolve_problem
from tunneltimes.units import to_attoseconds
from tunneltimes.wkb import (
    QUAD_TOL_DEFAULT,
    action_phi,
    classical_time,
    compute_wkb,
    dphi_dE,
)

HE_ENERGY = -0.904


def rect_problem(v0=1.0, length=2.0, energy=0.5, mass=1.0):
    return resolve_problem(Rectangular(v0, length), energy, mass=mass)


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

    def test_quad_tol_validated(self):
        p = rect_problem()
        with pytest.raises(DomainError):
            action_phi(p, quad_tol=1e-5)
        with pytest.raises(DomainError):
            action_phi(p, quad_tol=1e-14)

    def test_interior_zero_flagged(self):
        bad = TunnelingProblem(0.5, 1.0, Rectangular(1.0, 2.0), 0.0, 3.0)
        with pytest.raises(SingularityError):
            action_phi(bad)


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


class TestEnergyDerivative:
    def test_rectangular_matches_closed_form(self):
        # d(phi)/dE = -L sqrt(m / (2 (v0 - E))) = -2 at these parameters
        assert dphi_dE(rect_problem()) == pytest.approx(-2.0, rel=1e-6)

    def test_step_halving_stable(self):
        p = resolve_problem(LaserCoulomb(0.04, KULLIE), HE_ENERGY)
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
