import math
import random
import warnings

import numpy as np
import pytest

from tunneltimes.errors import DomainError, EvanescentLead
from tunneltimes.potentials import KULLIE, LaserCoulomb, Rectangular, Tabulated, Triangular
from tunneltimes.times import phi_rectangular
from tunneltimes.transmission import (
    DEFAULT_SLICES,
    pt_numeric,
    pt_rectangular_exact,
    pt_wkb,
)

RATIO = np.linspace(0.1, 0.9, 9)
PHI = np.linspace(0.5, 10.0, 9)


def tanh_box(v0=1.0, length=2.0, steep=25.0, pad=2.0, n=3001):
    """Smoothly rounded rectangular barrier on a tabulated grid."""
    xs = np.linspace(-pad, length + pad, n)
    vs = 0.25 * v0 * (1.0 + np.tanh(steep * xs)) * (1.0 - np.tanh(steep * (xs - length)))
    return Tabulated(xs, vs)


class TestRectangularExact:
    def test_transparent_at_zero_action(self):
        assert pt_rectangular_exact(0.5, 1.0, 0.0) == 1.0

    def test_frozen_reference_point(self):
        assert pt_rectangular_exact(0.5, 1.0, 2.0) == pytest.approx(
            0.07065082485316446, rel=1e-14
        )

    @pytest.mark.parametrize("phi", PHI)
    def test_equals_wkb_at_half_height(self, phi):
        # v0^2 / (4 E (v0 - E)) = 1 at E = v0/2, collapsing the exact form
        # onto 1/cosh^2
        exact = pt_rectangular_exact(0.5, 1.0, phi)
        assert abs(exact - pt_wkb(phi)) <= 1e-12 * exact

    @pytest.mark.parametrize("ratio", RATIO)
    @pytest.mark.parametrize("phi", PHI)
    def test_wkb_bounds_exact(self, ratio, phi):
        # the prefactor v0^2/(4E(v0-E)) >= 1 always, so exact <= wkb
        exact = pt_rectangular_exact(ratio, 1.0, phi)
        assert 0.0 < exact <= pt_wkb(phi) * (1.0 + 1e-14)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_energy_domain(self, bad):
        with pytest.raises(DomainError):
            pt_rectangular_exact(bad, 1.0, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -1e-300])
    def test_phi_domain(self, bad):
        # a NaN phi returned nan, and a negative one a number; pt_wkb rejects both
        with pytest.raises(DomainError, match="phi"):
            pt_rectangular_exact(0.5, 1.0, bad)
        with pytest.raises(DomainError, match="phi"):
            pt_wkb(bad)

    @pytest.mark.parametrize("energy, v0, phi", [
        (0.5, math.inf, 1.0),  # was nan
    ])
    def test_float_range_rejected(self, energy, v0, phi):
        with pytest.raises(DomainError, match="float range"):
            pt_rectangular_exact(energy, v0, phi)

    @pytest.mark.parametrize("energy, v0, phi", [
        (5e-324, 0.125, 0.0),  # 4E(v0 - E) underflows to 0
        (0.5, 1e200, 1.0),  # v0^2 overflows
        (7e-232, 2e-208, 1e-3),  # 4E(v0 - E) underflows, and v0^2 is subnormal
        (5e299, 1e300, 1.0),  # 4E(v0 - E) overflows
        (1e-250, 1e-99, 1e-3),  # 4E(v0 - E) underflows under a v0 of normal size
    ])
    def test_g_and_v0_squared_past_the_floats(self, energy, v0, phi):
        # g = 4E(v0 - E) and v0^2 are formed from E and v0 scaled by a power of two
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            e, v = mp.mpf(energy), mp.mpf(v0)
            want = 1 / (1 + v**2 * mp.sinh(mp.mpf(phi))**2 / (4 * e * (v - e)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pt_rectangular_exact(energy, v0, phi)
        assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)

    def test_normal_range_keeps_its_bits(self):
        # c = 1 there: the unscaled formula, evaluated in the same order
        rng = random.Random(30)
        for _ in range(500):
            v0 = 10.0 ** rng.uniform(-99.0, 99.0)
            energy, phi = v0 * rng.uniform(0.01, 0.99), rng.uniform(0.0, 40.0)
            g = 4.0 * energy * (v0 - energy)
            em, one_minus = math.exp(-2.0 * phi), -math.expm1(-2.0 * phi)
            want = g * em / (g * em + 0.25 * v0 * v0 * one_minus * one_minus)
            assert pt_rectangular_exact(energy, v0, phi) == want


class TestWkb:
    def test_limits(self):
        assert pt_wkb(0.0) == 1.0
        assert pt_wkb(15.0) == pytest.approx(3.743049187535369e-13, rel=1e-13)

    def test_no_overflow_deep_under_barrier(self):
        val = pt_wkb(350.0)
        assert 0.0 < val < 1e-300
        # below the double-precision floor the probability is exactly zero
        assert pt_wkb(400.0) == 0.0

    def test_branch_continuity(self):
        below = pt_wkb(20.0 - 1e-9)
        above = pt_wkb(20.0 + 1e-9)
        assert abs(below - above) / above < 1e-7

    def test_strictly_decreasing(self):
        vals = [pt_wkb(p) for p in np.linspace(0.0, 30.0, 61)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [math.nan, -1e-300, -1.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            pt_wkb(bad)


class TestNumericOracle:
    def test_free_particle_is_transparent(self):
        res = pt_numeric(Rectangular(0.0, 2.0), 0.5)
        assert res.p_t == pytest.approx(1.0, abs=1e-12)
        assert res.p_r == pytest.approx(0.0, abs=1e-12)

    def test_rectangular_reference(self):
        res = pt_numeric(Rectangular(1.0, 2.0), 0.5)
        phi = phi_rectangular(0.5, 1.0, 2.0, 1.0)
        assert res.p_t == pytest.approx(
            pt_rectangular_exact(0.5, 1.0, phi), rel=1e-9
        )

    @pytest.mark.parametrize("ratio", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("length", [0.5, 2.0, 5.0])
    def test_rectangular_grid(self, ratio, length):
        res = pt_numeric(Rectangular(1.0, length), ratio)
        phi = phi_rectangular(ratio, 1.0, length, 1.0)
        ref = pt_rectangular_exact(ratio, 1.0, phi)
        assert abs(res.p_t - ref) / ref < 1e-6

    @pytest.mark.parametrize(
        "barrier, energy",
        [
            (Rectangular(1.0, 2.0), 0.5),
            (Triangular(1.0, 0.25, 4.0), 0.5),
            (Rectangular(0.0, 2.0), 0.5),
        ],
    )
    def test_flux_conservation(self, barrier, energy):
        res = pt_numeric(barrier, energy)
        assert abs(res.p_t + res.p_r - 1.0) < 1e-9

    def test_result_reports_grid(self):
        res = pt_numeric(Rectangular(1.0, 2.0), 0.5, slices=128)
        assert res.grid_points == 128
        assert pt_numeric(Rectangular(1.0, 2.0), 0.5).grid_points == DEFAULT_SLICES

    def test_convergence_on_smooth_tabulated_barrier(self):
        # laser-Coulomb-shaped samples, shifted so the leads propagate
        xs = np.linspace(1.64, 20.96, 801)
        vs = -1.375 / xs - 0.04 * xs + 0.904
        b = Tabulated(xs, vs)
        ps = [pt_numeric(b, 0.2, slices=n).p_t for n in (64, 128, 256, 512, 1024)]
        diffs = [abs(a - c) for a, c in zip(ps, ps[1:])]
        assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))

    def test_richardson_error_bound_at_default_slices(self):
        xs = np.linspace(1.64, 20.96, 801)
        vs = -1.375 / xs - 0.04 * xs + 0.904
        b = Tabulated(xs, vs)
        coarse = pt_numeric(b, 0.2, slices=DEFAULT_SLICES).p_t
        fine = pt_numeric(b, 0.2, slices=2 * DEFAULT_SLICES).p_t
        assert abs(fine - coarse) / fine < 1e-6

    def test_rounded_box_approaches_sharp_box(self):
        res = pt_numeric(tanh_box(), 0.5)
        phi = phi_rectangular(0.5, 1.0, 2.0, 1.0)
        sharp = pt_rectangular_exact(0.5, 1.0, phi)
        assert abs(res.p_t - sharp) / sharp < 0.05
        ps = [pt_numeric(tanh_box(), 0.5, slices=n).p_t for n in (64, 128, 256, 512)]
        diffs = [abs(a - c) for a, c in zip(ps, ps[1:])]
        assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))

    def test_evanescent_lead_rejected(self):
        xs = np.linspace(0.0, 2.0, 21)
        vs = np.full_like(xs, 0.6)  # edges sit above E = 0.5
        with pytest.raises(EvanescentLead):
            pt_numeric(Tabulated(xs, vs), 0.5)

    def test_laser_coulomb_excluded(self):
        with pytest.raises(DomainError):
            pt_numeric(LaserCoulomb(0.04, KULLIE), -0.904)

    def test_overflowing_amplitudes_rejected(self, recwarn):
        # kappa * L = 800 is past the float range of the swept amplitudes
        with pytest.raises(DomainError):
            pt_numeric(Rectangular(1.0, 800.0), 0.5)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_rejected(self, bad):
        with pytest.raises(DomainError, match="energy"):
            pt_numeric(Rectangular(1.0, 2.0), bad)

    def test_opaque_barrier_transmits_nothing_quietly(self, recwarn):
        # kappa * L = 400: the product is finite, but |A|^2 overflows, so
        # p_t is 0 (p_r is nan until it is read from amplitude ratios)
        res = pt_numeric(Rectangular(1.0, 400.0), 0.5)
        assert res.p_t == 0.0
        assert len(recwarn) == 0

    def test_lead_wavenumber_underflow_refused(self):
        # both lead energies are positive, but 2 m E underflows, so k_l = 0
        with pytest.raises(DomainError, match="lead wavenumber underflows"):
            pt_numeric(Rectangular(9.450941278816645e-281, 0.0012792028148535816),
                       5.0057672604812484e-281, 5.0181987083555164e-170)

    def test_ramp_past_the_float_range_at_a_slice_refused_quietly(self):
        # slope * x overflows at the slice midpoints, so V = -inf there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                pt_numeric(Triangular(0.0163, 1.7e308, 29.86), 0.02)

    def test_slice_midpoint_at_the_energy(self):
        # with an odd count the middle slice of this ramp sits exactly at
        # E, where the slice propagator is [[1, h], [0, 1]]
        b = Triangular(1.0, 0.25, 4.0)
        p64, p65, p4096, p4097 = (
            pt_numeric(b, 0.5, slices=n).p_t for n in (64, 65, 4096, 4097)
        )
        assert abs(p65 - p64) / p64 < 1e-4
        assert abs(p4097 - p4096) / p4096 < 1e-8

    def test_slice_budget_validated(self):
        with pytest.raises(DomainError):
            pt_numeric(Rectangular(1.0, 2.0), 0.5, slices=32)
        for slices in (2**20 + 1, 10**11):
            # past the cap, refused before any slice array is allocated
            with pytest.raises(DomainError, match="slices"):
                pt_numeric(Rectangular(1.0, 2.0), 0.5, slices=slices)
        with pytest.raises(DomainError):
            pt_numeric(Rectangular(1.0, 2.0), 0.5, mass=0.0)
        with pytest.raises(DomainError):
            pt_numeric(Rectangular(1.0, 2.0), 0.5, mass=math.nan)


class TestOracleReferences:
    @pytest.mark.parametrize("ratio", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("kappa_l", [0.1, 1.0, 20.0, 80.0, 300.0])
    def test_rectangular_matches_exact(self, ratio, kappa_l):
        # the piecewise-constant slicing of a rectangle is exact
        length = kappa_l / math.sqrt(2.0 * (1.0 - ratio))
        res = pt_numeric(Rectangular(1.0, length), ratio)
        exact = pt_rectangular_exact(ratio, 1.0, kappa_l)
        assert abs(res.p_t - exact) <= 1e-12 * exact
        assert abs(res.p_t + res.p_r - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "barrier, energy",
        [(Triangular(1.0, 0.25, 4.0), 0.5), (tanh_box(), 0.5)],
    )
    def test_matches_30_digit_plane_wave_sweep(self, barrier, energy):
        mp = pytest.importorskip("mpmath")
        slices = 256
        h, v_left, v_right, vs = barrier.oracle_slices(slices)
        with mp.workdps(30):
            # plane waves in every region, matched at each interface from a
            # unit transmitted wave back to the incident side; x is measured
            # from the left edge, which changes only the amplitudes' phases
            e = mp.mpf(energy)
            ks = [mp.sqrt(2 * (e - mp.mpf(v))) for v in (v_left, *vs, v_right)]
            amp_a, amp_b = mp.mpc(1), mp.mpc(0)
            for i in range(slices, -1, -1):
                x = mp.mpf(h) * i
                k_l, k_r = ks[i], ks[i + 1]
                u = amp_a * mp.expj(k_r * x)
                v = amp_b * mp.expj(-k_r * x)
                r = k_r / k_l
                amp_a = (((1 + r) * u + (1 - r) * v) / 2) * mp.expj(-k_l * x)
                amp_b = (((1 - r) * u + (1 + r) * v) / 2) * mp.expj(k_l * x)
            p_t = float(mp.re(ks[-1] / ks[0]) / abs(amp_a) ** 2)
            p_r = float(abs(amp_b) ** 2 / abs(amp_a) ** 2)
        res = pt_numeric(barrier, energy, slices=slices)
        assert abs(res.p_t - p_t) <= 1e-12 * p_t
        assert abs(res.p_r - p_r) <= 1e-12 * p_r


def written_slices(b, slices):
    """The oracle's slices as each family once wrote V itself: the box's v0,
    the ramp's v0 - slope x and the table's interpolant at the midpoints."""
    if isinstance(b, Tabulated):
        a, z, leads = float(b.x[0]), float(b.x[-1]), (float(b.v[0]), float(b.v[-1]))
    else:
        a, z, leads = 0.0, b.length, (0.0, 0.0)
    h = (z - a) / slices
    mids = a + h * (np.arange(slices) + 0.5)
    if isinstance(b, Rectangular):
        vs = np.full(slices, float(b.v0))
    elif isinstance(b, Triangular):
        vs = b.v0 - b.slope * mids
    else:
        vs = b.potential(mids)
    return (h, *leads, vs)


def seeded_oracle_problems(count=24, seed=3):
    rng = random.Random(seed)
    for i in range(count):
        v0, length = rng.uniform(0.5, 2.0), 10 ** rng.uniform(-0.3, 1.6)
        frac = rng.uniform(0.05, 0.95)
        slices = rng.choice([64, 1001, DEFAULT_SLICES])
        if i % 3 == 0:
            yield Rectangular(v0, length), frac * v0, slices
        elif i % 3 == 1:
            slope = (1 - frac) * v0 / (length * rng.uniform(0.3, 2.0))
            yield Triangular(v0, slope, length), frac * v0, slices
        else:
            xs = np.linspace(-length, length, rng.choice([8, 200]))
            table = Tabulated(xs, v0 / np.cosh(xs) ** 2)
            yield table, max(frac * v0, 1.5 * float(table.v[0])), slices


class TestOracleSlicesReadThePotential:
    @pytest.mark.parametrize("barrier, energy, slices", list(seeded_oracle_problems()))
    def test_bit_identical_to_the_written_slices(self, monkeypatch, barrier, energy, slices):
        # V read through the family's potential gives the very floats each
        # family once wrote for the oracle, so p_t and p_r keep every bit
        got = pt_numeric(barrier, energy, slices=slices)
        mine = barrier.oracle_slices(slices)
        old = written_slices(barrier, slices)
        assert mine[:3] == old[:3] and np.array_equal(mine[3], old[3])
        monkeypatch.setattr(type(barrier), "oracle_slices", written_slices)
        want = pt_numeric(barrier, energy, slices=slices)
        assert (got.p_t, got.p_r) == (want.p_t, want.p_r)
