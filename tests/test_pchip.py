"""The tabulated barrier's monotone cubic (PCHIP) interpolant.

scipy's ``PchipInterpolator`` builds the same Fritsch-Butland interpolant
independently, so it serves as the reference here; the package itself never
imports it.
"""

import math

import numpy as np
import pytest

from tunneltimes.errors import DomainError
from tunneltimes.potentials import Tabulated


def max_error(xs, vs, points=20001):
    """Largest |V - scipy's PCHIP| over a dense grid, its knots and the
    points one ulp either side of each interior knot."""
    interpolate = pytest.importorskip("scipy.interpolate")
    b = Tabulated(xs, vs)
    q = np.concatenate((
        np.linspace(xs[0], xs[-1], points),
        xs,
        np.nextafter(xs[1:], -np.inf),
        np.nextafter(xs[:-1], np.inf),
    ))
    ref = interpolate.PchipInterpolator(xs, vs, extrapolate=False)(q)
    return float(np.max(np.abs(b.potential(q) - ref)))


def end_slope(b, right=False):
    """One-sided difference quotient of the interpolant at an end knot."""
    x0, step = (b.x[-1], -1e-7) if right else (b.x[0], 1e-7)
    return (b.potential(x0 + step) - b.potential(x0)) / step


class TestAgainstScipy:
    @pytest.mark.parametrize("knots", [200, 500, 1000])
    def test_sech2(self, knots):
        xs = np.linspace(-10.0, 10.0, knots)
        vs = 1.0 / np.cosh(xs) ** 2
        assert max_error(xs, vs) <= 1e-15 * np.max(np.abs(vs))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_non_uniform_knots(self, seed):
        rng = np.random.default_rng(seed)
        xs = np.cumsum(rng.uniform(0.001, 0.5, 300)) - 40.0
        vs = 1.7 / np.cosh(xs / 3.0) ** 2
        assert max_error(xs, vs) <= 1e-15 * np.max(np.abs(vs))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_walks(self, seed):
        rng = np.random.default_rng(seed)
        xs = np.cumsum(rng.uniform(0.01, 1.0, 300))
        vs = np.cumsum(rng.normal(size=300))
        assert max_error(xs, vs) <= 1e-14

    def test_flat_runs(self):
        # zero secants: every knot next to a flat interval gets slope 0
        xs = np.linspace(0.0, 11.0, 12)
        vs = np.array([0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 2.5, 2.5, 1.0, 0.0, 0.0])
        assert max_error(xs, vs) <= 1e-15 * np.max(np.abs(vs))
        b = Tabulated(xs, vs)
        flat = np.linspace(1.0, 3.0, 101)
        assert np.all(b.potential(flat) == 1.0)

    def test_local_extrema(self):
        # secants that change sign at every knot: a zigzag of extrema
        xs = np.cumsum(np.linspace(0.3, 1.3, 16))
        vs = np.where(np.arange(16) % 2 == 0, 0.0, 1.0) + 0.05 * np.arange(16)
        assert max_error(xs, vs) <= 1e-15 * np.max(np.abs(vs))

    def test_end_slope_reset_to_zero(self):
        # the three-point estimate (3 m0 - m1) / 2 points against m0 = 0.1
        xs = np.linspace(0.0, 7.0, 8)
        vs = np.array([0.0, 0.1, 1.1, 2.0, 2.5, 2.7, 3.6, 3.7])
        b = Tabulated(xs, vs)
        assert end_slope(b) == pytest.approx(0.0, abs=1e-6)
        assert end_slope(b, right=True) == pytest.approx(0.0, abs=1e-6)
        assert max_error(xs, vs) <= 1e-15 * np.max(np.abs(vs))

    def test_end_slope_held_to_three_secants(self):
        # m0 = 1 and m1 = -10: the estimate 6.5 is held to 3 m0 = 3; the
        # mirror image at the right end gives -3
        xs = np.linspace(0.0, 7.0, 8)
        vs = np.array([0.0, 1.0, -9.0, -10.0, -11.0, -10.0, 0.0, -1.0])
        b = Tabulated(xs, vs)
        assert end_slope(b) == pytest.approx(3.0, rel=1e-6)
        assert end_slope(b, right=True) == pytest.approx(-3.0, rel=1e-6)
        assert max_error(xs, vs) <= 1e-15 * np.max(np.abs(vs))


class TestEvaluation:
    @staticmethod
    def walk(seed=7, n=400):
        rng = np.random.default_rng(seed)
        return np.cumsum(rng.uniform(0.01, 1.0, n)), np.cumsum(rng.normal(size=n))

    def test_samples_reproduced_exactly_at_the_knots(self):
        xs, vs = self.walk()
        b = Tabulated(xs, vs)
        assert np.array_equal(b.potential(xs), vs)
        assert [b.potential(x) for x in xs.tolist()] == vs.tolist()

    def test_float_and_array_paths_agree_bit_for_bit(self):
        xs, vs = self.walk()
        b = Tabulated(xs, vs)
        rng = np.random.default_rng(8)
        q = np.concatenate((
            rng.uniform(xs[0], xs[-1], 20000),
            xs,
            # where np.interp rounds a point up to the next knot's interval
            np.nextafter(xs[1:], -np.inf),
            np.nextafter(xs[:-1], np.inf),
        ))
        assert np.array_equal(b.potential(q), [b.potential(x) for x in q.tolist()])

    def test_array_shape_and_zero_dim_input(self):
        xs, vs = self.walk()
        b = Tabulated(xs, vs)
        q = np.linspace(xs[0], xs[-1], 12)
        assert b.potential(q.reshape(3, 4)).shape == (3, 4)
        assert type(b.potential(np.array(q[5]))) is float
        assert b.potential(np.array(q[5])) == b.potential(float(q[5]))

    def test_nan_and_out_of_range_rejected(self):
        xs, vs = self.walk()
        b = Tabulated(xs, vs)
        outside = (math.nan, float(np.nextafter(xs[0], -np.inf)),
                   float(np.nextafter(xs[-1], np.inf)), -math.inf, math.inf)
        for x in outside:
            with pytest.raises(DomainError):
                b.potential(x)
            with pytest.raises(DomainError):
                b.potential(np.array([xs[3], x]))
        assert b.potential(float(xs[0])) == vs[0]
        assert b.potential(float(xs[-1])) == vs[-1]

    def test_overflowing_coefficients_rejected(self):
        xs = np.linspace(0.0, 7e-300, 8)
        with pytest.raises(DomainError, match="too steep"):
            Tabulated(xs, np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]))
