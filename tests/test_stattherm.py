import math

import numpy as np
import pytest

from tunneltimes.errors import DomainError
from tunneltimes.stattherm import (
    PHI_STAR,
    bracket,
    entropy,
    entropy_maximum,
    inverse_temperature,
)


class TestEntropy:
    def test_certain_penetration_carries_no_entropy(self):
        assert entropy(1.0) == 0.0

    def test_hand_value_at_inverse_e(self):
        assert entropy(math.exp(-1.0)) == pytest.approx(
            math.exp(-1.0) * math.log(2.0), rel=1e-15
        )

    def test_vanishes_in_the_opaque_limit(self):
        assert 0.0 < entropy(1e-300) < 1e-297

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0 + 1e-12, 2.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            entropy(bad)


class TestBracket:
    def test_endpoints(self):
        assert bracket(0.0) == 1.0
        assert bracket(1.0) == pytest.approx(1.0 / 3.0 - math.log(3.0), rel=1e-15)

    def test_strictly_decreasing(self):
        vals = [bracket(phi) for phi in np.linspace(0.0, 10.0, 101)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_sign_change_location(self):
        assert bracket(0.3816) > 0.0 > bracket(0.3817)

    @pytest.mark.parametrize("bad", [-1.0, -0.6, -0.5, -1e-300, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            bracket(bad)

    def test_infinite_phi_rejected(self):
        # it returned -inf
        with pytest.raises(DomainError, match="phi"):
            bracket(math.inf)

    def test_largest_phi_stays_finite(self):
        # 1 + 2 phi overflows at 1.7e308 but not at half of it, and
        # B(2 phi) = B(phi) - log 2 up to 1/(2 phi)
        assert bracket(1.7e308) == pytest.approx(bracket(0.85e308) - math.log(2.0), rel=1e-15)


class TestPhiStar:
    def test_frozen_value(self):
        assert PHI_STAR == pytest.approx(0.38161141718, abs=1e-10)

    def test_is_a_root(self):
        assert abs(bracket(PHI_STAR)) < 1e-12

    def test_separates_temperature_signs(self):
        assert inverse_temperature(PHI_STAR + 1e-6, 1.0) > 0.0
        assert inverse_temperature(PHI_STAR - 1e-6, 1.0) < 0.0


class TestInverseTemperature:
    def test_hand_value(self):
        expected = -2.0 * math.exp(-2.0) * (1.0 / 3.0 - math.log(3.0))
        got = inverse_temperature(1.0, 1.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(0.20713848835050214, rel=1e-13)

    def test_zero_action_limit(self):
        assert inverse_temperature(0.0, 1.0) == -2.0

    def test_near_zero_at_the_critical_action(self):
        assert abs(inverse_temperature(PHI_STAR, 1.0)) < 1e-12

    def test_linear_in_tau_c(self):
        assert inverse_temperature(1.0, 5.0) == pytest.approx(
            5.0 * inverse_temperature(1.0, 1.0), rel=1e-15
        )

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -1000.0, math.inf])
    def test_domain(self, bad):
        # phi = inf returned nan
        with pytest.raises(DomainError, match="phi"):
            inverse_temperature(bad, 1.0)

    def test_overflow_rejected(self):
        with pytest.raises(DomainError, match="not finite"):
            inverse_temperature(0.0, 1e308)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_c_rejected(self, bad):
        with pytest.raises(DomainError):
            inverse_temperature(1.0, bad)


class TestEntropyMaximum:
    def test_frozen_location_and_value(self):
        p_star, s_star = entropy_maximum()
        assert p_star == pytest.approx(0.46616164172304464, abs=1e-12)
        assert s_star == pytest.approx(0.26438044734963434, rel=1e-12)

    def test_location_bounds(self):
        p_star, _ = entropy_maximum()
        assert 0.4 < p_star < 0.5

    def test_stationarity(self):
        p_star, _ = entropy_maximum()
        h = 1e-6
        deriv = (entropy(p_star + h) - entropy(p_star - h)) / (2.0 * h)
        assert abs(deriv) < 1e-8

    def test_is_a_maximum(self):
        p_star, s_star = entropy_maximum()
        assert entropy(p_star - 0.01) < s_star
        assert entropy(p_star + 0.01) < s_star
