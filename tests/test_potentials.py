import math

import numpy as np
import pytest

from tunneltimes.errors import BracketFailure, DomainError, NoConvergence, NoPeak
from tunneltimes.potentials import (
    CLEMENTI,
    KULLIE,
    SAE,
    ConstantZeff,
    LaserCoulomb,
    SaeZeff,
    Rectangular,
    Tabulated,
    Triangular,
    barrier_peak,
    eval_potential,
    tabulated_from_file,
    zeff_model,
)
from tunneltimes import turning
from tunneltimes.turning import resolve_problem


class TestZeff:
    def test_presets(self):
        assert KULLIE.z == 1.375
        assert CLEMENTI.z == 1.6875
        assert (SAE.Z, SAE.a1, SAE.a2, SAE.a3, SAE.a4, SAE.a5, SAE.a6) == (
            1.0, 1.231, 0.662, -1.325, 1.236, -0.231, 0.480,
        )

    def test_constant_is_position_independent(self):
        for x in (0.0, 1.0, 11.0, 300.0):
            assert KULLIE(x) == 1.375

    def test_sae_at_origin(self):
        # 1 + 1.231 + 0 - 0.231
        assert SAE(0.0) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("x", [0.1, 1.0, 2.5, 5.0, 40.0])
    def test_sae_derivative_matches_mpmath(self, x):
        mp = pytest.importorskip("mpmath")
        z = lambda t: (SAE.Z + SAE.a1 * mp.exp(-SAE.a2 * t)
                       + SAE.a3 * t * mp.exp(-SAE.a4 * t) + SAE.a5 * mp.exp(-SAE.a6 * t))
        with mp.workdps(30):
            ref = float(mp.diff(z, x))
        assert SAE.derivative(x) == pytest.approx(ref, rel=1e-13, abs=1e-16)

    def test_sae_far_field_is_bare_charge(self):
        assert SAE(1000.0) == pytest.approx(1.0, rel=1e-12)

    def test_sae_bounded_on_working_range(self):
        # the slow negative tail lets Z dip just below the bare charge
        # (0.99965 near x = 10.7) before relaxing back to 1
        xs = np.linspace(0.0, 50.0, 2001)
        vals = [SAE(float(x)) for x in xs]
        assert min(vals) > 0.999
        assert max(vals) <= 2.0

    @pytest.mark.parametrize("model", [SAE, KULLIE])
    @pytest.mark.parametrize("x", [math.nan, -1.0, np.array([1.0, math.nan])])
    def test_outside_domain_rejected(self, model, x):
        # the models do not check x; the barrier that evaluates Z_eff rejects
        # a point outside x > 0 before Z_eff sees it
        with pytest.raises(DomainError):
            LaserCoulomb(0.04, model).potential(x)

    def test_resolver(self):
        assert zeff_model("kullie") is KULLIE
        assert zeff_model("SAE") is SAE
        assert zeff_model("1.5") == ConstantZeff(1.5)
        with pytest.raises(DomainError):
            zeff_model("bogus")
        with pytest.raises(DomainError):
            zeff_model("-2.0")
        with pytest.raises(DomainError):
            zeff_model("nan")
        with pytest.raises(DomainError):
            ConstantZeff(math.inf)
        with pytest.raises(DomainError):
            SaeZeff(a1=math.nan)


class TestEvalPotential:
    def test_laser_coulomb_direct_substitution(self):
        b = LaserCoulomb(0.04, KULLIE)
        assert eval_potential(b, 1.0) == pytest.approx(-1.415, rel=1e-15)

    def test_rectangular_inside_and_outside(self):
        b = Rectangular(1.0, 2.0)
        assert eval_potential(b, 1.0) == 1.0
        assert eval_potential(b, -0.5) == 0.0
        assert eval_potential(b, 2.5) == 0.0

    def test_triangular_ramp_reaches_zero_at_base(self):
        b = Triangular(1.0, 0.5, 2.0)
        assert eval_potential(b, 2.0) == 0.0
        assert eval_potential(b, 0.0) == 1.0

    def test_laser_coulomb_domain(self):
        b = LaserCoulomb(0.04, KULLIE)
        with pytest.raises(DomainError):
            eval_potential(b, 0.0)
        with pytest.raises(DomainError):
            eval_potential(b, -1.0)


def _sech2(knots, v0=1.0, a=1.0):
    xs = np.linspace(-10.0 * a, 10.0 * a, knots)
    return Tabulated(xs, v0 / np.cosh(xs / a) ** 2)


class TestVectorizedPotential:
    @pytest.mark.parametrize(
        "barrier, xs",
        [
            (Rectangular(1.0, 2.0), np.linspace(-0.5, 2.5, 13)),
            (Triangular(1.0, 0.25, 4.0), np.linspace(-1.0, 5.0, 13)),
            (LaserCoulomb(0.04, KULLIE), np.linspace(0.5, 30.0, 13)),
            (LaserCoulomb(0.04, SAE), np.linspace(0.5, 30.0, 13)),
            (_sech2(50), np.linspace(-10.0, 10.0, 13)),
        ],
    )
    def test_scalar_and_array_agree(self, barrier, xs):
        scalars = [barrier.potential(float(x)) for x in xs]
        assert all(type(v) is float for v in scalars)
        values = barrier.potential(xs)
        assert isinstance(values, np.ndarray)
        np.testing.assert_allclose(values, scalars, rtol=1e-15, atol=0.0)
        assert barrier.potential(xs.reshape(13, 1)).shape == (13, 1)

    @pytest.mark.parametrize(
        "evaluate",
        [
            Rectangular(1.0, 2.0).potential,
            Triangular(1.0, 0.25, 4.0).potential,
            LaserCoulomb(0.04, KULLIE).potential,
            LaserCoulomb(0.04, SAE).potential,
            _sech2(50).potential,
            SAE,
        ],
        ids=["rect", "triangular", "kullie", "sae", "tabulated", "sae-zeff"],
    )
    @pytest.mark.parametrize("scalar", [int, np.float64, lambda x: np.array(float(x))],
                             ids=["int", "float64", "0-d"])
    @pytest.mark.parametrize("x", [1, 3])
    def test_other_scalars_give_the_float_result(self, evaluate, scalar, x):
        # a Python int, a numpy float64 and a 0-d array each come back as a
        # float, bit-equal to the result at the Python float
        value = evaluate(scalar(x))
        assert isinstance(value, float)
        assert value == evaluate(float(x))

    @pytest.mark.parametrize("model", [SAE, KULLIE])
    def test_zeff_scalar_and_array_agree(self, model):
        xs = np.linspace(0.0, 40.0, 9)
        scalars = [model(float(x)) for x in xs]
        assert all(type(z) is float for z in scalars)
        np.testing.assert_allclose(model(xs), scalars, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize(
        "barrier",
        [
            Rectangular(1.0, 2.0),
            Triangular(1.0, 0.25, 4.0),
            LaserCoulomb(0.04, KULLIE),
            LaserCoulomb(0.04, SAE),
            _sech2(50),
        ],
    )
    def test_nan_rejected(self, barrier):
        with pytest.raises(DomainError):
            barrier.potential(math.nan)
        with pytest.raises(DomainError):
            barrier.potential(np.array([1.0, math.nan]))

    def test_array_domain_checked(self):
        with pytest.raises(DomainError):
            LaserCoulomb(0.04, KULLIE).potential(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(DomainError):
            Tabulated(np.linspace(0.0, 1.0, 8), np.ones(8)).potential(np.array([0.5, 1.1]))


class TestTabulatedPeakAndBrackets:
    def test_peak_is_the_largest_sample(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            xs = np.sort(rng.uniform(-8.0, 8.0, 60))
            vs = rng.uniform(0.5, 2.0) / np.cosh((xs - rng.uniform(-1, 1)) / rng.uniform(0.5, 2))
            b = Tabulated(xs, vs)
            i = int(np.argmax(vs))
            assert b.peak() == (xs[i], vs[i])
            # PCHIP is monotone on each knot interval, so nothing between
            # the samples rises above the largest one
            assert b.potential(np.linspace(xs[0], xs[-1], 20001)).max() <= vs[i]

    def test_brackets_are_the_crossing_knot_intervals(self):
        b = _sech2(101)
        energy = 0.3
        for (_, lo, hi), rising in zip(b.root_brackets(energy), (True, False)):
            i = int(np.searchsorted(b.x, lo))
            assert (b.x[i], b.x[i + 1]) == (lo, hi)
            below, above = (lo, hi) if rising else (hi, lo)
            assert b.potential(below) < energy <= b.potential(above)

    def test_bracket_failure_without_a_crossing(self):
        xs = np.linspace(0.0, 1.0, 10)
        b = Tabulated(xs, 1.0 - (xs - 0.2) ** 2)
        with pytest.raises(BracketFailure):
            b.root_brackets(0.5)


class TestBarrierPeak:
    def test_constant_zeff_closed_form(self):
        x_peak, v_max = barrier_peak(LaserCoulomb(0.04, KULLIE))
        assert x_peak == pytest.approx(math.sqrt(1.375 / 0.04), rel=1e-15)
        assert x_peak == pytest.approx(5.8630, abs=1e-4)
        assert v_max == pytest.approx(-2.0 * math.sqrt(1.375 * 0.04), rel=1e-15)
        assert v_max == pytest.approx(-0.46904, abs=1e-5)

    def test_clementi_strong_field_still_tunneling(self):
        _, v_max = barrier_peak(LaserCoulomb(0.11, CLEMENTI))
        assert v_max == pytest.approx(-0.86169, abs=1e-5)
        assert v_max > -0.904

    def test_rectangular(self):
        x_peak, v_max = barrier_peak(Rectangular(1.0, 2.0))
        assert v_max == 1.0
        assert 0.0 < x_peak < 2.0

    def test_sae_numeric_search(self):
        x_peak, v_max = barrier_peak(LaserCoulomb(0.04, SAE))
        assert x_peak == pytest.approx(5.0925005, abs=1e-5)
        assert v_max == pytest.approx(-0.40198662, abs=1e-7)
        x_peak, v_max = barrier_peak(LaserCoulomb(0.11, SAE))
        assert x_peak == pytest.approx(3.0302926, abs=1e-5)
        assert v_max == pytest.approx(-0.66887522, abs=1e-7)

    @pytest.mark.parametrize("zeff", [KULLIE, CLEMENTI])
    @pytest.mark.parametrize("delta", [1e-3, 1e-2])
    def test_peak_is_a_local_maximum(self, zeff, delta):
        b = LaserCoulomb(0.04, zeff)
        x_peak, v_max = barrier_peak(b)
        assert eval_potential(b, x_peak + delta) < v_max
        assert eval_potential(b, x_peak - delta) < v_max

    @pytest.mark.parametrize("field", [1e-5, 5e-5, 0.04, 0.11, 0.2])
    def test_sae_peak_matches_mpmath(self, field):
        # at the weak fields the peak lies near sqrt(1/field), beyond x = 100
        mp = pytest.importorskip("mpmath")

        def v(x):
            z = (SAE.Z + SAE.a1 * mp.exp(-SAE.a2 * x)
                 + SAE.a3 * x * mp.exp(-SAE.a4 * x) + SAE.a5 * mp.exp(-SAE.a6 * x))
            return -z / x - field * x

        with mp.workdps(30):
            x_ref = mp.findroot(lambda x: mp.diff(v, x), 1.0 / math.sqrt(field))
            v_ref = v(x_ref)
        x_peak, v_max = barrier_peak(LaserCoulomb(field, SAE))
        assert v_max == pytest.approx(float(v_ref), rel=1e-12)
        assert x_peak == pytest.approx(float(x_ref), rel=1e-14)

    @pytest.mark.parametrize("field", [5e-5, 1e-5])
    def test_sae_weak_field_resolves_just_below_the_peak(self, field):
        energy = -1.0001 * 2.0 * math.sqrt(field)
        b = LaserCoulomb(field, SAE)
        p = resolve_problem(b, energy)
        assert p.x_left < b.peak()[0] < p.x_right

    def test_failed_peak_search_raises(self, monkeypatch):
        # the zero of V' is not found within the root solver's step cap
        monkeypatch.setattr(turning, "_MAX_ITER", 3)
        with pytest.raises(NoConvergence):
            barrier_peak(LaserCoulomb(0.04, SAE))

    def test_sae_peak_outside_the_bracket_raises(self):
        # V' < 0 already at x = 0.1 once the field exceeds about 198 a.u.
        with pytest.raises(BracketFailure):
            barrier_peak(LaserCoulomb(1000.0, SAE))

    @pytest.mark.parametrize("field", [215.0, 1e300])
    def test_sae_peak_outside_the_bracket_says_where(self, field):
        with pytest.raises(BracketFailure) as info:
            barrier_peak(LaserCoulomb(field, SAE))
        message = str(info.value)
        assert "barrier peak" in message
        assert f"field {field}" in message
        assert "V' has no zero on [0.1, 100]" in message
        assert "below x = 0.1" in message

    def test_monotone_tabulated_has_no_peak(self):
        xs = np.linspace(0.0, 1.0, 10)
        with pytest.raises(NoPeak):
            barrier_peak(Tabulated(xs, xs**2))


class TestTabulated:
    def test_reproduces_sample_nodes(self):
        xs = np.linspace(0.0, 3.0, 16)
        vs = np.sin(xs) + 2.0
        b = Tabulated(xs, vs)
        for x, v in zip(xs, vs):
            assert eval_potential(b, float(x)) == pytest.approx(float(v), rel=1e-14)

    def test_domain_checked(self):
        b = Tabulated(np.linspace(0.0, 1.0, 8), np.ones(8))
        with pytest.raises(DomainError):
            eval_potential(b, -0.1)
        with pytest.raises(DomainError):
            eval_potential(b, 1.1)

    def test_requires_eight_increasing_samples(self):
        with pytest.raises(DomainError):
            Tabulated(np.linspace(0.0, 1.0, 7), np.ones(7))
        xs = np.array([0.0, 1.0, 0.5, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(DomainError):
            Tabulated(xs, np.ones(8))
        xs = np.linspace(0.0, 1.0, 8)
        with pytest.raises(DomainError):
            Tabulated(xs, np.where(xs > 0.5, np.nan, 1.0))
        with pytest.raises(DomainError):
            Tabulated(np.append(xs[:-1], np.inf), np.ones(8))

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "barrier.dat"
        xs = np.linspace(1.0, 2.0, 9)
        vs = 3.0 - xs
        lines = ["# barrier samples in a.u.", "# x V"]
        lines += [f"{x:.17g}  {v:.17g}" for x, v in zip(xs, vs)]
        path.write_text("\n".join(lines) + "\n")
        b = tabulated_from_file(path)
        assert np.allclose(b.x, xs)
        assert np.allclose(b.v, vs)
        assert eval_potential(b, 1.5) == pytest.approx(1.5, rel=1e-12)

    def test_from_file_rejects_a_third_column(self, tmp_path):
        path = tmp_path / "barrier.dat"
        path.write_text("\n".join(f"{x:.17g} 1.0 0.0" for x in np.linspace(0.0, 7.0, 8)))
        with pytest.raises(DomainError, match="expected two columns"):
            tabulated_from_file(path)


class TestValidation:
    def test_rectangular_rejects_negative_height(self):
        with pytest.raises(DomainError):
            Rectangular(-1.0, 2.0)
        with pytest.raises(DomainError):
            Rectangular(math.nan, 2.0)
        with pytest.raises(DomainError):
            Rectangular(1.0, math.inf)
        # degenerate free-particle case stays constructible for the oracle
        assert Rectangular(0.0, 2.0).v0 == 0.0

    def test_triangular_requires_positive_parameters(self):
        with pytest.raises(DomainError):
            Triangular(0.0, 0.5, 2.0)
        with pytest.raises(DomainError):
            Triangular(1.0, -0.5, 2.0)
        with pytest.raises(DomainError):
            Triangular(math.inf, 0.5, 2.0)
        with pytest.raises(DomainError):
            Triangular(1.0, math.nan, 2.0)

    def test_laser_coulomb_requires_positive_field(self):
        with pytest.raises(DomainError):
            LaserCoulomb(0.0, KULLIE)
        with pytest.raises(DomainError):
            LaserCoulomb(math.inf, KULLIE)
        with pytest.raises(DomainError):
            LaserCoulomb(math.nan, KULLIE)
