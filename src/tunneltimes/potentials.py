"""Barrier families and effective-charge models.

Four barrier shapes cover the use cases: a rectangular box, a right-triangle
ramp, a laser-dressed Coulomb potential V(x) = -Z_eff(x)/x - F*x on x > 0,
and a tabulated potential interpolated from samples. Everything is an
immutable value; evaluation is pure. Each family owns its facts: V(x) as
``potential``, the maximum as ``peak``, and ``turning_points`` by one rule:
in closed form where the family has one (the support edges of a rectangle,
the edge and linear root of a ramp, the quadratic of a constant Z_eff),
otherwise by a bracketed root solve that reaches the barrier through
``potential`` and ``root_brackets(energy)``, which walks out to one bracket
per turning point from a point of the family's choosing where V > E, or
raises OverBarrier, and returns each as (f, lo, hi), f being V - E as the
family writes it on that bracket, without ``potential``'s domain checks;
then ``closed_form`` and ``panel_edges`` for the unit-mass barrier integrals
(wkb applies the mass), exact (a window inside a rectangle or a ramp, a
constant charge's full window) or by quadrature; ``transmission`` for p_t,
rho = exp(-2 phi)/p_t and the phase and dwell times (exact, times included,
for a rectangle); and ``oracle_frame``, the oracle's support and leads. The
base class ``Barrier`` supplies no closed form, no inner panel edges, the
WKB p_t = 1/cosh^2(phi) without times, and ``oracle_slices``: V at the
midpoints of the oracle's slices, read through ``eval_potential``.
Effective-charge models are callables: ``model(x)`` is Z_eff(x), and the SAE
peak is the zero of V', with Z_eff' from ``SaeZeff.derivative``.
``potential`` and the models take a float, an int or a numpy array; a
scalar or a 0-d array in gives a float out, and NaN raises ``DomainError``.
Each constructor checks its own fields with comparisons that NaN and inf
fail.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Union

from ._lazynp import np
from .errors import BracketFailure, DomainError, NoPeak, OverBarrier
from .transmission import _rectangular_terms, _rho_wkb, pt_wkb
from .turning import bracketed_root, turning_points_bracketed, turning_points_quadratic

__all__ = [
    "ConstantZeff",
    "SaeZeff",
    "ZeffModel",
    "SAE",
    "KULLIE",
    "CLEMENTI",
    "zeff_model",
    "Rectangular",
    "Triangular",
    "LaserCoulomb",
    "Tabulated",
    "Barrier",
    "tabulated_from_file",
    "eval_potential",
    "barrier_peak",
]


def _check_below(energy: float, v_max: float) -> None:
    """Reject an energy at or above the barrier maximum v_max."""
    if energy >= v_max:
        raise OverBarrier(f"E = {energy} is not below the barrier maximum {v_max:.6g}")


def _check_tunneling(energy: float, v0: float) -> None:
    """Reject an energy outside (0, v0) for a barrier on a zero floor; NaN
    fails the second test."""
    _check_below(energy, v0)
    if not energy > 0:
        raise DomainError(f"energy must lie in (0, v0), got {energy}")


def _all(mask) -> bool:
    """Whether every element of a scalar or array comparison is true."""
    return bool(mask) if isinstance(mask, bool) else bool(mask.all())


def _least(v):
    """The smallest element of an array, or a scalar itself, for a message."""
    return v if isinstance(v, (float, int)) else np.min(v)


def _check_not_nan(x) -> None:
    """Reject a NaN position, scalar or anywhere in an array."""
    if x != x if isinstance(x, (float, int)) else np.isnan(x).any():
        raise DomainError("potential evaluated at NaN")


def _float_or_array(v):
    """A 0-d result as a float; arrays pass through."""
    return v if getattr(v, "ndim", 0) else float(v)


def _doubling(d: float, span: float):
    """Offsets into a window of length span of panel edges that double in
    length away from a singularity d beyond the window's near end.

    Every panel then sees the singularity at the same relative distance, so
    a fixed-order rule converges on each however close it is; the last panel
    is at least as long as the one before it.
    """
    offsets, r, stop = [], d, 0.5 * (span + d)
    for _ in range(63):
        r += r  # d 2^k, k = 1..63
        if r > stop:
            break
        offsets.append(r - d)
    return offsets


def _walk_down(f, start: float, factor: float):
    """The ordered bracket of x and x * factor around the first sign change
    of f, positive at start, along the points start * factor**k."""
    x = start
    for _ in range(200):
        y = x * factor
        if f(y) < 0.0:
            return (y, x) if factor < 1.0 else (x, y)
        x = y
    side = "below" if factor < 1.0 else "above"
    raise BracketFailure(f"no sign change {side} x = {start:.6g}")


_AGM_STEPS = 32  # k' = sqrt(5e-324) / sqrt(1.8e308), the smallest k', needs 13


def _elliptic_e_g(a: float, b: float):
    """E(m) and G = (2 - m) E(m) - 2 (1 - m) K(m) for m = 1 - a/b, 0 < a < b,
    from one arithmetic-geometric mean of 1 and k' = sqrt(a/b) (Abramowitz
    & Stegun 17.6): K = pi / (2 a_N), E = K (1 - m/2 - S) and G = K (m^2/2 -
    (2 - m) S), with S the sum of 2^(n-1) c_n^2 over n >= 1. c_1 = (1 - k')/2
    = m / (2 (1 + k')) and c_(n+1) = c_n^2 / (4 a_(n+1)) carry a_n - g_n
    without cancellation, and reach 0 rather than stall at an ulp.
    G in this form keeps its digits as m -> 0, where (2 - m) E - 2 (1 - m) K
    cancels; as k' -> 0 both brackets cancel by a factor of about ln(4/k')/2.
    So below k' = 1e-5 the complementary-modulus series take over (A&S
    17.3.26, 17.3.36): E = 1 + k'^2 (L/2 - 1/4) and G = 1 + k'^2 (3/4 -
    3L/2), L = ln(4/k'), whose next terms are O(k'^4 L) < 1e-18."""
    m = (b - a) / b
    k1 = math.sqrt(a) / math.sqrt(b)
    if k1 < 1e-5:
        lg, k2 = math.log(4.0) - math.log(k1), a / b
        return 1.0 + k2 * (0.5 * lg - 0.25), 1.0 + k2 * (0.75 - 1.5 * lg)
    an, gn = 0.5 * (1.0 + k1), math.sqrt(k1)
    c = 0.5 * m / (1.0 + k1)
    s, w = c * c, 1.0
    for _ in range(_AGM_STEPS):
        if c <= 1e-15 * an:
            break
        gn, an = math.sqrt(an * gn), 0.5 * (an + gn)
        c = c * c / (4.0 * an)
        w += w
        s += w * c * c
    k = 0.5 * math.pi / an
    return k * (1.0 - 0.5 * m - s), k * (0.5 * m * m - (2.0 - m) * s)


@dataclass(frozen=True)
class ConstantZeff:
    """Position-independent effective nuclear charge."""

    z: float

    def __post_init__(self):
        if not 0.0 < self.z < math.inf:
            raise DomainError(f"ConstantZeff.z must be positive and finite, got {self.z}")

    def __call__(self, x):
        # broadcasts against an array x
        return self.z


@dataclass(frozen=True)
class SaeZeff:
    """Single-active-electron effective charge.

    Z_eff(x) = Z + a1*exp(-a2*x) + a3*x*exp(-a4*x) + a5*exp(-a6*x)

    The defaults are the helium parametrization used by the benchmark
    table; other coefficient sets may be supplied explicitly.
    """

    Z: float = 1.0
    a1: float = 1.231
    a2: float = 0.662
    a3: float = -1.325
    a4: float = 1.236
    a5: float = -0.231
    a6: float = 0.480

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise DomainError(f"SaeZeff.{name} must be finite, got {value}")

    def __call__(self, x):
        # math.exp keeps the scalar calls of the root and peak searches cheap
        exp = math.exp if isinstance(x, (float, int)) else np.exp
        return (
            self.Z
            + self.a1 * exp(-self.a2 * x)
            + self.a3 * x * exp(-self.a4 * x)
            + self.a5 * exp(-self.a6 * x)
        )

    def derivative(self, x: float) -> float:
        """Z_eff'(x) at a float x."""
        return (-self.a1 * self.a2 * math.exp(-self.a2 * x)
                + self.a3 * (1.0 - self.a4 * x) * math.exp(-self.a4 * x)
                - self.a5 * self.a6 * math.exp(-self.a6 * x))


ZeffModel = Union[ConstantZeff, SaeZeff]

SAE = SaeZeff()
KULLIE = ConstantZeff(1.375)
CLEMENTI = ConstantZeff(1.6875)

_ZEFF_PRESETS = {"sae": SAE, "kullie": KULLIE, "clementi": CLEMENTI}


def zeff_model(name: str) -> ZeffModel:
    """Resolve a preset name ('sae', 'kullie', 'clementi') or a numeric
    constant into a ZeffModel."""
    key = name.strip().lower()
    if key in _ZEFF_PRESETS:
        return _ZEFF_PRESETS[key]
    try:
        return ConstantZeff(float(key))
    except ValueError as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"unknown Z_eff model {name!r}") from None


class Barrier:
    """The defaults every barrier family inherits."""

    def closed_form(self, energy: float, x_left: float, x_right: float):
        """Exact unit-mass integrals of sqrt(V - E) and 1/sqrt(V - E) over
        [x_left, x_right] at energy, or None; wkb._integrals applies the mass once."""
        return None

    def panel_edges(self, energy: float, lo: float, hi: float):
        """Interior x in (lo, hi) where the integrals start a new panel."""
        return ()

    def transmission(self, energy: float, phi: float, tau_c: float, mass: float):
        """(p_t, rho = exp(-2 phi)/p_t, phase time, dwell time) at action phi
        and classical time tau_c; a time without a closed form is None."""
        return pt_wkb(phi), _rho_wkb(phi), None, None

    def oracle_slices(self, slices: int):
        """(slice width, lead levels, V at the slice midpoints) for the
        oracle, over the family's ``oracle_frame`` (a, b, left, right lead)."""
        a, b, v_left, v_right = self.oracle_frame()
        h = (b - a) / slices
        return h, v_left, v_right, eval_potential(self, a + h * (np.arange(slices) + 0.5))


@dataclass(frozen=True)
class Rectangular(Barrier):
    """Constant barrier of height v0 on [0, length], zero outside.

    v0 = 0 is allowed as the free-particle degenerate case used by the
    scattering oracle; tunneling calculations themselves require E < v0.
    """

    v0: float
    length: float

    def __post_init__(self):
        if not 0.0 <= self.v0 < math.inf:
            raise DomainError(f"Rectangular.v0 must be >= 0 and finite, got {self.v0}")
        if not 0.0 < self.length < math.inf:
            raise DomainError(
                f"Rectangular.length must be positive and finite, got {self.length}"
            )

    def potential(self, x):
        _check_not_nan(x)
        return _float_or_array(np.where((0.0 <= x) & (x <= self.length), self.v0, 0.0))

    def peak(self):
        # any interior point qualifies; the midpoint is returned
        return 0.5 * self.length, self.v0

    def closed_form(self, energy: float, x_left: float, x_right: float):
        """The unit-mass pair over the window [x_left, x_right] at energy, or
        None; V - E is a constant d > 0 on a window inside the support, so
        the pair is sqrt(d) w and w / sqrt(d) over width w."""
        if 0.0 <= x_left and x_right <= self.length and energy < self.v0:
            root_d, w = math.sqrt(self.v0 - energy), x_right - x_left
            return root_d * w, w / root_d
        return None

    def transmission(self, energy: float, phi: float, tau_c: float, mass: float):
        """The exact p_t, rho and the phase and dwell times of the box, from
        one exp(-2 phi)/expm1 evaluation. s = p_t sinh(phi) cosh(phi) /
        phi_e^2 cancels sinh*cosh growth against the p_t decay, and phi_e^2
        against p_t ~ E, so only phi_e divides and tiny energies do not
        underflow."""
        length = self.length
        p_t, em, one_minus, e, v, den, c = _rectangular_terms(energy, self.v0, phi)
        phi_e2 = 2.0 * mass * energy * length * length
        try:
            # ratios of terms in e = c E and v = c v0, so c cancels: den carries c^2
            rho = em + v * v * one_minus * one_minus / (16.0 * e * (v - e))
            s = 0.5 * (v - e) / (mass * length * length) * -math.expm1(-4.0 * phi) / den * c
            pref = tau_c / (2.0 * phi * phi * math.sqrt(phi_e2))
        except ZeroDivisionError:
            rho = s = pref = math.nan  # refused below
        head, summ = p_t * phi * (phi * phi - phi_e2), phi * phi + phi_e2
        phase, dwell = pref * (head + summ * summ * s), pref * (head + summ * phi_e2 * s)
        if not (math.isfinite(phase) and math.isfinite(dwell)):
            raise DomainError(f"rectangular times leave the float range at E = {energy}")
        return p_t, rho, phase, dwell

    def turning_points(self, energy: float):
        # V - E changes sign through a jump at the support edges
        _check_tunneling(energy, self.v0)
        return 0.0, self.length

    def oracle_frame(self):
        return 0.0, self.length, 0.0, 0.0


@dataclass(frozen=True)
class Triangular(Barrier):
    """Ramp V(x) = v0 - slope*x on [0, length], zero outside."""

    v0: float
    slope: float
    length: float

    def __post_init__(self):
        for name in ("v0", "slope", "length"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(
                    f"Triangular.{name} must be positive and finite, "
                    f"got {getattr(self, name)}"
                )

    def potential(self, x):
        _check_not_nan(x)
        inside = (0.0 <= x) & (x <= self.length)
        return _float_or_array(np.where(inside, self.v0 - self.slope * x, 0.0))

    def peak(self):
        return 0.0, self.v0

    def closed_form(self, energy: float, x_left: float, x_right: float):
        # exact on any window of the support up to the ramp's root: with ra,
        # rb = sqrt(V - E) at its ends, the unit-mass pair over width w is
        # (2/3) w (ra^2 + ra rb + rb^2)/(ra + rb), written so that no square
        # overflows, and 2 w/(ra + rb); up to the root turning_points gives,
        # rb = 0 and w = d/slope, d = ra^2
        root = (self.v0 - energy) / self.slope
        if not (0.0 <= x_left < x_right <= root and x_right <= self.length):
            return None
        if not self.v0 - energy < math.inf:
            raise DomainError(f"V - E leaves the float range at E = {energy}")
        d = self.v0 - energy if x_left == 0.0 else self._gap(energy, x_left)
        if x_right == root:
            k = math.sqrt(d) / self.slope
            return (2.0 / 3.0) * k * d, 2.0 * k
        ra, rb = math.sqrt(d), math.sqrt(self._gap(energy, x_right))
        s, w = ra + rb, x_right - x_left
        return ((2.0 / 3.0) * (ra * (ra / s) + rb) * w, 2.0 / s * w) if s > 0.0 else None

    def _gap(self, energy: float, x: float) -> float:
        """V - E at x, or 0 where negative, rounded once from its exact value:
        floats are integer ratios, and int / int rounds correctly."""
        ratios = (t.as_integer_ratio() for t in (self.v0, energy, self.slope, x))
        (a, p), (b, q), (c, r), (d, s) = ratios
        return max(((a * q - b * p) * r * s - c * d * p * q) / (p * q * r * s), 0.0)

    def turning_points(self, energy: float):
        # the entry is the support edge; the exit is the ramp's linear root
        # unless the support truncates the ramp first
        _check_tunneling(energy, self.v0)
        root = (self.v0 - energy) / self.slope
        if root == 0.0:
            raise DomainError(
                f"the ramp's turning point (v0 - E)/slope = {self.v0 - energy!r}/{self.slope!r} "
                "underflows to 0")
        return 0.0, min(root, self.length)

    oracle_frame = Rectangular.oracle_frame


@dataclass(frozen=True)
class LaserCoulomb(Barrier):
    """Field-dressed Coulomb barrier V(x) = -Z_eff(x)/x - field*x, x > 0."""

    field: float
    zeff: ZeffModel

    def __post_init__(self):
        if not 0.0 < self.field < math.inf:
            raise DomainError(
                f"LaserCoulomb.field must be positive and finite, got {self.field}"
            )

    def potential(self, x):
        # written so that NaN fails the test
        if not _all(x > 0.0):
            raise DomainError(
                f"laser-Coulomb barrier is defined for x > 0, got {_least(x)}"
            )
        z = self.zeff(x)
        if not _all(z > 0.0):
            raise DomainError(f"Z_eff = {_least(z)} is not positive")
        return -z / x - self.field * x

    def peak(self):
        # constant Z_eff peaks at sqrt(z/field) with value -2*sqrt(z*field);
        # any other Z_eff peaks where V' = Z/x**2 - Z'/x - field falls through
        # zero, on a bracket whose upper end 4/sqrt(field) holds it for Z <= 16
        if isinstance(self.zeff, ConstantZeff):
            z = self.zeff.z
            return math.sqrt(z / self.field), -2.0 * math.sqrt(z * self.field)
        dv = lambda x: (self.zeff(x) / x - self.zeff.derivative(x)) / x - self.field
        lo, hi = 0.1, max(100.0, 4.0 / math.sqrt(self.field))
        try:
            x_peak = bracketed_root(dv, lo, hi)
        except BracketFailure:
            # above a field of about 198 a.u., V' < 0 already at lo
            if not dv(lo) < 0.0:
                raise
            raise BracketFailure(
                f"barrier peak sought at field {self.field}: V' has no zero on "
                f"[{lo}, {hi:.6g}] (V'({lo}) = {dv(lo):.6g}), so the peak lies "
                f"below x = {lo}"
            ) from None
        return x_peak, self.potential(x_peak)

    def panel_edges(self, energy: float, lo: float, hi: float):
        # V has a pole at x = 0, a distance lo before the window: one panel
        # converges too slowly once hi/lo is large. A window reaching x <= 0
        # is rejected by the integrand itself
        return [lo + r for r in _doubling(lo, hi - lo)] if lo > 0.0 else ()

    def closed_form(self, energy: float, x_left: float, x_right: float):
        # a constant Z_eff on the window of its own quadratic's roots a < b,
        # where V - E = F (x - a)(b - x)/x: with m = 1 - a/b, the unit-mass
        # pair is sqrt(F) (2/3) b^(3/2) G and 2 sqrt(b) E / sqrt(F) (Byrd &
        # Friedman, Handbook of Elliptic Integrals (1971)). Any other window,
        # or an energy without roots, stays with the panel rule
        if not isinstance(self.zeff, ConstantZeff):
            return None
        try:
            roots = self.turning_points(energy)
        except (DomainError, OverBarrier):
            return None
        if (x_left, x_right) != roots:
            return None
        e, g = _elliptic_e_g(x_left, x_right)
        root_b, root_f = math.sqrt(x_right), math.sqrt(self.field)
        return root_f * x_right * root_b * (2.0 / 3.0) * g, 2.0 * root_b * e / root_f

    def turning_points(self, energy: float):
        if isinstance(self.zeff, ConstantZeff):
            return turning_points_quadratic(self.zeff.z, energy, self.field)
        return turning_points_bracketed(self, energy)

    def root_brackets(self, energy: float):
        # split where V > E: first at sqrt(Z/F), the constant-charge peak
        # with Z taken at 1/sqrt(F), else at the peak itself. f is V - E at
        # a float x > 0 without potential's domain checks; the residual check
        # of turning_points_bracketed goes through potential
        zeff, field = self.zeff, self.field
        f = lambda x: -zeff(x) / x - field * x - energy
        z = zeff(1.0 / math.sqrt(field))
        x = math.sqrt(z / field) if 0.0 < z < math.inf else math.nan
        if not (x > 0.0 and f(x) > 0.0):
            x, v_max = self.peak()
            _check_below(energy, v_max)
        # V -> -inf as x -> 0+, and as x -> +inf under the field term, so
        # halving (doubling) away from the split must find V < E
        return (f, *_walk_down(f, x, 0.5)), (f, *_walk_down(f, x, 2.0))

    def oracle_frame(self):
        raise DomainError("the scattering oracle is not offered for the laser-Coulomb barrier")


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """PCHIP slope at an end knot: the one-sided three-point estimate from the
    end interval (width h0, secant m0) and its neighbour (h1, m1), reset to
    zero against the sign of m0 and held to 3*m0 where the secants change
    sign, so that the end interval stays free of spurious extrema."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > abs(3.0 * m0):
        return 3.0 * m0
    return d


def _pchip(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Power-basis coefficients of the PCHIP through (x, v), shape (4, n):
    column j < n - 1 holds c0..c3 of c0 + c1 t + c2 t^2 + c3 t^3, t = x - x_j,
    on knot interval j, and the last column the final sample alone."""
    h = np.diff(x)
    m = np.diff(v) / h
    # interior slopes: the weighted harmonic mean of the neighbouring
    # secants, zero at a local extremum or next to a flat interval
    d = np.zeros_like(v)
    keep = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0)
    h0, h1, m0, m1 = h[:-1][keep], h[1:][keep], m[:-1][keep], m[1:][keep]
    w1, w2 = 2.0 * h1 + h0, h1 + 2.0 * h0
    d[1:-1][keep] = 1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2))
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    # Hermite data (v, d) at both ends of each interval to the power basis
    s = (d[:-1] + d[1:] - 2.0 * m) / h
    coef = np.zeros((4, x.size))
    coef[:, :-1] = v[:-1], d[:-1], (m - d[:-1]) / h - s, s / h
    coef[0, -1] = v[-1]
    return coef


@dataclass(frozen=True, eq=False)
class Tabulated(Barrier):
    """Barrier interpolated from (x, V) samples.

    At least 8 finite samples with strictly increasing x are required.
    The interpolant is the monotone piecewise cubic (PCHIP) of Fritsch and
    Carlson with the Fritsch-Butland harmonic-mean slopes (SIAM J. Numer.
    Anal. 17, 238 (1980); SIAM J. Sci. Stat. Comput. 5, 300 (1984)): it is
    monotone on every knot interval, so no spurious extrema appear between
    samples and V(x) - E changes sign at most once on each. Every sample is
    reproduced exactly at its knot.
    """

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if x.ndim != 1 or v.shape != x.shape:
            raise DomainError("samples must be two equal-length 1-D arrays")
        if x.size < 8:
            raise DomainError(f"need at least 8 samples, got {x.size}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise DomainError("samples must be finite")
        if not np.all(np.diff(x) > 0):
            raise DomainError("sample positions must be strictly increasing")
        with np.errstate(all="ignore"):
            coef = _pchip(x, v)
        if not np.all(np.isfinite(coef)):
            raise DomainError("samples too steep: the interpolant's coefficients overflow")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "_coef", coef)
        object.__setattr__(self, "_index", np.arange(float(x.size)))
        # the float path works on plain lists: bisect and Horner's rule in
        # Python beat a numpy call on one point
        object.__setattr__(self, "_knots", x.tolist())
        object.__setattr__(self, "_samples", v.tolist())
        object.__setattr__(self, "_top", int(np.argmax(v)))
        object.__setattr__(self, "_rows", coef.T.tolist())

    def potential(self, x):
        knots = self._knots
        if isinstance(x, (float, int)):
            # written so that NaN fails the test
            if not knots[0] <= x <= knots[-1]:
                raise self._outside(x)
            j = bisect_right(knots, x) - 1
            c0, c1, c2, c3 = self._rows[j]
            t = x - knots[j]
            return ((c3 * t + c2) * t + c1) * t + c0
        if not _all((knots[0] <= x) & (x <= knots[-1])):
            raise self._outside(x)
        # np.interp against the knot indices finds each point's interval in
        # one pass, but may round a point just below a knot up to that knot
        j = np.interp(x, self.x, self._index).astype(np.intp)
        xj = self.x.take(j)
        low = x < xj
        if low.any():
            j -= low
            xj = self.x.take(j)
        t = x - xj
        c0, c1, c2, c3 = self._coef
        v = c3.take(j)
        v *= t
        v += c2.take(j)
        v *= t
        v += c1.take(j)
        v *= t
        v += c0.take(j)
        return _float_or_array(v)

    def _outside(self, x) -> DomainError:
        return DomainError(
            f"x in [{np.min(x)}, {np.max(x)}] leaves the tabulated range "
            f"[{self.x[0]}, {self.x[-1]}]"
        )

    def peak(self):
        # PCHIP gives an interior extremum sample zero slope and is monotone
        # on every knot interval, so the interpolant peaks at the largest
        # sample
        i = self._top
        if i == 0 or i == self.x.size - 1:
            raise NoPeak("tabulated potential has no interior maximum")
        return self._knots[i], self._samples[i]

    def panel_edges(self, energy: float, lo: float, hi: float):
        # the knots strictly inside (lo, hi): the interpolant is one cubic
        # between them, but only C^1 across them
        return self.x[np.searchsorted(self.x, lo, "right"):np.searchsorted(self.x, hi)]

    def turning_points(self, energy: float):
        return turning_points_bracketed(self, energy)

    def root_brackets(self, energy: float):
        # monotone knot intervals: walking out from the peak sample, the
        # first sample below E closes the one interval of the turning point
        _check_below(energy, self.peak()[1])
        knots, v, top = self._knots, self._samples, self._top
        j = top - 1
        while j >= 0 and not v[j] < energy:
            j -= 1
        k = top + 1
        while k < len(v) and not v[k] < energy:
            k += 1
        if j < 0 or k == len(v):
            raise BracketFailure(
                "tabulated potential does not drop below E on both sides of the peak"
            )

        def bracket(i):
            # V - E on knot interval i is its one cubic in t = x - x_i, and at
            # x_(i+1) the sample itself: what potential gives, without the
            # range check and the interval search
            lo, hi, v_hi = knots[i], knots[i + 1], v[i + 1]
            c0, c1, c2, c3 = self._rows[i]

            def f(x):
                if x == hi:
                    return v_hi - energy
                t = x - lo
                return ((c3 * t + c2) * t + c1) * t + c0 - energy

            return f, lo, hi

        return bracket(j), bracket(k - 1)

    def oracle_frame(self):
        # flat leads at the edge samples
        return self._knots[0], self._knots[-1], self._samples[0], self._samples[-1]


def tabulated_from_file(path) -> Tabulated:
    """Read a tabulated barrier from a two-column text file.

    Columns are whitespace-separated x and V in atomic units; lines starting
    with '#' are ignored. Content that is not numbers, or no data row at all,
    raises DomainError naming the path; a path that cannot be opened raises
    the OSError of ``open``.
    """
    import warnings

    try:
        with warnings.catch_warnings():
            # numpy reports a file without data rows only by a UserWarning
            warnings.simplefilter("error", UserWarning)
            data = np.loadtxt(path, comments="#", ndmin=2)
    except (ValueError, UserWarning) as exc:
        raise DomainError(f"cannot read (x, V) samples from {path}: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 2:
        raise DomainError(f"expected two columns (x, V) in {path}")
    return Tabulated(data[:, 0], data[:, 1])


def eval_potential(b: Barrier, x):
    """Evaluate V(x) for any barrier family, at a float or elementwise on a
    numpy array.

    Raises
    ------
    DomainError
        x outside the barrier's domain (x <= 0 for LaserCoulomb, outside the
        sample range for Tabulated). This signals a caller bug, not physics.
    """
    return b.potential(x)


def barrier_peak(b: Barrier):
    """Locate the barrier maximum as (x_peak, v_max).

    Raises
    ------
    NoPeak
        The potential is monotone on its domain (tabulated data with its
        maximum at an endpoint).
    """
    return b.peak()
