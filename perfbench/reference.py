"""Independent reference values for the tunneltimes benchmark.

Nothing here imports tunneltimes. Two tiers are provided:

* mpmath at ``DPS`` decimal digits (40, so 30 are certain): turning points,
  the action phi and classical time tau_c of the helium laser-Coulomb
  barriers by Gauss-Legendre quadrature on the sin^2 map, and closed forms
  for the rectangular (phi, tau_c, exact p_t, phase and dwell times),
  triangular and sech^2 (Poeschl-Teller) barriers, plus the ETT definition
  and PHI_STAR.
* float64 versions of the same quantities, fast enough to check every
  operation of a run: the closed forms evaluated with ``math``, and batched
  numpy Gauss-Legendre for the helium barriers and for monotone-cubic
  (PCHIP) tabulated barriers, integrated panel by panel between knots.
  Every run compares a sample of them with the mpmath tier, and
  ``selfcheck.py`` compares the closed forms with mpmath quadrature.

Units are atomic (hbar = m_e = 1). Barrier and model parameters are passed
as plain numbers so that the package's classes are never touched.
"""

import math

import mpmath as mp
import numpy as np

from checks import CheckFailure

DPS = 40
mp.mp.dps = DPS

# CODATA 2018
AU_TIME_AS = 24.188843265857
AU_ENERGY_EV = 27.211386245988
AU_LENGTH_ANGSTROM = 0.529177210903

# helium single-active-electron charge Z + a1 e^{-a2 x} + a3 x e^{-a4 x} + a5 e^{-a6 x}
SAE_COEFFS = (1.0, 1.231, 0.662, -1.325, 1.236, -0.231, 0.480)
CONSTANT_Z = {"kullie": 1.375, "clementi": 1.6875}
HE_ENERGY = -0.904

# Published helium Table 1 (E = -0.904 a.u.): x_L, x_R (a.u.), tau_c and
# ETT (as), with the bands the paper's numbers are quoted to: 0.01 a.u. on
# the roots, 1 % on tau_c, 2 % on the ETT and 5 % on the smallest ETT cell.
PAPER_TABLE1 = {
    ("sae", 0.04): (1.24, 21.43, 833.82, 113.08),
    ("sae", 0.11): (1.39, 6.90, 312.24, 22.20),
    ("kullie", 0.04): (1.64, 20.96, 850.73, 111.75),
    ("kullie", 0.11): (2.02, 6.20, 322.72, 16.85),
    ("clementi", 0.04): (2.05, 20.55, 856.49, 109.14),
    ("clementi", 0.11): (2.87, 5.35, 326.50, 6.54),
}
TABLE1_BANDS = (0.01, 0.01, 0.02, 0.05)  # root abs, tau_c rel, ETT rel, wide ETT rel
TABLE1_WIDE_CELL = ("clementi", 0.11)


# ---------------------------------------------------------------- ETT layer

def bracket(M, phi):
    """B(phi) = 1/(1 + 2 phi) - log(1 + 2 phi); M is math or mpmath."""
    u = 1 + 2 * phi
    return 1 / u - M.log(u)


PHI_STAR = mp.findroot(lambda p: bracket(mp, p), mp.mpf("0.38"))
PHI_STAR_F = float(PHI_STAR)


def ett(M, tau_c, phi, exp_m2phi_over_pt):
    """Entropic time -(tau_c / 2 pi) * (e^{-2 phi} / p_t) * B(phi)."""
    return -(tau_c / (2 * M.pi)) * exp_m2phi_over_pt * bracket(M, phi)


def wkb(M, phi):
    """(e^{-2 phi} / p_t, p_t) for the WKB p_t = 1/cosh^2(phi), overflow-free."""
    em = M.exp(-2 * phi)
    q = (1 + em) / 2
    return q * q, em / (q * q)


def inverse_kbt(M, tau_c, phi):
    """1/(k_B T) = -2 tau_c e^{-2 phi} B(phi)."""
    return -2 * tau_c * M.exp(-2 * phi) * bracket(M, phi)


# ------------------------------------------------------- closed-form barriers

def rectangular(M, v0, length, energy, mass=1.0):
    """Rectangular barrier: phi, tau_c, exact p_t, phase and dwell times.

    The phase time is the energy derivative of the transmission phase
    -atan(q tanh(kappa L)), q = (kappa^2 - k^2) / (2 k kappa), taken
    analytically; the dwell time integrates |psi|^2 over the barrier for a
    unit incident wave, with the interior amplitudes matched to the
    transmitted wave at x = L.
    """
    k = M.sqrt(2 * mass * energy)
    kap = M.sqrt(2 * mass * (v0 - energy))
    kl = kap * length
    phi = kl
    tau_c = length * M.sqrt(mass / (2 * (v0 - energy)))
    sh = M.sinh(kl)
    k0sq = k * k + kap * kap
    p_t = 1 / (1 + (k0sq * k0sq) / (4 * k * k * kap * kap) * sh * sh)
    # e^{-2 phi} / p_t without overflow: e^{-2phi} + k0^4 (1 - e^{-2phi})^2 / (16 k^2 kappa^2)
    em = M.exp(-2 * kl)
    ratio = em + (k0sq * k0sq) * (1 - em) ** 2 / (16 * k * k * kap * kap)
    # phase time
    q = (kap * kap - k * k) / (2 * k * kap)
    dk, dkap = mass / k, -mass / kap
    dq = (-4 * mass * 2 * k * kap - (kap * kap - k * k) * 2 * (dk * kap + k * dkap)) / (
        (2 * k * kap) ** 2
    )
    th = M.tanh(kl)
    sech2 = 1 / M.cosh(kl) ** 2
    g = q * th
    dg = dq * th + q * length * dkap * sech2
    phase = -dg / (1 + g * g)
    # dwell time: (m/k) * c * [(1 + r^2) sinh(2 kappa L)/kappa + 2 (1 - r^2) L], c = p_t/4
    r2 = (k / kap) ** 2
    c = p_t / 4
    dwell = (mass / k) * c * ((1 + r2) * M.sinh(2 * kl) / kap + 2 * (1 - r2) * length)
    return {
        "x_left": 0 * length,
        "x_right": length,
        "phi": phi,
        "tau_c": tau_c,
        "p_t": p_t,
        "ratio": ratio,
        "ett": ett(M, tau_c, phi, ratio),
        "phase": phase,
        "dwell": dwell,
    }


def triangular(M, v0, slope, length, energy, mass=1.0):
    """Ramp v0 - slope*x on [0, length]: turning points, phi and tau_c,
    including the truncated case where the ramp ends above the energy."""
    a = v0 - energy
    x_t = a / slope
    rest = a - slope * length if x_t > length else 0 * a
    x_right = length if x_t > length else x_t
    s2m = M.sqrt(2 * mass)
    phi = (2 * s2m / (3 * slope)) * (a * M.sqrt(a) - rest * M.sqrt(rest))
    tau_c = s2m * (M.sqrt(a) - M.sqrt(rest)) / slope
    return {"x_left": 0 * a, "x_right": x_right, "phi": phi, "tau_c": tau_c}


def sech2(M, v0, a, energy, mass=1.0):
    """V0 sech^2(x/a): x_t = a arcosh(sqrt(V0/E)),
    phi = pi a (sqrt(2 m V0) - sqrt(2 m E)), tau_c = pi a sqrt(m / (2 E))."""
    x_t = a * M.acosh(M.sqrt(v0 / energy))
    phi = M.pi * a * (M.sqrt(2 * mass * v0) - M.sqrt(2 * mass * energy))
    tau_c = M.pi * a * M.sqrt(mass / (2 * energy))
    return {"x_left": -x_t, "x_right": x_t, "phi": phi, "tau_c": tau_c}


# ------------------------------------------------------ helium, mpmath tier

def _zeff_mp(model, x):
    if model in CONSTANT_Z:
        return mp.mpf(CONSTANT_Z[model])
    z, a1, a2, a3, a4, a5, a6 = (mp.mpf(repr(c)) for c in SAE_COEFFS)
    return z + a1 * mp.exp(-a2 * x) + a3 * x * mp.exp(-a4 * x) + a5 * mp.exp(-a6 * x)


def laser_coulomb_mp(field, model, energy=HE_ENERGY, guess=None):
    """Turning points, phi and tau_c of -Z(x)/x - F x at ``DPS`` digits.

    ``guess`` is a float pair near (x_L, x_R); the float tier supplies it.
    """
    f = mp.mpf(field)
    e = mp.mpf(energy)
    v = lambda x: -_zeff_mp(model, x) / x - f * x
    if guess is None:
        guess = laser_coulomb_batch([field], model, energy)[0][:2]
    x_l = mp.findroot(lambda x: v(x) - e, mp.mpf(guess[0]))
    x_r = mp.findroot(lambda x: v(x) - e, mp.mpf(guess[1]))
    phi, tau_c = integrals_mp(v, e, x_l, x_r)
    return {"x_left": x_l, "x_right": x_r, "phi": phi, "tau_c": tau_c}


def integrals_mp(v, e, x_l, x_r, mass=1):
    """phi and tau_c of potential ``v`` between turning points, mpmath.

    On the map x = x_L + w sin^2(th) the momentum vanishes like
    sin(th) cos(th) at both ends, so dividing it out leaves smooth
    integrands for Gauss-Legendre, whose nodes avoid the endpoints.
    """
    w = x_r - x_l

    def scaled(th):
        s, c = mp.sin(th), mp.cos(th)
        return mp.sqrt(2 * mass * (v(x_l + w * s * s) - e)) / (w * s * c)

    phi = mp.quad(lambda th: 2 * w * w * scaled(th) * (mp.sin(th) * mp.cos(th)) ** 2,
                  [0, mp.pi / 2], method="gauss-legendre")
    tau_c = mp.quad(lambda th: 2 * mass / scaled(th), [0, mp.pi / 2], method="gauss-legendre")
    return phi, tau_c


# ------------------------------------------------------- helium, float tier

_GL_CACHE = {}


def _gl(n):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    if n not in _GL_CACHE:
        t, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (0.5 * (t + 1.0), 0.5 * w)
    return _GL_CACHE[n]


def _zeff_np(model, x):
    if model in CONSTANT_Z:
        return np.full_like(x, CONSTANT_Z[model]), np.zeros_like(x)
    z, a1, a2, a3, a4, a5, a6 = SAE_COEFFS
    e2, e4, e6 = np.exp(-a2 * x), np.exp(-a4 * x), np.exp(-a6 * x)
    val = z + a1 * e2 + a3 * x * e4 + a5 * e6
    der = -a1 * a2 * e2 + a3 * e4 * (1.0 - a4 * x) - a5 * a6 * e6
    return val, der


def laser_potential(model, field, x):
    """V(x) = -Z(x)/x - F x, float64, elementwise."""
    x = np.asarray(x, dtype=float)
    return -_zeff_np(model, x)[0] / x - field * x


def _sin2_integrals(width, v_minus_e, nodes):
    """phi and tau_c on the map x = x_L + w sin^2(th), th in [0, pi/2].

    ``v_minus_e(th)`` returns V - E at the mapped points, shape (..., n).
    """
    t, wt = _gl(nodes)
    th = 0.5 * math.pi * t
    jac = width[..., None] * np.sin(2.0 * th)
    p = np.sqrt(2.0 * v_minus_e(th))
    phi = 0.5 * math.pi * np.sum(wt * p * jac, axis=-1)
    tau = 0.5 * math.pi * np.sum(wt * jac / p, axis=-1)
    return phi, tau


class ReferenceFailure(CheckFailure):
    """The float reference could not certify its own result."""


def laser_coulomb_batch(fields, model, energy=HE_ENERGY, nodes=32):
    """Rows (x_L, x_R, phi, tau_c) for many fields at once, float64.

    Turning points by Newton from the constant-charge roots; integrals by
    ``nodes``- and 1.5x``nodes``-point Gauss-Legendre, whose difference
    must stay below 1e-11 relative (more nodes only add rounding noise from
    V - E near the turning points).
    """
    f = np.asarray(fields, dtype=float)
    ae = -energy
    z0 = CONSTANT_Z.get(model, CONSTANT_Z["kullie"])
    s = np.sqrt(ae * ae - 4.0 * z0 * f)
    roots = [2.0 * z0 / (ae + s), (ae + s) / (2.0 * f)]
    if model not in CONSTANT_Z:
        for i, x in enumerate(roots):
            for _ in range(60):
                z, dz = _zeff_np(model, x)
                g = -z / x - f * x - energy
                dg = z / (x * x) - dz / x - f
                x = x - g / dg
            z, dz = _zeff_np(model, x)
            slope = z / (x * x) - dz / x - f
            if not np.all(np.abs(-z / x - f * x - energy) < 1e-12) or not np.all(
                slope > 0 if i == 0 else slope < 0
            ):
                raise ReferenceFailure(f"Newton missed a {model} turning point")
            roots[i] = x
    x_l, x_r = roots
    w = x_r - x_l

    def vme(th):
        x = x_l[:, None] + w[:, None] * np.sin(th) ** 2
        return laser_potential(model, f[:, None], x) - energy

    phi, tau = _sin2_integrals(w, vme, nodes)
    phi2, tau2 = _sin2_integrals(w, vme, nodes + nodes // 2)
    if np.any(np.abs(phi2 - phi) > 1e-11 * phi) or np.any(np.abs(tau2 - tau) > 1e-11 * tau):
        raise ReferenceFailure("Gauss-Legendre did not converge on a helium barrier")
    return np.stack([x_l, x_r, phi2, tau2], axis=1)


# ---------------------------------------------------- PCHIP, float tier

def pchip_slopes(x, y):
    """Fritsch-Butland monotone-cubic knot slopes with the three-point,
    shape-preserving end conditions (Moler, Numerical Computing with MATLAB
    3.6) - the interpolant that tabulated barriers are defined by."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    same = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        hm = (w1 + w2) / (w1 / m[:-1] + w2 / m[1:])
    d[1:-1] = np.where(same, hm, 0.0)
    for i, (h0, h1, m0, m1) in ((0, (h[0], h[1], m[0], m[1])), (-1, (h[-1], h[-2], m[-1], m[-2]))):
        e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(e) != np.sign(m0):
            e = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0):
            e = 3.0 * m0
        d[i] = e
    return d


class Pchip:
    """Piecewise cubic Hermite interpolant on knots x with values y."""

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.d = pchip_slopes(self.x, self.y)

    def __call__(self, xs, seg=None):
        xs = np.asarray(xs, dtype=float)
        if seg is None:
            seg = np.clip(np.searchsorted(self.x, xs, side="right") - 1, 0, self.x.size - 2)
        x0, h = self.x[seg], self.x[seg + 1] - self.x[seg]
        t = (xs - x0) / h
        y0, y1 = self.y[seg], self.y[seg + 1]
        d0, d1 = self.d[seg] * h, self.d[seg + 1] * h
        t2, t3 = t * t, t * t * t
        return (
            (2 * t3 - 3 * t2 + 1) * y0
            + (t3 - 2 * t2 + t) * d0
            + (-2 * t3 + 3 * t2) * y1
            + (t3 - t2) * d1
        )

    def _root(self, seg, level):
        lo, hi = self.x[seg], self.x[seg + 1]
        flo = float(self(lo, seg)) - level
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            fm = float(self(mid, seg)) - level
            if (fm < 0.0) == (flo < 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
        return lo if abs(flo) <= abs(float(self(hi, seg)) - level) else hi

    def wkb(self, energy, mass=1.0, nodes=16):
        """x_L, x_R, phi, tau_c of the interpolant at ``energy``, float64.

        The crossing knots around the peak are found from the samples, the
        roots by bisection inside their interval, and each knot interval of
        the forbidden region is one Gauss-Legendre panel of the sin^2 map;
        nodes and 1.5x nodes must agree to 1e-11 relative.
        """
        i_peak = int(np.argmax(self.y))
        above = self.y > energy
        left = i_peak
        while left > 0 and above[left - 1]:
            left -= 1
        right = i_peak
        while right < self.x.size - 1 and above[right + 1]:
            right += 1
        x_l = self._root(left - 1, energy)
        x_r = self._root(right, energy)
        w = x_r - x_l
        inner = self.x[left:right + 1]
        edges = np.concatenate(([0.0], np.arcsin(np.sqrt(np.clip((inner - x_l) / w, 0.0, 1.0))), [0.5 * math.pi]))
        segs = np.arange(left - 1, right + 1)
        out = []
        for n in (nodes, nodes + nodes // 2):
            t, wt = _gl(n)
            lo, span = edges[:-1, None], np.diff(edges)[:, None]
            th = lo + span * t
            x = x_l + w * np.sin(th) ** 2
            v = self(x, np.broadcast_to(segs[:, None], th.shape))
            p = np.sqrt(2.0 * mass * np.maximum(v - energy, 0.0))
            jac = w * np.sin(2.0 * th)
            phi = np.sum(span * wt * p * jac)
            with np.errstate(divide="ignore"):
                tau = np.sum(span * wt * mass * jac / p)
            out.append((phi, tau))
        (phi, tau), (phi2, tau2) = out
        if not (abs(phi2 - phi) <= 1e-11 * phi and abs(tau2 - tau) <= 1e-11 * tau):
            raise ReferenceFailure("panel Gauss-Legendre did not converge on a tabulated barrier")
        return x_l, x_r, phi2, tau2


def sech2_samples(v0, a, knots, span):
    """Knots and values of V0 sech^2(x/a) on [-span a, span a], float64."""
    x = np.linspace(-span * a, span * a, knots)
    return x, v0 / np.cosh(x / a) ** 2
