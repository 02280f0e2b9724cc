"""Transmission probabilities: exact rectangular, WKB, and a numeric oracle.

The oracle solves the stationary scattering problem by slicing the barrier
into piecewise-constant segments at the family's own V, read at the slice
midpoints by ``Barrier.oracle_slices`` (Ko & Inkson, PRB 38, 9945 (1988)).
Each slice has a real 2x2 propagator of (psi, psi'); their ordered product
is evaluated as a tree, pairwise in about log2(slices) vectorized steps, with
every matrix kept as an offset from the identity, and matched to plane
waves in the two flat leads. The oracle exists to audit the closed forms on
rectangular, triangular, and bounded tabulated barriers; it is not offered
for the laser-Coulomb potential, which is unbounded below downfield and has
no propagating asymptotic state there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._lazynp import np
from .errors import DomainError, EvanescentLead

if TYPE_CHECKING:
    from .potentials import Barrier

__all__ = [
    "ScatteringResult",
    "pt_rectangular_exact",
    "pt_wkb",
    "pt_numeric",
]

_MIN_SLICES = 64
_MAX_SLICES = 2**20  # a run at the cap peaks near 120 MB
DEFAULT_SLICES = 4096


@dataclass(frozen=True)
class ScatteringResult:
    """Transmission/reflection pair from the numeric oracle."""

    p_t: float
    p_r: float
    grid_points: int


def _check_under_barrier(energy: float, v0: float):
    if not 0.0 < energy < v0:
        raise DomainError(f"energy must lie in (0, v0) = (0, {v0}), got {energy}")


def _rectangular_terms(energy: float, v0: float, phi: float):
    """pt_rectangular_exact's p_t = g*e^{-2phi} / den, with e^{-2phi},
    1 - e^{-2phi} (by expm1), and e, v and den, which the rectangular times
    reuse. g and den are formed from e = c E and v = c v0, c a power of two
    returned with them: 1 while 1e-100 < E < v0 < 1e100, else about 1/v0, so
    that g and v0^2 stay in the floats. Scaling by c is exact and leaves p_t
    as it is; it multiplies g and den by c^2."""
    _check_under_barrier(energy, v0)
    c = 1.0 if 1e-100 < energy and v0 < 1e100 else math.ldexp(1.0, min(1023, -math.frexp(v0)[1]))
    e, v = energy * c, v0 * c
    g = 4.0 * e * (v - e)
    em = math.exp(-2.0 * phi)
    one_minus = -math.expm1(-2.0 * phi)
    den = g * em + 0.25 * v * v * one_minus * one_minus
    if not 0.0 < den < math.inf:
        raise DomainError(f"transmission leaves the float range at E = {energy}, v0 = {v0}")
    return g * em / den, em, one_minus, e, v, den, c


def pt_rectangular_exact(energy: float, v0: float, phi: float) -> float:
    """Exact rectangular transmission 1/(1 + v0^2 sinh^2(phi)/(4E(v0-E))).

    Evaluated in the overflow-free form
    g*e^{-2phi} / (g*e^{-2phi} + v0^2 (1-e^{-2phi})^2 / 4), g = 4E(v0-E),
    valid for any phi >= 0, with E and v0 scaled by a power of two outside
    1e-100 < E < v0 < 1e100 so that g and v0^2 stay in the floats.
    """
    if not phi >= 0.0:
        raise DomainError(f"action phi must be >= 0, got {phi}")
    return _rectangular_terms(energy, v0, phi)[0]


def pt_wkb(phi: float) -> float:
    """WKB transmission 1/cosh^2(phi), written as 4e/(1 + e)^2 with
    e = exp(-2 phi), which cannot overflow for any phi >= 0."""
    if not phi >= 0.0:
        raise DomainError(f"action phi must be >= 0, got {phi}")
    em = math.exp(-2.0 * phi)
    return 4.0 * em / ((1.0 + em) * (1.0 + em))


def _rho_wkb(phi: float) -> float:
    """exp(-2 phi)/pt_wkb(phi): cosh^2(phi) exp(-2 phi) = ((1 + exp(-2 phi))/2)^2,
    which neither overflows nor cancels at large phi."""
    q = 0.5 * (1.0 + math.exp(-2.0 * phi))
    return q * q


def _slice_offsets(s: np.ndarray, h: float) -> np.ndarray:
    """Offsets D = M - I of the slice propagators M, shape (2, 2, slices).

    M carries (psi, psi') across a slice of width h with k^2 = s:
    [[cos kh, sin(kh)/k], [-k sin kh, cos kh]] where s > 0, the cosh/sinh
    form where s < 0, and the limit [[1, h], [0, 1]] where s = 0. The
    diagonal is written as -2 sin^2(kh/2) or 2 sinh^2(kh/2), so a thin
    slice keeps its digits instead of losing them against the identity.
    """
    t = np.sqrt(np.abs(s)) * h
    above = s > 0.0
    # the hyperbolic form everywhere, then the circular one where s > 0
    half = np.sinh(0.5 * t)
    np.sin(0.5 * t, out=half, where=above)
    sinc = np.sinh(t)
    np.sin(t, out=sinc, where=above)
    sinc /= t  # sin(t)/t or sinh(t)/t; 0/0 at t = 0 gets the limit 1 below
    d = np.empty((2, 2, s.size))
    d[0, 0] = d[1, 1] = np.where(above, -2.0, 2.0) * half * half
    d[0, 1] = h * np.where(t > 0.0, sinc, 1.0)
    d[1, 0] = -s * d[0, 1]
    return d


def _tree_product(d: np.ndarray) -> np.ndarray:
    """Offset D of the ordered product (I + D_n) ... (I + D_1), the
    rightmost slice last, by pairwise reduction: about log2(slices)
    vectorized levels. Pairs combine as D_1 + D_2 + D_2 D_1."""
    while d.shape[2] > 1:
        if d.shape[2] % 2:
            d = np.concatenate((d, np.zeros((2, 2, 1))), axis=2)  # identity
        lo, hi = d[:, :, 0::2], d[:, :, 1::2]
        d = lo + hi + (hi[:, 0, None] * lo[None, 0] + hi[:, 1, None] * lo[None, 1])
    return d[:, :, 0]


def pt_numeric(
    b: "Barrier",
    energy: float,
    mass: float = 1.0,
    slices: int = DEFAULT_SLICES,
) -> ScatteringResult:
    """Transfer-matrix transmission over piecewise-constant slices.

    The barrier is embedded between flat leads at the potential's edge
    values. The slice propagators are multiplied as a tree, and (psi, psi')
    at the two edges is matched to a unit transmitted wave in the right
    lead and incident plus reflected waves in the left; p_t carries the
    lead-velocity ratio k_R/k_L.

    Past kappa*L of about 355 the squared incident amplitude overflows, so
    p_t = 0 and p_r = nan are returned.

    Raises
    ------
    EvanescentLead
        Lead kinetic energy is non-positive on either side (no propagating
        asymptotic state).
    DomainError
        Fewer than 64 or more than 2**20 slices requested, a non-positive
        or non-finite mass, a non-finite energy, an excluded barrier family,
        a lead wavenumber that underflows to 0, or a propagator product that
        overflows (an action beyond about 709, or V past the float range).
    """
    if not _MIN_SLICES <= slices <= _MAX_SLICES:
        raise DomainError(f"need {_MIN_SLICES} to {_MAX_SLICES} slices, got {slices}")
    if not 0.0 < mass < math.inf:
        raise DomainError(f"mass must be positive and finite, got {mass}")
    if not math.isfinite(energy):
        raise DomainError(f"energy must be finite, got {energy}")
    # V past the float range at a slice, or an opaque barrier's product, is refused below
    with np.errstate(all="ignore"):
        h, v_left, v_right, vs = b.oracle_slices(slices)
        kin_l, kin_r = energy - v_left, energy - v_right
        if kin_l <= 0.0 or kin_r <= 0.0:
            raise EvanescentLead(
                f"lead kinetic energies ({kin_l:.6g}, {kin_r:.6g}) must be positive")
        k_l, k_r = math.sqrt(2.0 * mass * kin_l), math.sqrt(2.0 * mass * kin_r)
        if k_l == 0.0 or k_r == 0.0:
            raise DomainError(f"a lead wavenumber underflows: 2 m (E - V) = 0 at m = {mass}")
        d = _tree_product(_slice_offsets(2.0 * mass * (energy - vs), h))
    if not np.isfinite(d).all():
        raise DomainError(
            "transfer-matrix product overflows; the barrier is too opaque "
            "for the oracle"
        )
    d11, d12, d21, d22 = d.ravel().tolist()
    # (psi, psi') at the left edge is (I + D)^-1 (1, i k_r) (det = 1); split
    # it into incident (A) and reflected (B) waves of the left lead
    r = k_r / k_l
    a_re = 0.5 * ((1.0 + d22) + r * (1.0 + d11))
    a_im = 0.5 * (d21 / k_l - k_r * d12)
    b_re = 0.5 * ((1.0 - r) + (d22 - r * d11))
    b_im = -0.5 * (d21 / k_l + k_r * d12)
    inc2 = a_re * a_re + a_im * a_im
    return ScatteringResult(
        p_t=r / inc2, p_r=(b_re * b_re + b_im * b_im) / inc2, grid_points=slices
    )
