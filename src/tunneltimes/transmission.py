"""Transmission probabilities: exact rectangular, WKB, and a numeric oracle.

The oracle solves the stationary scattering problem by slicing the barrier
into piecewise-constant segments, matching plane-wave amplitudes at every
interface, and sweeping from the transmitted side to the incident side (the
numerically stable direction under a barrier). It exists to audit the closed
forms on rectangular, triangular, and bounded tabulated barriers; it is not
offered for the laser-Coulomb potential, which is unbounded below downfield
and has no propagating asymptotic state there.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvanescentLead
from .potentials import Barrier

__all__ = [
    "ScatteringResult",
    "pt_rectangular_exact",
    "pt_wkb",
    "pt_numeric",
]

# switch to the exp(-2*phi) form well before cosh arithmetic loses the
# cancellation needed by downstream prefactors
_COSH_BRANCH_PHI = 20.0

_MIN_SLICES = 64
DEFAULT_SLICES = 4096


@dataclass(frozen=True)
class ScatteringResult:
    """Transmission/reflection pair from the numeric oracle."""

    p_t: float
    p_r: float
    grid_points: int


def pt_rectangular_exact(energy: float, v0: float, phi: float) -> float:
    """Exact rectangular transmission 1/(1 + v0^2 sinh^2(phi)/(4E(v0-E))).

    Evaluated in the overflow-free form
    g*e^{-2phi} / (g*e^{-2phi} + v0^2 (1-e^{-2phi})^2 / 4), g = 4E(v0-E),
    valid for any phi >= 0.
    """
    if not 0.0 < energy < v0:
        raise DomainError(f"energy must lie in (0, v0) = (0, {v0}), got {energy}")
    g = 4.0 * energy * (v0 - energy)
    em = math.exp(-2.0 * phi)
    one_minus = -math.expm1(-2.0 * phi)
    return g * em / (g * em + 0.25 * v0 * v0 * one_minus * one_minus)


def pt_wkb(phi: float) -> float:
    """WKB transmission 1/cosh^2(phi), overflow-safe for any phi >= 0."""
    if phi < _COSH_BRANCH_PHI:
        c = math.exp(phi) + math.exp(-phi)
        return 4.0 / (c * c)
    em = math.exp(-2.0 * phi)
    return 4.0 * em / ((1.0 + em) * (1.0 + em))


def pt_numeric(
    b: Barrier,
    energy: float,
    mass: float = 1.0,
    slices: int = DEFAULT_SLICES,
) -> ScatteringResult:
    """Transfer-matrix transmission over piecewise-constant slices.

    The barrier is embedded between flat leads at the potential's edge
    values. Amplitudes are swept from a unit transmitted wave back to the
    incident side; p_t carries the lead-velocity ratio k_R/k_L.

    Raises
    ------
    EvanescentLead
        Lead kinetic energy is non-positive on either side (no propagating
        asymptotic state).
    DomainError
        Fewer than 64 slices requested, the barrier family is excluded, or
        the swept amplitudes overflow (barrier action beyond about 700).
    """
    if slices < _MIN_SLICES:
        raise DomainError(f"need at least {_MIN_SLICES} slices, got {slices}")
    if not 0.0 < mass < math.inf:
        raise DomainError(f"mass must be positive and finite, got {mass}")
    a, h, v_left, v_right, vs = b.oracle_slices(slices)
    kin_l = energy - v_left
    kin_r = energy - v_right
    if kin_l <= 0.0 or kin_r <= 0.0:
        raise EvanescentLead(
            f"lead kinetic energies ({kin_l:.6g}, {kin_r:.6g}) must be positive"
        )
    k_lead_l = math.sqrt(2.0 * mass * kin_l)
    k_lead_r = math.sqrt(2.0 * mass * kin_r)

    kk = 2.0 * mass * (energy - vs)
    kk[kk == 0.0] = 1e-30  # a slice exactly at the energy would divide by zero
    k_slices = np.sqrt(kk.astype(complex))

    # region wavevectors: left lead, slices, right lead; interface i at
    # x = a + i*h separates region i from region i+1
    regions = [complex(k_lead_l)] + list(k_slices) + [complex(k_lead_r)]
    amp_a, amp_b = 1.0 + 0.0j, 0.0 + 0.0j  # unit transmitted wave, right lead
    try:
        # an opaque barrier overflows the amplitudes or the phase factors;
        # both are caught below rather than warned about
        with np.errstate(all="ignore"):
            for i in range(slices, -1, -1):
                x = a + h * i
                k_r = regions[i + 1]
                k_l = regions[i]
                phase = cmath.exp(1j * k_r * x)
                u = amp_a * phase
                v = amp_b / phase
                r = k_r / k_l
                e_l = cmath.exp(1j * k_l * x)
                amp_a = 0.5 * ((1.0 + r) * u + (1.0 - r) * v) / e_l
                amp_b = 0.5 * ((1.0 - r) * u + (1.0 + r) * v) * e_l
    except OverflowError:
        amp_a = amp_b = complex("inf")
    if not (cmath.isfinite(amp_a) and cmath.isfinite(amp_b)):
        raise DomainError(
            "transfer-matrix amplitudes overflow; the barrier is too opaque "
            "for the oracle"
        )
    inc2 = abs(amp_a) ** 2
    p_t = (k_lead_r / k_lead_l) / inc2
    p_r = abs(amp_b) ** 2 / inc2
    return ScatteringResult(p_t=float(p_t), p_r=float(p_r), grid_points=slices)
