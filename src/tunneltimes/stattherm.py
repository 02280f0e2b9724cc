"""Tunneling entropy, temperature, and the sign-critical bracket factor.

The entropy assigned to a penetration probability p_m is

    S(p_m)/k_B = p_m * log(1 - log(p_m)),

and its energy derivative yields the inverse thermal energy

    1/(k_B T) = -(2 tau_c / hbar) * exp(-2 phi) * B(phi),
    B(phi) = 1/(1 + 2 phi) + log(1/(1 + 2 phi)).

B is strictly decreasing with a single zero at phi = PHI_STAR; below it the
temperature (and every entropic time built on it) changes sign. Nothing in
this module takes absolute values: signs are reported, not hidden.
"""

import math
from functools import lru_cache

from scipy.optimize import brentq

from .errors import DomainError

__all__ = [
    "PHI_STAR",
    "entropy",
    "bracket",
    "inverse_temperature",
    "entropy_maximum",
]


def bracket(phi: float) -> float:
    """B(phi) = 1/(1 + 2*phi) + log(1/(1 + 2*phi)), for phi >= 0.

    Continuous and strictly decreasing; positive below PHI_STAR, negative
    above it.
    """
    u = 1.0 + 2.0 * phi
    return 1.0 / u - math.log(u)


def _solve_phi_star() -> float:
    # bisection of B on [0.3, 0.5]; B(0.3) > 0 > B(0.5)
    lo, hi = 0.3, 0.5
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if bracket(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# single source of truth for the positivity domain of the entropic time
PHI_STAR = _solve_phi_star()


def entropy(p_m: float) -> float:
    """S(p_m) in units of k_B; nonnegative on (0, 1] with S(1) = 0."""
    if not 0.0 < p_m <= 1.0:
        raise DomainError(f"penetration probability must lie in (0, 1], got {p_m}")
    return p_m * math.log1p(-math.log(p_m))


def inverse_temperature(phi: float, tau_c: float) -> float:
    """1/(k_B T) = -(2 tau_c / hbar) * exp(-2 phi) * B(phi), signed.

    Positive exactly when phi > PHI_STAR.
    """
    return -2.0 * tau_c * math.exp(-2.0 * phi) * bracket(phi)


@lru_cache(maxsize=1)
def entropy_maximum():
    """Locate the maximum of S on (0, 1).

    Returns
    -------
    (p_star, s_star) : tuple of float
        Stationary point of the entropy and its value. Solves
        dS/dp = log(1 - log p) - 1/(1 - log p) = 0.
    """
    dsdp = lambda p: math.log1p(-math.log(p)) - 1.0 / (1.0 - math.log(p))
    p_star = brentq(dsdp, 0.1, 0.9, xtol=1e-15, rtol=8.9e-16)
    return float(p_star), entropy(float(p_star))
