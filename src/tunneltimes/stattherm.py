"""Tunneling entropy, temperature, and the sign-critical bracket factor.

The entropy assigned to a penetration probability p_m is

    S(p_m)/k_B = p_m * log(1 - log(p_m)),

and its energy derivative yields the inverse thermal energy

    1/(k_B T) = -(2 tau_c / hbar) * exp(-2 phi) * B(phi),
    B(phi) = 1/(1 + 2 phi) + log(1/(1 + 2 phi)).

B is strictly decreasing with a single zero at phi = PHI_STAR; below it the
temperature (and every entropic time built on it) changes sign. Nothing in
this module takes absolute values: signs are reported, not hidden.
PHI_STAR and the entropy maximum come from ``turning.bracketed_root``.
"""

import math
from functools import lru_cache

from .errors import DomainError
from .turning import bracketed_root

__all__ = [
    "PHI_STAR",
    "entropy",
    "bracket",
    "inverse_temperature",
    "entropy_maximum",
]


def bracket(phi: float) -> float:
    """B(phi) = 1/(1 + 2*phi) + log(1/(1 + 2*phi)), for finite phi >= 0.

    Continuous and strictly decreasing; positive below PHI_STAR, negative
    above it.

    Raises
    ------
    DomainError
        phi is negative, infinite or NaN.
    """
    if not 0.0 <= phi < math.inf:
        raise DomainError(f"action phi must be finite and >= 0, got {phi}")
    u = 1.0 + 2.0 * phi
    # past phi ~ 9e307, 1 + 2 phi overflows but its logarithm does not
    return 1.0 / u - (math.log(u) if u < math.inf else math.log(2.0) + math.log(phi))


# single source of truth for the positivity domain of the entropic time
PHI_STAR = bracketed_root(bracket, 0.3, 0.5)


def entropy(p_m: float) -> float:
    """S(p_m) in units of k_B; nonnegative on (0, 1] with S(1) = 0."""
    if not 0.0 < p_m <= 1.0:
        raise DomainError(f"penetration probability must lie in (0, 1], got {p_m}")
    return p_m * math.log1p(-math.log(p_m))


def inverse_temperature(phi: float, tau_c: float) -> float:
    """1/(k_B T) = -(2 tau_c / hbar) * exp(-2 phi) * B(phi), signed.

    Positive exactly when phi > PHI_STAR.
    """
    # B first: it rejects a negative phi before exp(-2 phi) can overflow
    return _inverse_temperature(phi, tau_c, bracket(phi))


def _inverse_temperature(phi: float, tau_c: float, b: float) -> float:
    """1/(k_B T) at B(phi) = b, for a phi that B has accepted; times_report
    hands the same b to the entropic time."""
    inv = -2.0 * tau_c * math.exp(-2.0 * phi) * b
    if not math.isfinite(inv):  # a non-finite tau_c, or overflow
        raise DomainError(f"inverse temperature is not finite at tau_c {tau_c}, phi {phi}")
    return inv


@lru_cache(maxsize=1)
def entropy_maximum():
    """Locate the maximum of S on (0, 1).

    Returns
    -------
    (p_star, s_star) : tuple of float
        Stationary point of the entropy and its value. Solves
        dS/dp = log(1 - log p) - 1/(1 - log p) = 0, which is strictly
        decreasing on (0, 1).
    """
    dsdp = lambda p: math.log1p(-math.log(p)) - 1.0 / (1.0 - math.log(p))
    p_star = bracketed_root(dsdp, 0.1, 0.9)
    return p_star, entropy(p_star)
