"""Classical turning points: the roots x_L < x_R of V(x) = E.

Each barrier family's ``turning_points`` follows one rule: a family whose
turning points have a closed form returns them itself (the support edges of
a rectangle, the edge and linear root of a ramp, the quadratic roots of a
constant effective charge, here as ``turning_points_quadratic``); every
other family goes through ``turning_points_bracketed``, one Brent solve on
each side of the peak. That solver sees a barrier only through its
``potential``, ``peak`` and ``root_brackets`` methods, so this module does
not depend on the families.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, NoConvergence, OverBarrier

if TYPE_CHECKING:
    from .potentials import Barrier

__all__ = [
    "ROOT_TOL",
    "TunnelingProblem",
    "turning_points_quadratic",
    "turning_points_bracketed",
    "resolve_problem",
]

# accepted |V(x) - E| at a smooth turning point; the classical-time
# integrand is endpoint-singular, so root error enters as sqrt(root_tol)
ROOT_TOL = 1e-10

_BRENT_XTOL = 1e-15
_BRENT_RTOL = 8.9e-16


@dataclass(frozen=True)
class TunnelingProblem:
    """A fully specified tunneling instance.

    energy and mass are in atomic units; x_left/x_right bound the
    classically forbidden region. x_left == x_right is tolerated as the
    degenerate zero-width case; solvers always produce x_left < x_right.
    """

    energy: float
    mass: float
    barrier: "Barrier"
    x_left: float
    x_right: float

    def __post_init__(self):
        if not 0.0 < self.mass < math.inf:
            raise DomainError(f"mass must be positive and finite, got {self.mass}")
        # written so that a NaN turning point fails the test
        if not self.x_left <= self.x_right:
            raise DomainError(
                f"turning points must be ordered numbers, got "
                f"{self.x_left}, {self.x_right}"
            )

    @property
    def width(self) -> float:
        return self.x_right - self.x_left


def turning_points_quadratic(z: float, energy: float, field: float):
    """Roots of V(x) = E for constant effective charge.

    The vanishing-kinetic-energy condition -z/x - field*x = E with E < 0 and
    x > 0 is the quadratic field*x**2 - |E|*x + z = 0; its two positive roots
    are returned ascending.

    Raises
    ------
    OverBarrier
        Discriminant <= 0: the energy is at or above the barrier maximum
        -2*sqrt(z*field), so no forbidden region exists.
    """
    if not z > 0:
        raise DomainError(f"effective charge must be positive, got {z}")
    if not field > 0:
        raise DomainError(f"field strength must be positive, got {field}")
    if not energy < 0:
        raise DomainError(f"energy must be negative, got {energy}")
    abs_e = -energy
    disc = abs_e * abs_e - 4.0 * z * field
    if disc <= 0.0:
        raise OverBarrier(
            f"E = {energy} is not below the barrier maximum {-2.0 * math.sqrt(z * field):.6g}"
        )
    s = math.sqrt(disc)
    return (abs_e - s) / (2.0 * field), (abs_e + s) / (2.0 * field)


def turning_points_bracketed(b: "Barrier", energy: float, *, root_tol: float = ROOT_TOL):
    """Turning points by a bracketed Brent solve of V(x) - E = 0 on each
    side of the peak.

    The barrier's ``root_brackets`` gives one interval per turning point,
    with V - E changing sign across it.

    Raises
    ------
    DomainError
        E is NaN or infinite.
    OverBarrier
        E at or above the barrier maximum.
    BracketFailure
        V - E has no sign change on one side of the peak.
    NoConvergence
        A root misses the residual |V(x) - E| <= root_tol.
    """
    # no bracket holds a NaN or infinite energy; say so, not that none was found
    if not math.isfinite(energy):
        raise DomainError(f"energy must be finite, got {energy}")
    x_peak, v_max = b.peak()
    if energy >= v_max:
        raise OverBarrier(f"E = {energy} is not below the barrier maximum {v_max:.6g}")
    # imported here: the closed-form families never reach it
    from scipy.optimize import brentq

    f = lambda x: b.potential(x) - energy
    roots = []
    for lo, hi in b.root_brackets(energy, x_peak):
        root = float(brentq(f, lo, hi, xtol=_BRENT_XTOL, rtol=_BRENT_RTOL, maxiter=200))
        if abs(f(root)) > root_tol:
            raise NoConvergence(f"root residual at x = {root} exceeds {root_tol:g}")
        roots.append(root)
    return roots[0], roots[1]


def resolve_problem(barrier: "Barrier", energy: float, mass: float = 1.0) -> TunnelingProblem:
    """Resolve turning points with the solver the barrier family picks and
    assemble a TunnelingProblem, which validates the mass."""
    return TunnelingProblem(energy, mass, barrier, *barrier.turning_points(energy))
