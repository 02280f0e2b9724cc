"""Classical turning points: the roots x_L < x_R of V(x) = E.

Three solver paths are provided. Constant effective charge reduces to a
quadratic with closed-form roots; a position-dependent effective charge uses
the self-consistent fixed-point iteration with deterministic seeds and a
Brent polish; every other barrier goes through a generic bracketed search.
Each barrier family picks its path in its own ``turning_points`` method; the
solvers here see a barrier only through its ``potential``, ``peak`` and
``root_brackets`` methods (and ``zeff``, ``field`` for the self-consistent
one), so this module does not depend on the families.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import BracketFailure, DomainError, NoConvergence, OverBarrier

if TYPE_CHECKING:
    from .potentials import Barrier, LaserCoulomb

__all__ = [
    "ROOT_TOL",
    "TunnelingProblem",
    "turning_points_quadratic",
    "turning_points_selfconsistent",
    "turning_points_bracketed",
    "resolve_problem",
]

# accepted |V(x) - E| at a smooth turning point; the classical-time
# integrand is endpoint-singular, so root error enters as sqrt(root_tol)
ROOT_TOL = 1e-10

_MAX_ITER = 1000
_BRENT_XTOL = 1e-15
_BRENT_RTOL = 8.9e-16

# constant helium charge (Kullie) whose quadratic roots seed the
# self-consistent iteration
_SEED_Z = 1.375


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


def _brent_root(b, energy, lo, hi):
    # imported here: the closed-form solver paths never reach it
    from scipy.optimize import brentq

    f = lambda x: b.potential(x) - energy
    root = brentq(f, lo, hi, xtol=_BRENT_XTOL, rtol=_BRENT_RTOL, maxiter=200)
    return float(root)


def _fixed_point_branch(b, energy, seed, take_lower, root_tol, max_iter):
    """Iterate x -> quadratic root with z = Z_eff(x); None when the iterate
    leaves the tunneling regime."""
    abs_e = -energy
    x = seed
    for _ in range(max_iter):
        z = b.zeff(x)
        disc = abs_e * abs_e - 4.0 * z * b.field
        if disc <= 0.0:
            return None
        s = math.sqrt(disc)
        x_new = (abs_e - s) / (2.0 * b.field) if take_lower else (abs_e + s) / (2.0 * b.field)
        if abs(b.potential(x_new) - energy) < root_tol:
            return x_new
        x = x_new
    return x


def _polish_branch(b, energy, x_it, take_lower, x_peak, root_tol):
    f = lambda x: b.potential(x) - energy
    if x_it is not None:
        for pad in (1e-6, 1e-3, 1e-1):
            lo = max(x_it * (1.0 - pad), 1e-12)
            hi = x_it * (1.0 + pad)
            if f(lo) * f(hi) < 0.0:
                return _brent_root(b, energy, lo, hi)
    # iteration unusable or the tight bracket missed; bracket from the peak
    try:
        lo, hi = b.root_brackets(energy, x_peak)[0 if take_lower else 1]
    except BracketFailure as exc:
        raise NoConvergence(
            "fixed-point iteration did not converge and no bracket was found"
        ) from exc
    root = _brent_root(b, energy, lo, hi)
    if abs(f(root)) > root_tol:
        raise NoConvergence(f"root residual {abs(f(root)):.3g} exceeds {root_tol:g}")
    return root


def turning_points_selfconsistent(
    b: "LaserCoulomb",
    energy: float,
    *,
    root_tol: float = ROOT_TOL,
    max_iter: int = _MAX_ITER,
):
    """Turning points for a position-dependent effective charge.

    Each branch runs the fixed-point iteration x_{n+1} = quadratic root
    evaluated with Z_eff(x_n), seeded from the constant-charge (z = 1.375)
    roots so that runs are reproducible, until |V(x_n) - E| < root_tol; the
    iterate is then polished by a bracketed Brent solve of V(x) - E = 0.

    Raises
    ------
    OverBarrier
        E at or above the barrier maximum.
    NoConvergence
        The iteration exhausted max_iter and no root bracket was found.
    """
    if not callable(getattr(b, "zeff", None)):
        raise DomainError("self-consistent solver applies to laser-Coulomb barriers")
    x_peak, v_max = b.peak()
    if energy >= v_max:
        raise OverBarrier(f"E = {energy} is not below the barrier maximum {v_max:.6g}")
    try:
        seeds = turning_points_quadratic(_SEED_Z, energy, b.field)
    except OverBarrier:
        # the constant-charge reference barrier is lower than the actual one
        # here; fall back to geometric seeds around the peak
        seeds = (0.5 * x_peak, 2.0 * x_peak)
    x_l_it = _fixed_point_branch(b, energy, seeds[0], True, root_tol, max_iter)
    x_r_it = _fixed_point_branch(b, energy, seeds[1], False, root_tol, max_iter)
    x_l = _polish_branch(b, energy, x_l_it, True, x_peak, root_tol)
    x_r = _polish_branch(b, energy, x_r_it, False, x_peak, root_tol)
    if not x_l < x_r:
        raise NoConvergence(f"branches collapsed: x_L = {x_l}, x_R = {x_r}")
    return x_l, x_r


def turning_points_bracketed(b: "Barrier", energy: float, *, root_tol: float = ROOT_TOL):
    """Generic turning points by bracketed root finding around the peak.

    The barrier's ``root_brackets`` gives one interval per turning point. A
    degenerate interval is the root itself: rectangular and
    truncated-triangular barriers take their support edges as turning
    points, where V - E changes sign through a jump rather than a smooth
    crossing and the edge is the exact bisection limit.

    Raises
    ------
    OverBarrier
        E at or above the barrier maximum.
    BracketFailure
        V - E has no sign change on one side of the peak.
    """
    x_peak, v_max = b.peak()
    if energy >= v_max:
        raise OverBarrier(f"E = {energy} is not below the barrier maximum {v_max:.6g}")
    roots = []
    for lo, hi in b.root_brackets(energy, x_peak):
        if lo == hi:
            roots.append(lo)
            continue
        root = _brent_root(b, energy, lo, hi)
        if abs(b.potential(root) - energy) > root_tol:
            raise NoConvergence(f"root residual at x = {root} exceeds {root_tol:g}")
        roots.append(root)
    return roots[0], roots[1]


def resolve_problem(barrier: "Barrier", energy: float, mass: float = 1.0) -> TunnelingProblem:
    """Resolve turning points with the solver the barrier family picks and
    assemble a TunnelingProblem, which validates the mass."""
    return TunnelingProblem(energy, mass, barrier, *barrier.turning_points(energy))
