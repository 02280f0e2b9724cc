"""Classical turning points: the roots x_L < x_R of V(x) = E.

Each barrier family's ``turning_points`` follows one rule: a family whose
turning points have a closed form returns them itself (the support edges of
a rectangle, the edge and linear root of a ramp, the quadratic roots of a
constant effective charge, here as ``turning_points_quadratic``); every
other family goes through ``turning_points_bracketed``, which sees a barrier
only through its ``potential`` and ``root_brackets``. The family's
``root_brackets`` finds its own point where V > E, or raises OverBarrier
when there is none, and returns one bracket (f, lo, hi) on each side of it,
f being V - E as the family writes it on that bracket (for a tabulated
barrier, the one cubic of the knot interval); each is solved by one
``bracketed_root`` call. ``bracketed_root`` is the package's one root solver:
Chandrupatla's derivative-free hybrid of inverse quadratic interpolation and
bisection (Adv. Eng. Softw. 28, 145 (1997)), which also finds the SAE peak,
PHI_STAR and the entropy maximum.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import BracketFailure, DomainError, NoConvergence, OverBarrier

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
# integrand is endpoint-singular, so root error enters as sqrt(ROOT_TOL)
ROOT_TOL = 1e-10

# bracketed_root stops once the bracket is shorter than _XTOL + _RTOL * |x|
_XTOL = 1e-15
_RTOL = 8.9e-16
_MAX_ITER = 200


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


def bracketed_root(f, a: float, b: float) -> float:
    """The zero of f on [a, b], or an end where f is exactly zero; raises
    BracketFailure unless f changes sign on [a, b], and NoConvergence if the
    bracket is not closed in _MAX_ITER steps."""
    fa, fb = f(a), f(b)
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    # written so that a NaN end value fails the test
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise BracketFailure(f"no sign change on [{a}, {b}]: f = {fa}, {fb}")
    # [a, b] brackets the zero with a the newest point; c is the point dropped
    c, fc, t = a, fa, 0.5
    for _ in range(_MAX_ITER):
        x = a + t * (b - a)
        fx = f(x)
        if (fx < 0.0) != (fa < 0.0):
            a, b, fa, fb = b, a, fb, fa
        c, fc, a, fa = a, fa, x, fx
        xm, fm = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        tl = 0.5 * (_XTOL + _RTOL * abs(xm)) / abs(b - a)
        if fm == 0.0 or tl > 0.5:
            return xm
        # inverse quadratic interpolation through a, b, c where Chandrupatla's
        # test keeps it inside the bracket, bisection otherwise
        xi, ph = (a - b) / (c - b), (fa - fb) / (fc - fb)
        t = 0.5
        if ph * ph < xi and (1.0 - ph) ** 2 < 1.0 - xi:
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        t = min(1.0 - tl, max(tl, t))
    raise NoConvergence(f"root on [{a}, {b}] not converged in {_MAX_ITER} steps")


def turning_points_quadratic(z: float, energy: float, field: float):
    """Roots of V(x) = E for constant effective charge.

    The vanishing-kinetic-energy condition -z/x - field*x = E with E < 0 and
    x > 0 is the quadratic field*x**2 - |E|*x + z = 0; its two positive roots
    are returned ascending, the smaller as 2z/(|E| + s) with s the square
    root of the discriminant.

    Raises
    ------
    DomainError
        A nonpositive charge or field, an energy that is not negative and
        finite, or roots that leave the floating-point range: x_L
        underflowing to 0, or x_R overflowing.
    OverBarrier
        Discriminant <= 0: the energy is at or above the barrier maximum
        -2*sqrt(z*field), so no forbidden region exists.
    """
    if not z > 0:
        raise DomainError(f"effective charge must be positive, got {z}")
    if not field > 0:
        raise DomainError(f"field strength must be positive, got {field}")
    if not -math.inf < energy < 0.0:
        raise DomainError(f"energy must be negative and finite, got {energy}")
    abs_e = -energy
    # |E|, z and field times a power of two c, which is exact: 1 unless |E|^2
    # could leave the floats, else about 1/|E|. Then 4 z field c^2 past the
    # floats, -inf in disc, means over the barrier
    c = 1.0 if 1e-100 < abs_e < 1e100 else math.ldexp(1.0, min(1023, -math.frexp(abs_e)[1]))
    e, zc, fc = abs_e * c, z * c, field * c
    disc = e * e - 4.0 * zc * fc
    if disc <= 0.0:
        raise OverBarrier(
            f"E = {energy} is not below the barrier maximum {-2.0 * math.sqrt(z * field):.6g}"
        )
    # h = (|E| + s)/2 with s the root of the discriminant; x_L x_R = z/field
    # gives the smaller root without the cancellation of |E| - s in weak fields
    h = 0.5 * abs_e + 0.5 * math.sqrt(disc) / c
    x_l, x_r = z / h, h / field
    if not (0.0 < x_l and x_r < math.inf):
        raise DomainError(
            f"turning points at E = {energy}, field {field}, z {z} leave the floating-point "
            f"range: x_L = 2z/(|E| + s) = {x_l:.6g}, x_R = (|E| + s)/(2 field) = {x_r:.6g}"
        )
    return x_l, x_r


def turning_points_bracketed(b: "Barrier", energy: float):
    """Turning points by a bracketed root solve of V(x) - E = 0 on each
    side of a point where V > E.

    The barrier's ``root_brackets`` gives one (f, lo, hi) per turning
    point, f being V - E on [lo, hi] with a sign change across it, and
    ``bracketed_root`` solves f there; each root must meet
    |V(x) - E| <= ROOT_TOL through ``potential``, whose domain checks f
    skips.

    Raises
    ------
    DomainError
        E is NaN or infinite.
    OverBarrier
        E at or above the barrier maximum.
    BracketFailure
        V - E has no sign change on one side of the split.
    NoConvergence
        A root misses the residual |V(x) - E| <= ROOT_TOL.
    """
    # no bracket holds a NaN or infinite energy; say so, not that none was found
    if not math.isfinite(energy):
        raise DomainError(f"energy must be finite, got {energy}")
    roots = []
    for f, lo, hi in b.root_brackets(energy):
        root = bracketed_root(f, lo, hi)
        if abs(b.potential(root) - energy) > ROOT_TOL:
            raise NoConvergence(f"root residual at x = {root} exceeds {ROOT_TOL:g}")
        roots.append(root)
    return roots[0], roots[1]


def resolve_problem(barrier: "Barrier", energy: float, mass: float = 1.0) -> TunnelingProblem:
    """Resolve turning points with the solver the barrier family picks and
    assemble a TunnelingProblem, which validates the mass."""
    return TunnelingProblem(energy, mass, barrier, *barrier.turning_points(energy))
