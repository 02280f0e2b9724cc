"""Action, classical tunneling time, and penetration probability.

Both barrier integrals share the imaginary momentum magnitude
p(x) = sqrt(2m(V(x) - E)) over the forbidden region [x_L, x_R]:

    phi   = (1/hbar) * integral of p(x)
    tau_c = integral of m / p(x)

p vanishes like a square root at both turning points, so the tau_c integrand
diverges there (integrably). The substitution x = x_L + (x_R - x_L)*sin^2(t)
carries dx = (x_R - x_L)*sin(2t)*dt, which cancels that divergence
analytically; after the map both integrands are bounded and smooth and one
adaptive quadrature engine serves both.
"""

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import DomainError, QuadratureFailure, SingularityError
from .potentials import eval_potential
from .turning import TunnelingProblem, resolve_problem

__all__ = [
    "QUAD_TOL_DEFAULT",
    "WkbQuantities",
    "action_phi",
    "classical_time",
    "dphi_dE",
    "compute_wkb",
]

QUAD_TOL_DEFAULT = 1e-10
_QUAD_TOL_RANGE = (1e-13, 1e-6)
_QUAD_LIMIT = 2**16  # adaptive subdivision budget
_CLAMP = 1e-12  # V - E more negative than this signals an interior momentum zero


@dataclass(frozen=True)
class WkbQuantities:
    """phi (action in units of hbar), tau_c (a.u.), p_m = exp(-2*phi)."""

    phi: float
    tau_c: float
    p_m: float


def _check_tol(quad_tol: float):
    lo, hi = _QUAD_TOL_RANGE
    if not lo <= quad_tol <= hi:
        raise DomainError(f"quad_tol must lie in [{lo:g}, {hi:g}], got {quad_tol}")


def _v_minus_e(problem: TunnelingProblem, x: float) -> float:
    d = eval_potential(problem.barrier, x) - problem.energy
    if d < 0.0:
        if d >= -_CLAMP:
            # root-tolerance slop at the turning points
            return 0.0
        raise SingularityError(
            f"V(x) - E = {d:.3g} at x = {x:.6g}: momentum vanishes inside the "
            "forbidden region (malformed barrier)"
        )
    return d


def _integrate(problem: TunnelingProblem, want_time: bool, quad_tol: float) -> float:
    w = problem.x_right - problem.x_left
    if w == 0.0:
        return 0.0
    x_l = problem.x_left
    m = problem.mass

    if want_time:

        def f(theta):
            s = math.sin(theta)
            x = x_l + w * s * s
            den = math.sqrt(2.0 * m * _v_minus_e(problem, x))
            if den == 0.0:
                # Gauss-Kronrod abscissae are interior, but root-tolerance
                # noise can clamp the radicand right next to an endpoint
                den = 1e-300
            return m * w * math.sin(2.0 * theta) / den

    else:

        def f(theta):
            s = math.sin(theta)
            x = x_l + w * s * s
            return math.sqrt(2.0 * m * _v_minus_e(problem, x)) * w * math.sin(2.0 * theta)

    out = quad(
        f,
        0.0,
        0.5 * math.pi,
        epsabs=0.0,
        epsrel=quad_tol,
        limit=_QUAD_LIMIT,
        full_output=True,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3 and abserr > quad_tol * abs(value):
        # the integrator gave up AND its estimate misses the budget;
        # interpolated barriers typically top out near 1e-8 relative
        achieved = abserr / abs(value) if value != 0.0 else math.inf
        raise QuadratureFailure(
            f"achieved relative error {achieved:.3g} exceeds quad_tol "
            f"{quad_tol:g}; loosen quad_tol or refine the barrier samples "
            f"({out[3].splitlines()[0].strip()})"
        )
    return value


def action_phi(problem: TunnelingProblem, quad_tol: float = QUAD_TOL_DEFAULT) -> float:
    """Dimensionless barrier action Phi = (1/hbar) * int p(x) dx >= 0."""
    _check_tol(quad_tol)
    val = _integrate(problem, want_time=False, quad_tol=quad_tol)
    return val if val > 0.0 else 0.0


def classical_time(problem: TunnelingProblem, quad_tol: float = QUAD_TOL_DEFAULT) -> float:
    """Classical tunneling time tau_c = int m dx / p(x), in a.u."""
    _check_tol(quad_tol)
    return _integrate(problem, want_time=True, quad_tol=quad_tol)


def dphi_dE(
    problem: TunnelingProblem,
    step: float = 1e-5,
    quad_tol: float = QUAD_TOL_DEFAULT,
) -> float:
    """Central finite difference of the action in energy.

    The turning points are re-resolved at each shifted energy, so the
    derivative includes the moving endpoints; -hbar * dphi_dE equals the
    classical time.
    """
    if not step > 0:
        raise DomainError(f"step must be positive, got {step}")
    up = resolve_problem(problem.barrier, problem.energy + step, problem.mass)
    dn = resolve_problem(problem.barrier, problem.energy - step, problem.mass)
    return (action_phi(up, quad_tol) - action_phi(dn, quad_tol)) / (2.0 * step)


def compute_wkb(
    problem: TunnelingProblem, quad_tol: float = QUAD_TOL_DEFAULT
) -> WkbQuantities:
    """Evaluate phi, tau_c, and p_m = exp(-2*phi) for one problem."""
    phi = action_phi(problem, quad_tol)
    tau_c = classical_time(problem, quad_tol)
    return WkbQuantities(phi=phi, tau_c=tau_c, p_m=math.exp(-2.0 * phi))
