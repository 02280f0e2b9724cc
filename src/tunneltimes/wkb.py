"""Action, classical tunneling time, and penetration probability.

Both barrier integrals share the imaginary momentum magnitude
p(x) = sqrt(2m(V(x) - E)) over the forbidden region [x_L, x_R]:

    phi   = (1/hbar) * integral of p(x)
    tau_c = integral of m / p(x)

p vanishes like a square root at both turning points, so the tau_c integrand
diverges there (integrably). The substitution x = x_L + (x_R - x_L)*sin^2(t)
carries dx = (x_R - x_L)*sin(2t)*dt, which cancels that divergence
analytically; after the map both integrands are bounded and smooth.

A barrier family that knows both integrals in closed form for the window
(``closed_form``: a rectangle, or a ramp up to its own root) gives them
exactly. Every other window is integrated by fixed-order Gauss-Legendre
panels on the mapped variable, with one potential evaluation at all nodes
serving both integrals. The barrier's ``panel_edges`` set the panels: one per
knot interval for a tabulated barrier, whose PCHIP interpolant is a cubic on
each interval but only C^1 across knots; panels that double in length away
from the pole at x = 0 of the laser-Coulomb barrier or the root of a
triangular ramp cut short by its support; a single panel otherwise. Each panel
is evaluated at n and 2n nodes, and the 2n results are accepted when, for
both integrals, the summed per-panel differences stay within quad_tol of
them. Otherwise the integral falls back to adaptive Gauss-Kronrod
quadrature, whose own error estimate must meet quad_tol or
QuadratureFailure is raised.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

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
_ORDER = 16  # Gauss-Legendre nodes per panel; the check rule uses twice as many
# stands in for a momentum clamped to zero in the tau_c denominator: the
# nodes are interior, but root-tolerance noise can clamp the radicand right
# next to an endpoint
_P_FLOOR = 1e-300


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


def _interior_zero(d: float, x: float) -> SingularityError:
    return SingularityError(
        f"V(x) - E = {d:.3g} at x = {x:.6g}: momentum vanishes inside the "
        "forbidden region (malformed barrier)"
    )


def _v_minus_e(problem: TunnelingProblem, x: np.ndarray) -> np.ndarray:
    """V(x) - E at points inside [x_L, x_R], with root-tolerance slop at the
    turning points clamped to zero."""
    d = eval_potential(problem.barrier, x) - problem.energy
    bad = d < -_CLAMP
    if bad.any():
        i = np.argmax(bad)
        raise _interior_zero(d.flat[i], x.flat[i])
    return np.maximum(d, 0.0)


@functools.cache
def _gauss_legendre_pair(n: int):
    """Nodes on [0, 1] of the n- and 2n-point Gauss-Legendre rules side by
    side, and the (3n, 2) weight matrix that applies each rule to its own
    nodes."""
    t_n, w_n = np.polynomial.legendre.leggauss(n)
    t_2n, w_2n = np.polynomial.legendre.leggauss(2 * n)
    weights = np.zeros((3 * n, 2))
    weights[:n, 0] = 0.5 * w_n
    weights[n:, 1] = 0.5 * w_2n
    nodes = 0.5 * (np.concatenate((t_n, t_2n)) + 1.0)
    for cached in (nodes, weights):
        cached.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=1)
def _panel_rule(problem: TunnelingProblem):
    """Panel Gauss-Legendre values of (phi, tau_c) and their error estimates.

    The values are the 2n-node results; each estimate is |Q_2n - Q_n|
    summed over the panels, so panel errors cannot cancel in it. One call
    serves both integrals: the last problem's result is kept, so that
    classical_time right after action_phi (as in compute_wkb) evaluates
    the potential no second time.
    """
    x_l, w, m = problem.x_left, problem.width, problem.mass
    inner = problem.barrier.panel_edges(problem.energy, x_l, problem.x_right)
    edges = np.arcsin(np.sqrt(np.concatenate(([0.0], (inner - x_l) / w, [1.0]))))
    span = np.diff(edges)[:, None]
    nodes, weights = _gauss_legendre_pair(_ORDER)
    theta = edges[:-1, None] + span * nodes
    s = np.sin(theta)
    p = np.sqrt(2.0 * m * _v_minus_e(problem, x_l + w * s * s))
    jac = w * np.sin(2.0 * theta)
    q = np.stack((p * jac, m * jac / np.maximum(p, _P_FLOOR))) @ weights * span
    values = q[..., 1].sum(axis=1)
    errors = np.abs(q[..., 1] - q[..., 0]).sum(axis=1)
    return tuple(values.tolist()), tuple(errors.tolist())


def _integrate_adaptive(problem: TunnelingProblem, want_time: bool, quad_tol: float) -> float:
    """phi (want_time False) or tau_c by adaptive Gauss-Kronrod on the map."""
    from scipy.integrate import quad

    x_l, w, m = problem.x_left, problem.width, problem.mass

    def f(theta):
        s = math.sin(theta)
        x = x_l + w * s * s
        d = eval_potential(problem.barrier, x) - problem.energy
        if d < 0.0:
            if d < -_CLAMP:
                raise _interior_zero(d, x)
            d = 0.0
        p = math.sqrt(2.0 * m * d)
        jac = w * math.sin(2.0 * theta)
        return m * jac / max(p, _P_FLOOR) if want_time else p * jac

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
        # the integrator gave up AND its estimate misses the budget; this
        # happens where V(x) nearly touches E inside the forbidden region,
        # so that p almost vanishes there
        achieved = abserr / abs(value) if value != 0.0 else math.inf
        raise QuadratureFailure(
            f"achieved relative error {achieved:.3g} exceeds quad_tol "
            f"{quad_tol:g}; loosen quad_tol, or look for a point inside the "
            f"forbidden region where V(x) nearly touches E "
            f"({out[3].splitlines()[0].strip()})"
        )
    return value


def _integrate(problem: TunnelingProblem, want_time: bool, quad_tol: float) -> float:
    """phi (want_time False) or tau_c: exact where the barrier family has a
    closed form for the window, else certified to quad_tol by the panel rule
    when it converges on both integrals, or else by the adaptive fallback."""
    _check_tol(quad_tol)
    if problem.width == 0.0:
        return 0.0
    exact = problem.barrier.closed_form(problem.energy, problem.x_left, problem.x_right, problem.mass)
    if exact is not None:
        return exact[want_time]
    values, errors = _panel_rule(problem)
    # both integrands are built from the same p(x), and tau_c's is the more
    # singular: its convergence is the sharper test that the nodes resolve p
    if all(e <= quad_tol * abs(v) for v, e in zip(values, errors)):
        return values[want_time]
    return _integrate_adaptive(problem, want_time, quad_tol)


def action_phi(problem: TunnelingProblem, quad_tol: float = QUAD_TOL_DEFAULT) -> float:
    """Dimensionless barrier action Phi = (1/hbar) * int p(x) dx >= 0."""
    return max(_integrate(problem, False, quad_tol), 0.0)


def classical_time(problem: TunnelingProblem, quad_tol: float = QUAD_TOL_DEFAULT) -> float:
    """Classical tunneling time tau_c = int m dx / p(x), in a.u."""
    return _integrate(problem, True, quad_tol)


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
    """Evaluate phi, tau_c, and p_m = exp(-2*phi) for one problem; both
    integrals come from one evaluation of the potential."""
    phi = action_phi(problem, quad_tol)
    tau_c = classical_time(problem, quad_tol)
    return WkbQuantities(phi=phi, tau_c=tau_c, p_m=math.exp(-2.0 * phi))
