"""Action, classical tunneling time, and penetration probability.

Both barrier integrals share the imaginary momentum magnitude
p(x) = sqrt(2m(V(x) - E)) over the forbidden region [x_L, x_R]:

    phi   = (1/hbar) * integral of p(x) = sqrt(2m) * integral of sqrt(V - E)
    tau_c = integral of m / p(x)        = sqrt(m/2) * integral of 1/sqrt(V - E)

``_integrals`` alone applies the mass; families and the panel rule take none.
p vanishes like a square root at both turning points, so the tau_c integrand
diverges there (integrably). The substitution x = x_L + (x_R - x_L)*sin^2(t)
carries dx = (x_R - x_L)*sin(2t)*dt, which cancels that divergence
analytically; after the map both integrands are bounded and smooth.

A barrier family that knows both integrals in closed form for the window
(``closed_form``: any window inside a rectangle or inside a ramp up to its
root, or the full window of a constant-charge Coulomb barrier, by complete
elliptic integrals) gives them exactly. Every other window, in practice an
SAE or a tabulated barrier's, is integrated by fixed-order Gauss-Legendre
panels on the mapped variable, with one potential evaluation at all nodes
serving both integrals. Both come from one call, kept for the last problem
object, so classical_time after action_phi is a lookup. The barrier's
``panel_edges`` set the panels: one per knot interval for a tabulated
barrier, whose PCHIP interpolant is a cubic on each interval but only C^1
across knots; panels that double in length away from the pole at x = 0 of the
laser-Coulomb barrier; a single panel otherwise. Each panel
is evaluated at n and 2n nodes, and the 2n results are accepted when, for
both integrals, the sum is finite and the summed per-panel differences stay
within quad_tol of it. That one test is made after the first pass and after
every bisection: each panel whose difference exceeds its share of the
budget is bisected, and only the new halves are evaluated, until the test
passes (Piessens et al., QUADPACK (1983); Gander & Gautschi, BIT 40, 84
(2000)) or a fixed panel budget is spent and QuadratureFailure is raised.
A non-finite sum that no clamped node can explain ends the rule at once with
DomainError: an integrand past the float range, which no bisection mends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._lazynp import np
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
_PANEL_BUDGET = 2**12  # panels that bisection may add to the first pass
_CLAMP = 1e-12  # V - E more negative than this signals an interior momentum zero
_ORDER = 16  # Gauss-Legendre nodes per panel; the check rule uses twice as many
# stands in for a momentum clamped to zero in the tau_c denominator: the
# nodes are interior, but root-tolerance noise can clamp the radicand right
# next to an endpoint
_P_FLOOR = 1e-300
_NORMAL_MIN = 2.2250738585072014e-308  # the smallest normal float


@dataclass(frozen=True)
class WkbQuantities:
    """phi (action in units of hbar), tau_c (a.u.), p_m = exp(-2*phi)."""

    phi: float
    tau_c: float
    p_m: float


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


def _rules(problem: TunnelingProblem, lo: np.ndarray, span: np.ndarray):
    """The unit-mass pair on the theta panels [lo, lo + span] (column vectors)
    by the n- and 2n-node rules, shape (integral, panel, rule), and the mask of
    nodes whose V - E was clamped to zero, or None where no node was:
    root-tolerance slop in V - E at the turning points is clamped; a deeper
    dip, or a panel clamped at every node, raises."""
    x_l, w = problem.x_left, problem.width
    nodes, weights = _gauss_legendre_pair(_ORDER)
    theta = nodes * span
    theta += lo
    s = np.sin(theta)
    x = s * w
    x *= s
    x += x_l
    d = eval_potential(problem.barrier, x)
    d -= problem.energy
    clamped = None
    if d.min() <= 0.0:
        bad = d < -_CLAMP
        if bad.any():
            i = np.argmax(bad)
            raise SingularityError(
                f"V(x) - E = {d.flat[i]:.3g} at x = {x.flat[i]:.6g}: momentum vanishes "
                "inside the forbidden region (malformed barrier)"
            )
        clamped = d <= 0.0
        flat = clamped.all(axis=1)
        if flat.any():
            i = np.argmax(flat)
            a, h = lo[i, 0], span[i, 0]
            x_mid = x_l + w * math.sin(a + 0.5 * h) ** 2
            head = f"V(x) - E is zero at every node of a panel near x = {x_mid:.6g}"
            # a panel within its own length of a turning point may clamp only
            # because V - E has rounded away there, not because V = E; gaps
            # and length in units of w, the length as sin^2(a + h) - sin^2(a)
            gap_l, gap_r = math.sin(a) ** 2, math.cos(a + h) ** 2
            if min(gap_l, gap_r) <= math.sin(h) * math.sin(2.0 * a + h):
                root = f"x_L = {x_l:.6g}" if gap_l <= gap_r else f"x_R = {problem.x_right:.6g}"
                raise QuadratureFailure(
                    f"{head}, next to the turning point {root}: either V = E there, so tau_c "
                    "diverges, or V - E keeps too few digits there for the requested quad_tol; "
                    "a looser quad_tol may pass"
                )
            raise QuadratureFailure(
                f"{head}: V = E there inside the forbidden region, so tau_c diverges"
            )
        np.maximum(d, 0.0, out=d)
    p = np.sqrt(d, out=d)
    jac = np.multiply(theta, 2.0, out=theta)
    np.sin(jac, out=jac)
    jac *= w
    f = np.empty((2,) + p.shape)
    np.multiply(p, jac, out=f[0])
    np.divide(jac, np.maximum(p, _P_FLOOR, out=p), out=f[1])
    q = f @ weights
    q *= span
    return q, clamped


def _panel_rule(problem: TunnelingProblem, quad_tol: float):
    """The unit-mass pair by panel Gauss-Legendre, certified to quad_tol.

    Each value is the 2n-node sum over the panels, and its error estimate is
    |Q_2n - Q_n| summed over the panels, so panel errors cannot cancel in
    it. Until both estimates meet quad_tol and both sums are finite, each
    panel whose |Q_2n - Q_n| exceeds its share of the budget, its fraction
    of the theta range, is bisected, and only the new halves are evaluated.
    A new half with a clamped node (p = 0, where both rules would agree on
    nonsense) never converges, and a panel clamped at every node (V = E on a
    plateau, where tau_c diverges, or V - E rounded away at a turning point)
    raises at once. A non-finite sum where no node was ever clamped is an
    integrand past the float range, which bisection cannot mend: DomainError.
    """
    x_l, w = problem.x_left, problem.width
    inner = problem.barrier.panel_edges(problem.energy, x_l, problem.x_right)
    edges = np.empty(len(inner) + 2)
    edges[0], edges[-1] = 0.0, 1.0
    np.subtract(inner, x_l, out=edges[1:-1])
    edges[1:-1] /= w
    np.arcsin(np.sqrt(edges, out=edges), out=edges)
    lo, span = edges[:-1], edges[1:] - edges[:-1]
    q, clamped = _rules(problem, lo[:, None], span[:, None])
    floored = clamped is not None  # a clamped node's 1/_P_FLOOR may overflow; bisection drops it
    value, error = q[..., 1], np.abs(q[..., 1] - q[..., 0])
    limit = lo.size + _PANEL_BUDGET
    while True:
        total = value.sum(axis=1)
        (phi, tau_c), (e_phi, e_tau_c) = total.tolist(), error.sum(axis=1).tolist()
        # both integrands are built from the same p(x), and tau_c's is the more
        # singular: its convergence is the sharper test that the nodes resolve p
        if (e_phi <= quad_tol * abs(phi) and e_tau_c <= quad_tol * abs(tau_c)
                and math.isfinite(phi) and math.isfinite(tau_c)):
            return phi, tau_c
        if not (floored or math.isfinite(phi) and math.isfinite(tau_c)):
            raise DomainError(
                f"a panel sum of the unit-mass (phi, tau_c) = ({phi}, {tau_c}) is not finite: "
                "the integrands leave the float range")
        excess = error / (quad_tol * np.abs(total))[:, None]  # in units of the budget
        worst = np.argmax(excess.max(axis=0))
        split = (excess > span / (0.5 * math.pi)).any(axis=0)
        split[worst] = True  # progress even where rounding hides the excess
        if lo.size + np.count_nonzero(split) > limit:
            x = x_l + w * math.sin(lo[worst] + 0.5 * span[worst]) ** 2
            raise QuadratureFailure(
                f"achieved relative error {quad_tol * excess.sum(axis=1).max():.3g} exceeds "
                f"quad_tol {quad_tol:g} within {_PANEL_BUDGET} bisections, worst near x = {x:.6g}; "
                "loosen quad_tol, or look for a point inside the forbidden region where V(x) "
                "nearly touches E"
            )
        keep, half = ~split, 0.5 * span[split]
        new_lo, new_span = np.concatenate((lo[split], lo[split] + half)), np.tile(half, 2)
        q, clamped = _rules(problem, new_lo[:, None], new_span[:, None])
        new_error = np.abs(q[..., 1] - q[..., 0])
        if clamped is not None:
            floored = True
            new_error[:, clamped.any(axis=1)] = math.inf
        lo, span = np.concatenate((lo[keep], new_lo)), np.concatenate((span[keep], new_span))
        value = np.concatenate((value[:, keep], q[..., 1]), axis=1)
        error = np.concatenate((error[:, keep], new_error), axis=1)


_last = None  # (problem, quad_tol, (phi, tau_c)) of the last _integrals call


def _integrals(problem: TunnelingProblem, quad_tol: float):
    """(phi, tau_c): sqrt(2m) and sqrt(m/2) times the unit-mass pair, exact
    where the family has a closed form for the window, else certified to
    quad_tol by the panel rule; kept for the problem object, so that
    compute_wkb computes them once. A result past the float range raises
    DomainError. A unit-mass value below the normal floats is off by up to
    half the smallest subnormal; where its mass factor exceeds 2, that error
    would grow past one subnormal step, so the value is kept as NaN, which
    action_phi and classical_time refuse. sqrt(2m) = 2 sqrt(m/2) comes from
    whichever of 2m, m/2 is exact."""
    global _last
    last = _last
    if last is not None and last[0] is problem and last[1] == quad_tol:
        return last[2]
    lo, hi = _QUAD_TOL_RANGE
    if not lo <= quad_tol <= hi:
        raise DomainError(f"quad_tol must lie in [{lo:g}, {hi:g}], got {quad_tol}")
    if problem.width == 0.0:
        return 0.0, 0.0
    pair = problem.barrier.closed_form(problem.energy, problem.x_left, problem.x_right)
    if pair is None:
        with np.errstate(all="ignore"):  # a non-finite sum is refused, not warned of
            pair = _panel_rule(problem, quad_tol)
    m = problem.mass
    root_2m = math.sqrt(2.0 * m) if m < 1.0 else 2.0 * math.sqrt(0.5 * m)
    u_phi, u_tau_c = pair
    phi, tau_c = root_2m * u_phi, 0.5 * root_2m * u_tau_c
    if not (math.isfinite(phi) and math.isfinite(tau_c)):
        raise DomainError(f"(phi, tau_c) = {(phi, tau_c)} leave the float range")
    if u_phi < _NORMAL_MIN and root_2m > 2.0:
        phi = math.nan
    if u_tau_c < _NORMAL_MIN and root_2m > 4.0:
        tau_c = math.nan
    result = phi, tau_c
    _last = problem, quad_tol, result
    return result


def _underflow(name: str) -> DomainError:
    return DomainError(
        f"{name} underflows: its unit-mass integral falls below the normal floats, and the "
        "mass factor would scale its rounding past one subnormal step")


def action_phi(problem: TunnelingProblem, quad_tol: float = QUAD_TOL_DEFAULT) -> float:
    """Dimensionless barrier action Phi = (1/hbar) * int p(x) dx >= 0."""
    phi = _integrals(problem, quad_tol)[0]
    if phi != phi:
        raise _underflow("phi")
    return max(phi, 0.0)


def classical_time(problem: TunnelingProblem, quad_tol: float = QUAD_TOL_DEFAULT) -> float:
    """Classical tunneling time tau_c = int m dx / p(x), in a.u."""
    tau_c = _integrals(problem, quad_tol)[1]
    if tau_c != tau_c:
        raise _underflow("tau_c")
    return tau_c


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
    integrals come from action_phi's one call, which classical_time reuses."""
    phi = action_phi(problem, quad_tol)
    tau_c = classical_time(problem, quad_tol)
    return WkbQuantities(phi=phi, tau_c=tau_c, p_m=math.exp(-2.0 * phi))
