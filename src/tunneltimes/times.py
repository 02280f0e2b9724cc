"""Tunneling-time definitions.

The entropic time is built from three ingredients of one problem: the
classical time tau_c, the action phi, and a transmission probability p_t,

    ett = -(tau_c / (2 pi p_t)) * exp(-2 phi) * B(phi),

with B the bracket factor from the statistical layer. Every entry point
evaluates it through one kernel, -(tau_c / 2 pi) * rho * B(phi), where
rho = exp(-2 phi)/p_t is supplied by the transmission model: in log space
for an arbitrary p_t, and otherwise by the barrier family's ``transmission``
in a closed form that cannot underflow: exact for the rectangle, WKB for the
rest. A report reads phi and tau_c from the one integral pass and evaluates
B(phi) once, for both the entropic time and 1/(k_B T). Phase and dwell times
exist in closed form for the rectangular barrier only and are not invented
for other shapes.

Sign policy: for phi <= PHI_STAR the entropic time comes out non-positive.
It is returned as computed, with the report's positivity flag cleared;
nothing is clamped.
"""

import math
from typing import NamedTuple, Optional

from .errors import DomainError, RegimeError
from .potentials import Rectangular, Triangular
from .stattherm import PHI_STAR, _inverse_temperature, bracket
from .transmission import _check_under_barrier, _rho_wkb
from .turning import TunnelingProblem, resolve_problem
from .wkb import QUAD_TOL_DEFAULT, action_phi, classical_time, compute_wkb

__all__ = [
    "TimesReport",
    "phi_rectangular",
    "tau_c_rectangular",
    "ett_general",
    "ett_he",
    "ett_rectangular",
    "phase_time_rectangular",
    "dwell_time_rectangular",
    "triangular_scalings",
    "times_report",
]

_TWO_PI = 2.0 * math.pi


def _box(energy: float, v0: float, length: float, mass: float) -> TunnelingProblem:
    """The box's problem; E outside (0, v0) is a DomainError, not OverBarrier."""
    _check_under_barrier(energy, v0)
    return resolve_problem(Rectangular(v0, length), energy, mass)


def phi_rectangular(energy: float, v0: float, length: float, mass: float = 1.0) -> float:
    """Closed-form action sqrt(2m(v0 - E)) * L / hbar."""
    return action_phi(_box(energy, v0, length, mass))


def tau_c_rectangular(energy: float, v0: float, length: float, mass: float = 1.0) -> float:
    """Closed-form classical time m*L^2/(hbar*phi) = L*sqrt(m/(2(v0 - E)))."""
    return classical_time(_box(energy, v0, length, mass))


def _ett(tau_c: float, rho: float, b: float) -> float:
    """The entropic-time kernel, rho = exp(-2 phi)/p_t and b = B(phi)."""
    ett = -(tau_c / _TWO_PI) * rho * b
    if not math.isfinite(ett):
        raise DomainError(f"entropic time is not finite: {ett}")
    return ett


def ett_general(tau_c: float, phi: float, p_t: float) -> float:
    """Entropic tunneling time for any barrier, signed.

    The exp(-2 phi)/p_t ratio is evaluated in log space: the two factors
    underflow separately near phi ~ 354 while their ratio stays of order
    one for any transmission with the WKB decay. A p_t that has already
    underflowed to 0, or is not finite, is rejected.
    """
    if not 0.0 < p_t < math.inf:
        raise DomainError(f"transmission probability must be positive and finite, got {p_t}")
    try:
        rho = math.exp(-2.0 * phi - math.log(p_t))
    except OverflowError:
        rho = math.inf  # the kernel rejects the non-finite result
    return _ett(tau_c, rho, bracket(phi))


def ett_he(tau_c: float, phi: float) -> float:
    """Entropic time with the WKB transmission folded in; finite for any
    phi >= 0. Identical to ett_general(tau_c, phi, pt_wkb(phi)) to relative
    1e-12."""
    # B rejects a negative phi; max keeps exp(-2 phi) from overflowing first
    return _ett(tau_c, _rho_wkb(max(phi, 0.0)), bracket(phi))


def ett_rectangular(energy: float, v0: float, length: float, mass: float = 1.0) -> float:
    """Entropic time with the exact rectangular transmission folded in.

    Finite for any length. Identical to ett_general with
    pt_rectangular_exact to relative 1e-12.
    """
    return times_report(_box(energy, v0, length, mass)).ett


def phase_time_rectangular(
    energy: float, v0: float, length: float, mass: float = 1.0
) -> float:
    """Stationary-phase (Wigner) time for the rectangular barrier.

    With phi the barrier action and phi_e = sqrt(2 m E) * L / hbar:

        t_phase = tau_c p_t / (2 phi^2 phi_e^3)
                  * [phi phi_e^2 (phi^2 - phi_e^2)
                     + (phi^2 + phi_e^2)^2 sinh(phi) cosh(phi)]

    Saturates at (hbar/E) sqrt(E/(v0 - E)) for wide barriers.
    """
    return times_report(_box(energy, v0, length, mass)).phase_time


def dwell_time_rectangular(
    energy: float, v0: float, length: float, mass: float = 1.0
) -> float:
    """Barrier-region dwell time for the rectangular barrier.

        t_dwell = tau_c p_t / (2 phi^2 phi_e)
                  * [phi (phi^2 - phi_e^2)
                     + (phi^2 + phi_e^2) sinh(phi) cosh(phi)]

    Saturates at (hbar/v0) sqrt(E/(v0 - E)) for wide barriers.
    """
    return times_report(_box(energy, v0, length, mass)).dwell_time


def triangular_scalings(
    v0: float, energy: float, field: float, length: float, mass: float = 1.0
):
    """Triangular-barrier action and classical time by rectangular rescaling.

        phi_tri   = (2/3) * ((v0 - E)/(field*L)) * phi_box(L)
        tau_c_tri = 2 * ((v0 - E)/(field*L)) * tau_c_box(L)

    Both collapse to closed forms independent of L, matching direct
    quadrature over V(x) = v0 - field*x on [0, (v0 - E)/field].

    Raises
    ------
    RegimeError
        (v0 - E)/field > length: the ramp's turning point falls outside the
        support, where the ratios are no longer exact.
    """
    _check_under_barrier(energy, v0)
    ramp = Triangular(v0, field, length)
    if (v0 - energy) / field > length:
        raise RegimeError(
            f"turning point (v0 - E)/field = {(v0 - energy) / field:.6g} lies "
            f"beyond the support length {length}"
        )
    quantities = compute_wkb(resolve_problem(ramp, energy, mass))
    return quantities.phi, quantities.tau_c


class TimesReport(NamedTuple):
    """Every time definition plus its inputs, for one problem, in a.u.

    phase_time and dwell_time are None unless the barrier family has them
    in closed form, as the rectangle does.
    ett is finite for any phi, including actions where p_t_used has
    underflowed to 0. kBT is signed; it is +inf at the bracket zero
    phi = PHI_STAR and once exp(2 phi) overflows (phi beyond about 354).
    An immutable named tuple, which builds in half the time of a frozen
    dataclass.
    """

    ett: float
    tau_c: float
    phase_time: Optional[float]
    dwell_time: Optional[float]
    p_t_used: float
    phi: float
    kBT: float
    positivity_flag: bool


def times_report(
    problem: TunnelingProblem, quad_tol: float = QUAD_TOL_DEFAULT
) -> TimesReport:
    """Compute the full set of times for a resolved problem.

    The barrier family supplies the transmission: the rectangle its exact
    one, with phase and dwell times, every other family the WKB one. This is
    the one evaluator behind the CLI and the helium harnesses.
    """
    phi = action_phi(problem, quad_tol)
    tau_c = classical_time(problem, quad_tol)
    p_t, rho, phase, dwell = problem.barrier.transmission(problem.energy, phi, tau_c, problem.mass)
    b = bracket(phi)
    inv = _inverse_temperature(phi, tau_c, b)
    ett = _ett(tau_c, rho, b)
    kbt = 1.0 / inv if inv != 0.0 else math.inf
    # positional, in field order: eight keywords would double the record's cost
    return TimesReport(ett, tau_c, phase, dwell, p_t, phi, kbt, phi > PHI_STAR)
