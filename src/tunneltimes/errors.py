"""Exception hierarchy for tunneling-time calculations.

Every failure raised by this package derives from :class:`TunnelTimesError`,
so callers (and the CLI) can catch one base class and map it to an exit
status. The subclasses distinguish caller bugs (bad arguments) from physics
outcomes (no forbidden region) and from numerical breakdowns.
"""


class TunnelTimesError(Exception):
    """Base class for all errors raised by tunneltimes."""


class DomainError(TunnelTimesError, ValueError):
    """An argument lies outside the domain of the requested operation."""


class NoPeak(TunnelTimesError):
    """The potential is monotone on its domain; no barrier maximum exists."""


class OverBarrier(TunnelTimesError):
    """The energy is at or above the barrier maximum; no forbidden region."""


class NoConvergence(TunnelTimesError):
    """An iterative solver exhausted its iteration budget."""


class BracketFailure(TunnelTimesError):
    """No sign change could be bracketed for a root search."""


class QuadratureFailure(TunnelTimesError):
    """The panel rule could not certify a barrier integral to quad_tol
    within its bisection budget."""


class SingularityError(TunnelTimesError):
    """An integrand is unbounded away from the interval endpoints."""


class EvanescentLead(TunnelTimesError):
    """A scattering lead carries no propagating state at this energy."""


class RegimeError(TunnelTimesError):
    """Parameters violate the validity regime of a closed-form expression."""
