"""Tunneling times for parametric 1-D barriers.

Computes the entropic tunneling time alongside the classical, phase, and
dwell times for rectangular, triangular, laser-dressed Coulomb, and
tabulated barriers, with WKB and exact transmission probabilities, a
numeric scattering oracle, and reproduction harnesses that emit
machine-readable plot data.
"""

from .errors import (
    BracketFailure,
    DomainError,
    EvanescentLead,
    NoConvergence,
    NoPeak,
    OverBarrier,
    QuadratureFailure,
    RegimeError,
    SingularityError,
    TunnelTimesError,
)
from .experiments import (
    EtScanPoint,
    ScanPoint,
    Table1Row,
    et_scan,
    he_scan,
    keldysh_gamma,
    run_table1,
    write_csv,
    write_json,
)
from .potentials import (
    CLEMENTI,
    KULLIE,
    SAE,
    Barrier,
    ConstantZeff,
    LaserCoulomb,
    Rectangular,
    SaeZeff,
    Tabulated,
    Triangular,
    ZeffModel,
    barrier_peak,
    eval_potential,
    tabulated_from_file,
    zeff_model,
)
from .stattherm import (
    PHI_STAR,
    bracket,
    entropy,
    entropy_maximum,
    inverse_temperature,
)
from .times import (
    TimesReport,
    dwell_time_rectangular,
    ett_general,
    ett_he,
    ett_rectangular,
    phase_time_rectangular,
    phi_rectangular,
    tau_c_rectangular,
    times_report,
    triangular_scalings,
)
from .transmission import (
    ScatteringResult,
    pt_numeric,
    pt_rectangular_exact,
    pt_wkb,
)
from .turning import (
    ROOT_TOL,
    TunnelingProblem,
    resolve_problem,
    turning_points_bracketed,
    turning_points_quadratic,
)
from .units import (
    CONSTANTS,
    PhysicalConstants,
    angstrom_to_au,
    au_to_angstrom,
    au_to_ev,
    ev_to_au,
    from_attoseconds,
    from_femtoseconds,
    to_attoseconds,
    to_femtoseconds,
)
from .wkb import (
    QUAD_TOL_DEFAULT,
    WkbQuantities,
    action_phi,
    classical_time,
    compute_wkb,
    dphi_dE,
)

__version__ = "0.1.0"
