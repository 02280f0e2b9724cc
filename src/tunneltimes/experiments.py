"""Reproduction harness and machine-readable scan output.

Three studies are packaged here:

* ``run_table1`` - the helium ionization benchmark: turning points,
  classical time, and entropic time for three effective-charge models at
  field strengths 0.04 and 0.11 a.u., electron energy -0.904 a.u.
* ``he_scan`` - the same system on a dense field grid, carrying both the
  experimentalist's width proxy |E|/field and the true turning-point width,
  plus the Keldysh parameter when a drive frequency is given.
* ``et_scan`` - electron transfer through rectangular barriers, 5 to 30
  Angstrom, with times in femtoseconds and a flag marking points whose
  entropic time reaches the 5 fs nuclear-vibration scale.

Scan points are independent and are emitted in deterministic grid order;
two runs of the same configuration produce bit-identical CSV.
"""

import json
import logging
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

from .errors import DomainError, OverBarrier
from .potentials import _ZEFF_PRESETS as HE_MODELS, LaserCoulomb, Rectangular
from .times import times_report
from .turning import resolve_problem
from .units import angstrom_to_au, ev_to_au, to_attoseconds, to_femtoseconds
from .wkb import QUAD_TOL_DEFAULT

__all__ = [
    "HE_ENERGY_AU",
    "HE_MODELS",
    "Table1Row",
    "TABLE1_REFERENCE",
    "ScanPoint",
    "EtScanPoint",
    "run_table1",
    "he_scan",
    "keldysh_gamma",
    "et_scan",
    "write_csv",
    "write_json",
]

logger = logging.getLogger(__name__)

# single-active-electron helium: binding energy of the outgoing electron
HE_ENERGY_AU = -0.904


@dataclass(frozen=True)
class Table1Row:
    """One benchmark cell group: turning points and times for one
    (model, field) pair. Times are in attoseconds."""

    model: str
    field: float
    x_L: float
    x_R: float
    tau_c_as: float
    ett_as: float


# benchmark reference values (helium, E = -0.904 a.u.)
TABLE1_REFERENCE = (
    Table1Row("sae", 0.04, 1.24, 21.43, 833.82, 113.08),
    Table1Row("sae", 0.11, 1.39, 6.90, 312.24, 22.20),
    Table1Row("kullie", 0.04, 1.64, 20.96, 850.73, 111.75),
    Table1Row("kullie", 0.11, 2.02, 6.20, 322.72, 16.85),
    Table1Row("clementi", 0.04, 2.05, 20.55, 856.49, 109.14),
    Table1Row("clementi", 0.11, 2.87, 5.35, 326.50, 6.54),
)


@dataclass(frozen=True)
class ScanPoint:
    """One helium field-scan point.

    exp_width is the width proxy |E|/field used by the experiment;
    true_width is the actual turning-point separation x_R - x_L, which the
    Coulomb tail makes strictly smaller. keldysh_gamma is NaN when no drive
    frequency was supplied.
    """

    field: float
    model: str
    ett_as: float
    tau_c_as: float
    exp_width: float
    true_width: float
    phi: float
    keldysh_gamma: float


@dataclass(frozen=True)
class EtScanPoint:
    """One electron-transfer scan point; times in femtoseconds."""

    delta_e_eff: float
    length_angstrom: float
    tau_c_fs: float
    ett_fs: float
    comparable_flag: bool


def run_table1(quad_tol: float = QUAD_TOL_DEFAULT):
    """Compute the six benchmark rows (model-major, fields 0.04 then 0.11)."""
    rows = []
    for name in ("sae", "kullie", "clementi"):
        for field in (0.04, 0.11):
            barrier = LaserCoulomb(field, HE_MODELS[name])
            problem = resolve_problem(barrier, HE_ENERGY_AU)
            report = times_report(problem, quad_tol)
            rows.append(
                Table1Row(
                    model=name,
                    field=field,
                    x_L=problem.x_left,
                    x_R=problem.x_right,
                    tau_c_as=to_attoseconds(report.tau_c),
                    ett_as=to_attoseconds(report.ett),
                )
            )
    return rows


def keldysh_gamma(omega: float, ionization_potential: float, field: float) -> float:
    """gamma = omega * sqrt(2 * I_p) / field; tunneling dominates below 1."""
    for name, value in (("omega", omega), ("ionization potential", ionization_potential),
                        ("field", field)):
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value}")
    gamma = omega * math.sqrt(2.0 * ionization_potential) / field
    if gamma == math.inf:
        raise DomainError(f"Keldysh parameter overflows at omega {omega}, field {field}")
    return gamma


def _scan_grid(name: str, low: float, high: float, steps: int):
    """steps evenly spaced points from low to high, the last exactly high."""
    if not 0.0 < low < high:
        raise DomainError(f"need 0 < {name}_min < {name}_max, got ({low}, {high})")
    if steps < 2:
        raise DomainError(f"need at least 2 {name} steps, got {steps}")
    step = (high - low) / (steps - 1)
    return [low + i * step for i in range(steps - 1)] + [float(high)]


def he_scan(
    field_min: float = 0.04,
    field_max: float = 0.11,
    steps: int = 15,
    models: Sequence[str] = ("sae", "kullie", "clementi"),
    omega: Optional[float] = None,
    quad_tol: float = QUAD_TOL_DEFAULT,
):
    """Scan the laser field at HE_ENERGY_AU for each effective-charge model
    through times_report.

    Points where the energy is not below the barrier maximum are skipped
    with a logged warning; OverBarrier is raised only if no point is left.
    """
    field_grid = _scan_grid("field", field_min, field_max, steps)
    unknown = [m for m in models if m not in HE_MODELS]
    if unknown:
        raise DomainError(f"unknown models {unknown}; choose from {sorted(HE_MODELS)}")
    points = []
    for name in models:
        zeff = HE_MODELS[name]
        for field in field_grid:
            try:
                problem = resolve_problem(LaserCoulomb(field, zeff), HE_ENERGY_AU)
            except OverBarrier as exc:
                logger.warning("skipping model=%s field=%.6g: %s", name, field, exc)
                continue
            report = times_report(problem, quad_tol)
            gamma = (
                keldysh_gamma(omega, -HE_ENERGY_AU, field)
                if omega is not None
                else math.nan
            )
            points.append(
                ScanPoint(
                    field=field,
                    model=name,
                    ett_as=to_attoseconds(report.ett),
                    tau_c_as=to_attoseconds(report.tau_c),
                    exp_width=abs(HE_ENERGY_AU) / field,
                    true_width=problem.width,
                    phi=report.phi,
                    keldysh_gamma=gamma,
                )
            )
    if models and not points:
        raise OverBarrier(f"E = {HE_ENERGY_AU} is not below the barrier at any field scanned")
    return points


ET_DELTA_E_DEFAULT_EV = (0.05, 0.1, 0.2, 0.5, 1.0)
ET_LENGTH_DEFAULT_ANGSTROM = tuple(5.0 + i for i in range(26))
ET_FLAG_THRESHOLD_FS = 5.0


def et_scan(
    energy_ev: float = 1.0,
    delta_e_grid_ev: Sequence[float] = ET_DELTA_E_DEFAULT_EV,
    length_grid_angstrom: Sequence[float] = ET_LENGTH_DEFAULT_ANGSTROM,
):
    """Rectangular-barrier electron-transfer scan.

    For each (delta_e_eff, length) pair a barrier of height
    v0 = E + delta_e_eff is traversed at energy E through times_report, and
    its classical and entropic times are converted to femtoseconds.
    comparable_flag marks points whose entropic time reaches the 5 fs
    vibration half-period scale.
    """
    for name, values in (("energy_ev", (energy_ev,)), ("delta_e_grid_ev", delta_e_grid_ev),
                         ("length_grid_angstrom", length_grid_angstrom)):
        bad = [v for v in values if not 0.0 < v < math.inf]
        if bad:
            raise DomainError(f"{name} must be positive and finite, got {bad[0]}")
    energy_au = ev_to_au(energy_ev)
    points = []
    for delta_e in delta_e_grid_ev:
        v0_au = energy_au + ev_to_au(delta_e)
        for length in length_grid_angstrom:
            barrier = Rectangular(v0_au, angstrom_to_au(length))
            report = times_report(resolve_problem(barrier, energy_au))
            ett_fs = to_femtoseconds(report.ett)
            points.append(
                EtScanPoint(
                    delta_e_eff=float(delta_e),
                    length_angstrom=float(length),
                    tau_c_fs=to_femtoseconds(report.tau_c),
                    ett_fs=ett_fs,
                    comparable_flag=ett_fs >= ET_FLAG_THRESHOLD_FS,
                )
            )
    return points


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(rows, stream) -> None:
    """Write dataclass rows as CSV: header, then one line per row, floats at
    17 significant digits. Empty input writes nothing."""
    if not rows:
        return
    names = [f.name for f in fields(rows[0])]
    stream.write(",".join(names) + "\n")
    for row in rows:
        stream.write(",".join(_format_cell(getattr(row, n)) for n in names) + "\n")


def write_json(rows, stream) -> None:
    """Write dataclass rows as a JSON array of objects keyed by field name."""
    json.dump([asdict(row) for row in rows], stream, indent=2)
    stream.write("\n")
