"""Command-line interface.

Subcommands:

* ``times``    - all time definitions for one barrier + energy
* ``table1``   - the helium benchmark rows plus a pass/fail diff against the
                 embedded reference values
* ``he-scan``  - laser-field scan as CSV/JSON plot data
* ``et-scan``  - electron-transfer scan as CSV/JSON plot data
* ``oracle``   - numeric scattering transmission for cross-checking

Exit status: 0 on success; 2 on usage errors, among them a number or a comma
list item that does not parse; 3 on numeric, domain or file errors, which
print one line, ``error: <class name>: <message>``, to standard error.
"""

import argparse
import sys

from .errors import TunnelTimesError
from .experiments import (
    ET_DELTA_E_DEFAULT_EV,
    ET_ENERGY_DEFAULT_EV,
    ET_LENGTH_MAX_DEFAULT,
    ET_LENGTH_MIN_DEFAULT,
    ET_LENGTH_STEPS_DEFAULT,
    HE_FIELD_MAX_DEFAULT,
    HE_FIELD_MIN_DEFAULT,
    HE_MODELS,
    HE_STEPS_DEFAULT,
    TABLE1_REFERENCE,
    _scan_grid,
    et_scan,
    he_scan,
    run_table1,
    write_csv,
    write_json,
)
from .potentials import LaserCoulomb, Rectangular, Triangular, tabulated_from_file, zeff_model
from .times import times_report
from .transmission import DEFAULT_SLICES, pt_numeric, pt_wkb
from .turning import resolve_problem
from .units import angstrom_to_au, ev_to_au, to_attoseconds, to_femtoseconds
from .wkb import QUAD_TOL_DEFAULT, compute_wkb

__all__ = ["main"]

# benchmark diff bands: absolute on roots, relative on times; the smallest
# entropic-time cell is the most sensitive and gets a wider band
_ROOT_BAND_AU = 0.01
_TAU_BAND_REL = 0.01
_ETT_BAND_REL = 0.02
_ETT_BAND_REL_WIDE = 0.05
_WIDE_CELL = ("clementi", 0.11)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _print_kv(key: str, value) -> None:
    print(f"{key:<18} {_fmt(value)}")


def float_list(text: str):
    """argparse type of comma-separated numbers; an empty item does not parse."""
    return tuple(float(item) for item in text.split(","))


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default: csv)")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write to PATH instead of standard output")


def _add_barrier_args(p: argparse.ArgumentParser, families) -> None:
    p.add_argument("--barrier", choices=families, required=True,
                   help="barrier family")
    p.add_argument("--v0", type=float, help="barrier height (rect, triangular)")
    p.add_argument("--length", type=float, help="barrier length (rect, triangular)")
    p.add_argument("--slope", type=float, help="ramp slope (triangular)")
    p.add_argument("--field", type=float, help="field strength in a.u. (laser-coulomb)")
    p.add_argument("--zeff", default="sae",
                   help="effective charge: sae, kullie, clementi, or a number "
                        "(default: sae)")
    p.add_argument("--file", metavar="PATH",
                   help="two-column x,V sample file in a.u. (tabulated)")
    p.add_argument("--energy", type=float, required=True, help="particle energy")
    p.add_argument("--mass", type=float, default=1.0,
                   help="particle mass in a.u. (default: 1)")
    p.add_argument("--energy-unit", choices=("au", "ev"), default="au",
                   help="unit of --energy and --v0 (default: au)")
    p.add_argument("--length-unit", choices=("au", "angstrom"), default="au",
                   help="unit of --length (default: au)")


def _convert_units(args) -> None:
    if args.energy_unit == "ev":
        args.energy = ev_to_au(args.energy)
        if args.v0 is not None:
            args.v0 = ev_to_au(args.v0)
    if args.length_unit == "angstrom" and args.length is not None:
        args.length = angstrom_to_au(args.length)


# --barrier name -> (constructor, the options it takes in order)
_FAMILIES = {
    "rect": (Rectangular, ("v0", "length")),
    "triangular": (Triangular, ("v0", "slope", "length")),
    "laser-coulomb": (lambda field, zeff: LaserCoulomb(field, zeff_model(zeff)), ("field", "zeff")),
    "tabulated": (tabulated_from_file, ("file",)),
}


def _build_barrier(args):
    build, names = _FAMILIES[args.barrier]
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        args.parser.error(f"{args.barrier} barrier requires {', '.join(missing)}")
    return build(*(getattr(args, name) for name in names))


def _emit(rows, fmt: str, output) -> None:
    writer = write_csv if fmt == "csv" else write_json
    if output:
        with open(output, "w", encoding="utf-8") as stream:
            writer(rows, stream)
    else:
        writer(rows, sys.stdout)


def cmd_times(args) -> int:
    _convert_units(args)
    barrier = _build_barrier(args)
    problem = resolve_problem(barrier, args.energy, args.mass)
    report = times_report(problem, args.quad_tol)

    _print_kv("barrier", args.barrier)
    _print_kv("energy_au", problem.energy)
    _print_kv("mass_au", problem.mass)
    _print_kv("x_left_au", problem.x_left)
    _print_kv("x_right_au", problem.x_right)
    _print_kv("phi", report.phi)
    _print_kv("p_t_used", report.p_t_used)
    _print_kv("p_t_wkb", pt_wkb(report.phi))
    if report.phase_time is not None:
        # a family with phase and dwell times in closed form has its exact
        # transmission in the report
        _print_kv("p_t_exact", report.p_t_used)
    _print_kv("tau_c_au", report.tau_c)
    _print_kv("tau_c_as", to_attoseconds(report.tau_c))
    _print_kv("tau_c_fs", to_femtoseconds(report.tau_c))
    _print_kv("ett_au", report.ett)
    _print_kv("ett_as", to_attoseconds(report.ett))
    _print_kv("ett_fs", to_femtoseconds(report.ett))
    if report.phase_time is not None:
        _print_kv("phase_time_au", report.phase_time)
        _print_kv("phase_time_as", to_attoseconds(report.phase_time))
        _print_kv("dwell_time_au", report.dwell_time)
        _print_kv("dwell_time_as", to_attoseconds(report.dwell_time))
    _print_kv("kBT_au", report.kBT)
    _print_kv("positivity_flag", report.positivity_flag)
    return 0


def _diff_cells(computed_row, reference_row):
    """Yield (cell name, computed, reference, tolerance note, passed)."""
    wide = (reference_row.model, reference_row.field) == _WIDE_CELL
    ett_band = _ETT_BAND_REL_WIDE if wide else _ETT_BAND_REL
    for name, band, relative in (
        ("x_L", _ROOT_BAND_AU, False),
        ("x_R", _ROOT_BAND_AU, False),
        ("tau_c_as", _TAU_BAND_REL, True),
        ("ett_as", ett_band, True),
    ):
        got = getattr(computed_row, name)
        ref = getattr(reference_row, name)
        delta = got - ref
        if relative:
            passed = abs(delta) <= band * abs(ref)
            note = f"+-{band:.0%}"
        else:
            passed = abs(delta) <= band
            note = f"+-{band:g}"
        yield name, got, ref, delta, note, passed


def cmd_table1(args) -> int:
    rows = run_table1(args.quad_tol)
    _emit(rows, args.format, args.output)
    # human diff: stdout when rows went to a file, stderr otherwise so the
    # machine-readable stream stays clean
    diff_stream = sys.stdout if args.output else sys.stderr
    failures = 0
    header = (
        f"{'model':<9} {'field':>5} {'cell':<9} {'computed':>14} "
        f"{'reference':>10} {'delta':>11} {'band':>6} status"
    )
    print(header, file=diff_stream)
    for row, ref in zip(rows, TABLE1_REFERENCE):
        for name, got, refv, delta, note, passed in _diff_cells(row, ref):
            failures += not passed
            print(
                f"{row.model:<9} {row.field:>5.2f} {name:<9} {got:>14.6f} "
                f"{refv:>10.2f} {delta:>+11.4f} {note:>6} "
                f"{'pass' if passed else 'FAIL'}",
                file=diff_stream,
            )
    verdict = "all cells within tolerance" if failures == 0 else f"{failures} cells out of tolerance"
    print(f"table1: {verdict}", file=diff_stream)
    return 0 if failures == 0 else 3


def cmd_he_scan(args) -> int:
    points = he_scan(
        field_min=args.field_min,
        field_max=args.field_max,
        steps=args.steps,
        models=tuple(m.strip() for m in args.models.split(",")),
        omega=args.omega,
        quad_tol=args.quad_tol,
    )
    _emit(points, args.format, args.output)
    return 0


def cmd_et_scan(args) -> int:
    if args.length_steps < 2:
        args.parser.error("--length-steps must be at least 2")
    points = et_scan(
        energy_ev=args.energy_ev,
        delta_e_grid_ev=args.delta_e,
        length_grid_angstrom=_scan_grid("length", args.length_min, args.length_max,
                                        args.length_steps),
    )
    _emit(points, args.format, args.output)
    return 0


def cmd_oracle(args) -> int:
    _convert_units(args)
    barrier = _build_barrier(args)
    result = pt_numeric(barrier, args.energy, args.mass, args.slices)
    _print_kv("p_t", result.p_t)
    _print_kv("p_r", result.p_r)
    _print_kv("grid_points", result.grid_points)
    _print_kv("flux_error", abs(result.p_t + result.p_r - 1.0))
    # the exact transmission, where the family has one (it then has the
    # phase time too, and closed-form integrals), beside the WKB one
    try:
        problem = resolve_problem(barrier, args.energy, args.mass)
        if barrier.closed_form(problem.energy, problem.x_left, problem.x_right) is None:
            return 0
        q = compute_wkb(problem)
        p_t, _, phase, _ = barrier.transmission(problem.energy, q.phi, q.tau_c, problem.mass)
    except TunnelTimesError:
        return 0  # no integrals or transmission at this energy to compare
    if phase is not None:
        _print_kv("phi_closed_form", q.phi)
        _print_kv("p_t_exact", p_t)
        _print_kv("p_t_wkb", pt_wkb(q.phi))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunneltimes",
        description="Tunneling times for parametric 1-D barriers.",
    )
    # each command carries its own parser, so that the usage errors found after
    # parsing print that command's usage line, as argparse's own errors do
    sub = parser.add_subparsers(dest="command", required=True)
    quad = argparse.ArgumentParser(add_help=False)
    quad.add_argument("--quad-tol", type=float, default=QUAD_TOL_DEFAULT,
                      help="relative quadrature tolerance (default: %(default)g)")

    p_times = sub.add_parser("times", parents=[quad], help="all time definitions for one problem")
    _add_barrier_args(p_times, tuple(_FAMILIES))
    p_times.set_defaults(func=cmd_times, parser=p_times)

    p_table = sub.add_parser("table1", parents=[quad], help="helium benchmark with pass/fail diff")
    _add_output_args(p_table)
    p_table.set_defaults(func=cmd_table1, parser=p_table)

    p_he = sub.add_parser("he-scan", parents=[quad], help="laser-field scan (helium)")
    p_he.add_argument("--field-min", type=float, default=HE_FIELD_MIN_DEFAULT,
                      help="lowest field strength in a.u. (default: %(default)g)")
    p_he.add_argument("--field-max", type=float, default=HE_FIELD_MAX_DEFAULT,
                      help="highest field strength in a.u. (default: %(default)g)")
    p_he.add_argument("--steps", type=int, default=HE_STEPS_DEFAULT,
                      help="number of field grid points (default: %(default)d)")
    p_he.add_argument("--models", default=",".join(HE_MODELS),
                      help="comma-separated effective-charge models (default: %(default)s)")
    p_he.add_argument("--omega", type=float, default=None,
                      help="drive angular frequency in a.u.; enables the "
                           "Keldysh column (default: none, column is NaN)")
    _add_output_args(p_he)
    p_he.set_defaults(func=cmd_he_scan, parser=p_he)

    p_et = sub.add_parser("et-scan", help="electron-transfer scan (rectangular)")
    p_et.add_argument("--energy-ev", type=float, default=ET_ENERGY_DEFAULT_EV,
                      help="electron energy in eV (default: %(default)g)")
    p_et.add_argument("--delta-e", type=float_list, default=ET_DELTA_E_DEFAULT_EV,
                      help="comma-separated barrier offsets v0 - E in eV "
                           f"(default: {','.join(str(v) for v in ET_DELTA_E_DEFAULT_EV)})")
    p_et.add_argument("--length-min", type=float, default=ET_LENGTH_MIN_DEFAULT,
                      help="shortest barrier in Angstrom (default: %(default)g)")
    p_et.add_argument("--length-max", type=float, default=ET_LENGTH_MAX_DEFAULT,
                      help="longest barrier in Angstrom (default: %(default)g)")
    p_et.add_argument("--length-steps", type=int, default=ET_LENGTH_STEPS_DEFAULT,
                      help="number of length grid points (default: %(default)d)")
    _add_output_args(p_et)
    p_et.set_defaults(func=cmd_et_scan, parser=p_et)

    p_oracle = sub.add_parser("oracle", help="numeric scattering transmission")
    _add_barrier_args(p_oracle, ("rect", "triangular", "tabulated"))
    p_oracle.add_argument("--slices", type=int, default=DEFAULT_SLICES,
                          help="piecewise-constant slices (default: %(default)d)")
    p_oracle.set_defaults(func=cmd_oracle, parser=p_oracle)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # argparse of Python 3.11 stores [] for --option=--, which no type function sees
    for name, value in vars(args).items():
        if isinstance(value, list):
            args.parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        return args.func(args)
    except (TunnelTimesError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
