"""Operations, rounds and output checks shared by every workload."""

import math
import os
import random
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class CheckFailure(Exception):
    """An output missed its reference, or an operation failed unexpectedly."""


class Op:
    """One timed call. ``fault`` names the fault this operation may show."""

    __slots__ = ("kind", "call", "inputs", "fault")

    def __init__(self, kind, call, inputs, fault=None):
        self.kind = kind
        self.call = call
        self.inputs = inputs
        self.fault = fault


def package_env():
    """Environment for a child interpreter that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Rounds:
    """Bookkeeping every workload shares: the seeded generator, accuracy
    records, and the first round, drawn during set-up and measured first.
    Subclasses define ``next_round``, ``setup``, ``check`` and ``finish``."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.acc = Accuracy()
        self.flux_err_max = 0.0
        self.tracer = None
        self._pending = None
        self._R = None

    @property
    def R(self):
        """The reference module, imported on first use, after set-up."""
        if self._R is None:
            import reference

            self._R = reference
        return self._R

    def stratified(self, n, lo, hi):
        """n draws, one uniform in each of n equal strata of [lo, hi], in order."""
        return [lo + (hi - lo) * (i + self.rng.random()) / n for i in range(n)]

    def log_uniform(self, lo, hi):
        return math.exp(self.rng.uniform(math.log(lo), math.log(hi)))

    def take_round(self):
        if self._pending is not None:
            ops, self._pending = self._pending, None
            return ops
        return self.next_round()


class Accuracy:
    """Largest relative errors seen against the references in one run."""

    def __init__(self):
        self.worst = {}

    def close(self, what, got, ref, tol, key=None):
        """Raise CheckFailure unless |got - ref| <= tol |ref|; record the
        error under ``key`` when given."""
        err = abs(got - ref) / abs(ref) if ref != 0 else abs(got)
        if not err <= tol:
            raise CheckFailure(
                f"{what}: got {got!r}, reference {float(ref)!r}, "
                f"relative error {float(err):.3g} > {tol:g}"
            )
        if key:
            self.worst[key] = max(self.worst.get(key, 0.0), float(err))
        return err


def check_report(acc, tol, label, problem, report, ref, ratio_ref, p_t_ref, R, M=math):
    """Compare a resolved problem and its TimesReport with reference values.

    ``ref`` holds x_left, x_right, phi, tau_c (and phase, dwell when the
    report has them); ``ratio_ref`` is e^{-2 phi}/p_t. phi and tau_c must
    agree to ``tol``. An error of ``tol`` in phi moves p_t, the ETT and 1/kBT
    by up to about 2 phi tol, hence their band 10 tol (1 + phi). The ETT and
    1/kBT pass through B(phi), which vanishes at PHI_STAR, so they are
    compared against their size without that factor.
    """
    acc.close(f"{label} x_left", problem.x_left, ref["x_left"], 1e-9)
    acc.close(f"{label} x_right", problem.x_right, ref["x_right"], 1e-9)
    acc.close(f"{label} phi", report.phi, ref["phi"], tol, "phi")
    acc.close(f"{label} tau_c", report.tau_c, ref["tau_c"], tol, "tau_c")
    phi, tau = ref["phi"], ref["tau_c"]
    band = 10 * tol * (1 + float(phi))
    acc.close(f"{label} p_t_used", report.p_t_used, p_t_ref, band)
    b = R.bracket(M, phi)
    scale = tau * ratio_ref * (1 + abs(b)) / (2 * M.pi)
    ett_ref = R.ett(M, tau, phi, ratio_ref)
    if not abs(report.ett - ett_ref) <= band * scale:
        raise CheckFailure(f"{label} ett: got {report.ett!r}, reference {float(ett_ref)!r}")
    inv_ref = R.inverse_kbt(M, tau, phi)
    inv = 1.0 / report.kBT
    if not abs(inv - inv_ref) <= band * 2 * tau * M.exp(-2 * phi) * (1 + abs(b)):
        raise CheckFailure(f"{label} kBT: got {report.kBT!r}, reference {float(1 / inv_ref)!r}")
    if abs(phi - R.PHI_STAR) > 1e-6:
        above = bool(phi > R.PHI_STAR)
        if report.positivity_flag != above or (report.ett > 0) != above:
            raise CheckFailure(
                f"{label}: ETT sign {report.ett!r} and flag {report.positivity_flag} "
                f"disagree with phi = {float(phi)!r} vs PHI_STAR"
            )
    if "phase" in ref:
        acc.close(f"{label} phase time", report.phase_time, ref["phase"], 1e-9)
        acc.close(f"{label} dwell time", report.dwell_time, ref["dwell"], 1e-9)
    elif report.phase_time is not None or report.dwell_time is not None:
        raise CheckFailure(f"{label}: phase/dwell reported for a non-rectangular barrier")


def check_csv(rows, text):
    """write_csv output must round-trip every field of every row."""
    lines = text.splitlines()
    names = lines[0].split(",")
    if len(lines) != len(rows) + 1:
        raise CheckFailure(f"CSV has {len(lines) - 1} rows for {len(rows)} results")
    for row, line in zip(rows, lines[1:]):
        for name, cell in zip(names, line.split(",")):
            value = getattr(row, name)
            if isinstance(value, bool):
                ok = cell == ("1" if value else "0")
            elif isinstance(value, float):
                ok = float(cell) == value or (math.isnan(value) and cell == "nan")
            else:
                ok = cell == str(value)
            if not ok:
                raise CheckFailure(f"CSV cell {name}={cell!r} does not round-trip {value!r}")


def check_helium_points(acc, R, label, model, fields, got):
    """Helium results against the float reference. ``got`` holds, per field,
    (x_L or None, x_R or None, width, phi or None, tau_c_as, ett_as)."""
    table = R.laser_coulomb_batch(fields, model)
    for field, row, g in zip(fields, table, got):
        x_l, x_r, phi, tau = map(float, row)
        name = f"{label} {model} F={field!r}"
        if g[0] is not None:
            acc.close(f"{name} x_L", g[0], x_l, 1e-9)
            acc.close(f"{name} x_R", g[1], x_r, 1e-9)
        acc.close(f"{name} width", g[2], x_r - x_l, 1e-8)
        if g[3] is not None:
            acc.close(f"{name} phi", g[3], phi, 1e-9, "phi")
        # attosecond values carry the package's unit constant, which differs
        # from CODATA 2018 in the 11th digit: no accuracy record
        acc.close(f"{name} tau_c", g[4], tau * R.AU_TIME_AS, 1e-9)
        ett = R.ett(math, tau, phi, R.wkb(math, phi)[0]) * R.AU_TIME_AS
        acc.close(f"{name} ett", g[5], ett, 1e-8)
        if not 0 < g[5] < g[4]:
            raise CheckFailure(f"{name}: ETT {g[5]!r} as is not in (0, tau_c)")


def check_table1(acc, R, rows):
    """Rows (model, field, x_L, x_R, tau_c_as, ett_as): the published Table 1
    rows in order, each inside the paper's bands and equal to the reference."""
    if [row[:2] for row in rows] != list(R.PAPER_TABLE1):
        raise CheckFailure(f"table1: unexpected rows {[row[:2] for row in rows]}")
    root_band, tau_band, ett_band, wide_band = R.TABLE1_BANDS
    for model, field, x_l, x_r, tau_as, ett_as in rows:
        ref_x_l, ref_x_r, ref_tau, ref_ett = R.PAPER_TABLE1[(model, field)]
        band = wide_band if (model, field) == R.TABLE1_WIDE_CELL else ett_band
        if not (abs(x_l - ref_x_l) <= root_band and abs(x_r - ref_x_r) <= root_band
                and abs(tau_as - ref_tau) <= tau_band * ref_tau
                and abs(ett_as - ref_ett) <= band * ref_ett):
            raise CheckFailure(f"table1 {model} F={field}: outside the published bands")
        check_helium_points(acc, R, "table1", model, [field],
                            [(x_l, x_r, x_r - x_l, None, tau_as, ett_as)])


def check_et_points(acc, R, rows, count):
    """Electron-transfer rows (delta_e_eV, length_A, tau_c_fs, ett_fs, flag)
    at E = 1 eV against the rectangular closed forms, with ETT < tau_c and
    the 5 fs flag."""
    if len(rows) != count:
        raise CheckFailure(f"et-scan gave {len(rows)} points, expected {count}")
    energy = 1.0 / R.AU_ENERGY_EV
    fs = R.AU_TIME_AS * 1e-3
    for d_e, length, tau_fs, ett_fs, flag in rows:
        ref = R.rectangular(math, energy + d_e / R.AU_ENERGY_EV, length / R.AU_LENGTH_ANGSTROM, energy)
        label = f"et-scan dE={d_e} L={length}"
        acc.close(f"{label} tau_c_fs", tau_fs, ref["tau_c"] * fs, 1e-9)
        acc.close(f"{label} ett_fs", ett_fs, ref["ett"] * fs, 1e-8)
        if flag != (ett_fs >= 5.0) or not ett_fs < tau_fs:
            raise CheckFailure(f"{label}: comparable_flag or ETT < tau_c fails")
