"""In-process workloads: helium field scans, tabulated energy sweeps and the
rectangular oracle.

Each workload is a closed loop of rounds. ``next_round`` draws the round's
inputs from the seeded generator (untimed) and returns its operations; every
round holds the same operations, so a named fault is the same share of every
run. ``check`` compares a finished round with the float reference and
returns, per operation, the named fault it showed or None; anything else
raises ``CheckFailure``. ``finish`` runs the mpmath checks on a sample.

The package is reached only through ``tt.<name>`` lookups at call time, so a
tracer that rebinds the package's functions sees every call.
"""

import functools
import io
import math
import resource
import time

import numpy as np

import tunneltimes as tt
from checks import (
    CheckFailure,
    Op,
    Rounds,
    check_csv,
    check_et_points,
    check_helium_points,
    check_report,
    check_table1,
)

HE_ENERGY = -0.904


def _solve(barrier, energy, quad_tol):
    problem = tt.resolve_problem(barrier, energy)
    return problem, tt.times_report(problem, quad_tol)


def _harness_csv(fn, **kwargs):
    rows = fn(**kwargs)
    stream = io.StringIO()
    tt.write_csv(rows, stream)
    return rows, stream.getvalue()


def _fault_of_exception(op, exc):
    """The named fault an exception shows, or CheckFailure."""
    text = str(exc)
    if op.fault == "tabulated-roundoff" and isinstance(exc, tt.QuadratureFailure) \
            and "roundoff error is detected" in text:
        return op.fault
    if op.fault == "thick-barrier-underflow" and isinstance(exc, tt.DomainError) \
            and "transmission probability must be positive" in text:
        return op.fault
    raise CheckFailure(
        f"{op.kind} {op.inputs} raised {type(exc).__name__}: {exc}"
    ) from exc


class Workload(Rounds):
    """An in-process workload, timed by this process's CPU clock."""

    name = ""
    clock = staticmethod(time.process_time)

    def __init__(self, seed):
        super().__init__(seed)
        self.sample = []  # (inputs, outputs) kept for the mpmath tier
        self.first = {}  # harness kind -> CSV text of its first call

    def setup(self):
        """Draw the first round and run a few of its operations untimed."""
        self._pending = self.next_round()
        for op in self.warm_up(self._pending):
            try:
                op.call()
            except (tt.QuadratureFailure, tt.DomainError):
                pass

    def warm_up(self, ops):
        seen, out = set(), []
        for op in ops:
            if op.kind not in seen:
                seen.add(op.kind)
                out.append(op)
        return out

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check_harness(self, kind, rows, text, full_check):
        if kind not in self.first:
            full_check(rows)
            check_csv(rows, text)
            self.first[kind] = text
        elif text != self.first[kind]:
            raise CheckFailure(f"{kind} output changed between identical calls")


class HeFieldScan(Workload):
    """Helium LaserCoulomb barriers at E = -0.904 on fresh seeded fields.

    A round: 48 fields per model (one per stratum of [0.04, 0.11]) for sae,
    kullie and clementi, each resolve_problem + times_report; one he_scan()
    and one run_table1(), each written as CSV; and LaserCoulomb(1e-4, SAE),
    whose p_t underflows (thick-barrier-underflow).
    """

    name = "he-field-scan"
    FIELDS_PER_MODEL = 48
    MODELS = ("sae", "kullie", "clementi")

    def next_round(self):
        ops = []
        for model in self.MODELS:
            zeff = tt.zeff_model(model)
            for field in self.stratified(self.FIELDS_PER_MODEL, 0.04, 0.11):
                barrier = tt.LaserCoulomb(field, zeff)
                call = functools.partial(_solve, barrier, HE_ENERGY, tt.QUAD_TOL_DEFAULT)
                ops.append(Op("solve", call, (model, field)))
        thick = tt.LaserCoulomb(1e-4, tt.zeff_model("sae"))
        tail = [
            Op("harness", functools.partial(_harness_csv, tt.he_scan), "he_scan"),
            Op("harness", functools.partial(_harness_csv, tt.run_table1), "run_table1"),
            Op("solve", functools.partial(_solve, thick, HE_ENERGY, tt.QUAD_TOL_DEFAULT),
               ("sae", 1e-4), fault="thick-barrier-underflow"),
        ]
        self.rng.shuffle(ops)
        return ops + tail

    def check(self, results):
        R = self.R
        faults = [None] * len(results)
        by_model = {}
        for i, (op, out, exc, _) in enumerate(results):
            if exc is not None:
                faults[i] = _fault_of_exception(op, exc)
            elif op.fault is not None:
                self._check_thick(*out)
            elif op.kind == "solve":
                by_model.setdefault(op.inputs[0], []).append(i)
        for model, idx in by_model.items():
            fields = [results[i][0].inputs[1] for i in idx]
            table = R.laser_coulomb_batch(fields, model)
            for i, row in zip(idx, table):
                op, (problem, report) = results[i][0], results[i][1]
                ref = dict(zip(("x_left", "x_right", "phi", "tau_c"), map(float, row)))
                check_report(self.acc, 1e-9, f"{model} F={op.inputs[1]!r}", problem, report,
                             ref, *R.wkb(math, ref["phi"]), R)
                if sum(1 for inputs, _ in self.sample if inputs[0] == model) < 3:
                    self.sample.append((op.inputs, (problem, report, ref)))
        for op, out, exc, _ in results:
            if op.kind == "harness" and exc is None:
                check = self._check_he_scan if op.inputs == "he_scan" else self._check_table1
                self.check_harness(op.inputs, out[0], out[1], check)
        return faults

    def _check_thick(self, problem, report):
        # reached only once LaserCoulomb(1e-4, SAE) stops failing; its
        # 9000 a.u. barrier is beyond the float tier, so mpmath, once a run
        if not hasattr(self, "_thick_ref"):
            s = math.sqrt(0.904 ** 2 - 4 * 1.375 * 1e-4)
            guess = (2 * 1.375 / (0.904 + s), (0.904 + s) / 2e-4)
            self._thick_ref = self.R.laser_coulomb_mp(1e-4, "sae", guess=guess)
        ref = self._thick_ref
        for key, got in (("x_left", problem.x_left), ("x_right", problem.x_right),
                         ("phi", report.phi), ("tau_c", report.tau_c)):
            self.acc.close(f"sae F=1e-4 {key}", got, ref[key], 1e-9)

    def _check_he_scan(self, points):
        grid = np.linspace(0.04, 0.11, 15)
        for model in self.MODELS:
            mine = [p for p in points if p.model == model]
            if [p.field for p in mine] != [float(f) for f in grid]:
                raise CheckFailure(f"he_scan {model}: unexpected field grid")
            for p in mine:
                if not (math.isnan(p.keldysh_gamma) and p.exp_width == 0.904 / p.field
                        and p.true_width < p.exp_width and p.phi > self.R.PHI_STAR_F):
                    raise CheckFailure(f"he_scan {model} F={p.field}: width/phi properties fail")
            check_helium_points(self.acc, self.R, "he_scan", model, [p.field for p in mine],
                                [(None, None, p.true_width, p.phi, p.tau_c_as, p.ett_as)
                                 for p in mine])

    def _check_table1(self, rows):
        check_table1(self.acc, self.R,
                     [(r.model, r.field, r.x_L, r.x_R, r.tau_c_as, r.ett_as) for r in rows])
        self.table1 = rows

    def finish(self):
        """mpmath tier: three fields per model, the Table 1 rows, and
        -dphi/dE = tau_c through the package on the sampled problems."""
        R = self.R
        for (model, field), (problem, report, ref) in self.sample:
            mp_ref = R.laser_coulomb_mp(field, model, guess=(ref["x_left"], ref["x_right"]))
            label = f"mpmath {model} F={field!r}"
            for key, got in (("x_left", problem.x_left), ("x_right", problem.x_right)):
                self.acc.close(f"{label} {key}", got, mp_ref[key], 1e-9)
            self.acc.close(f"{label} phi", report.phi, mp_ref["phi"], 1e-9, "phi")
            self.acc.close(f"{label} tau_c", report.tau_c, mp_ref["tau_c"], 1e-9, "tau_c")
            for key in ("phi", "tau_c"):
                self.acc.close(f"{label} float reference {key}", ref[key], mp_ref[key], 1e-11)
            slope = -tt.dphi_dE(problem)
            self.acc.close(f"{label} -dphi/dE", slope, mp_ref["tau_c"], 1e-4)
        for r in getattr(self, "table1", []):
            mp_ref = R.laser_coulomb_mp(r.field, r.model, guess=(r.x_L, r.x_R))
            self.acc.close(f"mpmath table1 {r.model} {r.field} tau_c",
                           r.tau_c_as, mp_ref["tau_c"] * R.AU_TIME_AS, 1e-9)


class TabulatedEnergySweep(Workload):
    """Sech^2 (Poeschl-Teller) barriers V0 sech^2(x/a) sampled at PCHIP knots.

    A round: three fresh barriers with 200, 500 and 1000 knots on
    [-10a, 10a], V0 and a drawn log-uniform from [0.5, 2], each swept over
    E/V0 = 0.05, 0.10, ..., 0.95 at quad_tol = 1e-8. Whether quad reports
    roundoff (tabulated-roundoff) depends only on the knot count and E/V0,
    since the problem is the same up to scale, so each round has the same
    failures whatever the seed.
    """

    name = "tabulated-energy-sweep"
    KNOTS = (200, 500, 1000)
    SPAN = 10.0
    FRACTIONS = tuple((5 + 5 * i) / 100 for i in range(19))
    QUAD_TOL = 1e-8

    def next_round(self):
        ops = []
        for knots in self.KNOTS:
            v0 = self.log_uniform(0.5, 2.0)
            a = self.log_uniform(0.5, 2.0)
            x = np.linspace(-self.SPAN * a, self.SPAN * a, knots)
            barrier = tt.Tabulated(x, v0 / np.cosh(x / a) ** 2)
            for frac in self.FRACTIONS:
                call = functools.partial(_solve, barrier, frac * v0, self.QUAD_TOL)
                ops.append(Op("solve", call, (knots, v0, a, frac), fault="tabulated-roundoff"))
        return ops

    def warm_up(self, ops):
        return ops[:: len(self.FRACTIONS)]

    def check(self, results):
        R = self.R
        faults = [None] * len(results)
        interp = {}
        for i, (op, out, exc, _) in enumerate(results):
            if exc is not None:
                faults[i] = _fault_of_exception(op, exc)
                continue
            knots, v0, a, frac = op.inputs
            problem, report = out
            energy = frac * v0
            if (knots, v0, a) not in interp:
                interp[(knots, v0, a)] = R.Pchip(*R.sech2_samples(v0, a, knots, self.SPAN))
            x_l, x_r, phi, tau = interp[(knots, v0, a)].wkb(energy)
            ref = {"x_left": x_l, "x_right": x_r, "phi": phi, "tau_c": tau}
            label = f"sech2 n={knots} V0={v0!r} a={a!r} E/V0={frac}"
            check_report(self.acc, 1e-7, label, problem, report, ref, *R.wkb(math, phi), R)
            # the samples describe the analytic barrier to PCHIP accuracy,
            # O(h^2) at worst with h the knot spacing
            exact = R.sech2(math, v0, a, energy)
            tol = 2.0 * (2.0 * self.SPAN / (knots - 1)) ** 2
            for key in ("x_right", "phi", "tau_c"):
                self.acc.close(f"{label} {key} vs closed form", ref[key], exact[key], tol)
            if len(self.sample) < 6:
                self.sample.append((op.inputs, ref))
        return faults

    def finish(self):
        """mpmath tier: the sech^2 closed forms at 40 digits agree with the
        float closed forms the sampled checks used."""
        import mpmath as mp

        R = self.R
        for (knots, v0, a, frac), ref in self.sample:
            exact = R.sech2(mp, mp.mpf(v0), mp.mpf(a), mp.mpf(frac * v0))
            tol = 2.0 * (2.0 * self.SPAN / (knots - 1)) ** 2
            for key in ("x_right", "phi", "tau_c"):
                self.acc.close(f"mpmath sech2 {key}", ref[key], exact[key], tol)


class RectOracle(Workload):
    """Rectangular and triangular barriers through times_report, et_scan,
    and the transfer-matrix oracle.

    A round: 32 Rectangular(v0, L) and 16 Triangular(v0, slope, L) problems
    with v0 uniform in [0.5, 2], E/v0 one per stratum of [0.05, 0.95] and L
    log-uniform in [0.5, 40] (so phi runs from below PHI_STAR to about 80);
    the triangular slope puts the ramp's root at 0.3 to 2 lengths, so both
    full and truncated ramps occur. Then one et_scan() written as CSV,
    pt_numeric at 4096 slices on two of the round's rectangles, and
    pt_numeric(Rectangular(1, 400), 0.5), whose amplitudes overflow
    (oracle-overflow).
    """

    name = "rect-oracle"
    # unequal counts keep the median operation inside one family's cluster
    RECTANGLES, TRIANGLES = 32, 16

    def next_round(self):
        rng = self.rng
        ops, rects = [], []
        for frac in self.stratified(self.RECTANGLES, 0.05, 0.95):
            v0, length = rng.uniform(0.5, 2.0), self.log_uniform(0.5, 40.0)
            rects.append((v0, length, frac * v0))
            call = functools.partial(_solve, tt.Rectangular(v0, length), frac * v0,
                                     tt.QUAD_TOL_DEFAULT)
            ops.append(Op("solve", call, ("rect", v0, length, frac * v0)))
        for frac in self.stratified(self.TRIANGLES, 0.05, 0.95):
            v0, length = rng.uniform(0.5, 2.0), self.log_uniform(0.5, 40.0)
            slope = (1 - frac) * v0 / (length * rng.uniform(0.3, 2.0))
            call = functools.partial(_solve, tt.Triangular(v0, slope, length), frac * v0,
                                     tt.QUAD_TOL_DEFAULT)
            ops.append(Op("solve", call, ("tri", v0, slope, length, frac * v0)))
        tail = [Op("harness", functools.partial(_harness_csv, tt.et_scan), "et_scan")]
        for v0, length, energy in rects[:2]:
            call = functools.partial(tt.pt_numeric, tt.Rectangular(v0, length), energy)
            tail.append(Op("oracle", call, (v0, length, energy)))
        call = functools.partial(tt.pt_numeric, tt.Rectangular(1.0, 400.0), 0.5)
        tail.append(Op("oracle", call, (1.0, 400.0, 0.5), fault="oracle-overflow"))
        rng.shuffle(ops)
        return ops + tail

    def check(self, results):
        R = self.R
        faults = [None] * len(results)
        for i, (op, out, exc, _) in enumerate(results):
            if exc is not None:
                faults[i] = _fault_of_exception(op, exc)
            elif op.kind == "solve":
                problem, report = out
                family, *params = op.inputs
                self._check_solve(math, family, params, problem, report, 1e-9)
                if sum(1 for inputs, _ in self.sample if inputs[0] == family) < 4:
                    self.sample.append((op.inputs, (problem, report)))
            elif op.kind == "oracle":
                faults[i] = self._check_oracle(op, out)
            else:
                self.check_harness(op.inputs, out[0], out[1], self._check_et_scan)
        return faults

    def _check_solve(self, M, family, params, problem, report, tol):
        R = self.R
        if family == "rect":
            ref = R.rectangular(M, *params)
            ratio, p_t = ref["ratio"], ref["p_t"]
        else:
            ref = R.triangular(M, *params)
            ratio, p_t = R.wkb(M, ref["phi"])
        check_report(self.acc, tol, f"{family} {params}", problem, report, ref, ratio, p_t, R, M)

    def _check_oracle(self, op, result):
        v0, length, energy = op.inputs
        flux = abs(result.p_t + result.p_r - 1.0)
        if not (math.isfinite(result.p_t) and math.isfinite(result.p_r) and flux <= 1e-9):
            if op.fault == "oracle-overflow":
                return op.fault
            raise CheckFailure(f"pt_numeric{op.inputs}: p_t={result.p_t!r} p_r={result.p_r!r}")
        self.flux_err_max = max(self.flux_err_max, flux)
        ref = self.R.rectangular(math, v0, length, energy)["p_t"]
        if ref > 1e-300:
            self.acc.close(f"pt_numeric{op.inputs} p_t", result.p_t, ref, 1e-6)
        if result.grid_points != 4096:
            raise CheckFailure(f"pt_numeric used {result.grid_points} slices, not the default 4096")
        return None

    def _check_et_scan(self, points):
        check_et_points(self.acc, self.R, [(p.delta_e_eff, p.length_angstrom, p.tau_c_fs,
                                            p.ett_fs, p.comparable_flag) for p in points], 5 * 26)

    def finish(self):
        """mpmath tier on the sampled problems: phi, tau_c, p_t, ETT and the
        rectangular phase and dwell times at 40 digits."""
        import mpmath as mp

        for (family, *params), (problem, report) in self.sample:
            args = [mp.mpf(p) for p in params]
            self._check_solve(mp, family, args, problem, report, 1e-9)


IN_PROCESS = {w.name: w for w in (HeFieldScan, TabulatedEnergySweep, RectOracle)}
