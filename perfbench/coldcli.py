"""cli-cold: fresh ``tunneltimes`` processes, one at a time.

A round runs seven interpreters in turn, each started the way the
``tunneltimes`` console script starts (``from tunneltimes.cli import main``):
``times`` for a rectangular, a triangular, a helium laser-Coulomb and a
tabulated barrier (the sample file is written during set-up), ``table1``, a
short ``et-scan``, and one interpreter that only imports the package and
reports how long that took. Inputs are drawn from the seed each round.
Every process must exit 0 and print values that match the reference.

This module does not import tunneltimes: the parent only starts processes.
"""

import json
import math
import os
import resource
import subprocess
import sys
import types
from pathlib import Path

from checks import (
    CheckFailure,
    Op,
    Rounds,
    check_et_points,
    check_report,
    check_table1,
    package_env,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_MAIN = "import sys; from tunneltimes.cli import main; sys.exit(main())"
IMPORT_ONLY = (
    "import time; t = time.perf_counter(); import tunneltimes; "
    "print(time.perf_counter() - t)"
)
TABULATED_KNOTS = 200
TABULATED_SPAN = 10.0
TABULATED_FRACTION = 0.5
MODELS = ("sae", "kullie", "clementi")


def parse_kv(text):
    """The ``key value`` lines printed by ``tunneltimes times``."""
    out = {}
    for line in text.splitlines():
        key, value = line.split()
        out[key] = value == "true" if value in ("true", "false") else (
            value if key == "barrier" else float(value))
    return out


def parse_csv(text):
    lines = text.strip().splitlines()
    names = lines[0].split(",")
    return [dict(zip(names, line.split(","))) for line in lines[1:]]


def children_cpu_seconds():
    """CPU time of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class CliCold(Rounds):
    name = "cli-cold"
    clock = staticmethod(children_cpu_seconds)

    def __init__(self, seed, workdir):
        super().__init__(seed)
        self.workdir = Path(workdir)
        self.env = package_env()
        self._traces = 0

    def setup(self):
        """Write the tabulated sample file, draw the first round and run one
        CLI process untimed so the interpreter and package files are cached."""
        v0 = self.log_uniform(0.5, 2.0)
        a = self.log_uniform(0.5, 2.0)
        self.tabulated = (v0, a)
        self.table_file = self.workdir / "sech2.txt"
        with open(self.table_file, "w", encoding="utf-8") as out:
            out.write("# x V\n")
            for i in range(TABULATED_KNOTS):
                x = -TABULATED_SPAN * a + 2 * TABULATED_SPAN * a * i / (TABULATED_KNOTS - 1)
                out.write(f"{x!r} {v0 / math.cosh(x / a) ** 2!r}\n")
        self._pending = self.next_round()
        self._pending[0].call()

    def next_round(self):
        rng = self.rng
        ops = []
        v0, frac, length = rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.95), self.log_uniform(0.5, 40.0)
        ops.append(self._cli(("rect", v0, length, frac * v0), "times", "--barrier", "rect",
                             "--v0", repr(v0), "--length", repr(length),
                             "--energy", repr(frac * v0)))
        v0, frac, length = rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.95), self.log_uniform(0.5, 40.0)
        slope = (1 - frac) * v0 / (length * rng.uniform(0.3, 2.0))
        ops.append(self._cli(("tri", v0, slope, length, frac * v0), "times", "--barrier",
                             "triangular", "--v0", repr(v0), "--slope", repr(slope),
                             "--length", repr(length), "--energy", repr(frac * v0)))
        field, model = rng.uniform(0.04, 0.11), rng.choice(MODELS)
        ops.append(self._cli(("laser", field, model), "times", "--barrier", "laser-coulomb",
                             "--field", repr(field), "--zeff", model, "--energy", "-0.904"))
        v0, a = self.tabulated
        ops.append(self._cli(("tabulated",), "times", "--barrier", "tabulated", "--file",
                             str(self.table_file), "--energy", repr(TABULATED_FRACTION * v0),
                             "--quad-tol", "1e-8"))
        ops.append(self._cli(("table1",), "table1"))
        ops.append(self._cli(("et-scan",), "et-scan", "--length-steps", "6"))
        ops.append(Op("import", lambda: self._spawn(["-c", IMPORT_ONLY]), ("import",)))
        return ops

    def _cli(self, inputs, *argv):
        return Op("cli", lambda: self._run_cli(list(argv)), inputs)

    def _run_cli(self, argv):
        if self.tracer is None:
            return self._spawn(["-c", CLI_MAIN] + argv)
        self._traces += 1
        path = self.workdir / f"trace{self._traces}.json"
        return self._spawn([str(HERE / "clichild.py"), str(path)] + argv) + (path,)

    def _spawn(self, args):
        done = subprocess.run([sys.executable] + args, capture_output=True, text=True,
                              env=self.env, cwd=ROOT, timeout=120)
        return done.returncode, done.stdout, done.stderr

    def peak_rss_mb(self):
        """Largest resident set of any process started so far (the CLI children)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self, results):
        for op, out, exc, _ in results:
            if exc is not None:
                raise CheckFailure(f"{op.inputs}: {type(exc).__name__}: {exc}") from exc
            code, stdout, stderr = out[:3]
            if code != 0:
                raise CheckFailure(f"{op.inputs}: exit status {code}: {stderr.strip()[-300:]}")
            if len(out) > 3:
                with open(out[3], encoding="utf-8") as f:
                    dump = json.load(f)
                self.tracer.merge(dump["totals"], dump["spans"])
                os.unlink(out[3])
            kind = op.inputs[0]
            if kind == "import":
                if not 0 < float(stdout) < 60:
                    raise CheckFailure(f"import-only process printed {stdout!r}")
            elif kind == "table1":
                self._check_table1(stdout, stderr)
            elif kind == "et-scan":
                self._check_et_scan(stdout)
            else:
                self._check_times(op.inputs, parse_kv(stdout))
        return [None] * len(results)

    def _check_times(self, inputs, kv):
        import mpmath as mp

        R = self.R
        kind, *params = inputs
        if kind == "rect":
            ref = R.rectangular(mp, *map(mp.mpf, params))
            ratio, p_t = ref["ratio"], ref["p_t"]
        elif kind == "tri":
            ref = R.triangular(mp, *map(mp.mpf, params))
            ratio, p_t = R.wkb(mp, ref["phi"])
        elif kind == "laser":
            field, model = params
            ref = R.laser_coulomb_mp(field, model)
            ratio, p_t = R.wkb(mp, ref["phi"])
        else:
            v0, a = self.tabulated
            energy = TABULATED_FRACTION * v0
            x_l, x_r, phi, tau = R.Pchip(*R.sech2_samples(v0, a, TABULATED_KNOTS, TABULATED_SPAN)).wkb(energy)
            ref = {"x_left": x_l, "x_right": x_r, "phi": phi, "tau_c": tau}
            ratio, p_t = R.wkb(math, phi)
        problem = types.SimpleNamespace(x_left=kv["x_left_au"], x_right=kv["x_right_au"])
        report = types.SimpleNamespace(
            phi=kv["phi"], tau_c=kv["tau_c_au"], p_t_used=kv["p_t_used"], ett=kv["ett_au"],
            kBT=kv["kBT_au"], positivity_flag=kv["positivity_flag"],
            phase_time=kv.get("phase_time_au"), dwell_time=kv.get("dwell_time_au"))
        # 12 significant digits are printed
        tol = 1e-7 if kind == "tabulated" else 1e-9
        check_report(self.acc, tol, f"cli times {inputs}", problem, report, ref, ratio, p_t, R,
                     math if kind == "tabulated" else mp)

    def _check_table1(self, stdout, stderr):
        if "table1: all cells within tolerance" not in stderr:
            raise CheckFailure(f"table1 diff reports a miss: {stderr.strip()[-300:]}")
        rows = [(r["model"], float(r["field"]), *(float(r[k]) for k in ("x_L", "x_R", "tau_c_as", "ett_as")))
                for r in parse_csv(stdout)]
        check_table1(self.acc, self.R, rows)

    def _check_et_scan(self, stdout):
        rows = [(*(float(r[k]) for k in ("delta_e_eff", "length_angstrom", "tau_c_fs", "ett_fs")),
                 r["comparable_flag"] == "1") for r in parse_csv(stdout)]
        check_et_points(self.acc, self.R, rows, 5 * 6)

    def finish(self):
        """Every output was already checked against mpmath or the float tier."""
