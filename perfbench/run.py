"""Benchmark of tunneltimes: time to a certified result, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: he-field-scan, tabulated-energy-sweep, rect-oracle (in process)
and cli-cold (fresh CLI processes). A run repeats whole rounds of the
workload's operations until they have used ``--seconds`` of CPU, checks
every output against the independent reference in ``reference.py``, and
prints one JSON object as its last line:

* ``--trace 0``: the end-to-end metrics (setup_s, ops_per_s, op_ms_p50,
  peak_rss_mb), measured with tracing off;
* ``--trace 1``: the per-layer metrics, from a run whose first half is
  untraced and second half traced, so the tracing overhead is measured too.

Times are CPU times rescaled by a speed gauge (see GAUGE_REF_S). Lines
before the result give per-kind latencies, named faults and accuracy.
See README.md in this directory for the metrics and what each should move.
"""

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# latencies are kept as fixed-size uniform samples, so that memory, and with
# it peak_rss_mb, does not grow with the number of operations a run does
KEPT = 10_000
# The host runs this machine's CPU at speeds up to 1.7x apart, in spells of
# seconds. Every timing is rescaled by a gauge: the CPU time of a fixed
# pure-Python loop, measured at least every GAUGE_EVERY_S around the
# operations; GAUGE_REF_S is that loop's time in the machine's fastest spell.
GAUGE_STEPS = 4000
GAUGE_REF_S = 0.55e-3
GAUGE_EVERY_S = 0.02
WORKLOADS = ("he-field-scan", "tabulated-energy-sweep", "rect-oracle", "cli-cold")


def cpu_seconds():
    """CPU time of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def gauge():
    """CPU seconds of a fixed pure-Python loop: the machine's current speed."""
    start = time.process_time()
    total = 0.0
    for i in range(GAUGE_STEPS):
        total += math.sqrt(i * 0.5) * math.sin(i)
    return time.process_time() - start


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))]


def make_workload(name, seed, workdir):
    """Import the package (inside the caller's set-up timer) and build the workload."""
    if name == "cli-cold":
        import coldcli

        return coldcli.CliCold(seed, workdir)
    import workloads

    return workloads.IN_PROCESS[name](seed)


class Reservoir:
    """Uniform sample of at most KEPT of the values added (Vitter's algorithm R)."""

    def __init__(self):
        self.values = []
        self.seen = 0
        self._rng = random.Random(0)

    def add(self, value):
        self.seen += 1
        if len(self.values) < KEPT:
            self.values.append(value)
        else:
            i = self._rng.randrange(self.seen)
            if i < KEPT:
                self.values[i] = value


class Phase:
    """Outcome of one measured stretch of rounds; times are gauge-scaled."""

    def __init__(self):
        self.durations = {}  # kind -> Reservoir of successful op seconds
        self.kept = Reservoir()  # successful op seconds, every kind
        self.successes = 0
        self.faults = {}
        self.attempted = 0
        self.cpu = 0.0  # unscaled, to bound the run's length
        self.busy = 0.0
        self.wall = 0.0


def measure(workload, seconds, tracer=None):
    """Run whole rounds until the operations have taken ``seconds`` of CPU."""
    phase = Phase()
    clock = workload.clock
    last = gauge()
    while phase.cpu < seconds:
        ops = workload.take_round()
        results, scales = [], []
        if tracer is not None:
            tracer.enabled = True
        wall = checked = time.perf_counter()
        for op in ops:
            start = clock()
            try:
                out, exc = op.call(), None
            except Exception as err:  # classified against the named faults below
                out, exc = None, err
            results.append((op, out, exc, clock() - start))
            if time.perf_counter() - checked >= GAUGE_EVERY_S or len(results) == len(ops):
                now = gauge()
                scale = 2.0 * GAUGE_REF_S / (last + now)
                scales += [scale] * (len(results) - len(scales))
                last, checked = now, time.perf_counter()
        phase.wall += time.perf_counter() - wall
        if tracer is not None:
            tracer.enabled = False
        faults = workload.check(results)
        for (op, _, _, took), scale, fault in zip(results, scales, faults):
            phase.attempted += 1
            phase.cpu += took
            took *= scale
            phase.busy += took
            if fault is None:
                phase.successes += 1
                phase.durations.setdefault(op.kind, Reservoir()).add(took)
                phase.kept.add(took)
            else:
                phase.faults[fault] = phase.faults.get(fault, 0) + 1
    return phase


def setup_child(args):
    """Set-up time of one fresh interpreter running this workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def import_breakdown():
    """tunneltimes import time and the part of it spent in scipy modules,
    from ``python -X importtime`` in fresh interpreters (medians, ms)."""
    from checks import package_env

    total, scipy = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tunneltimes"],
                              capture_output=True, text=True, env=package_env(), cwd=ROOT,
                              timeout=120)
        entries = []
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line[13:]:
                continue
            _, cumulative, name = line[12:].split("|")
            if not cumulative.strip().isdigit():
                continue
            depth = (len(name) - len(name.lstrip())) // 2
            entries.append((depth, int(cumulative), name.strip()))
        # importtime lists a module after everything it imports; walking the
        # list backwards visits each parent before its children
        stack, in_scipy = [], 0
        for depth, cumulative, name in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not inside:
                in_scipy += cumulative
            stack.append((depth, inside or is_scipy))
            if name == "tunneltimes":
                total.append(cumulative / 1e3)
        scipy.append(in_scipy / 1e3)
    return statistics.median(total), statistics.median(scipy)


def summarize(phase):
    """Per-kind latency summary over the kept samples: count, p50 and, from
    100 samples, p90 (ms)."""
    out = {}
    for kind, sample in sorted(phase.durations.items()):
        values = sample.values
        row = {"count": sample.seen, "p50_ms": 1e3 * statistics.median(values)}
        if sample.seen >= 100:
            row["p90_ms"] = 1e3 * percentile(values, 90)
        out[kind] = row
    return out


def run(args):
    if not (SRC / "tunneltimes" / "__init__.py").is_file():
        print(f"error: no tunneltimes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        before = gauge()
        start = cpu_seconds()
        workload = make_workload(args.workload, args.seed, workdir)
        workload.setup()
        own_setup = (cpu_seconds() - start) * 2.0 * GAUGE_REF_S / (before + gauge())
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        return measure_and_report(args, workload, own_setup)


def measure_and_report(args, workload, own_setup):
    from checks import CheckFailure

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    phases = []
    try:
        if args.trace:
            from spans import Tracer, layer_metrics

            plain = measure(workload, args.seconds / 2)
            tracer = Tracer()
            workload.tracer = tracer
            if args.workload != "cli-cold":
                tracer.install()
            traced = measure(workload, args.seconds / 2, tracer)
            tracer.uninstall()
            workload.tracer = None
            phases = [plain, traced]
        else:
            phases = [measure(workload, args.seconds)]
        rss_mb = workload.peak_rss_mb()
        workload.finish()
    except CheckFailure as err:
        print(f"check failed: {err}", file=sys.stderr)
        attempted = sum(p.attempted for p in phases) or 1
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 0, "metrics": {}}))
        return 1

    attempted = sum(p.attempted for p in phases)
    faults = {}
    for p in phases:
        for name, n in p.faults.items():
            faults[name] = faults.get(name, 0) + n
    print(f"attempted {attempted} failed {sum(faults.values())} faults {json.dumps(faults)}")
    print("accuracy " + json.dumps({f"{k}_relerr_max": v for k, v in workload.acc.worst.items()}
                                   | {"oracle_flux_err_max": workload.flux_err_max}))

    if args.trace:
        plain, traced = phases
        common, extras = layer_metrics(tracer.totals, traced.attempted)
        missing = [name for name, (value, _) in common.items() if value is None]
        if missing:
            raise RuntimeError(f"traced run never called {missing}")
        import_ms, scipy_ms = import_breakdown()
        common["cli.import_ms"] = (import_ms, "ms")
        common["cli.import_scipy_ms"] = (scipy_ms, "ms")
        common["wkb.phi_relerr_max"] = (workload.acc.worst.get("phi", 0.0), "1")
        common["wkb.tau_c_relerr_max"] = (workload.acc.worst.get("tau_c", 0.0), "1")
        per_op = lambda p: p.busy / p.attempted
        common["trace.overhead_pct"] = (100.0 * (per_op(traced) / per_op(plain) - 1.0), "%")
        extras["transmission.oracle_flux_err_max"] = (workload.flux_err_max, "1")
        print("layer extras " + json.dumps({k: v for k, (v, _) in extras.items() if v is not None}))
        print(f"spans stored {len(tracer.spans)} dropped {tracer.dropped}")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        metrics = common
    else:
        (phase,) = phases
        setups = [own_setup] + [setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
        print("kinds " + json.dumps(summarize(phase)))
        print(f"cpu_s {phase.cpu} wall_s {phase.wall} scaled_s {phase.busy}")
        print("setup samples " + json.dumps(setups))
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (phase.successes / phase.busy, "1/s"),
            "op_ms_p50": (1e3 * statistics.median(phase.kept.values), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": sum(faults.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
