"""Span tracing around the public functions of tunneltimes.

``Tracer.install`` replaces each traced function, in every loaded
``tunneltimes`` module that refers to it, with a wrapper defined here, so
calls the package makes to itself are traced as well as the benchmark's
own. The package source is not touched, and ``uninstall`` restores the
originals. Spans (name, start, end, parent) are kept in memory and written
out when the run ends; ``eval_potential``, called thousands of times per
integral, is only counted and timed, not stored span by span.
"""

import importlib
import sys
from time import perf_counter

# (module, function) pairs; the module is also the layer name
TRACED = (
    ("potentials", "eval_potential"),
    ("potentials", "barrier_peak"),
    ("turning", "resolve_problem"),
    ("wkb", "action_phi"),
    ("wkb", "classical_time"),
    ("wkb", "compute_wkb"),
    ("transmission", "pt_wkb"),
    ("transmission", "pt_rectangular_exact"),
    ("transmission", "pt_numeric"),
    ("times", "times_report"),
    ("times", "ett_rectangular"),
    ("times", "ett_he"),
    ("experiments", "run_table1"),
    ("experiments", "he_scan"),
    ("experiments", "et_scan"),
    ("experiments", "write_csv"),
    ("cli", "main"),
)
UNSTORED = {"eval_potential"}
MAX_STORED_SPANS = 100_000


class Tracer:
    """Collects spans and per-function totals while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, start, end, parent index or -1]
        self.dropped = 0
        # name -> [calls, total seconds, self seconds, units]
        self.totals = {name: [0, 0.0, 0.0, 0] for _, name in TRACED}
        self._stack = []  # [index of the enclosing stored span, child seconds]
        self._patched = []

    def _wrap(self, name, fn):
        totals = self.totals[name]
        stack = self._stack
        spans = self.spans
        store = name not in UNSTORED
        counts_rows = name == "write_csv"

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            index = -1
            start = perf_counter()
            if store:
                if len(spans) < MAX_STORED_SPANS:
                    index = len(spans)
                    spans.append([name, start, start, parent])
                else:
                    self.dropped += 1
            frame = [index if index >= 0 else parent, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                totals[0] += 1
                totals[1] += took
                totals[2] += took - frame[1]
                if counts_rows:
                    totals[3] += len(args[0])
                if index >= 0:
                    spans[index][2] = end

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function wherever a tunneltimes module binds it."""
        originals = {}
        for module, name in TRACED:
            mod = importlib.import_module(f"tunneltimes.{module}")
            originals[id(getattr(mod, name))] = (name, getattr(mod, name))
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tunneltimes" or mod_name.startswith("tunneltimes.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is originals[id(value)][1]:
                    setattr(mod, attr, wrappers[id(value)])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def merge(self, totals, spans):
        """Add the totals and spans another process recorded."""
        for name, row in totals.items():
            mine = self.totals[name]
            for i, v in enumerate(row):
                mine[i] += v
        offset = len(self.spans)
        for name, start, end, parent in spans[: MAX_STORED_SPANS - offset]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        self.dropped += max(0, len(spans) - (MAX_STORED_SPANS - offset))

    def write(self, path):
        """Write the stored spans as CSV: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                out.write(f"{name},{start:.9f},{end:.9f},{parent}\n")


def layer_metrics(totals, ops):
    """Per-layer metrics from per-function totals over ``ops`` operations.

    Returns (metrics every workload exercises, layer-specific extras); an
    extra is None when its layer was not called in the run.
    """

    def mean(names, scale):
        calls = sum(totals[n][0] for n in names)
        return scale * sum(totals[n][1] for n in names) / calls if calls else None

    def self_mean(name, scale):
        calls, _, self_s, _ = totals[name]
        return scale * self_s / calls if calls else None

    common = {
        "potentials.eval_us": (mean(["eval_potential"], 1e6), "us"),
        "potentials.evals_per_op": (totals["eval_potential"][0] / ops, "count"),
        "turning.resolve_us": (mean(["resolve_problem"], 1e6), "us"),
        "turning.calls": (totals["resolve_problem"][0], "count"),
        "turning.busy_s": (totals["resolve_problem"][1], "s"),
        "wkb.phi_us": (mean(["action_phi"], 1e6), "us"),
        "wkb.tau_c_us": (mean(["classical_time"], 1e6), "us"),
        "wkb.busy_s": (totals["action_phi"][1] + totals["classical_time"][1], "s"),
        "transmission.pt_us": (mean(["pt_wkb", "pt_rectangular_exact"], 1e6), "us"),
        "times.report_us": (mean(["times_report"], 1e6), "us"),
        "times.report_self_us": (self_mean("times_report", 1e6), "us"),
    }
    rows = totals["write_csv"][3]
    extras = {
        "potentials.peak_us": (mean(["barrier_peak"], 1e6), "us"),
        "transmission.oracle_ms": (mean(["pt_numeric"], 1e3), "ms"),
        "times.closed_form_us": (mean(["ett_rectangular", "ett_he"], 1e6), "us"),
        "experiments.table1_ms": (mean(["run_table1"], 1e3), "ms"),
        "experiments.he_scan_ms": (mean(["he_scan"], 1e3), "ms"),
        "experiments.et_scan_ms": (mean(["et_scan"], 1e3), "ms"),
        "experiments.write_csv_us": (1e6 * totals["write_csv"][1] / rows if rows else None, "us"),
        "cli.main_ms": (mean(["main"], 1e3), "ms"),
    }
    return common, extras
