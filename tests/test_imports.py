"""No path of the package loads scipy: no scipy module enters ``sys.modules``.

One fresh interpreter imports the package, then runs ``cli.main`` on each
command in turn and reports which scipy modules are loaded after each step.
The steps cover every barrier family, the three harnesses and a tabulated run
whose 16- and 32-node rules disagree, so that its panels are bisected. A last
step imports ``scipy.integrate`` itself, which shows that the probe does see
scipy once something imports it. A second interpreter runs the same steps
with an import hook that refuses every scipy module: each command still
succeeds, and only the last step fails to import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tunneltimes

STEPS = {
    "rect": ["times", "--barrier", "rect", "--v0", "1", "--length", "2", "--energy", "0.5"],
    "triangular": ["times", "--barrier", "triangular", "--v0", "1", "--slope", "0.25",
                   "--length", "4", "--energy", "0.5"],
    "laser-kullie": ["times", "--barrier", "laser-coulomb", "--field", "0.05",
                     "--zeff", "kullie", "--energy", "-0.904"],
    "et-scan": ["et-scan", "--length-steps", "6"],
    "laser-sae": ["times", "--barrier", "laser-coulomb", "--field", "0.05",
                  "--zeff", "sae", "--energy", "-0.904"],
    "table1": ["table1"],
    "he-scan": ["he-scan", "--steps", "3"],
}

PROBE = """
import contextlib, io, json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} refused")

if sys.argv[2] == "refuse":
    sys.meta_path.insert(0, RefuseScipy())

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {}
import tunneltimes
report["import"] = {"status": 0, "scipy": scipy_loaded()}
from tunneltimes.cli import main
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    report[name] = {"status": status, "scipy": scipy_loaded()}
try:
    import scipy.integrate
    status = 0
except ImportError:
    status = 1
report["control"] = {"status": status, "scipy": scipy_loaded()}
print(json.dumps(report))
"""


def write_samples(path, xs, vs):
    np.savetxt(path, np.column_stack([xs, vs]))
    return str(path)


def run_probe(steps, mode):
    src = str(Path(tunneltimes.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(steps), mode],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def steps(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    xs = np.linspace(-10.0, 10.0, 200)
    sech2 = write_samples(tmp / "sech2.dat", xs, 1.0 / np.cosh(xs) ** 2)
    # two humps on 17 knots whose middle dip, a knot, sits 1e-3 above E:
    # the panel rule's first error estimate misses the default quad_tol by a
    # factor of about 5e4, and bisecting its panels certifies the integrals
    xs = np.linspace(-8.0, 8.0, 17)
    vs = np.exp(-((xs - 2.0) ** 2)) + np.exp(-((xs + 2.0) ** 2))
    humps = write_samples(tmp / "humps.dat", xs, vs)
    return dict(
        STEPS,
        tabulated=["times", "--barrier", "tabulated", "--file", sech2, "--energy", "0.5"],
        humps=["times", "--barrier", "tabulated", "--file", humps,
               "--energy", repr(float(vs[8]) - 1e-3)],
    )


@pytest.fixture(scope="module")
def report(steps):
    return run_probe(steps, "allow")


@pytest.fixture(scope="module")
def refused(steps):
    return run_probe(steps, "refuse")


ALL_STEPS = ["import", *STEPS, "tabulated", "humps"]


@pytest.mark.parametrize("step", ALL_STEPS)
def test_closed_form_paths_do_not_load_scipy(report, step):
    assert report[step] == {"status": 0, "scipy": []}


def test_probe_sees_a_scipy_import(report):
    assert report["control"]["status"] == 0
    assert "scipy.integrate" in report["control"]["scipy"]


@pytest.mark.parametrize("step", ALL_STEPS)
def test_every_step_runs_with_scipy_refused(refused, step):
    assert refused[step] == {"status": 0, "scipy": []}


def test_refusing_hook_blocks_scipy(refused):
    assert refused["control"] == {"status": 1, "scipy": []}
