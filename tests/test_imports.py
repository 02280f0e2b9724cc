"""Every path but the adaptive-quadrature fallback loads numpy only: scipy
stays out of ``sys.modules``.

One fresh interpreter imports the package, then runs ``cli.main`` on each
command in turn and reports which scipy modules are loaded after each step.
The last step is a tabulated run whose panel rule cannot certify the
integrals, so that they fall back to adaptive quadrature, the one place the
package imports scipy; it shows that the probe does see scipy once something
imports it, and that the fallback loads ``scipy.integrate`` alone.
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
print(json.dumps(report))
"""


def write_samples(path, xs, vs):
    np.savetxt(path, np.column_stack([xs, vs]))
    return str(path)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    xs = np.linspace(-10.0, 10.0, 200)
    sech2 = write_samples(tmp / "sech2.dat", xs, 1.0 / np.cosh(xs) ** 2)
    # two humps on 17 knots whose middle dip, a knot, sits 1e-3 above E:
    # the panel rule's error estimate misses the default quad_tol by a
    # factor of about 5e4, and adaptive quadrature certifies the integrals
    xs = np.linspace(-8.0, 8.0, 17)
    vs = np.exp(-((xs - 2.0) ** 2)) + np.exp(-((xs + 2.0) ** 2))
    humps = write_samples(tmp / "humps.dat", xs, vs)
    steps = dict(
        STEPS,
        tabulated=["times", "--barrier", "tabulated", "--file", sech2, "--energy", "0.5"],
        quad_fallback=["times", "--barrier", "tabulated", "--file", humps,
                       "--energy", repr(float(vs[8]) - 1e-3)],
    )
    src = str(Path(tunneltimes.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(steps)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("step", ["import", "rect", "triangular", "laser-kullie", "et-scan",
                                  "laser-sae", "table1", "he-scan", "tabulated"])
def test_closed_form_paths_do_not_load_scipy(report, step):
    assert report[step] == {"status": 0, "scipy": []}


def test_quad_fallback_loads_scipy_integrate_only(report):
    assert report["quad_fallback"]["status"] == 0
    assert "scipy.integrate" in report["quad_fallback"]["scipy"]
    assert "scipy.interpolate" not in report["quad_fallback"]["scipy"]
