"""No path of the package loads scipy, and the closed-form paths load no numpy.

One fresh interpreter imports the package, then runs ``cli.main`` on each
command in turn and reports which scipy modules are loaded after each step,
and whether numpy's ``numpy._core`` is. The steps cover every barrier family,
the three harnesses, the oracle and a tabulated run whose 16- and 32-node
rules disagree, so that its panels are bisected. A last step imports
``scipy.integrate`` itself, which shows that the probe does see scipy once
something imports it. A second interpreter runs the same steps with an import
hook that refuses every scipy module: each command still succeeds, and only
the last step fails to import.

The closed-form steps come first, and numpy stays unloaded through them; so
it does, in an interpreter of its own, through a scalar ``DomainError``.
Each command that builds an array runs once more in an interpreter of its
own, which shows that it loads numpy itself and still succeeds. Three more
interpreters check the lazy module: a later ``import numpy`` returns it, an
interpreter that imported numpy first keeps its plain module, and threads
that read numpy's first attribute together all get it loaded.
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
    "he-scan-closed": ["he-scan", "--models", "kullie,clementi", "--steps", "3"],
    "laser-sae": ["times", "--barrier", "laser-coulomb", "--field", "0.05",
                  "--zeff", "sae", "--energy", "-0.904"],
    "triangular-truncated": ["times", "--barrier", "triangular", "--v0", "1", "--slope", "0.25",
                             "--length", "1", "--energy", "0.5"],
    "oracle": ["oracle", "--barrier", "rect", "--v0", "1", "--length", "2", "--energy", "0.5"],
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

def loaded():
    return {"scipy": scipy_loaded(), "numpy": "numpy._core" in sys.modules}

report = {}
import tunneltimes
report["import"] = {"status": 0, **loaded()}
from tunneltimes.cli import main
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    report[name] = {"status": status, **loaded()}
if sys.argv[2] == "alone":
    print(json.dumps(report))
    sys.exit()
try:
    import scipy.integrate
    status = 0
except ImportError:
    status = 1
report["control"] = {"status": status, **loaded()}
print(json.dumps(report))
"""

# a scalar outside the laser-Coulomb domain names itself without numpy
SCALAR_DOMAIN_ERROR = """
import sys
from tunneltimes.errors import DomainError
from tunneltimes.potentials import KULLIE, LaserCoulomb
try:
    LaserCoulomb(0.05, KULLIE).potential(-1.0)
    raise AssertionError("no DomainError raised")
except DomainError as exc:
    assert str(exc) == "laser-Coulomb barrier is defined for x > 0, got -1.0", exc
assert "numpy._core" not in sys.modules
"""

# a user's numpy after the package's lazy one, and before it
SAME_NUMPY = """
import sys, types
import tunneltimes
from tunneltimes._lazynp import np
assert "numpy._core" not in sys.modules
import numpy
assert numpy is np and type(numpy) is types.ModuleType
assert numpy.arange(4.0).sum() == 6.0 and "numpy._core" in sys.modules
"""
PLAIN_NUMPY = """
import types
import numpy
from tunneltimes._lazynp import np
assert np is numpy and type(np) is types.ModuleType
"""
# threads that read numpy's first attribute together: each waits for the one
# that executes numpy, none sees it half loaded
THREADS_FIRST_READ = """
import sys, threading
from tunneltimes._lazynp import np
sys.setswitchinterval(1e-6)
start = threading.Barrier(4)
sums = []
def first_read():
    start.wait(timeout=60)
    sums.append(float(np.arange(4.0).sum()))
threads = [threading.Thread(target=first_read) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
assert sums == [6.0] * 4, sums
"""


def write_samples(path, xs, vs):
    np.savetxt(path, np.column_stack([xs, vs]))
    return str(path)


def run_python(*args):
    src = str(Path(tunneltimes.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", *args], capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_probe(steps, mode):
    return json.loads(run_python(PROBE, json.dumps(steps), mode))


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
CLOSED_FORM_STEPS = ["import", "rect", "triangular", "laser-kullie", "et-scan", "he-scan-closed"]
ARRAY_STEPS = ["laser-sae", "triangular-truncated", "tabulated", "table1", "he-scan", "oracle"]


def scipy_part(result):
    return {"status": result["status"], "scipy": result["scipy"]}


@pytest.mark.parametrize("step", ALL_STEPS)
def test_closed_form_paths_do_not_load_scipy(report, step):
    assert scipy_part(report[step]) == {"status": 0, "scipy": []}


@pytest.mark.parametrize("step", CLOSED_FORM_STEPS)
def test_closed_form_paths_do_not_load_numpy(report, step):
    assert report[step] == {"status": 0, "scipy": [], "numpy": False}


@pytest.mark.parametrize("step", ARRAY_STEPS)
def test_array_paths_load_numpy_themselves(steps, step):
    alone = run_probe({step: steps[step]}, "alone")
    assert alone["import"]["numpy"] is False
    assert alone[step] == {"status": 0, "scipy": [], "numpy": True}


def test_scalar_domain_error_loads_no_numpy():
    run_python(SCALAR_DOMAIN_ERROR)


def test_lazy_numpy_is_the_users_numpy():
    run_python(SAME_NUMPY)


def test_numpy_imported_first_stays_plain():
    run_python(PLAIN_NUMPY)


def test_threads_wait_for_the_first_numpy_read():
    run_python(THREADS_FIRST_READ)


def test_probe_sees_a_scipy_import(report):
    assert report["control"]["status"] == 0
    assert "scipy.integrate" in report["control"]["scipy"]


@pytest.mark.parametrize("step", ALL_STEPS)
def test_every_step_runs_with_scipy_refused(refused, step):
    assert scipy_part(refused[step]) == {"status": 0, "scipy": []}


def test_refusing_hook_blocks_scipy(refused):
    assert scipy_part(refused["control"]) == {"status": 1, "scipy": []}
