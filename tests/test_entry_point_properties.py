"""Property tests of the public entry points: for any float input, including
NaN, +-inf, subnormals and actions past 354, each returns finite numbers or
raises a TunnelTimesError. The CLI's ``main(argv)`` answers any argv with
output and status 0, a usage line and status 2, or one ``error:`` line and
status 3."""

import builtins
import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tunneltimes import (
    ConstantZeff,
    LaserCoulomb,
    TunnelTimesError,
    bracket,
    ett_general,
    ett_he,
    inverse_temperature,
    keldysh_gamma,
    pt_rectangular_exact,
    pt_wkb,
    resolve_problem,
    times_report,
)
from tunneltimes import errors
from tunneltimes.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# every float, with the edges and the phi ~ 354 underflow region drawn often
ANY = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1.0, 354.0, 355.0, 710.0, 1.8e308]),
    st.floats(300.0, 800.0),
)

ENTRY_POINTS = {
    bracket: 1,
    inverse_temperature: 2,
    pt_wkb: 1,
    pt_rectangular_exact: 3,
    ett_general: 3,
    ett_he: 2,
    keldysh_gamma: 3,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
@settings(max_examples=200, deadline=None)
@given(args=st.lists(ANY, min_size=3, max_size=3))
def test_finite_or_tunneltimes_error(entry, args):
    try:
        value = entry(*args[: ENTRY_POINTS[entry]])
    except TunnelTimesError:
        return
    assert math.isfinite(value)


# any float, and besides it fields and charges of every positive magnitude,
# subnormals included, and negative energies, so that many draws have a
# forbidden region
HELIUM = st.sampled_from([1e-300, 1e-20, 0.04, 0.11, 1.375, 16.0])
POSITIVE = st.one_of(st.floats(), HELIUM, st.floats(0.0, exclude_min=True, allow_infinity=False))
NEGATIVE = st.one_of(
    st.floats(), st.sampled_from([-0.904, -1e300]), st.floats(max_value=0.0, exclude_max=True)
)


@settings(max_examples=300, deadline=None)
@given(field=POSITIVE, z=POSITIVE, energy=NEGATIVE)
def test_constant_charge_times_report_finite_or_tunneltimes_error(field, z, energy):
    try:
        report = times_report(resolve_problem(LaserCoulomb(field, ConstantZeff(z)), energy))
    except TunnelTimesError:
        return
    # kBT is +inf by design once exp(2 phi) overflows
    assert all(map(math.isfinite, (report.phi, report.tau_c, report.ett, report.p_t_used)))


# argv for main: each option of a subcommand, as --option=value, drawn from
# plausible values, so that many runs get through; up to two options are left
# out and up to two others are drawn wild: any float as above, a spelling
# float() reads or refuses, or junk. Junk is text that a command line can
# pass: no NUL and no lone surrogate. It includes "--": argparse of Python
# 3.11 drops it from --option=-- and stores an empty list, which main refuses.
ARGV_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
JUNK = st.one_of(
    st.sampled_from(["", " ", "abc", "1e999", "-1e-3", "0x10", "1_0", "1,2", ",", "--"]),
    st.text(ARGV_CHARS, max_size=6),
)
NUMBER = st.one_of(ANY.map(repr), JUNK)


def number(lo, hi):
    return st.floats(lo, hi).map(repr), NUMBER


def count(lo, cap):
    return st.integers(lo, cap).map(str), st.one_of(st.integers(-3, cap).map(str), JUNK)


# slice counts the oracle runs, or wild ones that it refuses before it
# allocates: past the cap of 2**20, and never the cap itself, whose arrays
# are large
SLICES = (count(64, 4096)[0],
          st.one_of(count(64, 4096)[1], st.integers(2**20 + 1, 10**12).map(str)))


def choice(*values):
    return st.sampled_from(values), JUNK


def comma_list(items, wild):
    return (st.lists(items, min_size=1, max_size=4).map(",".join),
            st.lists(st.one_of(items, wild), max_size=4).map(",".join))


def barrier_options(families, file):
    return {
        "--barrier": choice(*families),
        "--v0": number(0.1, 5.0),
        "--length": number(0.1, 10.0),
        "--slope": number(0.01, 2.0),
        "--field": number(0.01, 0.3),
        "--zeff": choice("sae", "kullie", "clementi", "1.5"),
        "--file": file,
        "--energy": (st.one_of(st.sampled_from(["0.5", "-0.904"]), number(-1.5, 1.5)[0]), NUMBER),
        "--mass": number(0.1, 4.0),
        "--energy-unit": choice("au", "ev"),
        "--length-unit": choice("au", "angstrom"),
    }


def command_options(command, root):
    # a wild path is junk inside root/junk, so that no run writes elsewhere
    junk_path = JUNK.map(lambda name: os.path.join(root, "junk", name.replace(os.sep, "_")))
    file = (st.sampled_from([os.path.join(root, name) for name in
                             ("sech2.dat", "junk.dat", "empty.dat", "dir", "missing")]), junk_path)
    output = (st.sampled_from([os.path.join(root, "out.txt"),
                               os.path.join(root, "missing", "out.txt")]), junk_path)
    quad_tol = {"--quad-tol": number(1e-13, 1e-6)}
    out = {"--format": choice("csv", "json"), "--output": output}
    families = ("rect", "triangular", "tabulated")
    return {
        "times": {**barrier_options(families + ("laser-coulomb",), file), **quad_tol},
        "table1": {**quad_tol, **out},
        "he-scan": {
            "--field-min": number(0.01, 0.15),
            "--field-max": number(0.05, 0.3),
            "--steps": count(2, 50),
            "--models": comma_list(st.sampled_from(["sae", "kullie", " clementi"]), JUNK),
            "--omega": number(0.01, 0.1),
            **quad_tol,
            **out,
        },
        "et-scan": {
            "--energy-ev": number(0.1, 5.0),
            "--delta-e": comma_list(st.floats(0.01, 2.0).map(repr), NUMBER),
            "--length-min": number(1.0, 20.0),
            "--length-max": number(10.0, 40.0),
            "--length-steps": count(2, 50),
            **out,
        },
        "oracle": {**barrier_options(families, file), "--slices": SLICES},
    }[command]


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    xs = [-6.0 + 12.0 * i / 199 for i in range(200)]
    (root / "sech2.dat").write_text("".join(f"{x!r} {math.cosh(x) ** -2!r}\n" for x in xs))
    (root / "junk.dat").write_text("0 1\n1 abc\n")
    (root / "empty.dat").write_text("# no rows\n")
    (root / "dir").mkdir()
    (root / "junk").mkdir()
    return str(root)


# TunnelTimesError subclasses, and the OSError subclasses of a file that
# cannot be opened
ERRORS = {
    name for module in (errors, builtins) for name, value in vars(module).items()
    if isinstance(value, type) and issubclass(value, (errors.TunnelTimesError, OSError))
}


@pytest.mark.parametrize("command", ["times", "table1", "he-scan", "et-scan", "oracle"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_exits_0_2_or_3(root, command, data):
    options = command_options(command, root)
    absent = data.draw(st.sets(st.sampled_from(sorted(options)), max_size=2), label="absent")
    wild = data.draw(st.sets(st.sampled_from(sorted(options)), max_size=2), label="wild")
    argv = [command]
    for option, (plausible, anything) in options.items():
        if option not in absent:
            value = data.draw(anything if option in wild else plausible, label=option)
            argv.append(f"{option}={value}")
    target = next((a.split("=", 1)[1] for a in argv if a.startswith("--output=")), None)
    if target is not None and os.path.isfile(target):
        os.remove(target)  # left by an earlier run
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    out, err = out.getvalue(), err.getvalue()
    if status == 0:
        written = target is not None and os.path.exists(target) and os.path.getsize(target)
        assert out or written, argv
    elif status == 2:
        assert err.startswith("usage: ") and ": error: " in err, (argv, err)
    else:
        assert status == 3, (argv, status)
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
        assert err.split(":")[1].strip() in ERRORS, (argv, err)
