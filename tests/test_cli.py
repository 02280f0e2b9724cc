import json
import math
import warnings

import numpy as np
import pytest

from tunneltimes import wkb
from tunneltimes.cli import main
from tunneltimes.potentials import Triangular
from tunneltimes.times import triangular_scalings
from tunneltimes.turning import resolve_problem
from tunneltimes.units import angstrom_to_au, ev_to_au
from tunneltimes.wkb import compute_wkb


def run_cli(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def write_samples(tmp_path, xs, vs):
    path = tmp_path / "barrier.dat"
    path.write_text("\n".join(f"{x:.17g} {v:.17g}" for x, v in zip(xs, vs)))
    return str(path)


def pchip_integrals_mp(xs, vs, energy, precise=()):
    """phi and tau_c of the PCHIP through (xs, vs), one knot interval at a
    time: the two crossing intervals by 30-digit root finding and
    tanh-sinh quadrature, the interior ones by double-precision tanh-sinh,
    except the interior intervals listed in ``precise``, where V - E is too
    small for double precision and 30 digits are used too."""
    mpmath = pytest.importorskip("mpmath")
    from scipy.interpolate import PchipInterpolator

    slopes = PchipInterpolator(xs, vs).derivative()(xs)

    def hermite(ctx, i):
        x0 = ctx.mpf(xs[i])
        h = ctx.mpf(xs[i + 1]) - x0
        y0, y1, d0, d1 = (ctx.mpf(c) for c in (vs[i], vs[i + 1], slopes[i], slopes[i + 1]))

        def v(x):
            t = (x - x0) / h
            return ((2 * t**3 - 3 * t**2 + 1) * y0 + (t**3 - 2 * t**2 + t) * h * d0
                    + (-2 * t**3 + 3 * t**2) * y1 + (t**3 - t**2) * h * d1)

        return v

    def add(ctx, v, a, b, sums):
        sums[0] += ctx.quad(lambda x: ctx.sqrt(2 * (v(x) - energy)), [a, b])
        sums[1] += ctx.quad(lambda x: 1 / ctx.sqrt(2 * (v(x) - energy)), [a, b])

    peak = int(np.argmax(vs))
    below = np.flatnonzero(vs < energy)
    j, k = below[below < peak][-1], below[below > peak][0]
    sums = [mpmath.mpf(0), mpmath.mpf(0)]
    with mpmath.workdps(30):
        for i, rising in ((j, True), (k - 1, False)):
            v = hermite(mpmath.mp, i)
            lo, hi = mpmath.mpf(xs[i]), mpmath.mpf(xs[i + 1])
            root = mpmath.findroot(lambda x: v(x) - energy, (lo, hi), solver="anderson")
            add(mpmath.mp, v, *((root, hi) if rising else (lo, root)), sums)
        for i in range(j + 1, k - 1):
            ctx = mpmath.mp if i in precise else mpmath.fp
            add(ctx, hermite(ctx, i), ctx.mpf(xs[i]), ctx.mpf(xs[i + 1]), sums)
        return float(sums[0]), float(sums[1])


def parse_kv(text):
    """Parse the aligned key-value stream of `times` and `oracle`."""
    pairs = {}
    for line in text.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            pairs[parts[0]] = parts[1].strip()
    return pairs


class TestTimes:
    def test_rectangular(self, capsys):
        rc, out, _ = run_cli(
            ["times", "--barrier", "rect", "--v0", "1", "--length", "2",
             "--energy", "0.5"],
            capsys,
        )
        assert rc == 0
        kv = parse_kv(out)
        assert kv["barrier"] == "rect"
        assert float(kv["phi"]) == pytest.approx(2.0, rel=1e-9)
        assert float(kv["tau_c_au"]) == pytest.approx(2.0, rel=1e-9)
        assert float(kv["ett_au"]) == pytest.approx(0.1163056766916047, rel=1e-9)
        assert float(kv["p_t_exact"]) == pytest.approx(0.07065082485316446, rel=1e-9)
        assert "phase_time_au" in kv and "dwell_time_au" in kv
        assert kv["positivity_flag"] == "true"

    def test_laser_coulomb(self, capsys):
        rc, out, _ = run_cli(
            ["times", "--barrier", "laser-coulomb", "--field", "0.04",
             "--zeff", "kullie", "--energy", "-0.904"],
            capsys,
        )
        assert rc == 0
        kv = parse_kv(out)
        assert float(kv["x_left_au"]) == pytest.approx(1.64, abs=0.01)
        assert float(kv["x_right_au"]) == pytest.approx(20.96, abs=0.01)
        assert float(kv["tau_c_as"]) == pytest.approx(850.73, rel=0.01)
        assert "phase_time_au" not in kv

    def test_full_ramp(self, capsys):
        rc, out, _ = run_cli(
            ["times", "--barrier", "triangular", "--v0", "1", "--slope", "0.5",
             "--length", "3", "--energy", "0.5"],
            capsys,
        )
        assert rc == 0
        kv = parse_kv(out)
        phi, tau_c = triangular_scalings(1.0, 0.5, 0.5, 3.0)
        assert float(kv["phi"]) == pytest.approx(phi, rel=1e-11)
        assert float(kv["tau_c_au"]) == pytest.approx(tau_c, rel=1e-11)
        assert kv["p_t_used"] == kv["p_t_wkb"]
        assert "phase_time_au" not in kv and "p_t_exact" not in kv

    def test_ramp_without_slope_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["times", "--barrier", "triangular", "--v0", "1", "--length", "3",
                  "--energy", "0.5"])
        assert exc.value.code == 2

    def test_unit_flags(self, capsys):
        rc, out, _ = run_cli(
            ["times", "--barrier", "rect", "--v0", "1.5", "--length", "10",
             "--energy", "1", "--energy-unit", "ev", "--length-unit", "angstrom"],
            capsys,
        )
        assert rc == 0
        kv = parse_kv(out)
        assert float(kv["energy_au"]) == pytest.approx(ev_to_au(1.0), rel=1e-9)
        assert float(kv["x_right_au"]) == pytest.approx(angstrom_to_au(10.0), rel=1e-9)

    def test_tabulated_file(self, tmp_path, capsys):
        xs = np.linspace(1.64, 20.96, 801)
        vs = -1.375 / xs - 0.04 * xs + 0.904
        path = tmp_path / "barrier.dat"
        path.write_text(
            "# x V\n" + "\n".join(f"{x:.17g} {v:.17g}" for x, v in zip(xs, vs))
        )
        rc, out, _ = run_cli(
            ["times", "--barrier", "tabulated", "--file", str(path),
             "--energy", "0.2", "--quad-tol", "1e-8"],
            capsys,
        )
        assert rc == 0
        kv = parse_kv(out)
        assert float(kv["phi"]) == pytest.approx(6.8846533, rel=1e-5)
        assert float(kv["tau_c_au"]) == pytest.approx(31.60058, rel=1e-5)

    def test_tabulated_default_tolerance_matches_mpmath(self, tmp_path, capsys):
        xs = np.linspace(1.64, 20.96, 801)
        vs = -1.375 / xs - 0.04 * xs + 0.904
        rc, out, _ = run_cli(
            ["times", "--barrier", "tabulated", "--file", write_samples(tmp_path, xs, vs),
             "--energy", "0.2"],
            capsys,
        )
        assert rc == 0
        kv = parse_kv(out)
        phi, tau_c = pchip_integrals_mp(xs, vs, 0.2)
        assert float(kv["phi"]) == pytest.approx(phi, rel=1e-10)
        assert float(kv["tau_c_au"]) == pytest.approx(tau_c, rel=1e-10)

    @pytest.mark.parametrize("quad_tol", ["1e-10", "1e-8"])
    def test_tabulated_near_touching_dip_matches_mpmath(self, tmp_path, capsys, quad_tol):
        # two humps whose middle dip, a knot, sits 1e-6 above E: p nearly
        # vanishes inside the forbidden region, the 16- and 32-node rules
        # disagree there, and bisecting the panels certifies the integrals
        xs = np.linspace(-8.0, 8.0, 401)
        vs = np.exp(-((xs - 2.0) ** 2)) + np.exp(-((xs + 2.0) ** 2))
        energy = float(vs[200]) - 1e-6
        rc, out, _ = run_cli(
            ["times", "--barrier", "tabulated", "--file", write_samples(tmp_path, xs, vs),
             "--energy", repr(energy), "--quad-tol", quad_tol],
            capsys,
        )
        assert rc == 0
        kv = parse_kv(out)
        # 30 digits on the two knot intervals next to the dip
        phi, tau_c = pchip_integrals_mp(xs, vs, energy, precise=(199, 200))
        assert float(kv["phi"]) == pytest.approx(phi, rel=float(quad_tol))
        assert float(kv["tau_c_au"]) == pytest.approx(tau_c, rel=float(quad_tol))

    def test_tabulated_dip_below_roundoff_fails_honestly(self, tmp_path, capsys):
        # the same humps with the dip 1e-14 above E: no panel budget resolves
        # it to 1e-8, and the message says how far off it is and where
        xs = np.linspace(-8.0, 8.0, 401)
        vs = np.exp(-((xs - 2.0) ** 2)) + np.exp(-((xs + 2.0) ** 2))
        energy = float(vs[200]) - 1e-14
        rc, _, err = run_cli(
            ["times", "--barrier", "tabulated", "--file", write_samples(tmp_path, xs, vs),
             "--energy", repr(energy), "--quad-tol", "1e-8"],
            capsys,
        )
        assert rc == 3
        assert "QuadratureFailure" in err
        assert "quad_tol 1e-08" in err
        achieved = float(err.split("achieved relative error ")[1].split()[0])
        assert achieved > 1e-8
        x = float(err.split("worst near x = ")[1].split(";")[0])
        assert xs[199] < x < xs[201]

    def test_over_barrier_exit_code(self, capsys):
        rc, _, err = run_cli(
            ["times", "--barrier", "laser-coulomb", "--field", "0.04",
             "--zeff", "kullie", "--energy", "-0.1"],
            capsys,
        )
        assert rc == 3
        assert "OverBarrier" in err

    def test_bad_zeff_exit_code(self, capsys):
        rc, _, err = run_cli(
            ["times", "--barrier", "laser-coulomb", "--field", "0.04",
             "--zeff", "thomas-fermi", "--energy", "-0.904"],
            capsys,
        )
        assert rc == 3
        assert "DomainError" in err

    def test_non_finite_sample_exit_code(self, tmp_path, capsys):
        xs = np.linspace(0.0, 7.0, 8)
        path = tmp_path / "nan.dat"
        path.write_text("\n".join(f"{x:.17g} {'nan' if x == 3.0 else 1.0}" for x in xs))
        rc, _, err = run_cli(
            ["times", "--barrier", "tabulated", "--file", str(path),
             "--energy", "0.5"],
            capsys,
        )
        assert rc == 3
        assert "DomainError" in err

    @pytest.mark.parametrize("content, error", [
        (None, "FileNotFoundError"),
        ("directory", "IsADirectoryError"),
        ("0 1\n1 abc\n", "DomainError"),
        ("# no rows\n", "DomainError"),
        (b"\xff\xfe\x00", "DomainError"),
    ], ids=["missing", "directory", "junk", "no-rows", "binary"])
    def test_unreadable_file_is_one_line(self, tmp_path, capsys, content, error):
        path = tmp_path / "barrier.dat"
        if content == "directory":
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        rc, out, err = run_cli(
            ["times", "--barrier", "tabulated", "--file", str(path), "--energy", "0.5"],
            capsys,
        )
        assert (rc, out) == (3, "")
        assert err.startswith(f"error: {error}: ")
        assert err.count("\n") == 1
        if error == "DomainError":
            assert str(path) in err

    def test_tiny_energy(self, capsys):
        rc, out, _ = run_cli(
            ["times", "--barrier", "rect", "--v0", "1", "--length", "2",
             "--energy", "1e-300"],
            capsys,
        )
        assert rc == 0
        kv = parse_kv(out)
        for key in ("ett_au", "phase_time_au", "dwell_time_au", "kBT_au"):
            assert math.isfinite(float(kv[key]))

    def test_missing_parameters_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["times", "--barrier", "rect", "--energy", "0.5"])
        assert exc.value.code == 2

    def test_box_times_past_the_float_range_exit_code(self, capsys):
        rc, out, err = run_cli(
            ["times", "--barrier", "rect", "--v0", "1", "--length", "0.5",
             "--energy", "4.149430639092227e-68", "--mass", "1e300"],
            capsys,
        )
        assert (rc, out) == (3, "")
        assert err == ("error: DomainError: rectangular times leave the float range "
                       "at E = 4.149430639092227e-68\n")

    def test_truncated_ramp_past_an_intermediate_overflow(self, capsys):
        # 2 m (V - E) overflows at V0 = 1e300 and m = 1e8, though phi and tau_c
        # do not: exit 0 without a warning, at the ramp's integrals by mpmath
        v0, slope, length, energy, mass = 1e300, 1e-8, 6.5e-31, 5e-324, 1e8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(
                ["times", "--barrier", "triangular", "--v0", "1e300", "--slope", "1e-8",
                 "--length", "6.5e-31", "--energy", "5e-324", "--mass", "1e8"],
                capsys,
            )
            got = compute_wkb(resolve_problem(Triangular(v0, slope, length), energy, mass))
        assert (rc, err) == (0, "")
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            gap = lambda x: mp.mpf(v0) - mp.mpf(slope) * x - mp.mpf(energy)
            m = mp.mpf(mass)
            phi = float(mp.sqrt(2 * m) * mp.quad(lambda x: mp.sqrt(gap(x)), [0, length]))
            tau_c = float(mp.sqrt(m / 2) * mp.quad(lambda x: 1 / mp.sqrt(gap(x)), [0, length]))
        assert (got.phi, got.tau_c) == pytest.approx((phi, tau_c), rel=1e-13, abs=0.0)
        kv = parse_kv(out)
        # the CLI prints 12 digits
        assert float(kv["phi"]) == pytest.approx(phi, rel=1e-11, abs=0.0)
        assert float(kv["tau_c_au"]) == pytest.approx(tau_c, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("argv", [
        ["times", "--barrier", "rect", "--energy", "0.5"],
        ["et-scan", "--length-steps", "1"],
        ["oracle", "--barrier", "rect", "--energy=--"],
    ], ids=["missing-option", "length-steps", "list-valued"])
    def test_usage_errors_found_after_parsing_name_their_command(self, capsys, argv):
        # as argparse's own errors do, e.g. for --energy abc
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: tunneltimes {argv[0]} [-h]")
        assert f"tunneltimes {argv[0]}: error: " in err

    def test_missing_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["table1", "--quad-tol=--"],
        ["times", "--barrier=--", "--energy", "1"],
        ["times", "--barrier", "rect", "--v0", "1", "--length", "2", "--energy=--"],
        ["et-scan", "--delta-e=--"],
        ["he-scan", "--format=--"],
    ])
    def test_option_value_double_dash_usage_error(self, capsys, argv):
        # argparse of Python 3.11 stores [] for --option=--
        option = next(a for a in argv if a.endswith("=--"))[:-3]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"argument {option}" in err


class TestTable1:
    def test_stdout_split_streams(self, capsys):
        rc, out, err = run_cli(["table1"], capsys)
        assert rc == 0
        csv_lines = out.splitlines()
        assert len(csv_lines) == 7
        assert csv_lines[0] == "model,field,x_L,x_R,tau_c_as,ett_as"
        assert err.count(" pass") == 24
        assert "all cells within tolerance" in err

    def test_output_file_moves_diff_to_stdout(self, tmp_path, capsys):
        target = tmp_path / "table1.csv"
        rc, out, err = run_cli(["table1", "--output", str(target)], capsys)
        assert rc == 0
        assert err == ""
        assert out.count(" pass") == 24
        assert len(target.read_text().splitlines()) == 7


class TestScans:
    def test_he_scan_header_and_determinism(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            rc, _, _ = run_cli(["he-scan", "--output", str(p)], capsys)
            assert rc == 0
        first, second = (p.read_text() for p in paths)
        assert first == second
        lines = first.splitlines()
        assert len(lines) == 46
        assert lines[0] == (
            "field,model,ett_as,tau_c_as,exp_width,true_width,phi,keldysh_gamma"
        )

    def test_he_scan_custom_grid(self, capsys):
        rc, out, _ = run_cli(
            ["he-scan", "--steps", "3", "--models", "kullie", "--omega", "0.0228"],
            capsys,
        )
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.04
        assert float(first[-1]) == pytest.approx(0.7664327759171055, rel=1e-12)

    def test_et_scan_json(self, capsys):
        rc, out, _ = run_cli(["et-scan", "--format", "json"], capsys)
        assert rc == 0
        rows = json.loads(out)
        assert len(rows) == 130
        assert set(rows[0]) == {
            "delta_e_eff", "length_angstrom", "tau_c_fs", "ett_fs", "comparable_flag",
        }

    def test_et_scan_length_grid(self, capsys):
        rc, out, _ = run_cli(
            ["et-scan", "--delta-e", "0.5", "--length-min", "5",
             "--length-max", "10", "--length-steps", "2"],
            capsys,
        )
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) == 5.0
        assert float(lines[2].split(",")[1]) == 10.0

    def test_et_scan_bad_steps_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["et-scan", "--length-steps", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("delta_e", ["abc", "", "0.5,", "0.5,,1"])
    def test_et_scan_unparsable_delta_e_usage_error(self, capsys, delta_e):
        with pytest.raises(SystemExit) as exc:
            main(["et-scan", "--delta-e", delta_e])
        assert exc.value.code == 2
        assert "argument --delta-e" in capsys.readouterr().err

    def test_he_scan_empty_model_refused(self, capsys):
        rc, out, err = run_cli(["he-scan", "--models", ""], capsys)
        assert (rc, out) == (3, "")
        assert err.startswith("error: DomainError: unknown models ['']")

    @pytest.mark.parametrize("scan, name", [("et-scan", "length"), ("he-scan", "field")])
    @pytest.mark.parametrize("low, high", [("30", "5"), ("5", "5"), ("0", "5"), ("-5", "5")],
                             ids=["reversed", "empty", "zero", "negative"])
    def test_scans_refuse_the_same_ranges(self, capsys, scan, name, low, high):
        steps = "--length-steps" if scan == "et-scan" else "--steps"
        rc, out, err = run_cli(
            [scan, f"--{name}-min", low, f"--{name}-max", high, steps, "3"], capsys)
        assert (rc, out) == (3, "")
        assert err.startswith(f"error: DomainError: need 0 < {name}_min < {name}_max")

    def test_et_scan_last_length_is_length_max(self, capsys):
        rc, out, _ = run_cli(
            ["et-scan", "--delta-e", "0.5", "--length-min", "8.6",
             "--length-max", "28.8", "--length-steps", "4"],
            capsys,
        )
        assert rc == 0
        # 8.6 + 3 * step rounds to 28.800000000000004; the grid ends on the bound
        assert float(out.splitlines()[-1].split(",")[1]) == 28.8

    def test_unwritable_output_is_one_line(self, tmp_path, capsys):
        target = tmp_path / "missing" / "et.csv"
        rc, out, err = run_cli(["et-scan", "--length-steps", "2", "--output", str(target)],
                               capsys)
        assert (rc, out) == (3, "")
        assert err.startswith("error: FileNotFoundError: ")
        assert err.count("\n") == 1


class TestOracle:
    def test_rectangular_cross_check(self, capsys):
        rc, out, _ = run_cli(
            ["oracle", "--barrier", "rect", "--v0", "1", "--length", "2",
             "--energy", "0.5"],
            capsys,
        )
        assert rc == 0
        kv = parse_kv(out)
        p_t = float(kv["p_t"])
        assert p_t == pytest.approx(float(kv["p_t_exact"]), rel=1e-6)
        assert float(kv["flux_error"]) < 1e-9
        assert int(kv["grid_points"]) == 4096

    @pytest.mark.parametrize("energy", ["0.5", "1e-300", "1e-318"])
    def test_rectangle_prints_its_exact_transmission(self, capsys, energy):
        # at 1e-318 the entropic time overflows, but phi and the exact p_t
        # are still finite and are printed
        rc, out, _ = run_cli(
            ["oracle", "--barrier", "rect", "--v0", "1", "--length", "2",
             "--energy", energy],
            capsys,
        )
        assert rc == 0
        kv = parse_kv(out)
        assert float(kv["phi_closed_form"]) == pytest.approx(
            2.0 * math.sqrt(2.0 * (1.0 - float(energy))), rel=1e-11)
        assert 0.0 < float(kv["p_t_exact"]) <= float(kv["p_t_wkb"])

    @pytest.mark.parametrize("barrier", [
        ["rect", "--v0", "1", "--length", "2", "--energy", "1.5"],
        ["triangular", "--v0", "1", "--slope", "0.5", "--length", "3", "--energy", "0.5"],
        ["triangular", "--v0", "1", "--slope", "0.1", "--length", "2", "--energy", "0.5"],
        "sech2",
        # 2 m E L^2 underflows, so the box's times are out of range
        ["rect", "--v0", "1", "--length", "1e-5", "--energy", "1e-318"],
    ], ids=["rect-above", "full-ramp", "truncated-ramp", "sech2-table", "box-terms-underflow"])
    def test_no_exact_transmission_to_compare(self, tmp_path, capsys, monkeypatch, barrier):
        # only a family with closed-form integrals has an exact transmission,
        # so a window without one is not integrated just to learn that
        def fail(*args):
            raise AssertionError("panel rule run")

        monkeypatch.setattr(wkb, "_panel_rule", fail)
        if barrier == "sech2":
            xs = np.linspace(-6.0, 6.0, 200)
            barrier = ["tabulated", "--file", write_samples(tmp_path, xs, np.cosh(xs) ** -2),
                       "--energy", "0.5"]
        rc, out, _ = run_cli(["oracle", "--barrier", *barrier], capsys)
        assert rc == 0
        kv = parse_kv(out)
        assert 0.0 < float(kv["p_t"]) < 1.0
        assert not {"phi_closed_form", "p_t_exact", "p_t_wkb"} & set(kv)

    @pytest.mark.parametrize("slices", ["1048577", "100000000000"])
    def test_slices_past_the_cap_refused(self, capsys, slices):
        rc, out, err = run_cli(["oracle", "--barrier", "rect", "--v0", "1", "--length", "2",
                                "--energy", "0.5", "--slices", slices], capsys)
        assert rc == 3 and out == ""
        assert err == f"error: DomainError: need 64 to 1048576 slices, got {slices}\n"

    def test_laser_coulomb_not_offered(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--barrier", "laser-coulomb", "--field", "0.04",
                  "--energy", "-0.904"])
        assert exc.value.code == 2

    def test_evanescent_lead_exit_code(self, tmp_path, capsys):
        xs = np.linspace(0.0, 2.0, 21)
        path = tmp_path / "lifted.dat"
        path.write_text("\n".join(f"{x:.17g} 0.6" for x in xs))
        rc, _, err = run_cli(
            ["oracle", "--barrier", "tabulated", "--file", str(path),
             "--energy", "0.5"],
            capsys,
        )
        assert rc == 3
        assert "EvanescentLead" in err
