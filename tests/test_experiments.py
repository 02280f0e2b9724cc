import io
import json
import logging
import math

import pytest

from tunneltimes.errors import DomainError, OverBarrier
from tunneltimes.experiments import (
    ET_FLAG_THRESHOLD_FS,
    HE_ENERGY_AU,
    HE_MODELS,
    TABLE1_REFERENCE,
    EtScanPoint,
    ScanPoint,
    Table1Row,
    et_scan,
    he_scan,
    keldysh_gamma,
    run_table1,
    write_csv,
    write_json,
)
from tunneltimes.stattherm import PHI_STAR
from tunneltimes.times import ett_he, ett_rectangular, tau_c_rectangular, times_report
from tunneltimes.turning import resolve_problem
from tunneltimes.potentials import LaserCoulomb, Rectangular
from tunneltimes.units import angstrom_to_au, ev_to_au, to_attoseconds, to_femtoseconds

from quadref import mapped_quad


class TestTable1:
    def test_row_layout(self):
        rows = run_table1()
        assert [(r.model, r.field) for r in rows] == [
            (r.model, r.field) for r in TABLE1_REFERENCE
        ]

    def test_times_shrink_with_stronger_field(self):
        rows = {(r.model, r.field): r for r in run_table1()}
        for model in ("sae", "kullie", "clementi"):
            weak = rows[(model, 0.04)]
            strong = rows[(model, 0.11)]
            assert weak.tau_c_as > strong.tau_c_as
            assert weak.ett_as > strong.ett_as

    def test_entropic_time_below_classical(self):
        for row in run_table1():
            assert 0.0 < row.ett_as < row.tau_c_as

    def test_rows_come_from_times_report(self):
        for row in run_table1():
            barrier = LaserCoulomb(row.field, HE_MODELS[row.model])
            problem = resolve_problem(barrier, HE_ENERGY_AU)
            report = times_report(problem)
            assert (row.x_L, row.x_R) == (problem.x_left, problem.x_right)
            assert row.tau_c_as == to_attoseconds(report.tau_c)
            assert row.ett_as == to_attoseconds(report.ett)

    def test_rows_match_adaptive_quadrature(self):
        # the fixed-order panel rule against Gauss-Kronrod at the tightest
        # tolerance
        for row in run_table1():
            barrier = LaserCoulomb(row.field, HE_MODELS[row.model])
            problem = resolve_problem(barrier, HE_ENERGY_AU)
            phi = mapped_quad(problem, False, 1e-13)
            tau_c = mapped_quad(problem, True, 1e-13)
            assert row.tau_c_as == pytest.approx(to_attoseconds(tau_c), rel=1e-12)
            assert row.ett_as == pytest.approx(to_attoseconds(ett_he(tau_c, phi)), rel=1e-12)


class TestKeldysh:
    def test_hand_form(self):
        got = keldysh_gamma(0.0228, 0.904, 0.04)
        assert got == pytest.approx(0.0228 * math.sqrt(2.0 * 0.904) / 0.04, rel=1e-15)
        assert got == pytest.approx(0.7664327759171055, rel=1e-13)

    def test_inverse_in_field(self):
        assert keldysh_gamma(0.0228, 0.904, 0.08) == pytest.approx(
            0.5 * keldysh_gamma(0.0228, 0.904, 0.04), rel=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            keldysh_gamma(0.0, 0.904, 0.04)
        with pytest.raises(DomainError):
            keldysh_gamma(0.0228, 0.904, -0.04)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("position, name", [
        (0, "omega"), (1, "ionization potential"), (2, "field"),
    ])
    def test_non_finite_argument_is_named(self, bad, position, name):
        # omega or I_p = inf returned inf, and field = inf returned 0.0
        args = [0.0228, 0.904, 0.04]
        args[position] = bad
        with pytest.raises(DomainError, match=name):
            keldysh_gamma(*args)

    def test_overflow_rejected(self):
        with pytest.raises(DomainError, match="overflows"):
            keldysh_gamma(1e300, 1e300, 1e-300)


class TestHeScan:
    def test_default_grid_size(self):
        points = he_scan()
        assert len(points) == 45
        assert all(isinstance(p, ScanPoint) for p in points)

    def test_width_proxy_and_true_width(self):
        for p in he_scan():
            assert p.exp_width == pytest.approx(abs(HE_ENERGY_AU) / p.field, rel=1e-12)
            assert 0.0 < p.true_width < p.exp_width

    def test_deep_tunneling_throughout(self):
        for p in he_scan():
            assert p.phi > PHI_STAR
            assert 0.0 < p.ett_as < 200.0
            assert p.ett_as < p.tau_c_as

    def test_gamma_nan_without_drive_frequency(self):
        assert all(math.isnan(p.keldysh_gamma) for p in he_scan())

    def test_gamma_populated_with_drive_frequency(self):
        points = he_scan(omega=0.0228)
        assert all(math.isfinite(p.keldysh_gamma) for p in points)
        first = next(p for p in points if p.field == 0.04)
        assert first.keldysh_gamma == pytest.approx(0.7664327759171055, rel=1e-12)

    def test_over_barrier_points_skipped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="tunneltimes.experiments"):
            points = he_scan(field_min=0.04, field_max=0.25, steps=8)
        assert 0 < len(points) < 8 * 3
        assert "skipping" in caplog.text

    def test_no_point_below_the_barrier_raises(self):
        with pytest.raises(OverBarrier, match="at any field scanned"):
            he_scan(field_min=0.5, field_max=1.0, steps=3)

    def test_points_come_from_times_report(self):
        for p in he_scan(steps=4):
            problem = resolve_problem(LaserCoulomb(p.field, HE_MODELS[p.model]), HE_ENERGY_AU)
            report = times_report(problem)
            assert p.phi == report.phi
            assert p.tau_c_as == to_attoseconds(report.tau_c)
            assert p.ett_as == to_attoseconds(report.ett)
            assert p.true_width == problem.width

    def test_validation(self):
        with pytest.raises(DomainError):
            he_scan(steps=1)
        with pytest.raises(DomainError):
            he_scan(field_min=0.11, field_max=0.04)
        with pytest.raises(DomainError):
            he_scan(models=("sae", "hartree"))


class TestEtScan:
    def test_default_grid_size(self):
        points = et_scan()
        assert len(points) == 5 * 26
        assert all(isinstance(p, EtScanPoint) for p in points)

    def test_entropic_always_below_classical(self):
        for p in et_scan():
            assert 0.0 < p.ett_fs < p.tau_c_fs

    def test_flag_contour(self):
        flagged = {(p.delta_e_eff, p.length_angstrom) for p in et_scan() if p.comparable_flag}
        assert flagged == {(0.05, float(L)) for L in range(20, 31)}

    def test_frozen_spot_midgrid(self):
        p = next(
            q for q in et_scan() if q.delta_e_eff == 0.5 and q.length_angstrom == 10.0
        )
        assert p.tau_c_fs == pytest.approx(2.38445593438878, rel=1e-12)
        assert p.ett_fs == pytest.approx(0.2124604248254505, rel=1e-12)
        assert not p.comparable_flag

    def test_frozen_spot_flagged_corner(self):
        p = next(
            q for q in et_scan() if q.delta_e_eff == 0.05 and q.length_angstrom == 30.0
        )
        assert p.tau_c_fs == pytest.approx(22.62093519892066, rel=1e-12)
        assert p.ett_fs == pytest.approx(9.59535954663023, rel=1e-12)
        assert p.comparable_flag
        assert p.ett_fs >= ET_FLAG_THRESHOLD_FS

    def test_closed_form_matches_quadrature(self):
        energy_au = ev_to_au(1.0)
        v0_au = energy_au + ev_to_au(0.5)
        length_au = angstrom_to_au(10.0)
        problem = resolve_problem(Rectangular(v0_au, length_au), energy_au)
        # classical_time itself returns the closed form on a rectangle
        tau_quad = to_femtoseconds(mapped_quad(problem, True, 1e-10))
        tau_closed = to_femtoseconds(tau_c_rectangular(energy_au, v0_au, length_au))
        assert tau_closed == pytest.approx(tau_quad, rel=1e-9)

    def test_every_point_is_times_report(self):
        # bit for bit, and equal to the closed forms the scan used before it
        # went through times_report, so its CSV is unchanged
        energy_au = ev_to_au(1.0)
        for p in et_scan():
            v0_au = energy_au + ev_to_au(p.delta_e_eff)
            length_au = angstrom_to_au(p.length_angstrom)
            report = times_report(resolve_problem(Rectangular(v0_au, length_au), energy_au))
            assert p.tau_c_fs == to_femtoseconds(report.tau_c)
            assert p.ett_fs == to_femtoseconds(report.ett)
            assert p.tau_c_fs == to_femtoseconds(tau_c_rectangular(energy_au, v0_au, length_au))
            assert p.ett_fs == to_femtoseconds(ett_rectangular(energy_au, v0_au, length_au))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["energy_ev", "delta_e_grid_ev", "length_grid_angstrom"])
    def test_non_finite_input_is_named(self, name, bad):
        value = bad if name == "energy_ev" else (0.5, bad)
        with pytest.raises(DomainError, match=f"^{name} must be positive and finite"):
            et_scan(**{name: value})

    def test_validation(self):
        with pytest.raises(DomainError):
            et_scan(energy_ev=0.0)
        with pytest.raises(DomainError):
            et_scan(delta_e_grid_ev=(0.05, -0.1))
        with pytest.raises(DomainError):
            et_scan(length_grid_angstrom=(5.0, 0.0))


class TestSerialization:
    def test_csv_header_matches_fields(self):
        buf = io.StringIO()
        write_csv(he_scan(steps=2, models=("kullie",)), buf)
        header = buf.getvalue().splitlines()[0]
        assert header == "field,model,ett_as,tau_c_as,exp_width,true_width,phi,keldysh_gamma"

    def test_csv_deterministic(self):
        rows = et_scan(delta_e_grid_ev=(0.2,), length_grid_angstrom=(5.0, 10.0))
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_csv(rows, buf1)
        write_csv(et_scan(delta_e_grid_ev=(0.2,), length_grid_angstrom=(5.0, 10.0)), buf2)
        assert buf1.getvalue() == buf2.getvalue()
        assert len(buf1.getvalue().splitlines()) == 3

    def test_csv_bool_encoding(self):
        rows = [
            EtScanPoint(0.05, 30.0, 22.0, 9.5, True),
            EtScanPoint(1.0, 5.0, 0.5, 0.1, False),
        ]
        buf = io.StringIO()
        write_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[1].endswith(",1")
        assert lines[2].endswith(",0")

    def test_csv_empty_writes_nothing(self):
        buf = io.StringIO()
        write_csv([], buf)
        assert buf.getvalue() == ""

    def test_csv_floats_round_trip(self):
        rows = et_scan(delta_e_grid_ev=(0.5,), length_grid_angstrom=(10.0,))
        buf = io.StringIO()
        write_csv(rows, buf)
        cells = buf.getvalue().splitlines()[1].split(",")
        assert float(cells[2]) == rows[0].tau_c_fs
        assert float(cells[3]) == rows[0].ett_fs

    def test_json_round_trip(self):
        rows = et_scan(delta_e_grid_ev=(0.05,), length_grid_angstrom=(20.0, 30.0))
        buf = io.StringIO()
        write_json(rows, buf)
        parsed = json.loads(buf.getvalue())
        assert len(parsed) == 2
        assert parsed[0]["delta_e_eff"] == 0.05
        assert parsed[0]["comparable_flag"] is True
        assert parsed[1]["length_angstrom"] == 30.0

    def test_table1_rows_serialize(self):
        buf = io.StringIO()
        write_csv(list(TABLE1_REFERENCE), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "model,field,x_L,x_R,tau_c_as,ett_as"
        assert len(lines) == 7
