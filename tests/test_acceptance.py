"""Acceptance gate: one test per release criterion.

Each test prints a single ``ACCEPTANCE n (name): PASS|FAIL`` verdict line and
then asserts, so the gate is readable straight off the pytest log. Tolerances
are pinned here and nowhere else; loosening one is a release decision, not a
test edit.
"""

import math
import time

import numpy as np
import pytest

from tunneltimes.experiments import TABLE1_REFERENCE, et_scan, he_scan, run_table1
from tunneltimes.potentials import (
    CLEMENTI,
    KULLIE,
    SAE,
    LaserCoulomb,
    Rectangular,
    Triangular,
)
from tunneltimes.stattherm import PHI_STAR, entropy, entropy_maximum, inverse_temperature
from tunneltimes.times import (
    dwell_time_rectangular,
    ett_general,
    ett_he,
    ett_rectangular,
    phase_time_rectangular,
    phi_rectangular,
    tau_c_rectangular,
    triangular_scalings,
)
from tunneltimes.transmission import pt_numeric, pt_rectangular_exact, pt_wkb
from tunneltimes.turning import resolve_problem
from tunneltimes.units import CONSTANTS, from_attoseconds
from tunneltimes.wkb import QUAD_TOL_DEFAULT, classical_time, dphi_dE

from quadref import mapped_quad

RATIO_GRID = np.linspace(0.1, 0.9, 9)
PHI_GRID = np.linspace(0.5, 10.0, 9)

ROOT_BAND_AU = 0.01
TAU_BAND_REL = 0.01
ETT_BAND_REL = 0.02
ETT_BAND_REL_WIDE = 0.05  # smallest benchmark cell only
WIDE_CELL = ("clementi", 0.11)
TABLE1_BUDGET_S = 5.0

IDENTITY_REL = 1e-12
ORACLE_REL = 1e-6
FLUX_ABS = 1e-9
FREE_PARTICLE_ABS = 1e-12
THERMO_REL = 1e-4
TRIANGULAR_REL = 1e-8


def length_for(ratio: float, phi: float) -> float:
    """Rectangular length realizing action phi at v0 = 1, m = 1."""
    return phi / math.sqrt(2.0 * (1.0 - ratio))


def verdict(number: int, name: str, failures) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _attribute_miss(cell: str, model: str, field: float, miss: float) -> str:
    """Blame a benchmark miss on quadrature or on turning-point placement."""
    by_tol = {}
    for tol in (1e-8, 1e-12):
        row = next(
            r for r in run_table1(quad_tol=tol)
            if (r.model, r.field) == (model, field)
        )
        by_tol[tol] = getattr(row, cell)
    swing = abs(by_tol[1e-8] - by_tol[1e-12])
    if swing < 0.1 * abs(miss):
        cause = "quadrature-insensitive; attributed to turning-point tolerance"
    else:
        cause = "quadrature-sensitive; attributed to integration tolerance"
    return (
        f"{model}/{field}/{cell}: miss {miss:+.4g}, "
        f"quad_tol 1e-8 vs 1e-12 swing {swing:.3g} -> {cause}"
    )


def test_criterion_1_helium_benchmark():
    start = time.perf_counter()
    rows = {(r.model, r.field): r for r in run_table1()}
    elapsed = time.perf_counter() - start

    failures = []
    if elapsed >= TABLE1_BUDGET_S:
        failures.append(f"runtime {elapsed:.2f} s exceeds {TABLE1_BUDGET_S} s")
    for ref in TABLE1_REFERENCE:
        got = rows[(ref.model, ref.field)]
        for cell in ("x_L", "x_R"):
            miss = getattr(got, cell) - getattr(ref, cell)
            if abs(miss) > ROOT_BAND_AU:
                failures.append(f"{ref.model}/{ref.field}/{cell}: {miss:+.4g} a.u.")
        for cell, band in (
            ("tau_c_as", TAU_BAND_REL),
            (
                "ett_as",
                ETT_BAND_REL_WIDE
                if (ref.model, ref.field) == WIDE_CELL
                else ETT_BAND_REL,
            ),
        ):
            miss = getattr(got, cell) - getattr(ref, cell)
            if abs(miss) > band * abs(getattr(ref, cell)):
                failures.append(_attribute_miss(cell, ref.model, ref.field, miss))
    verdict(1, "helium benchmark", failures)


def test_criterion_2_wide_barrier_asymptotics():
    failures = []
    phase = phase_time_rectangular(0.5, 1.0, 200.0)
    dwell = dwell_time_rectangular(0.5, 1.0, 200.0)
    if abs(phase - 2.0) > 0.01 * 2.0:
        failures.append(f"phase time {phase:.6g} outside 2.0 +- 1%")
    if abs(dwell - 1.0) > 0.01 * 1.0:
        failures.append(f"dwell time {dwell:.6g} outside 1.0 +- 1%")
    growth = ett_rectangular(0.5, 1.0, 200.0) / ett_rectangular(0.5, 1.0, 100.0)
    if not growth > 1.5:
        failures.append(f"entropic growth factor {growth:.4g} <= 1.5")
    verdict(2, "wide-barrier asymptotics", failures)


def test_criterion_3_specialization_identities():
    failures = []
    for ratio in RATIO_GRID:
        for phi in PHI_GRID:
            length = length_for(ratio, phi)
            tau_c = tau_c_rectangular(ratio, 1.0, length)
            general = ett_general(tau_c, phi, pt_rectangular_exact(ratio, 1.0, phi))
            special = ett_rectangular(ratio, 1.0, length)
            if abs(special - general) > IDENTITY_REL * abs(general):
                failures.append(f"rect identity off at ratio={ratio}, phi={phi}")
    for phi in PHI_GRID:
        general = ett_general(1.0, phi, pt_wkb(phi))
        if abs(ett_he(1.0, phi) - general) > IDENTITY_REL * abs(general):
            failures.append(f"wkb identity off at phi={phi}")
        exact_mid = pt_rectangular_exact(0.5, 1.0, phi)
        if abs(exact_mid - pt_wkb(phi)) > IDENTITY_REL * exact_mid:
            failures.append(f"half-height transmission off at phi={phi}")
    verdict(3, "specialization identities", failures)


def test_criterion_4_oracle_equivalence():
    failures = []
    for ratio in RATIO_GRID:
        for phi in PHI_GRID:
            length = length_for(ratio, phi)
            res = pt_numeric(Rectangular(1.0, length), float(ratio), slices=512)
            ref = pt_rectangular_exact(float(ratio), 1.0, phi)
            if abs(res.p_t - ref) > ORACLE_REL * ref:
                failures.append(
                    f"oracle off at ratio={ratio}, phi={phi}: "
                    f"{res.p_t:.9g} vs {ref:.9g}"
                )
            if abs(res.p_t + res.p_r - 1.0) > FLUX_ABS:
                failures.append(f"flux violation at ratio={ratio}, phi={phi}")
    free = pt_numeric(Rectangular(0.0, 2.0), 0.5)
    if abs(free.p_t - 1.0) > FREE_PARTICLE_ABS:
        failures.append(f"free particle p_t = {free.p_t!r}")
    verdict(4, "oracle equivalence", failures)


def test_criterion_5_thermodynamic_consistency():
    failures = []
    for name, zeff in (("sae", SAE), ("kullie", KULLIE), ("clementi", CLEMENTI)):
        for field in (0.04, 0.07, 0.11):
            problem = resolve_problem(LaserCoulomb(field, zeff), -0.904)
            tau_c = classical_time(problem)
            derivative = -dphi_dE(problem)
            if abs(derivative - tau_c) > THERMO_REL * tau_c:
                failures.append(
                    f"-dphi/dE vs tau_c off for {name} at field={field}: "
                    f"{derivative:.8g} vs {tau_c:.8g}"
                )

    # dS/dE against the closed-form inverse temperature, rectangular case
    v0, length, energy, h = 1.0, 2.0, 0.5, 1e-6

    def entropy_at(e: float) -> float:
        return entropy(math.exp(-2.0 * phi_rectangular(e, v0, length)))

    ds_de = (entropy_at(energy + h) - entropy_at(energy - h)) / (2.0 * h)
    inv = inverse_temperature(
        phi_rectangular(energy, v0, length), tau_c_rectangular(energy, v0, length)
    )
    if abs(ds_de - inv) > THERMO_REL * abs(inv):
        failures.append(f"dS/dE {ds_de:.8g} vs 1/kBT {inv:.8g}")

    if entropy(1.0) != 0.0:
        failures.append("S(1) != 0")
    if not 0.0 < entropy(1e-300) < 1e-297:
        failures.append("S does not vanish toward p -> 0+")
    if any(entropy(p) < 0.0 for p in np.linspace(1e-6, 1.0, 1000)):
        failures.append("S negative somewhere on (0, 1]")
    p_star, _ = entropy_maximum()
    if abs(p_star - 0.46617) > 1e-4:
        failures.append(f"entropy maximum at {p_star:.6f}, expected 0.46617 +- 1e-4")
    verdict(5, "thermodynamic consistency", failures)


def test_criterion_6_triangular_scalings():
    failures = []
    configs = (
        (1.0, 0.5, 0.25, 4.0),
        (2.0, 0.7, 0.5, 3.0),
        (1.0, 0.2, 0.4, 2.5),
    )
    for v0, energy, field, length in configs:
        phi_tri, tau_tri = triangular_scalings(v0, energy, field, length)
        problem = resolve_problem(Triangular(v0, field, length), energy)
        # action_phi and classical_time return this closed form on a full
        # ramp, so an independent quadrature integrates it
        phi_quad = mapped_quad(problem, False, QUAD_TOL_DEFAULT)
        tau_quad = mapped_quad(problem, True, QUAD_TOL_DEFAULT)
        if abs(phi_tri - phi_quad) > TRIANGULAR_REL * phi_quad:
            failures.append(f"phi ratio off at {(v0, energy, field, length)}")
        if abs(tau_tri - tau_quad) > TRIANGULAR_REL * tau_quad:
            failures.append(f"tau_c ratio off at {(v0, energy, field, length)}")
    verdict(6, "triangular scalings", failures)


def test_criterion_7_helium_scan_properties():
    failures = []
    points = he_scan()
    weak = [p for p in points if p.field == 0.04]
    if len(weak) != 3:
        failures.append(f"expected 3 models at field 0.04, got {len(weak)}")
    else:
        etts = [p.ett_as for p in weak]
        spread = (max(etts) - min(etts)) / float(np.mean(etts))
        if not spread < 0.10:
            failures.append(f"weak-field model spread {spread:.2%} >= 10%")
    strong = {p.model: p.ett_as for p in points if p.field == 0.11}
    if not strong.get("clementi", 1e9) < strong.get("kullie", 1e9) < strong.get("sae", 1e9):
        failures.append(f"strong-field ordering violated: {strong}")
    c = CONSTANTS.speed_of_light_au
    for p in points:
        if not p.phi > PHI_STAR:
            failures.append(f"phi <= phi* at field={p.field}, model={p.model}")
        if not p.ett_as > 0.0:
            failures.append(f"non-positive entropic time at field={p.field}")
        if not from_attoseconds(p.ett_as) > p.true_width / c:
            failures.append(f"superluminal traversal at field={p.field}, model={p.model}")
    verdict(7, "helium scan properties", failures)


def test_criterion_8_electron_transfer_scan():
    failures = []
    points = et_scan()
    for p in points:
        if not p.ett_fs < p.tau_c_fs:
            failures.append(
                f"entropic >= classical at delta={p.delta_e_eff}, L={p.length_angstrom}"
            )
    offenders = [
        (p.delta_e_eff, p.length_angstrom)
        for p in points
        if p.comparable_flag and p.delta_e_eff >= 0.1 and p.length_angstrom <= 15.0
    ]
    if offenders:
        failures.append(f"comparable_flag set in the excluded regime: {offenders}")
    if not any(p.comparable_flag for p in points):
        failures.append("comparable_flag never set; scan cannot reach the 5 fs scale")
    verdict(8, "electron-transfer scan", failures)
