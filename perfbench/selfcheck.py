"""Self-check of the benchmark's reference module.

    python3 perfbench/selfcheck.py

Confirms, at mpmath precision and without tunneltimes, that the closed forms
in reference.py equal direct quadrature and the definitions they come from:
rectangular, triangular and sech^2 phi and tau_c against mpmath quadrature;
the rectangular p_t, phase and dwell times against the scattering wave
function; -dphi/dE = tau_c; PHI_STAR as the zero of B(phi) and the ETT sign
around it; the helium reference inside the published Table 1 bands; and the
float tier against the mpmath tier. Prints one line per check and exits
non-zero if any fails.
"""

import math
import sys

import mpmath as mp
import numpy as np

import reference as R

DIGITS = 1e-28
failures = []


def check(name, err, tol):
    ok = err <= tol
    print(f"{'PASS' if ok else 'FAIL'} {name}: {mp.nstr(err, 3)} (<= {tol:g})")
    if not ok:
        failures.append(name)


def rel(a, b):
    return abs((a - b) / b)


def rectangular_wave(v0, length, energy):
    """Transmission amplitude, reflection amplitude, interior amplitudes and
    the incident amplitude they imply, by matching at both edges (m = 1)."""
    k, kap = mp.sqrt(2 * energy), mp.sqrt(2 * (v0 - energy))
    t = mp.exp(-1j * k * length) / (
        mp.cosh(kap * length) + 1j * (kap ** 2 - k ** 2) / (2 * k * kap) * mp.sinh(kap * length))
    at = t * mp.exp(1j * k * length)
    a = at * mp.exp(-kap * length) * (1 + 1j * k / kap) / 2
    b = at * mp.exp(kap * length) * (1 - 1j * k / kap) / 2
    incident = ((a + b) + kap * (a - b) / (1j * k)) / 2
    return t, (a + b) - incident, a, b, incident, k, kap


def main():
    for v0, length, energy in (("1", "2", "0.5"), ("2", "30", "0.3"), ("1.3", "0.4", "1.2")):
        v0, length, energy = mp.mpf(v0), mp.mpf(length), mp.mpf(energy)
        ref = R.rectangular(mp, v0, length, energy)
        phi, tau = R.integrals_mp(lambda x: v0, energy, mp.mpf(0), length)
        tag = f"rect v0={v0} L={length} E={energy}"
        check(f"{tag} phi = quadrature", rel(ref["phi"], phi), DIGITS)
        check(f"{tag} tau_c = quadrature", rel(ref["tau_c"], tau), DIGITS)
        t, r, a, b, incident, k, kap = rectangular_wave(v0, length, energy)
        check(f"{tag} matched incident amplitude = 1", abs(incident - 1), DIGITS)
        check(f"{tag} p_t = |t|^2", rel(ref["p_t"], abs(t) ** 2), DIGITS)
        check(f"{tag} p_t + p_r = 1", abs(abs(t) ** 2 + abs(r) ** 2 - 1), DIGITS)
        check(f"{tag} ETT ratio = e^(-2 phi)/p_t", rel(ref["ratio"], mp.exp(-2 * ref["phi"]) / ref["p_t"]), DIGITS)

        def phase(e):
            return mp.arg(rectangular_wave(v0, length, e)[0]) + mp.sqrt(2 * e) * length

        check(f"{tag} phase time = d(arg t + kL)/dE", rel(ref["phase"], mp.diff(phase, energy)), 1e-25)
        density = mp.quad(lambda x: abs(a * mp.exp(kap * x) + b * mp.exp(-kap * x)) ** 2, [0, length])
        check(f"{tag} dwell time = (m/k) int |psi|^2", rel(ref["dwell"], density / k), DIGITS)

    for v0, slope, length, energy in (("1", "0.1", "20", "0.5"), ("1", "0.1", "3", "0.5")):
        v0, slope, length, energy = map(mp.mpf, (v0, slope, length, energy))
        ref = R.triangular(mp, v0, slope, length, energy)
        phi, tau = R.integrals_mp(lambda x: v0 - slope * x, energy, mp.mpf(0), ref["x_right"])
        tag = f"triangular v0={v0} s={slope} L={length} E={energy}"
        check(f"{tag} phi = quadrature", rel(ref["phi"], phi), DIGITS)
        check(f"{tag} tau_c = quadrature", rel(ref["tau_c"], tau), DIGITS)

    for v0, a, energy in (("1", "1", "0.5"), ("1.7", "0.6", "0.1"), ("0.8", "1.9", "0.75")):
        v0, a, energy = map(mp.mpf, (v0, a, energy))
        ref = R.sech2(mp, v0, a, energy)
        v = lambda x: v0 / mp.cosh(x / a) ** 2
        phi, tau = R.integrals_mp(v, energy, ref["x_left"], ref["x_right"])
        tag = f"sech2 V0={v0} a={a} E={energy}"
        check(f"{tag} V(x_t) = E", rel(v(ref["x_right"]), energy), DIGITS)
        check(f"{tag} phi = quadrature", rel(ref["phi"], phi), DIGITS)
        check(f"{tag} tau_c = quadrature", rel(ref["tau_c"], tau), DIGITS)
        slope = mp.diff(lambda e: R.sech2(mp, v0, a, e)["phi"], energy)
        check(f"{tag} -dphi/dE = tau_c", rel(-slope, ref["tau_c"]), DIGITS)

    check("B(PHI_STAR) = 0", abs(R.bracket(mp, R.PHI_STAR)), DIGITS)
    check("PHI_STAR = 0.3816", abs(R.PHI_STAR - mp.mpf("0.3816")), 1e-4)
    signs = [(R.ett(mp, 1, p, R.wkb(mp, p)[0]) > 0) == (p > R.PHI_STAR)
             for p in (mp.mpf(x) / 100 for x in range(1, 300, 7))]
    check("ETT > 0 exactly when phi > PHI_STAR", 0 if all(signs) else 1, 0)

    root_band, tau_band, ett_band, wide_band = R.TABLE1_BANDS
    for (model, field), (x_l, x_r, tau_as, ett_as) in R.PAPER_TABLE1.items():
        mpr = R.laser_coulomb_mp(field, model)
        flt = R.laser_coulomb_batch([field], model)[0]
        tag = f"helium {model} F={field}"
        for i, key in enumerate(("x_left", "x_right", "phi", "tau_c")):
            check(f"{tag} float tier {key}", rel(mp.mpf(float(flt[i])), mpr[key]), 1e-11)
        ett = R.ett(mp, mpr["tau_c"], mpr["phi"], R.wkb(mp, mpr["phi"])[0]) * R.AU_TIME_AS
        band = wide_band if (model, field) == R.TABLE1_WIDE_CELL else ett_band
        inside = (abs(mpr["x_left"] - x_l) <= root_band and abs(mpr["x_right"] - x_r) <= root_band
                  and rel(mpr["tau_c"] * R.AU_TIME_AS, tau_as) <= tau_band
                  and rel(ett, ett_as) <= band)
        check(f"{tag} inside the published Table 1 bands", 0 if inside else 1, 0)
        if (field, model) in ((0.04, "sae"), (0.11, "clementi")):
            slope = mp.diff(lambda e: R.laser_coulomb_mp(field, model, e, (flt[0], flt[1]))["phi"],
                            R.HE_ENERGY)
            check(f"{tag} -dphi/dE = tau_c", rel(-slope, mpr["tau_c"]), 1e-25)

    x, y = R.sech2_samples(1.3, 0.8, 200, 10.0)
    from scipy.interpolate import PchipInterpolator

    xs = np.linspace(x[0], x[-1], 20001)
    check("PCHIP slopes reproduce scipy's PchipInterpolator",
          float(np.max(np.abs(R.Pchip(x, y)(xs) - PchipInterpolator(x, y)(xs)))), 1e-14)
    for knots in (200, 1000):
        x, y = R.sech2_samples(1.3, 0.8, knots, 10.0)
        x_l, x_r, phi, tau = R.Pchip(x, y).wkb(0.65)
        exact = R.sech2(math, 1.3, 0.8, 0.65)
        tol = 2.0 * (20.0 / (knots - 1)) ** 2
        check(f"PCHIP tier n={knots} phi vs sech2 closed form", rel(phi, exact["phi"]), tol)
        check(f"PCHIP tier n={knots} tau_c vs sech2 closed form", rel(tau, exact["tau_c"]), tol)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
