"""An independent quadrature for the tests: scipy's adaptive Gauss-Kronrod
``quad`` on the same sin^2 map as the package's panel rule. The package
itself never imports scipy."""

import math

import pytest


def mapped_quad(problem, want_time, quad_tol):
    """phi (want_time False) or tau_c of a resolved problem by ``quad`` on
    x = x_L + (x_R - x_L) sin^2(t), one scalar potential call per node.
    Fails the test if quad gives up with an error estimate above quad_tol."""
    integrate = pytest.importorskip("scipy.integrate")
    x_l, w, m = problem.x_left, problem.width, problem.mass

    def f(theta):
        s = math.sin(theta)
        d = max(problem.barrier.potential(x_l + w * s * s) - problem.energy, 0.0)
        p = math.sqrt(2.0 * m * d)
        jac = w * math.sin(2.0 * theta)
        return m * jac / max(p, 1e-300) if want_time else p * jac

    out = integrate.quad(f, 0.0, 0.5 * math.pi, epsabs=0.0, epsrel=quad_tol,
                         limit=2**16, full_output=True)
    value, abserr = out[0], out[1]
    assert len(out) == 3 or abserr <= quad_tol * abs(value), out[3]
    return value
