"""Semiclassical stationary coherences for the coupled dimer.

Quantizing the system action maps the coherence element onto a classical
angle-torus average against an effective Hamiltonian that depends only on the
angle difference Theta.  The dimer coherence then reduces to a single
periodic integral,

    C12 = (1/Z0) * (1/2pi) int_0^{2pi} exp(-beta H_eff(Theta)) cos(Theta) dTheta,

evaluated here by a doubling periodic trapezoid rule (spectrally accurate for
smooth periodic integrands), plus the first-order closed form
C12 = (beta/Z0) * f * (E11 - E22) with f = cos(phi) sin(phi).  Both results
carry the zeroth-order populations on the diagonal.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BathSpec,
    CoherenceResult,
    ConvergenceError,
    Method,
    SiteSystem,
    Thermo,
    UnsupportedConfigError,
    exciton_setup,
    populations_and_partition,
    zeroth_order_result,
)

ANGLE_TOL = 1e-13  # relative convergence tolerance of the angle quadrature
ANGLE_MAX_POINTS = 2**20  # largest trapezoid rule tried before giving up


def _h_eff_from_f(theta, e_r, f):
    c = np.cos(theta)
    return (
        -2.0 * e_r[0, 1] * (0.25 - 4.0 * f * f * c * c)
        - e_r[0, 0] * (0.5 + 2.0 * f * c) ** 2
        - e_r[1, 1] * (0.5 - 2.0 * f * c) ** 2
    )


def h_eff_theta(theta, e_r, phi):
    """Effective angle Hamiltonian of the dimer coherence state (cm^-1)."""
    e_r = np.asarray(e_r, dtype=float)
    return _h_eff_from_f(theta, e_r, np.cos(phi) * np.sin(phi))


def _dimer_setup(sys, bath):
    if sys.n_sites != 2:
        raise UnsupportedConfigError(
            "semiclassical coherences are derived for the dimer only"
        )
    basis, e_r = exciton_setup(sys, bath)
    # u[0,0]*u[1,0] equals cos(phi) sin(phi) for the rotation parametrization
    # and tracks the row-sign convention, keeping the sign of C12 consistent
    # with the general exciton-basis machinery.
    f = float(basis.u[0, 0] * basis.u[1, 0])
    return basis, e_r, f


def semiclassical_exact(sys: SiteSystem, bath: BathSpec, th: Thermo) -> CoherenceResult:
    """Dimer coherence from the exact one-dimensional angle integral."""
    basis, e_r, f = _dimer_setup(sys, bath)
    _, z0 = populations_and_partition(basis, th)

    def estimate(n):
        theta = 2.0 * np.pi * np.arange(n) / n
        g = np.exp(-th.beta * _h_eff_from_f(theta, e_r, f)) * np.cos(theta)
        return float(np.mean(g))

    n = 64
    prev = estimate(n)
    err = np.inf
    while n <= ANGLE_MAX_POINTS:
        n *= 2
        cur = estimate(n)
        err = abs(cur - prev)
        if err < ANGLE_TOL * max(1.0, abs(cur)):
            break
        prev = cur
    else:
        raise ConvergenceError(
            "angle quadrature did not converge", estimates=(prev, cur)
        )
    c = np.full((2, 2), cur / z0)
    return zeroth_order_result(
        Method.SC_EXACT, sys, basis, th, c, err_est=err / z0, n_points=n
    )


def semiclassical_second_order(
    sys: SiteSystem, bath: BathSpec, th: Thermo
) -> CoherenceResult:
    """Closed form accurate to second order in the system-bath coupling."""
    basis, e_r, f = _dimer_setup(sys, bath)
    _, z0 = populations_and_partition(basis, th)
    c = np.full((2, 2), th.beta / z0 * f * (e_r[0, 0] - e_r[1, 1]))
    return zeroth_order_result(Method.SC2, sys, basis, th, c)
