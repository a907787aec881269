"""Semiclassical stationary coherences for the coupled dimer.

Quantizing the system action maps the coherence element onto a classical
angle-torus average against an effective Hamiltonian that depends only on the
angle difference Theta.  The dimer coherence then reduces to a single
periodic integral,

    C12 = (1/Z0) * (1/2pi) int_0^{2pi} exp(-beta H_eff(Theta)) cos(Theta) dTheta,

with H_eff = A + B cos(Theta) + C cos(Theta)^2.  The part of
exp(-beta H_eff) even in cos(Theta) averages to zero against cos(Theta), so
only the odd part is integrated,

    C12 = -(1/Z0) <exp(-beta (A + C cos^2)) sinh(beta B cos) cos>_Theta,

exactly zero when B = -2f (E11 - E22) vanishes, with nothing to cancel.
Neither Z0 nor the integrand is formed: 1/Z0 = p0 exp(beta dw0), with p0 and
dw0 the lowest exciton's population and energy, so the integrand is
(p0/2) sign(B) exp(-beta (x - |y|)) expm1(-2 beta |y|) |cos|, with
x = A - dw0 + C cos^2 and y = B cos.  It is finite at any temperature where
x - |y| >= 0, that is where H_eff never drops below the lowest exciton,
exact to rounding however small beta |y| is, and of one sign at every node,
so the rules converge C12 relative to its own size.  It is evaluated by a
doubling periodic trapezoid rule (spectrally accurate for
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
    Diagnostics,
    Method,
    SiteSystem,
    Thermo,
    UnsupportedConfigError,
    exciton_setup,
    over_batches,
    populations_and_partition,
    zeroth_order_result,
)

ANGLE_TOL = 1e-13  # relative convergence tolerance of the angle quadrature
ANGLE_MAX_POINTS = 2**21  # largest trapezoid rule evaluated before giving up
_TINY = np.finfo(float).tiny  # relative convergence of an exact zero


def _h_eff_terms(e_r, f):
    """(A, B, C) of H_eff(Theta) = A + B cos(Theta) + C cos(Theta)^2."""
    e11, e22, e12 = e_r[0, 0], e_r[1, 1], e_r[0, 1]
    return (-(e11 + e22) / 4.0 - e12 / 2.0,
            -2.0 * f * (e11 - e22),
            4.0 * f * f * (2.0 * e12 - e11 - e22))


def h_eff_theta(theta, e_r, phi):
    """Effective angle Hamiltonian of the dimer coherence state (cm^-1)."""
    a, b, c = _h_eff_terms(np.asarray(e_r, dtype=float), np.cos(phi) * np.sin(phi))
    cos = np.cos(theta)
    return a + b * cos + c * cos * cos


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
    """Dimer coherence from the exact one-dimensional angle integral.

    Each temperature doubles its rule from 64 points, to at most
    ANGLE_MAX_POINTS, until two rules agree to ANGLE_TOL relative to C12 (an
    exact zero converges at once); in a batch, only the temperatures not yet
    converged take the next rule.
    """
    basis, e_r, f = _dimer_setup(sys, bath)
    # 1/Z0 = p0 exp(beta dw0), with p0 the lowest exciton's population
    p0 = np.atleast_1d(populations_and_partition(basis, th)[0][..., 0])
    beta = np.atleast_1d(th.beta)
    a, b, c = _h_eff_terms(e_r, f)
    a = a - basis.delta_omega_mu[0]

    def estimate(n, rows):
        abs_cos = np.abs(np.cos(2.0 * np.pi * np.arange(n) / n))
        even, odd = a + c * abs_cos * abs_cos, abs(b) * abs_cos

        def mean(run):
            bt = beta[rows[run], None]
            # -exp(-beta x) sinh(beta y) cos
            #   = sign(B) exp(-beta (x - |y|)) expm1(-2 beta |y|) |cos| / 2,
            # exact for small beta |y|; 0.0 + x: +0.0 when B = 0
            terms = np.exp(-bt * (even - odd)) * np.expm1(-2.0 * bt * odd) * abs_cos
            return (0.0 + 0.5 * np.sign(b) * p0[rows[run]] * np.mean(terms, axis=-1),)

        return over_batches(mean, [n] * rows.size)[0]

    n = 64
    todo = np.arange(beta.size)  # temperatures not yet converged
    cur = estimate(n, todo)
    prev, err, n_points = cur.copy(), np.full(beta.shape, np.inf), np.zeros(beta.shape, int)
    while todo.size and n < ANGLE_MAX_POINTS:
        n *= 2
        prev[todo], cur[todo] = cur[todo], estimate(n, todo)
        err[todo], n_points[todo] = np.abs(cur[todo] - prev[todo]), n
        todo = todo[~(err[todo] < ANGLE_TOL * np.maximum(np.abs(cur[todo]), _TINY))]
    if todo.size:
        i = int(todo[0])
        raise ConvergenceError("angle quadrature did not converge",
                               estimates=(prev[i], cur[i]), index=i)
    shape = np.shape(th.beta)
    c = np.multiply.outer(cur, np.ones((2, 2))).reshape(shape + (2, 2))
    err_est = err.reshape(shape)
    return zeroth_order_result(Method.SC_EXACT, basis, th, c, err_est,
                               Diagnostics(n_points=n_points.reshape(shape)))


def semiclassical_second_order(
    sys: SiteSystem, bath: BathSpec, th: Thermo
) -> CoherenceResult:
    """Closed form accurate to second order in the system-bath coupling."""
    basis, e_r, f = _dimer_setup(sys, bath)
    _, z0 = populations_and_partition(basis, th)
    c = np.multiply.outer(th.beta / z0 * f * (e_r[0, 0] - e_r[1, 1]), np.ones((2, 2)))
    return zeroth_order_result(Method.SC2, basis, th, c)
