"""Third-order phase-space expansion of the stationary coherence matrix.

Expanding the Boltzmann operator in powers of hbar and averaging over the
classical bath ensemble leaves only second Gaussian moments of the bath
coordinates, <Q_k Q_l> = delta_kl / (beta Omega_k^2).  Every term therefore
collapses onto the reorganization-energy matrix and the expansion is exact in
closed form:

    C = (1/N) * u [ (beta^2/2) M2
                    - (beta^3/6) (M2 He + He M2 + Mehe) ] u^T

with site-basis matrices M2 = diag(2 E^r_nn / beta) and
Mehe[m, n] = (2 E^r_mn / beta) He[m, n].  The bath average of the B2 Wigner
term is -hbar^2 sum_k Omega_k^2 / 12 times the identity, so it shifts only
populations and normalization and never reaches a coherence.  A Monte-Carlo
evaluation of the bath averages is provided to validate the moment algebra.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CoherenceResult,
    DiscretizedBath,
    ExcitonBasis,
    Method,
    ModelError,
    SiteSystem,
    Thermo,
    UnsupportedConfigError,
    check_bath_type,
    check_one_temperature,
    exciton_setup,
    populations_and_partition,
    site_hamiltonian,
    zeroth_order_result,
)


def _float_power(beta, k):
    """beta**k elementwise, by Python's float power as for one temperature.

    numpy's power rounds some arguments to another neighbour, so a batch row
    would differ from the single-temperature value.
    """
    beta = np.asarray(beta)
    return np.reshape([b**k for b in beta.ravel().tolist()], beta.shape)


def _hbar3_site_matrix(h_e, e_r, beta):
    """Site-basis matrix at each beta of a (T, 1, 1) array, shape (T, N, N)."""
    m2 = np.diag(2.0 * np.diagonal(e_r)) / beta
    mehe = (2.0 * e_r / beta) * h_e
    b2, b3 = _float_power(beta, 2), _float_power(beta, 3)
    return (b2 / 2.0) * m2 - (b3 / 6.0) * (m2 @ h_e + h_e @ m2 + mehe)


def hbar3_general(sys: SiteSystem, bath, th: Thermo) -> CoherenceResult:
    """Order-hbar^3 coherences for any number of sites.

    ``bath`` may be a BathSpec or a discretized bath; only its
    reorganization-energy matrix enters.  Off-diagonals are the expansion
    values; diagonals carry the zeroth-order populations.
    """
    basis, e_r = exciton_setup(sys, bath)
    beta = np.atleast_1d(th.beta)[:, None, None]
    site = _hbar3_site_matrix(site_hamiltonian(sys), e_r, beta)
    c = (basis.u @ site @ basis.u.T / sys.n_sites).reshape(np.shape(th.beta) + e_r.shape)
    c = 0.5 * (c + np.swapaxes(c, -1, -2))
    return zeroth_order_result(Method.HBAR3, sys, basis, th, c)


def hbar3_dimer(basis: ExcitonBasis, e_r, th: Thermo) -> CoherenceResult:
    """Dimer closed form, an independent code path from hbar3_general.

    In terms of the mixing angle,

        C12 = (beta/2) cos(phi) sin(phi) (E11 - E22)
            + (beta^2/12) D_S cos(phi) sin(phi) (cos^2(phi) - sin^2(phi))
              * (E11 + E22 - 2 E12),

    with D_S the exciton splitting.  The angle factors are evaluated from
    products of u-matrix entries so the row-sign convention fixes the sign of
    C12 consistently with the general transform for every input ordering.
    """
    if basis.n_sites != 2:
        raise UnsupportedConfigError("dimer closed form requires two sites")
    e_r = np.asarray(e_r, dtype=float)
    if e_r.shape != (2, 2):
        raise ModelError(f"dimer closed form needs a 2 x 2 E^r, got shape {e_r.shape}")
    u = basis.u
    beta = th.beta
    d_s = float(basis.omega_mu[1] - basis.omega_mu[0])
    g = float(u[0, 0] * u[1, 0])                     # cos(phi) sin(phi)
    h = float(u[0, 0] * u[1, 1] + u[0, 1] * u[1, 0])  # cos^2 - sin^2
    delta_site = d_s * float(u[0, 0] ** 2 - u[1, 0] ** 2)
    v_site = 0.5 * d_s * float(u[1, 0] * u[1, 1] - u[0, 0] * u[0, 1])
    c12 = (
        0.5 * beta * g * (e_r[0, 0] - e_r[1, 1])
        + _float_power(beta, 2) / 12.0
        * (g * delta_site * (e_r[0, 0] + e_r[1, 1]) - 2.0 * v_site * e_r[0, 1] * h)
    )
    pops, _ = populations_and_partition(basis, th)
    c = np.empty(pops.shape + (2,))   # (2, 2), or (T, 2, 2) for a batch
    c[..., 0, 1] = c[..., 1, 0] = c12
    c[..., (0, 1), (0, 1)] = pops
    return CoherenceResult(
        method=Method.HBAR3,
        c_matrix=c,
        err_est=0.0,
        meta={"populations": "zeroth order", "form": "dimer closed form"},
    )


def hbar3_monte_carlo(sys, dbath, th, n_samples=200000, seed=0):
    """Monte-Carlo estimate of the hbar^3 coherence matrix.

    Samples classical bath coordinates Q_k ~ N(0, 1/(beta Omega_k^2)) and
    averages the operator expression directly; validates the closed-form
    Gaussian moment algebra of hbar3_general.  Returns the exciton-basis
    matrix (no population fill), to be compared off-diagonal.
    """
    check_bath_type(dbath, DiscretizedBath, "hbar3_monte_carlo")
    check_one_temperature(th, "hbar3_monte_carlo")
    rng = np.random.default_rng(seed)
    basis, _ = exciton_setup(sys, dbath)
    h_e = site_hamiltonian(sys)
    sigma_q = 1.0 / (np.sqrt(th.beta) * dbath.omegas)
    q = rng.standard_normal((n_samples, dbath.n_modes)) * sigma_q
    x = q @ dbath.alphas.T  # (samples, sites): diagonal of H_SB per sample
    cov = x.T @ x / n_samples
    m2 = np.diag(np.diagonal(cov))
    mehe = cov * h_e
    site = (th.beta**2 / 2.0) * m2 - (th.beta**3 / 6.0) * (
        m2 @ h_e + h_e @ m2 + mehe
    )
    c = basis.u @ site @ basis.u.T / sys.n_sites
    return 0.5 * (c + c.T)
