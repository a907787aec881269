"""Second-order imaginary-time expansion of the excited-subspace state.

The coherence matrix element is a spectral-density integral against the
occupation number and a three-term resonance kernel,

    C_mu_nu = pref * sum_{kappa,m,n} u[mu,m] u[kappa,m] u[kappa,n] u[nu,n]
              * int dW J_mn(W) nbar(W) K_kappa^{mu nu}(W),

with pref = exp(-beta (dw_mu + dw_nu)/2) / Z0.  The kernel has removable
singularities wherever a resonance denominator vanishes; here it is evaluated
through an exactly equivalent representation,

    K(W) = exp(-beta w / 2) * dd[exp(beta z); 0, W + w_mk, w],

where ``dd`` is the second divided difference over the three listed nodes,
w = w_mu - w_nu and w_mk = w_mu - w_kappa.  Divided differences of the
exponential are total (entire) functions of the nodes, so this form is finite
and uniformly accurate through every resonance, including the degenerate
mu = nu limit.  The antisymmetric full-line frequency integral is folded onto
W > 0 with nbar(-W) = -(1 + nbar(W)) and evaluated by adaptive
Gauss-Legendre panels split at each resonance location.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BathSpec,
    CoherenceResult,
    ConvergenceError,
    DiscreteShape,
    ExcitonBasis,
    Method,
    ModelError,
    OhmicShape,
    SiteSystem,
    Thermo,
    diagonalize_excited,
    reorganization_matrix,
    sigma0_and_partition,
)

DELTA_REG_DEFAULT = 1e-6  # cm^-1; proximity threshold for the regularized flag

_GL16 = np.polynomial.legendre.leggauss(16)
_GL32 = np.polynomial.legendre.leggauss(32)
_SERIES_TERMS = 40


def bose_occupation(omega, th: Thermo):
    """Bose-Einstein occupation nbar = 1/(exp(beta w) - 1).

    Negative frequencies use the identity nbar(-w) = -(1 + nbar(w)) for
    numerical stability; w = 0 is a domain error.
    """
    if omega == 0.0:
        raise ModelError("occupation number undefined at zero frequency")
    if omega < 0.0:
        return -(1.0 + bose_occupation(-omega, th))
    return 1.0 / np.expm1(th.beta * omega)


def _exp_divdiff_shifted(beta, n0, n1, n2):
    """Second divided difference of exp(beta*z), max-node normalized.

    Returns (scaled, zmax) with dd = exp(beta*zmax) * scaled, so the caller
    can absorb exp(beta*zmax) into other exponential factors and avoid
    overflow.  Inputs broadcast; the result is vectorized.

    Nodes clustered on the 1/beta scale use the centered Taylor series in
    complete homogeneous symmetric polynomials (exact cancellation-free
    limit); separated nodes use the sorted pairwise formula built on expm1.
    """
    z = np.stack(np.broadcast_arrays(
        np.asarray(n0, dtype=float),
        np.asarray(n1, dtype=float),
        np.asarray(n2, dtype=float),
    ), axis=0)
    zmax = z.max(axis=0)
    zs = z - zmax  # every shifted node <= 0
    spread = -zs.min(axis=0)
    series_mask = beta * spread <= 1.0

    # --- series branch: dd = exp(beta*c) * sum_k beta^(k+2) h_k / (k+2)!
    center = zs.mean(axis=0)
    d = zs - center  # sums to zero, so h_1 = e1 = 0
    e2 = d[0] * d[1] + d[0] * d[2] + d[1] * d[2]
    e3 = d[0] * d[1] * d[2]
    h_km2 = np.zeros_like(e2)   # h_{k-2}
    h_km1 = np.zeros_like(e2)   # h_{k-1}
    h_k = np.ones_like(e2)      # h_0 = 1
    total = np.zeros_like(e2)
    factor = beta * beta / 2.0  # beta^(k+2) / (k+2)! at k = 0
    for k in range(_SERIES_TERMS):
        total = total + factor * h_k
        factor = factor * beta / (k + 3)
        h_km2, h_km1, h_k = h_km1, h_k, -e2 * h_km1 + e3 * h_km2
    series = np.exp(beta * center) * total

    # --- pairwise branch on sorted nodes (outer division by the full spread)
    s = np.sort(zs, axis=0)
    denom = np.where(spread > 0, -spread, 1.0)

    def _phi1(t):
        tt = np.where(t == 0.0, 1.0, t)
        return np.where(t == 0.0, 1.0, np.expm1(t) / tt)

    f01 = beta * np.exp(beta * s[1]) * _phi1(beta * (s[0] - s[1]))
    f12 = beta * np.exp(beta * s[2]) * _phi1(beta * (s[1] - s[2]))
    pairwise = (f01 - f12) / denom

    return np.where(series_mask, series, pairwise), zmax


def _kernel_raw(beta, w, x):
    """Kernel value from (w, x) = (w_mu - w_nu, W + w_mu - w_kappa)."""
    scaled, zmax = _exp_divdiff_shifted(beta, 0.0, x, w)
    return np.exp(beta * (zmax - 0.5 * w)) * scaled


@dataclass(frozen=True)
class KernelEval:
    """Kernel value plus a flag marking evaluation near a removable pole."""

    value: float
    regularized: bool


def kernel(
    omega, kappa, mu, nu, basis: ExcitonBasis, th: Thermo,
    delta_reg=DELTA_REG_DEFAULT,
) -> KernelEval:
    """Resonance kernel K_kappa^{mu nu}(omega); indices are 0-based.

    Finite for every frequency: the apparent poles at omega = -w_mu_kappa and
    omega = -w_nu_kappa cancel between terms, and mu = nu takes the analytic
    degenerate limit.  ``regularized`` is set when the evaluation point lies
    within ``delta_reg`` of one of those removable singularities.
    """
    dw = basis.delta_omega_mu
    w = float(dw[mu] - dw[nu])
    x = float(omega + dw[mu] - dw[kappa])
    y = float(omega + dw[nu] - dw[kappa])
    value = float(_kernel_raw(th.beta, w, x))
    flagged = abs(x) < delta_reg or abs(y) < delta_reg or abs(w) < delta_reg
    return KernelEval(value=value, regularized=bool(flagged))


def _folded_weight(beta, omega, w, wmk):
    """nbar(W) K(W) + (1 + nbar(W)) K(-W), vectorized over W > 0.

    Exponentials are combined in log space so the result stays finite even
    when exp(beta*W) alone would overflow.
    """
    omega = np.asarray(omega, dtype=float)
    bw = beta * omega
    log_expm1 = bw + np.log1p(-np.exp(-bw))
    dp, mp = _exp_divdiff_shifted(beta, 0.0, omega + wmk, w)
    dm, mm = _exp_divdiff_shifted(beta, 0.0, -omega + wmk, w)
    lp = beta * (mp - 0.5 * w) - log_expm1
    lm = beta * (mm - 0.5 * w) + bw - log_expm1
    return np.exp(lp) * dp + np.exp(lm) * dm


def _adaptive_panel(f, a, b, tol, depth, diffs):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x16 = mid + half * _GL16[0]
    x32 = mid + half * _GL32[0]
    i16 = half * float(np.dot(_GL16[1], f(x16)))
    i32 = half * float(np.dot(_GL32[1], f(x32)))
    err = abs(i32 - i16)
    if err <= tol or depth >= 48:
        if err > tol:
            raise ConvergenceError(
                f"frequency quadrature stalled on panel [{a:g}, {b:g}]",
                estimates=(i16, i32),
            )
        diffs.append(err)
        return i32
    left = _adaptive_panel(f, a, mid, 0.5 * tol, depth + 1, diffs)
    right = _adaptive_panel(f, mid, b, 0.5 * tol, depth + 1, diffs)
    return left + right


def _ohmic_integral(beta, w, wmk, wnk, cutoff, rtol=1e-10, atol=1e-18):
    """int_0^inf (W/Wc) exp(-W/Wc) * folded_weight(W) dW with error estimate."""
    omega_max = 40.0 * cutoff

    def integrand(om):
        shape = (om / cutoff) * np.exp(-om / cutoff)
        return shape * _folded_weight(beta, om, w, wmk)

    edges = {omega_max}
    for pole in (abs(wmk), abs(wnk)):
        if 0.0 < pole < omega_max:
            edges.add(float(pole))
    for mult in (1.0, 5.0, 15.0):
        edges.add(mult * cutoff)
    edges = [0.0] + sorted(e for e in edges if 0.0 < e <= omega_max)

    rough = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        rough += half * float(np.dot(_GL32[1], integrand(mid + half * _GL32[0])))
    tol = max(atol, rtol * abs(rough))

    diffs = []
    total = 0.0
    n_panels = len(edges) - 1
    for a, b in zip(edges[:-1], edges[1:]):
        total += _adaptive_panel(integrand, a, b, tol / n_panels, 0, diffs)
    # analytic tail bound: |shape| integrates to Wc*(x+1)*exp(-x) beyond x*Wc
    tail = abs(float(_folded_weight(beta, omega_max, w, wmk))) * cutoff * 41.0 * np.exp(-40.0)
    return total, float(sum(diffs)) + tail


def _pair_indices(n):
    return [(mu, nu) for mu in range(n) for nu in range(mu, n)]


def _assemble_result(sys, basis, th, sigma2, err, method, extra_meta=None):
    pops0 = np.diagonal(sigma0_and_partition(basis, th)[0])
    z2 = float(np.trace(sigma2))
    c = sigma2.copy()
    np.fill_diagonal(c, pops0 * (1.0 - z2) + np.diagonal(sigma2))
    meta = {
        "z2": z2,
        "normalization": "bare second-order matrix element",
        "populations": "zeroth order with second-order correction",
        "omega_bar_defaulted": sys.omega_bar_defaulted,
    }
    if extra_meta:
        meta.update(extra_meta)
    return CoherenceResult(method=method, c_matrix=c, err_est=err, meta=meta)


def _sigma2_general(sys, basis, th, integral_for):
    """Second-order matrix from a per-(mu, nu, kappa) integral callback.

    ``integral_for(w, wmk, wnk, a_mu_kappa, a_nu_kappa)`` returns the
    spectral integral already contracted with the site weights, plus an
    error estimate.
    """
    n = sys.n_sites
    u = basis.u
    dw = basis.delta_omega_mu
    _, z0 = sigma0_and_partition(basis, th)
    sigma2 = np.zeros((n, n))
    err = 0.0
    for mu, nu in _pair_indices(n):
        pref = float(np.exp(-th.beta * (dw[mu] + dw[nu]) / 2.0)) / z0
        total = 0.0
        etotal = 0.0
        for kappa in range(n):
            a_mu = u[mu] * u[kappa]
            a_nu = u[nu] * u[kappa]
            w = float(dw[mu] - dw[nu])
            wmk = float(dw[mu] - dw[kappa])
            wnk = float(dw[nu] - dw[kappa])
            val, e = integral_for(w, wmk, wnk, a_mu, a_nu)
            total += val
            etotal += e
        sigma2[mu, nu] = sigma2[nu, mu] = pref * total
        err = max(err, pref * etotal)
    return sigma2, err


def quantum_coherence_2nd(
    sys: SiteSystem, bath: BathSpec, th: Thermo, rtol=1e-10
) -> CoherenceResult:
    """Stationary coherences to second order in the system-bath coupling.

    Off-diagonal entries are the bare second-order matrix elements; diagonal
    entries carry the zeroth-order populations with the trace-preserving
    second-order correction, so the populations sum to 1.
    """
    basis = diagonalize_excited(sys)
    e_r = reorganization_matrix(bath)

    if isinstance(bath.shape, OhmicShape):
        cutoff = bath.shape.cutoff

        def integral_for(w, wmk, wnk, a_mu, a_nu):
            b = float(a_mu @ e_r @ a_nu)
            if b == 0.0:
                return 0.0, 0.0
            val, e = _ohmic_integral(th.beta, w, wmk, wnk, cutoff, rtol=rtol)
            return b * val, abs(b) * e

    elif isinstance(bath.shape, DiscreteShape):
        omegas = bath.shape.omegas
        weights = bath.shape.normalized_weights()

        def integral_for(w, wmk, wnk, a_mu, a_nu):
            b = float(a_mu @ e_r @ a_nu)
            if b == 0.0:
                return 0.0, 0.0
            vals = _folded_weight(th.beta, omegas, w, wmk)
            return b * float(np.dot(weights, vals)), 0.0

    else:
        raise ModelError("unsupported bath shape")

    sigma2, err = _sigma2_general(sys, basis, th, integral_for)
    return _assemble_result(sys, basis, th, sigma2, err, Method.Q2)


def quantum_coherence_2nd_modes(sys: SiteSystem, dbath, th: Thermo) -> CoherenceResult:
    """Same expansion evaluated on an explicit discretized bath.

    ``dbath`` provides per-mode couplings alpha[n, k]; the spectral integral
    reduces to an exact sum over modes with matrix weights
    H_k[m, n] = alpha[m, k] alpha[n, k] / (2 Omega_k), so this shares no
    quadrature error with the oracle built on the same modes.
    """
    basis = diagonalize_excited(sys)
    omegas = np.asarray(dbath.omegas, dtype=float)
    alphas = np.asarray(dbath.alphas, dtype=float)
    hk = alphas[:, None, :] * alphas[None, :, :] / (2.0 * omegas)  # (n, n, K)

    def integral_for(w, wmk, wnk, a_mu, a_nu):
        coeff = np.einsum("m,mnk,n->k", a_mu, hk, a_nu)
        if not np.any(coeff):
            return 0.0, 0.0
        vals = _folded_weight(th.beta, omegas, w, wmk)
        return float(np.dot(coeff, vals)), 0.0

    sigma2, err = _sigma2_general(sys, basis, th, integral_for)
    return _assemble_result(
        sys, basis, th, sigma2, err, Method.Q2, extra_meta={"bath": "discretized"}
    )


def quantum_coherence_correlated(
    sys: SiteSystem, e_diag, c, shape, th: Thermo, rtol=1e-10
) -> CoherenceResult:
    """Coherences for cross-correlation coefficient c with symmetric diagonals.

    Valid when every site couples with the same diagonal reorganization
    energy E^r_nn = e_diag; then the coherence is proportional to (1 - c):
    perfectly correlated baths (c = 1) produce exactly zero, anticorrelated
    baths (c = -1) twice the uncorrelated value.  Diagonal entries hold the
    zeroth-order populations (the (1 - c) factorization is an off-diagonal
    identity only).  The off-diagonals are the uncorrelated (c = 0)
    quantum_coherence_2nd values scaled by (1 - c), and so is err_est.
    """
    e_vals = np.atleast_1d(np.asarray(e_diag, dtype=float))
    if e_vals.size == 1:
        e_vals = np.full(sys.n_sites, float(e_vals[0]))
    if e_vals.size != sys.n_sites or np.ptp(e_vals) > 1e-12 * max(1.0, e_vals.max()):
        raise ModelError(
            "correlated-bath form requires equal diagonal reorganization energies"
        )
    if not -1.0 <= c <= 1.0:
        raise ModelError("correlation coefficient must lie in [-1, 1]")
    q2 = quantum_coherence_2nd(
        sys, BathSpec(shape, e_vals, np.eye(sys.n_sites)), th, rtol=rtol
    )
    cmat = (1.0 - c) * q2.c_matrix
    sigma0, _ = sigma0_and_partition(diagonalize_excited(sys), th)
    np.fill_diagonal(cmat, np.diagonal(sigma0))
    return CoherenceResult(
        method=Method.Q2,
        c_matrix=cmat,
        err_est=abs(1.0 - c) * q2.err_est,
        meta={
            "form": "correlated (1 - c)",
            "correlation": c,
            "populations": "zeroth order",
            "omega_bar_defaulted": sys.omega_bar_defaulted,
        },
    )


def uncertainty_lower_bound(sys: SiteSystem, bath_modes, result: CoherenceResult):
    """Lower bound on the system/system-bath energy-uncertainty product.

    Evaluates (1/2) |sum_k tr([H_S, S_k] C)| in the exciton basis, with
    S_k = hbar * sum_n alpha_nk |n><n|.  Zero whenever C is diagonal or every
    coupling operator commutes with the system Hamiltonian (e.g. a perfectly
    correlated bath).
    """
    basis = diagonalize_excited(sys)
    c = np.asarray(result.c_matrix, dtype=float)
    alphas = np.asarray(bath_modes.alphas, dtype=float)
    if c.shape != (sys.n_sites, sys.n_sites):
        raise ModelError("coherence matrix dimension does not match system")
    if alphas.shape[0] != sys.n_sites:
        raise ModelError("bath coupling rows do not match system sites")
    dw = basis.delta_omega_mu
    u = basis.u
    total = 0.0
    for k in range(alphas.shape[1]):
        s_exc = u @ np.diag(alphas[:, k]) @ u.T
        # sum_{mu,nu} (dw_nu - dw_mu) S[nu, mu] C[mu, nu]
        total += float(np.sum((dw[None, :] - dw[:, None]) * s_exc.T * c))
    return 0.5 * abs(total)
