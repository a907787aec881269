"""Second-order imaginary-time expansion of the excited-subspace state.

To second order in the system-bath coupling, with the bath spectral density
J(W) = sum_l H_l j_l(W), the bare matrix elements of the reduced state are
one integral over imaginary time s in [0, beta],

    sigma_mu_nu = (1/Z0) sum_{kappa,l} b_mu_nu_kappa_l int_0^beta ds c_l(s)
                  * exp(-s dw_kappa) [exp(-(beta - s) dw_nu)
                  - exp(-(beta - s) dw_mu)] / (dw_mu - dw_nu),

with b_mu_nu_kappa_l = (u[mu] u[kappa]) . H_l . (u[nu] u[kappa]) the site
weights, exciton energies dw measured from the lowest exciton and Z0 their
partition sum, so no exponent is positive at any temperature.  The bracket is
a first divided difference, evaluated with expm1 on the sorted pair so it
stays finite as dw_mu -> dw_nu.  The bath enters only through H_l and the
correlation c_l(s) = int_0^inf dW j_l(W) [(1 + nbar(W)) exp(-W s)
+ nbar(W) exp(W s)], both closed form:

    Ohmic, J(W) = E^r (W/Wc) exp(-W/Wc): one term, H = E^r and
        c(s) = [psi_1(a + s/beta) + psi_1(a + 1 - s/beta)] / (Wc beta^2),
        a = 1/(Wc beta), psi_1 the trigamma function;
    a line H_l delta(W - Omega_l), lines of equal Omega_l merged:
        c_l(s) = (1 + nbar_l) [exp(-Omega_l s) + exp(-Omega_l (beta - s))],
        1 + nbar_l = -1/expm1(-beta Omega_l).

Each c_l(s) = c_l(beta - s) peaks at both ends of [0, beta] with width 1/W
for the bath's rate W (Wc, or the highest Omega_l), so one fixed grid of
Gauss-Legendre panels, graded geometrically from both ends, serves every
(mu, nu, kappa, l); err_est is the largest entry of the change from the
embedded 16-point rule on the same panels, assembled as the result is.
(``_folded_weight`` is a line's frequency-domain form, kept as the tests'
reference.)
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .core import (
    BathSpec,
    CoherenceResult,
    Diagnostics,
    DiscretizedBath,
    ExcitonBasis,
    Method,
    ModelError,
    OhmicShape,
    SiteSystem,
    Thermo,
    check_bath_type,
    check_integer,
    check_one_temperature,
    diagonalize_excited,
    exciton_setup,
    over_batches,
    populations_and_partition,
    zeroth_order_result,
)

_GL16, _GL32 = (np.polynomial.legendre.leggauss(n) for n in (16, 32))
_RULE_NODES = np.concatenate([_GL16[0], _GL32[0]])  # the embedded rule on [-1, 1]
_RULE_WEIGHTS = np.zeros((2, 48))  # one row per rule, zero on the other rule's nodes
_RULE_WEIGHTS[0, :16], _RULE_WEIGHTS[1, 16:] = _GL16[1], _GL32[1]
_EPS = np.finfo(float).eps
_SERIES_TERMS = 40
_TRIGAMMA_RECUR = 20.0  # trigamma recurs up to this argument, then the series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)  # B_2..B_14


def bose_occupation(omega, th: Thermo):
    """Bose-Einstein occupation nbar = 1/(exp(beta w) - 1).

    Negative frequencies use the identity nbar(-w) = -(1 + nbar(w)) for
    numerical stability; w = 0 and a non-finite w are domain errors.
    """
    if not np.isfinite(omega):
        raise ModelError(f"occupation number needs a finite frequency, got {omega}")
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


def kernel(omega, kappa, mu, nu, basis: ExcitonBasis, th: Thermo) -> float:
    """Resonance kernel K_kappa^{mu nu}(omega); indices are 0-based.

    Finite for every frequency: the apparent poles at omega = -w_mu_kappa and
    omega = -w_nu_kappa cancel between terms, and mu = nu takes the analytic
    degenerate limit.  A non-finite omega, an index outside 0..N-1 or one
    that is not an integer is a ModelError.
    """
    check_one_temperature(th, "kernel")
    if not np.isfinite(omega):
        raise ModelError(f"kernel needs a finite frequency, got {omega}")
    for name, index in (("kappa", kappa), ("mu", mu), ("nu", nu)):
        check_integer(index, name, 0, basis.n_sites - 1)
    dw = basis.delta_omega_mu
    w = float(dw[mu] - dw[nu])
    x = float(omega + dw[mu] - dw[kappa])
    return float(_kernel_raw(th.beta, w, x))


def _folded_weight(beta, omega, dw_mu, dw_nu, dw_kappa):
    """exp(-beta (dw_mu + dw_nu)/2) [nbar(W) K(W) + (1 + nbar(W)) K(-W)], W > 0,
    with K(W) = exp(-beta w / 2) dd[exp(beta z); 0, W + w_mk, w] the resonance
    kernel (w = w_mu - w_nu, w_mk = w_mu - w_kappa, dd a second divided difference).

    Summed over kappa with a line's site weights and divided by Z0, this is the
    line's sigma_mu_nu in the frequency domain: the exact reference the tests
    compare the imaginary-time contraction with.  The benchmark's span tracer
    (perfbench/tracer.py) wraps it by this name.  Energies are measured from the
    lowest exciton; inputs broadcast.  The prefactor is folded into the log-space
    exponents of the two divided differences, neither of which exceeds
    log(1 + nbar(W)), so the result is finite at any temperature.
    """
    omega = np.asarray(omega, dtype=float)
    bw = beta * omega
    log_expm1 = bw + np.log1p(-np.exp(-bw))
    w = dw_mu - dw_nu
    wmk = dw_mu - dw_kappa
    dp, mp = _exp_divdiff_shifted(beta, 0.0, omega + wmk, w)
    dm, mm = _exp_divdiff_shifted(beta, 0.0, -omega + wmk, w)
    lp = beta * (mp - dw_mu) - log_expm1
    lm = beta * (mm - dw_mu) + bw - log_expm1
    return np.exp(lp) * dp + np.exp(lm) * dm


def _trigamma(x):
    """Trigamma psi_1(x) for x > 0, vectorized.

    Recurs psi_1(x) = psi_1(x + 1) + 1/x^2 up to y = x + n >= 20, adding
    the n terms 1/(x + k)^2 smallest first, each over all of x (so a batch
    of many temperatures needs no (x, n) array), then sums the asymptotic
    series 1/y + 1/(2 y^2) + sum_k B_2k / y^(2k+1) (Abramowitz & Stegun
    6.4.11-12), whose first omitted term is below 1e-20 relative.
    """
    x = np.asarray(x, dtype=float)
    n = max(0, int(np.ceil(_TRIGAMMA_RECUR - x.min())))
    y = x + n
    inv2 = 1.0 / (y * y)
    series = 0.0
    for b in reversed(_BERNOULLI):
        series = (series + b) * inv2
    recurrence = np.zeros_like(y)
    for k in reversed(range(n)):
        recurrence += 1.0 / (x + k) ** 2
    return (1.0 + 0.5 / y + series) / y + recurrence


def _panels(half, rate):
    """Panel edges graded geometrically from 0, the first 1/(4 rate) wide (rate the
    bath's fastest scale) and each next twice as wide, and the panel count up to
    each half; the edges hold one more entry than the largest count."""
    first = 0.25 / rate
    edges = first * (2.0 ** np.arange(int(np.log2(half.max() / first + 1.0)) + 2) - 1.0)
    return edges, np.sum(edges < half[:, None], axis=1)


def _half_nodes(betas, rate):
    """Nodes on [0, beta/2] of every beta, concatenated, their (16-point, 32-point)
    weights, shape (2, H), and each temperature's node count; each of the ``_panels``
    carries the embedded rule.  The grid on [0, beta] adds beta minus each node."""
    half = 0.5 * betas
    edges, panels = _panels(half, rate)
    owner = np.repeat(np.arange(betas.size), panels)
    k = np.arange(owner.size) - np.repeat(np.cumsum(panels) - panels, panels)
    upper = np.minimum(edges[k + 1], half[owner])
    mid = 0.5 * (upper + edges[k])[:, None]
    rad = 0.5 * (upper - edges[k])[:, None]
    nodes = (mid + rad * _RULE_NODES).ravel()
    return nodes, (rad * _RULE_WEIGHTS[:, None]).reshape(2, -1), 48 * panels


def _exciton_weights(basis, h):
    """(u[mu] u[kappa]) . h[:, :, line] . (u[nu] u[kappa]), shape (kappa, line, mu, nu).

    One batched product P_kappa @ h @ P_kappa^T with P[kappa, mu, i] =
    u[mu, i] u[kappa, i], batched over kappa and the line axis of h:
    O(N^4) per line, about 0.1 / 3 / 21 ms at N = 20 / 50 / 100 sites
    (2 cores, OpenBLAS).
    """
    pair = (basis.u[None, :, :] * basis.u[:, None, :])[:, None]  # (kappa, 1, mu, site)
    return pair @ np.moveaxis(h, -1, 0) @ pair.swapaxes(-1, -2)


def _ohmic_correlation(cutoff, s, beta):
    """c(s) of the Ohmic shape at nodes s of inverse temperatures beta, (nodes, 1).

    At a beta near the float limit c(s) is not finite, and the result built
    on it is refused as non-finite, without warnings.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = s / beta
        psi = _trigamma(np.tile(1.0 / (cutoff * beta), 2) + np.concatenate([t, 1.0 - t]))
        return ((psi[: s.size] + psi[s.size:]) / (cutoff * beta**2))[:, None]


def _line_bath(omegas, hk):
    """Line weights h (N, N, L), rate and correlation of the line spectrum
    sum_k hk[:, :, k] delta(W - Omega_k), lines of equal Omega summed."""
    lines, group = np.unique(omegas, return_inverse=True)
    h = hk @ (group[:, None] == np.arange(lines.size))

    def correlation(s, beta):
        return (np.exp(-np.outer(s, lines)) + np.exp(-np.outer(beta - s, lines))) / (
            -np.expm1(-np.outer(beta, lines)))

    # an empty mode set has no rate; any grid then sums to exact zeros
    return h, lines[-1] if lines.size else 1.0, correlation


def _sigma2(basis, beta, h, rate, correlation):
    """Second-order matrices of a bath and their change from the 16-point rule.

    The bath is its line weights ``h`` (N, N, L), its ``rate`` and its
    ``correlation(s, beta)``, c_l at nodes s of inverse temperatures beta,
    (nodes, L).  ``beta`` is one inverse temperature or a 1-d batch; the
    results take its shape.  Each batch of ``over_batches`` concatenates its
    temperatures' node grids, the two mirrored halves on a leading axis:
    c_l(s) exp(-s dw_kappa) @ b is one product summing kappa and the lines,
    the bracket multiplies in place and the weights sum each temperature's
    nodes.  O(S N^3 L) per temperature.
    """
    n, lines = h.shape[1:]
    dw = basis.delta_omega_mu - np.min(basis.delta_omega_mu)
    b = _exciton_weights(basis, h).reshape(n * lines, n * n)
    gap = np.abs(np.subtract.outer(dw, dw))
    safe_gap = np.where(gap > 0.0, gap, 1.0)
    betas = np.atleast_1d(beta)

    def run(sl):
        half, weights, count = _half_nodes(betas[sl], rate)
        bt = np.repeat(betas[sl], count)
        # each grid's second half is beta minus its first, and c(s) = c(beta - s);
        # beta - s of a mirrored node is the node itself, exact at any beta
        s = np.stack([half, bt - half])
        rest = s[::-1, :, None, None]
        divdiff = np.where(gap > 0.0, -np.expm1(-rest * gap) / safe_gap, rest)
        # one product sums kappa and the lines: c_l(s) exp(-s dw_kappa) @ b
        decay = np.exp(-np.multiply.outer(s, dw))[..., None] * correlation(half, bt)[:, None]
        terms = decay.reshape(2 * half.size, -1) @ b
        terms *= (np.exp(-rest * np.minimum.outer(dw, dw)) * divdiff).reshape(terms.shape)
        # per rule, the weighted sum over each temperature's nodes, then both halves
        terms, seg = terms.reshape(2, half.size, -1), np.cumsum(count) - count
        z0 = np.sum(np.exp(-betas[sl, None] * dw), axis=-1)[:, None, None]
        sig16, sig32 = (np.add.reduceat(w[:, None] * terms, seg, axis=1).sum(axis=0)
                        .reshape(-1, n, n) / z0 for w in weights)
        return sig32, sig32 - sig16

    # a temperature's largest arrays: two halves of 48 nodes a panel, by N max(N, L)
    sig32, change = over_batches(run, 96 * n * max(n, lines) * _panels(0.5 * betas, rate)[1])
    sig32 = 0.5 * (sig32 + sig32.swapaxes(-1, -2))  # symmetric to the last bit
    return (sig32.reshape(np.shape(beta) + (n, n)),
            change.reshape(np.shape(beta) + (n, n)))


def _assemble_result(basis, th, sigma2, change):
    """q-2 result from the second-order matrices and their 16/32-point change.

    Population mu is p0_mu (1 - sum_{nu != mu} sigma_nu_nu) + sigma_mu_mu
    sum_{nu != mu} p0_nu: the trace-preserving p0 (1 - z2) + sigma with
    nothing cancelling against z2, which grows like beta.  err_est is the
    largest entry of the same assembly applied to ``change``, and at least
    one rounding (eps) of the largest reported entry: two rules that agree to
    the bit still carry the rounding of the sums they share.
    """
    pops0, _ = populations_and_partition(basis, th)
    others = 1.0 - np.eye(pops0.shape[-1])  # sums over nu != mu

    def assemble(sigma, one):
        c = sigma.copy()
        s = np.diagonal(sigma, axis1=-2, axis2=-1)
        diag = np.arange(c.shape[-1])
        c[..., diag, diag] = pops0 * (one - s @ others) + s * (pops0 @ others)
        return c

    c = assemble(sigma2, 1.0)
    err = np.maximum(np.max(np.abs(assemble(change, 0.0)), axis=(-2, -1)),
                     _EPS * np.max(np.abs(c), axis=(-2, -1)))
    z2 = np.trace(sigma2, axis1=-2, axis2=-1)
    return CoherenceResult(Method.Q2, c, err, Diagnostics(z2=z2))


def quantum_coherence_2nd(sys: SiteSystem, bath: BathSpec, th: Thermo) -> CoherenceResult:
    """Stationary coherences to second order in the system-bath coupling.

    Off-diagonal entries are the bare second-order matrix elements; diagonal
    entries carry the zeroth-order populations with the trace-preserving
    second-order correction, so the populations sum to 1.  A DiscreteShape
    bath is the line spectrum H_k = w_k E^r with normalized weights w_k.  A
    batch ``th`` is evaluated in one pass over all of its temperatures.
    """
    check_bath_type(bath, BathSpec, "quantum_coherence_2nd")
    basis, e_r = exciton_setup(sys, bath)
    shape = bath.shape
    if isinstance(shape, OhmicShape):
        terms = e_r[:, :, None], shape.cutoff, partial(_ohmic_correlation, shape.cutoff)
    else:
        terms = _line_bath(shape.omegas, e_r[:, :, None] * shape.normalized_weights())
    return _assemble_result(basis, th, *_sigma2(basis, th.beta, *terms))


def quantum_coherence_2nd_modes(sys: SiteSystem, dbath, th: Thermo) -> CoherenceResult:
    """Same expansion evaluated on an explicit discretized bath.

    ``dbath`` provides per-mode couplings alpha[n, k]; the bath is the line
    spectrum with matrix weights H_k[m, n] = alpha[m, k] alpha[n, k] /
    (2 Omega_k), so this sees exactly the modes the oracle built on them
    sees, and differs from it beyond second order only (and by err_est).
    """
    check_bath_type(dbath, DiscretizedBath, "quantum_coherence_2nd_modes")
    basis, _ = exciton_setup(sys, dbath)
    alphas = dbath.alphas
    hk = alphas[:, None, :] * alphas[None, :, :] / (2.0 * dbath.omegas)  # (n, n, K)
    sigma2 = _sigma2(basis, th.beta, *_line_bath(dbath.omegas, hk))
    return _assemble_result(basis, th, *sigma2)


def quantum_coherence_correlated(
    sys: SiteSystem, e_diag, c, shape, th: Thermo
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
    if not e_vals.size or np.ptp(e_vals) > 1e-12 * max(1.0, e_vals.max()):
        raise ModelError(
            "correlated-bath form requires equal diagonal reorganization energies"
        )
    if not -1.0 <= c <= 1.0:
        raise ModelError("correlation coefficient must lie in [-1, 1]")
    q2 = quantum_coherence_2nd(sys, BathSpec(shape, e_vals, np.eye(e_vals.size)), th)
    return zeroth_order_result(
        Method.Q2, diagonalize_excited(sys), th, (1.0 - c) * q2.c_matrix,
        err_est=abs(1.0 - c) * q2.err_est,
    )


def uncertainty_lower_bound(sys: SiteSystem, bath_modes, result: CoherenceResult):
    """Lower bound on the system/system-bath energy-uncertainty product.

    Evaluates (1/2) |sum_k tr([H_S, S_k] C)| in the exciton basis, with
    S_k = hbar * sum_n alpha_nk |n><n|.  Zero whenever C is diagonal or every
    coupling operator commutes with the system Hamiltonian (e.g. a perfectly
    correlated bath).
    """
    check_bath_type(bath_modes, DiscretizedBath, "uncertainty_lower_bound")
    basis, _ = exciton_setup(sys, bath_modes)
    c = result.c_matrix
    if c.ndim != 2:
        raise ModelError("uncertainty_lower_bound takes one temperature's result, "
                         "not a batch")
    if c.shape != (sys.n_sites, sys.n_sites):
        raise ModelError("coherence matrix dimension does not match system")
    dw = basis.delta_omega_mu
    u = basis.u
    total = 0.0
    for alpha_k in bath_modes.alphas.T:
        s_exc = u @ np.diag(alpha_k) @ u.T
        # sum_{mu,nu} (dw_nu - dw_mu) S[nu, mu] C[mu, nu]
        total += float(np.sum((dw[None, :] - dw[:, None]) * s_exc.T * c))
    return 0.5 * abs(total)
