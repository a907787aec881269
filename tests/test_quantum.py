import os
import subprocess
import sys
import warnings
from itertools import combinations_with_replacement

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import mlsb
import mlsb.quantum as quantum
from mlsb import (
    BathSpec,
    DiscretizedBath,
    ExcitonBasis,
    Method,
    ModelError,
    OhmicShape,
    OracleConfig,
    SiteSystem,
    Thermo,
    bose_occupation,
    classical_coherence,
    diagonalize_excited,
    discretize_bath,
    kernel,
    populations_and_partition,
    quantum_coherence_2nd,
    quantum_coherence_2nd_modes,
    quantum_coherence_correlated,
    reorganization_matrix,
    uncertainty_lower_bound,
)

from conftest import random_bath, random_dimer

mp.mp.dps = 40


# ----------------------------------------------------------------- occupation

def test_bose_occupation_ln2_gives_one():
    th = Thermo(300.0)
    omega = np.log(2.0) / th.beta
    assert bose_occupation(omega, th) == pytest.approx(1.0, rel=1e-12)


def test_bose_occupation_negative_identity():
    th = Thermo(250.0)
    for omega in (3.0, 57.0, 412.0):
        total = bose_occupation(-omega, th) + bose_occupation(omega, th)
        assert total == pytest.approx(-1.0, abs=1e-14)


def test_bose_occupation_beta_omega_ten():
    th = Thermo(300.0)
    omega = 10.0 / th.beta
    expected = float(1 / mp.expm1(mp.mpf(10)))
    assert bose_occupation(omega, th) == pytest.approx(expected, rel=1e-13)
    assert bose_occupation(omega, th) == pytest.approx(4.54020e-5, rel=1e-4)


def test_bose_occupation_zero_rejected():
    with pytest.raises(ModelError):
        bose_occupation(0.0, Thermo(300.0))


# --------------------------------------------------------------------- kernel

def _naive_kernel(beta, w, x, y):
    """Literal three-term form, arbitrary precision; poles not removable."""
    beta, w, x, y = map(mp.mpf, (beta, w, x, y))
    return (
        mp.e ** (-beta * w / 2) / (w * x)
        - mp.e ** (beta * w / 2) / (w * y)
        + mp.e ** (beta * (x + y) / 2) / (x * y)
    )


def _dimer_basis(delta=200.0, v12=200.0):
    return diagonalize_excited(SiteSystem.dimer(delta, v12))


def test_kernel_matches_naive_three_term_form():
    basis = _dimer_basis()
    th = Thermo(300.0)
    dw = basis.delta_omega_mu
    for mu, nu, kappa in ((0, 1, 0), (0, 1, 1), (1, 0, 0)):
        for omega in (13.0, 77.0, 430.0, -35.0, -600.0):
            w = dw[mu] - dw[nu]
            x = omega + dw[mu] - dw[kappa]
            y = omega + dw[nu] - dw[kappa]
            if min(abs(x), abs(y)) < 1.0:
                continue
            expected = float(_naive_kernel(th.beta, w, x, y))
            got = kernel(omega, kappa, mu, nu, basis, th)
            assert got == pytest.approx(expected, rel=1e-11)


def test_kernel_pole_cancellation_against_mpmath():
    # symbolic-precision evaluation of the three-term sum arbitrarily close
    # to the removable pole converges to the regularized value
    basis = _dimer_basis()
    th = Thermo(300.0)
    dw = basis.delta_omega_mu
    mu, nu, kappa = 0, 1, 1
    pole = -(dw[mu] - dw[kappa])  # x = 0 there
    at_pole = kernel(float(pole), kappa, mu, nu, basis, th)
    assert np.isfinite(at_pole)
    w = dw[mu] - dw[nu]
    for eps in (1e-2, 1e-4, 1e-6):
        x = mp.mpf(eps)
        y = x - mp.mpf(w)
        near = float(_naive_kernel(th.beta, w, x, y))
        assert near == pytest.approx(at_pole, rel=10.0 * eps)


def test_kernel_cauchy_through_poles_random_draws():
    rng = np.random.default_rng(23)
    th = Thermo(300.0)
    checked = 0
    while checked < 100:
        basis = diagonalize_excited(random_dimer(rng))
        dw = basis.delta_omega_mu
        mu, nu = (0, 1) if rng.random() < 0.5 else (1, 0)
        kappa = int(rng.integers(0, 2))
        for pole in (-(dw[mu] - dw[kappa]), -(dw[nu] - dw[kappa])):
            base = kernel(float(pole), kappa, mu, nu, basis, th)
            assert np.isfinite(base)
            diffs = []
            for eps in (1e-2, 1e-4, 1e-6):
                off = kernel(float(pole) + eps, kappa, mu, nu, basis, th)
                assert np.isfinite(off)
                diffs.append(abs(off - base))
            if diffs[0] > 1e-13 * abs(base):
                assert diffs[1] <= 0.1 * diffs[0]
                assert diffs[2] <= 0.1 * diffs[1]
        checked += 1


def test_kernel_refuses_temperature_batch(dimer):
    with pytest.raises(ModelError, match="one temperature"):
        kernel(10.0, 0, 0, 1, diagonalize_excited(dimer), Thermo([100.0, 300.0]))


def test_kernel_high_temperature_limit():
    # all exponentials -> 1 as beta -> 0
    basis = _dimer_basis()
    th = Thermo(1e9)
    dw = basis.delta_omega_mu
    mu, nu, kappa = 0, 1, 1
    omega = 90.0
    w = dw[mu] - dw[nu]
    x = omega + dw[mu] - dw[kappa]
    y = omega + dw[nu] - dw[kappa]
    expected = 1.0 / (w * x) - 1.0 / (w * y) + 1.0 / (x * y)
    got = kernel(omega, kappa, mu, nu, basis, th)
    assert got == pytest.approx(expected, rel=1e-6)


def test_kernel_degenerate_limit_matches_richardson():
    # nearly degenerate eigenstates: extrapolate w -> 0 and compare with the
    # analytic diagonal limit
    th = Thermo(300.0)
    omega = 120.0
    vals = {}
    for split in (1e-3, 1e-4):
        basis = ExcitonBasis(
            u=np.eye(2),
            delta_omega_mu=np.array([-split / 2, split / 2]),
        )
        vals[split] = kernel(omega, 0, 0, 1, basis, th)
    richardson = (1e-3 * vals[1e-4] - 1e-4 * vals[1e-3]) / (1e-3 - 1e-4)
    basis0 = ExcitonBasis(
        u=np.eye(2),
        delta_omega_mu=np.array([0.0, 0.0]),
    )
    exact = kernel(omega, 0, 0, 0, basis0, th)
    assert exact == pytest.approx(richardson, rel=1e-6)
    # closed diagonal limit: (exp(beta z) - 1 - beta z) / z^2
    z = omega
    closed = (np.expm1(th.beta * z) - th.beta * z) / z**2
    assert exact == pytest.approx(closed, rel=1e-12)


# ------------------------------------------------- second-order density matrix

def _sigma2_bruteforce(sys2, dbath, th, n_gl=64):
    """Imaginary-time double integral evaluated by direct 2-d quadrature."""
    basis = diagonalize_excited(sys2)
    n = sys2.n_sites
    dw = basis.delta_omega_mu
    u = basis.u
    _, z0 = populations_and_partition(basis, th)
    beta = th.beta
    x_gl, w_gl = np.polynomial.legendre.leggauss(n_gl)
    s2 = 0.5 * beta * (x_gl + 1.0)
    w2 = 0.5 * beta * w_gl
    t1 = 0.5 * (x_gl + 1.0)
    wt = 0.5 * w_gl
    proj = [np.outer(u[:, m], u[:, m]) for m in range(n)]
    total = np.zeros((n, n))
    for k in range(dbath.n_modes):
        om = dbath.omegas[k]
        nb = bose_occupation(om, th)
        nbm = bose_occupation(-om, th)
        for m in range(n):
            for nn in range(n):
                coeff = dbath.alphas[m, k] * dbath.alphas[nn, k] / (2.0 * om)
                if coeff == 0.0:
                    continue
                acc = np.zeros((n, n))
                for a2, ww2 in zip(s2, w2):
                    for tt, wwt in zip(t1, wt):
                        a1 = a2 * tt
                        bath_fac = np.exp((a2 - a1) * om) * nb - np.exp(
                            -(a2 - a1) * om
                        ) * nbm
                        mat = (np.exp(a2 * dw)[:, None] * proj[m]) @ (
                            np.exp((a1 - a2) * dw)[:, None] * proj[nn]
                        )
                        mat = mat * np.exp(-a1 * dw)[None, :]
                        acc += ww2 * a2 * wwt * bath_fac * mat
                total += coeff * acc
    return (np.diag(np.exp(-beta * dw)) @ total) / z0


def test_sigma2_against_time_integral_bruteforce():
    sys2 = SiteSystem.dimer(200.0, 200.0)
    bath = BathSpec.ohmic([20.0, 5.0], 50.0, 0.3)
    dbath = discretize_bath(bath, OracleConfig(n_modes=3, fock_levels=2))
    th = Thermo(250.0)
    sig_bf = _sigma2_bruteforce(sys2, dbath, th)
    res = quantum_coherence_2nd_modes(sys2, dbath, th)
    assert res.c12 == pytest.approx(sig_bf[0, 1], abs=1e-13)
    basis = diagonalize_excited(sys2)
    pops, _ = populations_and_partition(basis, th)
    z2 = res.diagnostics.z2
    diag = res.populations - pops * (1.0 - z2)
    assert np.allclose(diag, np.diagonal(sig_bf), atol=1e-13)
    assert z2 == pytest.approx(np.trace(sig_bf), abs=1e-13)


def test_sigma2_bruteforce_three_sites():
    omega = np.array([15880.0, 16000.0, 16140.0])
    v = np.array([[0.0, 70.0, 25.0], [70.0, 0.0, 55.0], [25.0, 55.0, 0.0]])
    sys3 = SiteSystem(omega, v)
    bath = BathSpec.ohmic([12.0, 4.0, 8.0], 50.0, 0.2)
    dbath = discretize_bath(bath, OracleConfig(n_modes=2, fock_levels=2))
    th = Thermo(300.0)
    sig_bf = _sigma2_bruteforce(sys3, dbath, th, n_gl=48)
    res = quantum_coherence_2nd_modes(sys3, dbath, th)
    for mu in range(3):
        for nu in range(mu + 1, 3):
            assert res.c_matrix[mu, nu] == pytest.approx(
                sig_bf[mu, nu], abs=1e-12
            )
    assert np.sum(res.populations) == pytest.approx(1.0, abs=1e-12)


def test_ohmic_quadrature_against_dense_discretization(dimer, bath_site1, th300):
    cont = quantum_coherence_2nd(dimer, bath_site1, th300)
    dense = discretize_bath(bath_site1, OracleConfig(n_modes=2000, fock_levels=2))
    disc = quantum_coherence_2nd_modes(dimer, dense, th300)
    assert disc.c12 == pytest.approx(cont.c12, rel=2e-4)


def test_discrete_bathspec_matches_modes_path(dimer, th300):
    # the same finite bath expressed two ways: a DiscreteShape BathSpec (line
    # weights) and explicit discretized couplings; weights proportional to
    # Omega_k give equal reorganization shares per line
    bath_cont = BathSpec.ohmic([6.0, 0.0], 50.0, 0.0)
    dbath = discretize_bath(bath_cont, OracleConfig(n_modes=3, fock_levels=2))
    bath_disc = BathSpec.discrete(dbath.omegas, dbath.omegas, [6.0, 0.0], 0.0)
    via_shape = quantum_coherence_2nd(dimer, bath_disc, th300)
    via_modes = quantum_coherence_2nd_modes(dimer, dbath, th300)
    assert via_shape.c12 == pytest.approx(via_modes.c12, abs=1e-15)
    assert np.allclose(via_shape.populations, via_modes.populations, atol=1e-14)


def test_folding_identity_on_smooth_kernel(th300):
    # full-line integral of an antisymmetric J against nbar * K equals the
    # folded half-line integral with nbar(-w) = -(1 + nbar(w))
    from mlsb.quantum import _folded_weight, _kernel_raw

    beta = th300.beta
    w, wmk = 40.0, -150.0
    # exciton energies with dw_mu - dw_nu = w and dw_mu - dw_kappa = wmk; the
    # folded weight carries the prefactor exp(-beta (dw_mu + dw_nu) / 2)
    dw_mu, dw_nu, dw_kappa = w, 0.0, w - wmk
    unfold = np.exp(beta * (dw_mu + dw_nu) / 2.0)

    def j(omega):
        return np.sign(omega) * (abs(omega) / 50.0) * np.exp(-abs(omega) / 50.0)

    def nbar(omega):
        return 1.0 / np.expm1(beta * omega)

    def integrand_full(omega):
        return j(omega) * nbar(omega) * float(_kernel_raw(beta, w, omega + wmk))

    full, err_full = quad(integrand_full, -2000.0, 2000.0, limit=800,
                          points=[-abs(wmk), 0.0, abs(wmk)])

    def integrand_folded(omega):
        weight = _folded_weight(beta, omega, dw_mu, dw_nu, dw_kappa)
        return j(omega) * unfold * float(weight)

    folded, err_fold = quad(integrand_folded, 1e-12, 2000.0, limit=800,
                            points=[abs(wmk)])
    assert folded == pytest.approx(full, abs=5e-11 + 10 * (err_full + err_fold))


def test_trigamma_matches_scipy():
    # log grid over 1e-3 .. 1e4 plus points on both sides of the switch from
    # recurrence to the asymptotic series at 20
    from scipy.special import polygamma

    x = np.concatenate([
        np.logspace(-3.0, 4.0, 141),
        [19.5, np.nextafter(20.0, 0.0), 20.0, np.nextafter(20.0, 21.0), 20.5],
    ])
    assert np.allclose(quantum._trigamma(x), polygamma(1, x), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("temperature", [2.0, 300.0], ids=["2K", "300K"])
def test_imaginary_time_matches_frequency_quadrature(dimer, bath_fig1a, temperature):
    # the frequency-domain form the imaginary-time integral replaces: Ohmic
    # shape times the folded weight, summed over kappa with the prefactor
    # exp(-beta (dw_mu + dw_nu) / 2) / Z0, by adaptive quadrature with
    # breakpoints at the resonances; _folded_weight carries the exponential
    # part of that prefactor, which ``unfold`` takes out again
    th = Thermo(temperature)
    basis = diagonalize_excited(dimer)
    u, dw = basis.u, basis.delta_omega_mu
    e_r = reorganization_matrix(bath_fig1a)
    _, z0 = populations_and_partition(basis, th)
    pref = np.exp(-th.beta * (dw[0] + dw[1]) / 2.0) / z0
    unfold = np.exp(th.beta * (dw[0] + dw[1]) / 2.0)
    total = 0.0
    for kappa in range(2):
        b = (u[0] * u[kappa]) @ e_r @ (u[1] * u[kappa])
        wmk, wnk = dw[0] - dw[kappa], dw[1] - dw[kappa]

        def integrand(om, kappa=kappa):
            shape = (om / 50.0) * np.exp(-om / 50.0)
            weight = quantum._folded_weight(th.beta, om, dw[0], dw[1], dw[kappa])
            return shape * unfold * float(weight)

        poles = sorted({abs(wmk), abs(wnk)} - {0.0})
        val, _ = quad(integrand, 0.0, 3000.0, points=poles, epsrel=1e-13, epsabs=0.0,
                      limit=500)
        total += b * val
    c12 = quantum_coherence_2nd(dimer, bath_fig1a, th).c12
    assert c12 == pytest.approx(pref * total, rel=1e-13)


def test_low_temperature_finite_without_hanging():
    # at 0.5 K the frequency-domain prefactors would overflow; the
    # imaginary-time form has no positive exponent, so it returns a finite
    # value at once, with every RuntimeWarning an error
    code = (
        "import time\n"
        "from mlsb import BathSpec, SiteSystem, Thermo, quantum_coherence_2nd\n"
        "start = time.perf_counter()\n"
        "res = quantum_coherence_2nd(\n"
        "    SiteSystem.dimer(200.0, 200.0, omega_bar=16000.0),\n"
        "    BathSpec.ohmic([100.0, 100.0], 50.0, 0.0), Thermo(0.5))\n"
        "print(repr(res.c12), time.perf_counter() - start)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlsb.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    c12, seconds = (float(x) for x in proc.stdout.split())
    assert np.isfinite(c12) and c12 > 0.0
    assert seconds < 1.0


def test_low_temperature_limit(dimer, bath_fig1a):
    # c12 rises as T falls and settles onto its T -> 0 limit
    values = [quantum_coherence_2nd(dimer, bath_fig1a, Thermo(t)).c12
              for t in (2.0, 0.5, 0.1)]
    assert all(np.isfinite(values))
    assert values[0] < values[1] < values[2]
    assert values[2] == pytest.approx(values[1], rel=1e-4)


def test_line_spectra_finite_at_low_temperature(dimer, bath_fig1a):
    # a discrete bath and a discretized one stay finite below 1 K, where
    # exp(-beta (dw_mu + dw_nu) / 2) of unshifted energies alone overflows
    lines = BathSpec.discrete([40.0, 90.0], [1.0, 1.0], [100.0, 100.0], 0.0)
    dbath = discretize_bath(bath_fig1a, OracleConfig(n_modes=3, fock_levels=2))
    temperatures = (1.0, 0.5, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        via_lines = [quantum_coherence_2nd(dimer, lines, Thermo(t)).c12
                     for t in temperatures]
        via_modes = [quantum_coherence_2nd_modes(dimer, dbath, Thermo(t)).c12
                     for t in temperatures]
    for values in (via_lines, via_modes):
        assert all(np.isfinite(values))
        assert values[2] == pytest.approx(values[1], rel=1e-8)


def test_q2_finite_and_right_far_below_one_kelvin(dimer, bath_fig1a):
    # beta - s of a mirrored node is taken exactly and no population cancels
    # against z2 (9.2e31 at 1e-30 K), so the T -> 0 limit holds at any beta;
    # the 1e-3 K row keeps its own thermal shift, 6.4e-12 in C12 and (T/Wc)^2
    res = quantum_coherence_2nd(dimer, bath_fig1a, Thermo([1e-30, 1e-10, 1e-3]))
    c, err = res.c_matrix, res.err_est
    pops = np.diagonal(c, axis1=-2, axis2=-1)
    assert np.all(err < 1e-12)
    assert np.all((pops >= 0.0) & (pops <= 1.0))
    assert np.sum(pops, axis=-1) == pytest.approx([1.0] * 3, abs=1e-15)
    assert np.all(np.abs(c[0] - c[1]) <= err[0] + err[1] + 1e-15)
    assert c[0, 0, 1] == pytest.approx(0.0811491165719, abs=5e-14)  # 12 digits quoted
    assert np.all(np.abs(c[2] - c[0]) <= 1e-10 * c[0, 0, 1])


def test_q2_refuses_beta_near_the_float_limit_without_warnings(dimer, bath_fig1a):
    # c(s) is not finite at 1e-300 K; it is refused as a non-finite result
    # naming that row, and error::RuntimeWarning turns any warning into a failure
    with pytest.raises(ModelError, match="c_matrix must be finite") as info:
        quantum_coherence_2nd(dimer, bath_fig1a, Thermo([300.0, 1e-300]))
    assert info.value.index == 1


def test_q2_err_est_is_not_zero_when_the_rules_agree_to_the_bit(dimer, bath_site2):
    # fig1b_site2's 16- and 32-point rules agree to the bit at 650 and 750 K;
    # err_est still carries one rounding of the largest reported entry
    res = quantum_coherence_2nd(dimer, bath_site2, Thermo([650.0, 750.0]))
    floor = np.finfo(float).eps * np.max(np.abs(res.c_matrix), axis=(-2, -1))
    assert np.all(res.err_est >= floor)
    assert np.all(res.err_est > 0.0)


def _sigma2_lines_loop(basis, th, omegas, hk):
    # per-(mu, nu, kappa) sums of the frequency-domain form, energies measured
    # from the lowest exciton; _folded_weight carries the prefactor
    # exp(-beta (dw_mu + dw_nu) / 2) in its exponents, so this stays finite
    # below 1 K, where the prefactor and the kernel alone overflow
    n = basis.u.shape[0]
    u = basis.u
    dw = basis.delta_omega_mu - np.min(basis.delta_omega_mu)
    z0 = np.sum(np.exp(-th.beta * dw))
    sigma2 = np.zeros((n, n))
    for mu, nu in combinations_with_replacement(range(n), 2):
        total = 0.0
        for kappa in range(n):
            coeff = np.einsum("m,mnk,n->k", u[mu] * u[kappa], hk, u[nu] * u[kappa])
            if not np.any(coeff):
                continue
            weight = quantum._folded_weight(th.beta, omegas, dw[mu], dw[nu], dw[kappa])
            total += float(np.dot(coeff, weight))
        sigma2[mu, nu] = sigma2[nu, mu] = total / z0
    return sigma2


@pytest.mark.parametrize("n_sites", [3, 4])
def test_sigma2_lines_matches_loop(n_sites):
    rng = np.random.default_rng(17 + n_sites)
    for _ in range(4):
        coupling = np.triu(rng.uniform(-150.0, 150.0, (n_sites, n_sites)), 1)
        sys_ = SiteSystem(16000.0 + rng.uniform(-200.0, 200.0, n_sites),
                          coupling + coupling.T)
        n_lines = int(rng.integers(1, 6))
        bath = BathSpec.discrete(rng.uniform(10.0, 300.0, n_lines),
                                 rng.uniform(0.1, 1.0, n_lines),
                                 rng.uniform(0.0, 200.0, n_sites),
                                 rng.uniform(-0.2, 0.9))
        basis = diagonalize_excited(sys_)
        hk = reorganization_matrix(bath)[:, :, None] * bath.shape.normalized_weights()
        for t in (0.1, 30.0, 300.0, 3000.0):
            th = Thermo(t)
            sigma2, change = quantum._sigma2(basis, th.beta,
                                             *quantum._line_bath(bath.shape.omegas, hk))
            ref = _sigma2_lines_loop(basis, th, bath.shape.omegas, hk)
            assert np.max(np.abs(change)) <= 1e-13 * np.max(np.abs(ref))
            assert np.array_equal(sigma2, sigma2.T)
            assert np.max(np.abs(sigma2 - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_sigma2_lines_without_modes_is_zero(dimer, th300):
    dbath = discretize_bath(BathSpec.ohmic([0.0, 0.0], 50.0, 0.0),
                            OracleConfig(n_modes=3, fock_levels=2))
    assert np.size(dbath.omegas) == 0
    res = quantum_coherence_2nd_modes(dimer, dbath, th300)
    assert res.c12 == 0.0 and res.c_matrix[1, 0] == 0.0
    assert res.diagnostics.z2 == 0.0


# ------------------------------------------ contraction order at chain sizes

def _random_chain(rng, n_sites):
    v = rng.uniform(60.0, 140.0, n_sites - 1)
    return SiteSystem(16000.0 + rng.uniform(-150.0, 150.0, n_sites),
                      np.diag(v, 1) + np.diag(v, -1))


def _sigma2_ohmic_reference(basis, e_r, th, cutoff):
    # the module docstring's imaginary-time integral on the module's 32-point
    # nodes, with scipy's trigamma and one optimized einsum over every index
    from scipy.special import polygamma

    u, beta = basis.u, th.beta
    dw = basis.delta_omega_mu - np.min(basis.delta_omega_mu)
    half, half_weights, _ = quantum._half_nodes(np.array([beta]), cutoff)
    s, weights = np.concatenate([half, beta - half]), np.tile(half_weights, 2)
    a = 1.0 / (cutoff * beta)
    corr = (polygamma(1, a + s / beta) + polygamma(1, a + 1.0 - s / beta)) / (cutoff * beta**2)
    rest = (beta - s)[:, None, None]
    gap = dw[:, None] - dw[None, :]
    safe_gap = np.where(gap == 0.0, 1.0, gap)
    # [exp(-rest dw_nu) - exp(-rest dw_mu)] / (dw_mu - dw_nu) and its mu = nu limit
    bracket = np.where(gap == 0.0, rest * np.exp(-rest * dw[:, None]),
                       -np.exp(-rest * dw[None, :]) * np.expm1(-rest * gap) / safe_gap)
    b = np.einsum("ki,mi,ij,nj,kj->mnk", u, u, e_r, u, u, optimize=True)
    sigma2 = np.einsum("s,sk,smn,mnk->mn", weights[1] * corr, np.exp(-np.outer(s, dw)),
                       bracket, b, optimize=True)
    return sigma2 / np.sum(np.exp(-beta * dw))


def _sigma2_lines_reference(basis, th, omegas, b):
    # sum over kappa and lines of b[mu, nu, kappa, line] times the folded
    # kernel, upper triangle mirrored as the module does
    dw = basis.delta_omega_mu - np.min(basis.delta_omega_mu)
    weight = quantum._folded_weight(th.beta, omegas, dw[:, None, None, None],
                                    dw[None, :, None, None], dw[None, None, :, None])
    sigma2 = np.einsum("mnkl,mnkl->mn", b, weight, optimize=True)
    sigma2 = np.triu(sigma2) + np.triu(sigma2, 1).T
    return sigma2 / np.sum(np.exp(-th.beta * dw))


def _assert_c_matrix_matches(result, basis, th, sigma2):
    # off-diagonals and populations, each to 1e-13 of its own largest entry
    pops0, _ = populations_and_partition(basis, th)
    ref = sigma2.copy()
    np.fill_diagonal(ref, pops0 * (1.0 - np.trace(sigma2)) + np.diagonal(sigma2))
    off = ~np.eye(ref.shape[0], dtype=bool)
    for mask in (off, ~off):
        err = np.max(np.abs(result.c_matrix - ref)[mask])
        assert err <= 1e-13 * np.max(np.abs(ref[mask]))


@pytest.mark.parametrize("n_sites", [3, 30])
def test_q2_matches_optimized_einsum_on_chains(n_sites):
    # every q-2 path against the docstring formulas contracted by
    # np.einsum(optimize=True), on chains large enough for the contraction
    # order to change the rounding; three lines exercise the line axis of
    # the exciton weights, and a mode set whose modes share Omega in pairs,
    # with different coupling directions, the merging of equal lines
    rng = np.random.default_rng(1000 + n_sites)
    sys_ = _random_chain(rng, n_sites)
    basis = diagonalize_excited(sys_)
    u = basis.u
    reorg = rng.uniform(60.0, 120.0, n_sites)
    ohmic = BathSpec.ohmic(reorg, 50.0, 0.3)
    lines = BathSpec.discrete(rng.uniform(20.0, 300.0, 3), rng.uniform(0.2, 1.0, 3),
                              reorg, 0.3)
    mode_omegas = rng.uniform(20.0, 300.0, 4)
    alphas = mode_omegas * rng.uniform(-8.0, 8.0, (n_sites, 4))
    shared_omegas = np.repeat(rng.uniform(20.0, 300.0, 2), 2)
    shared_alphas = shared_omegas * rng.uniform(-8.0, 8.0, (n_sites, 4))
    mode_sets = []
    for omegas, coupling in ((mode_omegas, alphas), (shared_omegas, shared_alphas)):
        b_modes = np.einsum("ki,mi,il,jl,nj,kj->mnkl", u, u, coupling,
                            coupling / (2.0 * omegas), u, u, optimize=True)
        mode_sets.append((DiscretizedBath(omegas, coupling, 0.0), b_modes))
    b_lines = np.einsum("ki,mi,ij,l,nj,kj->mnkl", u, u, reorganization_matrix(lines),
                        lines.shape.normalized_weights(), u, u, optimize=True)
    for t in (77.0, 300.0):
        th = Thermo(t)
        _assert_c_matrix_matches(
            quantum_coherence_2nd(sys_, ohmic, th), basis, th,
            _sigma2_ohmic_reference(basis, reorganization_matrix(ohmic), th, 50.0))
        _assert_c_matrix_matches(
            quantum_coherence_2nd(sys_, lines, th), basis, th,
            _sigma2_lines_reference(basis, th, lines.shape.omegas, b_lines))
        for dbath, b_modes in mode_sets:
            _assert_c_matrix_matches(
                quantum_coherence_2nd_modes(sys_, dbath, th), basis, th,
                _sigma2_lines_reference(basis, th, dbath.omegas, b_modes))


def test_quantum_perfect_correlation_vanishes(dimer, th300):
    bath = BathSpec.ohmic([100.0, 100.0], 50.0, 1.0)
    res = quantum_coherence_2nd(dimer, bath, th300)
    assert abs(res.c12) < 1e-8


def test_quantum_high_temperature_common_limit(dimer, bath_site1):
    th = Thermo(4e5)
    res = quantum_coherence_2nd(dimer, bath_site1, th)
    f = np.cos(0.5535743588970452) * np.sin(0.5535743588970452)
    limit = th.beta / 2.0 * f * 100.0
    assert res.c12 == pytest.approx(limit, rel=2e-4)


def test_quantum_high_temperature_monotone_decay(dimer, bath_fig1a, bath_site1):
    for bath in (bath_fig1a, bath_site1):
        values = [
            abs(quantum_coherence_2nd(dimer, bath, Thermo(t)).c12)
            for t in (2000.0, 3000.0, 4500.0, 7000.0, 10000.0)
        ]
        assert all(a > b for a, b in zip(values[:-1], values[1:]))


def test_quantum_reality_symmetry_random(th300):
    rng = np.random.default_rng(31)
    for _ in range(8):
        sys2 = random_dimer(rng)
        bath = random_bath(rng)
        res = quantum_coherence_2nd(sys2, bath, th300)
        assert np.isrealobj(res.c_matrix)
        assert np.max(np.abs(res.c_matrix - res.c_matrix.T)) < 1e-12
        assert np.sum(res.populations) == pytest.approx(1.0, abs=1e-12)


def test_correlated_form(dimer, th300):
    shape = OhmicShape(50.0)
    c0 = quantum_coherence_correlated(dimer, 100.0, 0.0, shape, th300)
    assert c0.method is Method.Q2
    # c = 1: exactly zero
    c1 = quantum_coherence_correlated(dimer, 100.0, 1.0, shape, th300)
    assert c1.c12 == 0.0
    # c = -1: twice the uncorrelated value
    cm1 = quantum_coherence_correlated(dimer, 100.0, -1.0, shape, th300)
    assert cm1.c12 == pytest.approx(2.0 * c0.c12, rel=1e-12)
    # c = 0 equals the general machinery
    general = quantum_coherence_2nd(
        dimer, BathSpec.ohmic([100.0, 100.0], 50.0, 0.0), th300
    )
    assert c0.c12 == pytest.approx(general.c12, abs=1e-10)
    # affine in c
    c_half = quantum_coherence_correlated(dimer, 100.0, 0.5, shape, th300)
    assert c_half.c12 == pytest.approx(0.5 * c0.c12, rel=1e-12)
    # the general path reproduces the (1 - c) factorization at c = 0.5,
    # exercising the cross-site terms of the contraction
    general_half = quantum_coherence_2nd(
        dimer, BathSpec.ohmic([100.0, 100.0], 50.0, 0.5), th300
    )
    assert c_half.c12 == pytest.approx(general_half.c12, abs=1e-10)


def test_correlated_rejects_asymmetric_diagonals(dimer, th300):
    with pytest.raises(ModelError):
        quantum_coherence_correlated(
            dimer, np.array([100.0, 50.0]), 0.0, OhmicShape(50.0), th300
        )
    # no entries, and entries for three sites on the dimer
    for e_diag in ([], [100.0, 100.0, 100.0]):
        with pytest.raises(ModelError):
            quantum_coherence_correlated(
                dimer, np.array(e_diag), 0.0, OhmicShape(50.0), th300
            )


# --------------------------------------------------------- uncertainty bound

def test_uncertainty_bound_zero_for_correlated_bath(dimer, th300):
    bath = BathSpec.ohmic([100.0, 100.0], 50.0, 1.0)
    dbath = discretize_bath(bath, OracleConfig(n_modes=2, fock_levels=2))
    res = quantum_coherence_2nd(dimer, BathSpec.ohmic([100.0, 0.0], 50.0), th300)
    assert uncertainty_lower_bound(dimer, dbath, res) < 1e-10


def test_uncertainty_bound_zero_for_diagonal_coherence(dimer, bath_fig1a, th300):
    dbath = discretize_bath(bath_fig1a, OracleConfig(n_modes=2, fock_levels=2))
    res = classical_coherence(dimer, bath_fig1a, th300)
    assert uncertainty_lower_bound(dimer, dbath, res) == 0.0


def test_uncertainty_bound_positive_for_quantum_coherence(dimer, bath_fig1a, th300):
    dbath = discretize_bath(bath_fig1a, OracleConfig(n_modes=2, fock_levels=2))
    res = quantum_coherence_2nd(dimer, bath_fig1a, th300)
    assert uncertainty_lower_bound(dimer, dbath, res) > 0.0


def test_uncertainty_bound_dimension_mismatch(dimer, bath_fig1a, th300):
    dbath = discretize_bath(bath_fig1a, OracleConfig(n_modes=2, fock_levels=2))
    bad = DiscretizedBath(
        omegas=dbath.omegas,
        alphas=np.vstack([dbath.alphas, dbath.alphas[:1]]),
        residual=0.0,
    )
    res = quantum_coherence_2nd(dimer, bath_fig1a, th300)
    with pytest.raises(ModelError):
        uncertainty_lower_bound(dimer, bad, res)


def test_uncertainty_bound_refuses_temperature_batch(dimer, bath_fig1a):
    dbath = discretize_bath(bath_fig1a, OracleConfig(n_modes=2, fock_levels=2))
    res = quantum_coherence_2nd(dimer, bath_fig1a, Thermo([100.0, 300.0]))
    with pytest.raises(ModelError, match="one temperature"):
        uncertainty_lower_bound(dimer, dbath, res)
