import os
import subprocess
import sys

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
            assert not got.regularized
            assert got.value == pytest.approx(expected, rel=1e-11)


def test_kernel_pole_cancellation_against_mpmath():
    # symbolic-precision evaluation of the three-term sum arbitrarily close
    # to the removable pole converges to the regularized value
    basis = _dimer_basis()
    th = Thermo(300.0)
    dw = basis.delta_omega_mu
    mu, nu, kappa = 0, 1, 1
    pole = -(dw[mu] - dw[kappa])  # x = 0 there
    at_pole = kernel(float(pole), kappa, mu, nu, basis, th)
    assert at_pole.regularized
    assert np.isfinite(at_pole.value)
    w = dw[mu] - dw[nu]
    for eps in (1e-2, 1e-4, 1e-6):
        x = mp.mpf(eps)
        y = x - mp.mpf(w)
        near = float(_naive_kernel(th.beta, w, x, y))
        assert near == pytest.approx(at_pole.value, rel=10.0 * eps)


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
            base = kernel(float(pole), kappa, mu, nu, basis, th).value
            assert np.isfinite(base)
            diffs = []
            for eps in (1e-2, 1e-4, 1e-6):
                off = kernel(float(pole) + eps, kappa, mu, nu, basis, th).value
                assert np.isfinite(off)
                diffs.append(abs(off - base))
            if diffs[0] > 1e-13 * abs(base):
                assert diffs[1] <= 0.1 * diffs[0]
                assert diffs[2] <= 0.1 * diffs[1]
        checked += 1


def test_kernel_delta_reg_is_configurable():
    basis = _dimer_basis()
    th = Thermo(300.0)
    dw = basis.delta_omega_mu
    pole = -(dw[0] - dw[1])  # x = 0 at this frequency for kappa = 1
    point = float(pole) + 10.0
    assert not kernel(point, 1, 0, 1, basis, th).regularized
    assert kernel(point, 1, 0, 1, basis, th, delta_reg=50.0).regularized


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
    got = kernel(omega, kappa, mu, nu, basis, th).value
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
            omega_mu=np.array([16000.0 - split / 2, 16000.0 + split / 2]),
            delta_omega_mu=np.array([-split / 2, split / 2]),
            phi=None,
        )
        vals[split] = kernel(omega, 0, 0, 1, basis, th).value
    richardson = (1e-3 * vals[1e-4] - 1e-4 * vals[1e-3]) / (1e-3 - 1e-4)
    basis0 = ExcitonBasis(
        u=np.eye(2),
        omega_mu=np.array([16000.0, 16000.0]),
        delta_omega_mu=np.array([0.0, 0.0]),
        phi=None,
    )
    exact = kernel(omega, 0, 0, 0, basis0, th).value
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
    z2 = res.meta["z2"]
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
    dense = discretize_bath(
        bath_site1, OracleConfig(n_modes=2000, fock_levels=2, omega_max=2000.0)
    )
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

    def j(omega):
        return np.sign(omega) * (abs(omega) / 50.0) * np.exp(-abs(omega) / 50.0)

    def nbar(omega):
        return 1.0 / np.expm1(beta * omega)

    def integrand_full(omega):
        return j(omega) * nbar(omega) * float(_kernel_raw(beta, w, omega + wmk))

    full, err_full = quad(integrand_full, -2000.0, 2000.0, limit=800,
                          points=[-abs(wmk), 0.0, abs(wmk)])

    def integrand_folded(omega):
        return j(omega) * float(_folded_weight(beta, omega, w, wmk))

    folded, err_fold = quad(integrand_folded, 1e-12, 2000.0, limit=800,
                            points=[abs(wmk)])
    assert folded == pytest.approx(full, abs=5e-11 + 10 * (err_full + err_fold))


def test_ohmic_quadrature_bisects_and_matches_quad(dimer, monkeypatch):
    # the fig1a dimer at 2 K, triple mu = nu = 0, kappa = 1 (w = 0,
    # w_mk = w_nk = -D_S): the first panel, [0, 50], fails its 16/32-point
    # test and is bisected; no recipe triple reaches a bisection
    beta = Thermo(2.0).beta
    dw = diagonalize_excited(dimer).delta_omega_mu
    ds = float(dw[1] - dw[0])
    calls = []
    folded = quantum._folded_weight

    def counting(*args):
        calls.append(args)
        return folded(*args)

    monkeypatch.setattr(quantum, "_folded_weight", counting)
    val, _ = quantum._ohmic_integral(beta, 0.0, -ds, -ds, 50.0)
    monkeypatch.undo()
    edges = sorted({50.0, 250.0, 750.0, ds})
    n_panels = len(edges) + 1  # [0, 50], ..., [750, 2000]
    assert len(calls) > n_panels + 1  # one call per panel plus the tail

    def integrand(om):
        return (om / 50.0) * np.exp(-om / 50.0) * float(folded(beta, om, 0.0, -ds))

    ref, _ = quad(integrand, 0.0, 2000.0, points=edges, epsrel=1e-13, epsabs=0.0,
                  limit=500)
    assert val == pytest.approx(ref, rel=1e-13)


def test_low_temperature_raises_instead_of_hanging():
    # at 0.5 K the prefactors overflow and the panel error is NaN; the
    # quadrature must raise at once rather than bisect without end
    code = (
        "from mlsb import BathSpec, ConvergenceError, SiteSystem, Thermo, "
        "quantum_coherence_2nd\n"
        "try:\n"
        "    quantum_coherence_2nd(SiteSystem.dimer(200.0, 200.0, omega_bar=16000.0),\n"
        "                          BathSpec.ohmic([100.0, 100.0], 50.0, 0.0), Thermo(0.5))\n"
        "except ConvergenceError:\n"
        "    print('ConvergenceError')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlsb.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ConvergenceError"


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
        target_e_r=dbath.target_e_r,
        residual=0.0,
    )
    res = quantum_coherence_2nd(dimer, bath_fig1a, th300)
    with pytest.raises(ModelError):
        uncertainty_lower_bound(dimer, bad, res)
