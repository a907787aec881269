import numpy as np
import pytest

from mlsb import (
    BathSpec,
    Method,
    ModelError,
    PhaseSampleEnsemble,
    SiteSystem,
    Thermo,
    classical_coherence,
    correlation_coherence,
    diagonalize_excited,
    equipartition_ensemble,
    equipartition_state,
    thermal_gaussian_ensemble,
    KB_CM_PER_K,
)

from conftest import random_bath, random_dimer


def test_classical_coherence_zero_everywhere(dimer, bath_fig1a):
    for t in (77.0, 300.0, 800.0):
        res = classical_coherence(dimer, bath_fig1a, Thermo(t))
        assert res.method is Method.CLASSICAL
        assert res.c_matrix[0, 1] == 0.0  # bitwise zero
        assert res.c_matrix[1, 0] == 0.0
        assert res.err_est == 0.0
        assert np.allclose(res.populations, [0.5, 0.5])


def test_classical_zero_strong_coupling_low_temperature():
    sys2 = SiteSystem.dimer(50.0, 400.0)
    bath = BathSpec.ohmic([500.0, 300.0], 50.0, -0.8)
    res = classical_coherence(sys2, bath, Thermo(77.0))
    assert res.c12 == 0.0


def test_classical_zero_three_sites():
    omega = np.array([15900.0, 16000.0, 16100.0])
    v = np.full((3, 3), 40.0)
    np.fill_diagonal(v, 0.0)
    sys3 = SiteSystem(omega, v)
    bath = BathSpec.ohmic([100.0, 100.0, 100.0], 50.0, 0.0)
    res = classical_coherence(sys3, bath, Thermo(300.0))
    off = res.c_matrix - np.diag(np.diagonal(res.c_matrix))
    assert np.all(off == 0.0)


def test_classical_zero_random_configs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        sys2 = random_dimer(rng)
        bath = random_bath(rng)
        res = classical_coherence(sys2, bath, Thermo(rng.uniform(10.0, 2000.0)))
        assert res.c_matrix[0, 1] == 0.0


def test_equipartition_state_values():
    assert np.allclose(equipartition_state(2, 1.0), np.diag([0.5, 0.5]))
    assert np.allclose(equipartition_state(4, 0.1), np.diag([0.025] * 4))
    assert np.all(equipartition_state(3, 0.0) == 0.0)
    with pytest.raises(ModelError):
        equipartition_state(2, 1.5)


def test_ensemble_validation():
    with pytest.raises(ModelError):
        PhaseSampleEnsemble(
            q=np.zeros((3, 2)), p=np.zeros((4, 2)), temperature_K=300.0
        )
    ens = PhaseSampleEnsemble(
        q=np.ones((4, 2)), p=np.ones((4, 2)), temperature_K=300.0,
        weights=np.array([1.0, 1.0, 2.0, 0.0]),
    )
    assert ens.weights.sum() == pytest.approx(1.0)
    assert np.all(ens.weights >= 0.0)


def test_correlation_requires_samples(dimer):
    basis = diagonalize_excited(dimer)
    ens = PhaseSampleEnsemble(
        q=np.zeros((1, 2)), p=np.zeros((1, 2)), temperature_K=300.0
    )
    with pytest.raises(ModelError):
        correlation_coherence(ens, basis)


def test_independent_thermal_samples_give_zero(dimer):
    basis = diagonalize_excited(dimer)
    rng = np.random.default_rng(42)
    ens = thermal_gaussian_ensemble(basis, 300.0, 40000, rng)
    est = correlation_coherence(ens, basis)
    for mu, nu in ((0, 1), (1, 0)):
        assert abs(est.re_p[mu, nu]) < 3.0 * est.se_re_p[mu, nu]
        assert abs(est.re_q[mu, nu]) < 3.0 * est.se_re_q[mu, nu]
        assert abs(est.im[mu, nu]) < 3.0 * est.se_im[mu, nu]
    # diagonal sanity: <p^2>/kT = 1
    assert est.re_p[0, 0] == pytest.approx(1.0, rel=0.05)


def test_duplicated_coordinate_estimator(dimer):
    # q2 = q1 copies with independent thermal momenta: the q-estimator of the
    # real part must equal w1 w2 <q1^2> / kT computed by direct summation.
    basis = diagonalize_excited(dimer)
    rng = np.random.default_rng(3)
    kt = KB_CM_PER_K * 300.0
    n = 20000
    q1 = rng.standard_normal(n) * np.sqrt(kt) / basis.omega_mu[0]
    q = np.column_stack([q1, q1])
    p = rng.standard_normal((n, 2)) * np.sqrt(kt)
    ens = PhaseSampleEnsemble(q=q, p=p, temperature_K=300.0)
    est = correlation_coherence(ens, basis)
    direct = basis.omega_mu[0] * basis.omega_mu[1] * np.mean(q1 * q1) / kt
    assert est.re_q[0, 1] == pytest.approx(direct, rel=1e-12)
    # analytic Gaussian moment: <q1^2> = kT / w1^2
    expected = basis.omega_mu[1] / basis.omega_mu[0]
    assert est.re_q[0, 1] == pytest.approx(expected, rel=0.05)


def test_displaced_q_only_has_zero_imaginary_part(dimer):
    basis = diagonalize_excited(dimer)
    n = 500
    q = np.full((n, 2), 0.3)
    p = np.zeros((n, 2))
    ens = PhaseSampleEnsemble(q=q, p=p, temperature_K=300.0)
    est = correlation_coherence(ens, basis)
    assert np.all(est.im == 0.0)


def test_equipartition_ensemble_has_no_correlations(dimer):
    basis = diagonalize_excited(dimer)
    rng = np.random.default_rng(5)
    ens = equipartition_ensemble(basis, 300.0, action=1.0, n_samples=30000, rng=rng)
    est = correlation_coherence(ens, basis)
    for mu, nu in ((0, 1), (1, 0)):
        assert abs(est.re_p[mu, nu]) < 3.0 * est.se_re_p[mu, nu]
        assert abs(est.re_q[mu, nu]) < 3.0 * est.se_re_q[mu, nu]
        assert abs(est.im[mu, nu]) < 3.0 * est.se_im[mu, nu]


def test_p_and_q_estimators_agree_on_thermal_ensembles(dimer):
    basis = diagonalize_excited(dimer)
    rng = np.random.default_rng(17)
    ens = thermal_gaussian_ensemble(basis, 300.0, 30000, rng)
    est = correlation_coherence(ens, basis)
    combined = np.hypot(est.se_re_p[0, 1], est.se_re_q[0, 1])
    assert abs(est.re_p[0, 1] - est.re_q[0, 1]) < 3.0 * combined


def test_weighted_three_mode_estimator_matches_per_pair_sums():
    sys3 = SiteSystem(
        np.array([15900.0, 16000.0, 16120.0]),
        np.array([[0.0, 80.0, 20.0], [80.0, 0.0, 60.0], [20.0, 60.0, 0.0]]),
    )
    basis = diagonalize_excited(sys3)
    rng = np.random.default_rng(11)
    n = 400
    q = rng.standard_normal((n, 3)) * 0.01 + 0.002
    p = rng.standard_normal((n, 3)) * 12.0 - 3.0
    ens = PhaseSampleEnsemble(
        q=q, p=p, temperature_K=250.0, weights=rng.uniform(0.1, 3.0, n)
    )
    est = correlation_coherence(ens, basis)
    kt = KB_CM_PER_K * 250.0
    om = basis.omega_mu
    w = ens.weights
    n_eff = 1.0 / np.sum(w**2)
    keys = ("re_p", "re_q", "im", "se_re_p", "se_re_q", "se_im")
    want = {key: np.zeros((3, 3)) for key in keys}
    for mu in range(3):
        for nu in range(3):
            for key, x, scale in (
                ("re_p", p[:, mu] * p[:, nu], 1.0 / kt),
                ("re_q", q[:, mu] * q[:, nu], om[mu] * om[nu] / kt),
                ("im", p[:, mu] * q[:, nu], om[nu] / kt),
            ):
                mean = np.sum(w * x)
                se = np.sqrt(np.sum(w * (x - mean) ** 2) / (n_eff - 1.0))
                want[key][mu, nu] = mean * scale
                want["se_" + key][mu, nu] = se * scale
    for key, expected in want.items():
        got = getattr(est, key)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), key
