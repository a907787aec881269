import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsb import (
    BathSpec,
    CoherenceResult,
    DiscreteShape,
    DiscretizedBath,
    KB_CM_PER_K,
    Method,
    ModelError,
    OhmicShape,
    OracleConfig,
    OracleSolver,
    SiteSystem,
    Thermo,
    bose_occupation,
    build_oracle,
    classical_coherence,
    diagonalize_excited,
    discretize_bath,
    equipartition_state,
    hbar3_general,
    hbar3_monte_carlo,
    kernel,
    populations_and_partition,
    quantum_coherence_2nd,
    quantum_coherence_2nd_modes,
    reorganization_matrix,
    semiclassical_exact,
    semiclassical_second_order,
    site_hamiltonian,
    uncertainty_lower_bound,
    validate_regime,
)

from conftest import random_dimer


def test_thermo_consistency():
    th = Thermo(300.0)
    assert abs(th.beta * KB_CM_PER_K * 300.0 - 1.0) < 1e-12
    assert abs(1.0 / th.beta - 208.51044) < 1e-8
    with pytest.raises(ModelError):
        Thermo(-5.0)
    with pytest.raises(TypeError):
        Thermo(300.0, beta=1.0)


def test_site_system_validation():
    with pytest.raises(ModelError):
        SiteSystem([100.0], np.zeros((1, 1)))
    with pytest.raises(ModelError):
        SiteSystem([100.0, 200.0], np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ModelError):
        SiteSystem([100.0, 200.0], np.array([[1.0, 3.0], [3.0, 0.0]]))
    sys2 = SiteSystem.dimer(200.0, 50.0)
    assert sys2.omega_bar_defaulted
    assert sys2.omega_bar == pytest.approx(16000.0)
    assert sys2.omega[1] - sys2.omega[0] == pytest.approx(200.0)


NAN, INF = float("nan"), float("inf")


def _pair_coupling(v):
    return np.array([[0.0, v], [v, 0.0]])


def _kernel_fig1a(omega, kappa, mu, nu):
    """kernel on the fig1a dimer's exciton basis at 300 K."""
    basis = diagonalize_excited(SiteSystem.dimer(200.0, 200.0, omega_bar=16000.0))
    return kernel(omega, kappa, mu, nu, basis, Thermo(300.0))


INVALID_INPUTS = {
    "thermo-inf": lambda: Thermo(INF),
    "thermo-nan": lambda: Thermo(NAN),
    "omega-nan": lambda: SiteSystem([100.0, NAN], np.zeros((2, 2))),
    "omega-inf": lambda: SiteSystem([100.0, INF], np.zeros((2, 2))),
    "coupling-nan": lambda: SiteSystem([100.0, 200.0], _pair_coupling(NAN)),
    "coupling-inf": lambda: SiteSystem([100.0, 200.0], _pair_coupling(INF)),
    "dimer-delta-nan": lambda: SiteSystem.dimer(NAN, 100.0),
    "dimer-v12-inf": lambda: SiteSystem.dimer(200.0, INF),
    "reorg-nan": lambda: BathSpec.ohmic([100.0, NAN], 50.0),
    "reorg-inf": lambda: BathSpec.ohmic([100.0, INF], 50.0),
    "ohmic-cutoff-inf": lambda: OhmicShape(INF),
    "discrete-omega-inf": lambda: DiscreteShape([100.0, INF], [1.0, 1.0]),
    "discrete-omega-nan": lambda: DiscreteShape([100.0, NAN], [1.0, 1.0]),
    "discrete-weight-inf": lambda: DiscreteShape([100.0, 200.0], [1.0, INF]),
    "discrete-weight-nan": lambda: DiscreteShape([100.0, 200.0], [1.0, NAN]),
    "oracle-dim-cap-zero": lambda: OracleConfig(dim_cap=0),
    "oracle-dim-cap-negative": lambda: OracleConfig(dim_cap=-5),
    "oracle-fock-levels-float": lambda: OracleConfig(fock_levels=4.5),
    "oracle-fock-levels-integral-float": lambda: OracleConfig(fock_levels=4.0),
    "oracle-n-modes-float": lambda: OracleConfig(n_modes=1.5),
    "oracle-n-modes-bool": lambda: OracleConfig(n_modes=True),
    "oracle-dim-cap-float": lambda: OracleConfig(dim_cap=1e4),
    "oracle-dim-cap-string": lambda: OracleConfig(dim_cap="1000"),
    "discretized-omega-nan": lambda: DiscretizedBath([NAN], [[1.0], [0.0]], 0.0),
    "discretized-omega-inf": lambda: DiscretizedBath([INF], [[1.0], [0.0]], 0.0),
    "discretized-alpha-nan": lambda: DiscretizedBath([50.0], [[NAN], [0.0]], 0.0),
    "discretized-alpha-inf": lambda: DiscretizedBath([50.0], [[1.0], [INF]], 0.0),
    "discretized-omegas-2d": lambda: DiscretizedBath([[50.0]], [[1.0], [0.0]], 0.0),
    "discretized-alphas-3d": lambda: DiscretizedBath([50.0], [[[1.0]], [[0.0]]], 0.0),
    "discretized-residual-nan": lambda: DiscretizedBath([50.0], [[1.0], [0.0]], NAN),
    "discretized-residual-matrix": lambda: DiscretizedBath([50.0], [[1.0], [0.0]], np.eye(2)),
    "result-err-est-nan": lambda: CoherenceResult(Method.Q2, np.eye(2), err_est=NAN),
    "result-err-est-inf": lambda: CoherenceResult(Method.Q2, np.eye(2), err_est=INF),
    # scalar helpers given what they cannot compute: a non-finite frequency, an
    # exciton index outside 0..N-1 or one that is not an integer, no sites
    "kernel-omega-nan": lambda: _kernel_fig1a(NAN, 0, 0, 1),
    "kernel-omega-inf": lambda: _kernel_fig1a(INF, 0, 0, 1),
    "kernel-index-negative": lambda: _kernel_fig1a(10.0, -1, -1, 1),
    "kernel-index-past-end": lambda: _kernel_fig1a(10.0, 0, 0, 2),
    "kernel-index-bool": lambda: _kernel_fig1a(10.0, True, 0, 1),
    "kernel-index-float": lambda: _kernel_fig1a(10.0, 0, 1.0, 0),
    "bose-omega-nan": lambda: bose_occupation(NAN, Thermo(300.0)),
    "bose-omega-inf": lambda: bose_occupation(INF, Thermo(300.0)),
    "equipartition-no-sites": lambda: equipartition_state(0, 1.0),
    "equipartition-sites-float": lambda: equipartition_state(2.0, 1.0),
}


@pytest.mark.parametrize("name", INVALID_INPUTS)
def test_non_finite_and_invalid_inputs_rejected(name):
    # rejected before any arithmetic on them can warn
    with pytest.raises(ModelError):
        INVALID_INPUTS[name]()


def test_scalar_helpers_accept_numpy_integers(dimer, th300):
    basis = diagonalize_excited(dimer)
    indices = (np.int64(1), np.int32(0), np.int64(1))
    assert kernel(10.0, *indices, basis, th300) == kernel(10.0, 1, 0, 1, basis, th300)
    assert np.array_equal(equipartition_state(np.int64(2), 1.0), equipartition_state(2, 1.0))


# value type from the caller's arrays, the fields that store them, the arrays
STORED_ARRAYS = {
    "site-system": (SiteSystem, ("omega", "coupling"),
                    lambda: (np.array([100.0, 300.0]), _pair_coupling(50.0))),
    "discrete-shape": (DiscreteShape, ("omegas", "weights"),
                       lambda: (np.array([40.0, 90.0]), np.array([1.0, 2.0]))),
    "bath-spec": (lambda diag, corr: BathSpec(OhmicShape(50.0), diag, corr),
                  ("reorg_diag", "correlation"),
                  lambda: (np.array([100.0, 30.0]), np.array([[1.0, 0.2], [0.2, 1.0]]))),
    "discretized-bath": (lambda om, al: DiscretizedBath(om, al, 0.0), ("omegas", "alphas"),
                         lambda: (np.array([40.0, 90.0]), np.array([[3.0, 1.0], [0.0, 2.0]]))),
    "coherence-result": (lambda c, err: CoherenceResult(Method.Q2, c, err),
                         ("c_matrix", "err_est"),
                         lambda: (np.stack([np.eye(2), np.full((2, 2), 0.5)]),
                                  np.array([0.0, 1e-3]))),
    "thermo-batch": (Thermo, ("temperature_K",), lambda: (np.array([100.0, 300.0]),)),
}


@pytest.mark.parametrize("name", STORED_ARRAYS)
def test_value_types_store_read_only_copies(name):
    build, fields, arrays = STORED_ARRAYS[name]
    given = arrays()
    value = build(*given)
    for array, field in zip(given, fields):
        stored = getattr(value, field)
        assert array.flags.writeable, f"{field}: the caller's array was frozen"
        assert not stored.flags.writeable, f"{field}: the stored array is writable"
        before = stored.copy()
        array += 1.0
        assert np.array_equal(stored, before), f"{field}: the stored array is the caller's"


def test_dimer_phi_closed_form_vs_eigenvectors():
    # tan(phi) = 2 V / (Delta + sqrt(Delta^2 + 4 V^2)); cross-check against a
    # direct 2x2 eigenvector computation for Delta = V = 200.
    sys2 = SiteSystem.dimer(200.0, 200.0)
    basis = diagonalize_excited(sys2)
    tan_phi = 2.0 / (1.0 + np.sqrt(5.0))
    assert tan_phi == pytest.approx(0.6180339887498949, abs=1e-15)
    assert basis.phi == pytest.approx(np.arctan(tan_phi), abs=1e-14)
    assert basis.phi == pytest.approx(0.5535743588970452, abs=1e-13)
    h = site_hamiltonian(sys2)
    evals, vecs = np.linalg.eigh(h)
    ground = vecs[:, 0] * np.sign(vecs[np.argmax(np.abs(vecs[:, 0])), 0])
    assert np.allclose(basis.u[0], ground, atol=1e-12)
    assert np.allclose(
        basis.u, [[np.cos(basis.phi), -np.sin(basis.phi)],
                  [np.sin(basis.phi), np.cos(basis.phi)]], atol=1e-12
    )


def test_uncoupled_sites_identity():
    sys2 = SiteSystem.dimer(200.0, 0.0)
    basis = diagonalize_excited(sys2)
    assert basis.phi == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(basis.u, np.eye(2), atol=1e-14)


def test_symmetric_dimer_pi_over_4():
    sys2 = SiteSystem.dimer(0.0, 150.0)
    basis = diagonalize_excited(sys2)
    assert basis.phi == pytest.approx(np.pi / 4.0, abs=1e-14)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(basis.u), [[s, s], [s, s]], atol=1e-12)


def test_eigenvalues_ascending_and_sign_convention():
    rng = np.random.default_rng(7)
    for _ in range(50):
        sys2 = random_dimer(rng)
        basis = diagonalize_excited(sys2)
        assert basis.omega_mu[0] <= basis.omega_mu[1]
        for row in basis.u:
            assert row[int(np.argmax(np.abs(row)))] >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    w1=st.floats(-400, 400),
    w2=st.floats(-400, 400),
    v=st.floats(-300, 300),
)
def test_diagonalization_properties(w1, w2, v):
    sys2 = SiteSystem(
        np.array([16000.0 + w1, 16000.0 + w2]),
        np.array([[0.0, v], [v, 0.0]]),
    )
    basis = diagonalize_excited(sys2)
    assert np.max(np.abs(basis.u @ basis.u.T - np.eye(2))) < 1e-12
    h = site_hamiltonian(sys2)
    # rotating H_e by u and back reproduces H_e
    back = basis.u.T @ (basis.u @ h @ basis.u.T) @ basis.u
    assert np.max(np.abs(back - h)) < 1e-12 * max(1.0, np.max(np.abs(h)))
    rot = basis.u @ h @ basis.u.T
    off = rot - np.diag(np.diagonal(rot))
    norm = np.max(np.abs(h))
    assert np.max(np.abs(off)) <= 1e-10 * norm


def test_exciton_basis_is_computed_once_and_read_only(bath_fig1a):
    sys2 = SiteSystem.dimer(200.0, 150.0)
    basis = diagonalize_excited(sys2)
    assert diagonalize_excited(sys2) is basis
    assert quantum_coherence_2nd(sys2, bath_fig1a, Thermo(300.0)).c12 != 0.0
    assert diagonalize_excited(sys2) is basis
    for values in (basis.u, basis.omega_mu, basis.delta_omega_mu):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0
    # an equal but distinct system gets its own, identical basis
    twin = SiteSystem(sys2.omega, sys2.coupling)
    assert diagonalize_excited(twin) is not basis
    assert np.array_equal(diagonalize_excited(twin).u, basis.u)
    assert "_basis" not in repr(sys2)


def test_trisite_diagonalization():
    omega = np.array([15900.0, 16000.0, 16150.0])
    v = np.array([[0.0, 80.0, 30.0], [80.0, 0.0, 60.0], [30.0, 60.0, 0.0]])
    basis = diagonalize_excited(SiteSystem(omega, v))
    assert basis.phi is None
    assert np.all(np.diff(basis.omega_mu) >= 0)
    assert np.max(np.abs(basis.u @ basis.u.T - np.eye(3))) < 1e-12


def test_reorganization_matrix_fig1a():
    bath = BathSpec.ohmic([100.0, 100.0], 50.0, 0.0)
    assert np.allclose(
        reorganization_matrix(bath), [[100.0, 0.0], [0.0, 100.0]], atol=1e-13
    )


def test_reorganization_matrix_single_discrete_mode():
    alpha = 7.5
    omega = 40.0
    dbath = DiscretizedBath(
        omegas=np.array([omega]),
        alphas=np.array([[alpha], [0.0]]),
        residual=0.0,
    )
    expected = alpha**2 / (2.0 * omega**2)
    assert np.allclose(
        reorganization_matrix(dbath), [[expected, 0.0], [0.0, 0.0]], atol=1e-15
    )


def test_reorganization_matrix_perfect_correlation():
    bath = BathSpec.ohmic([80.0, 80.0], 50.0, 1.0)
    assert np.allclose(reorganization_matrix(bath), np.full((2, 2), 80.0))


def test_non_psd_correlation_rejected():
    corr = np.array(
        [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
    )
    with pytest.raises(ModelError, match="eigenvalue"):
        BathSpec(
            BathSpec.ohmic([1.0, 1.0, 1.0], 50.0).shape,
            np.array([100.0, 100.0, 100.0]),
            corr,
        )


# each calculator on a dimer coupled to a bath sized for three sites; q-2 on
# modes and the oracle take that bath's discretization
WRONG_SITE_COUNT = {
    "classical": lambda sys, bath, dbath, th: classical_coherence(sys, bath, th),
    "sc-exact": lambda sys, bath, dbath, th: semiclassical_exact(sys, bath, th),
    "sc-2": lambda sys, bath, dbath, th: semiclassical_second_order(sys, bath, th),
    "q-2": lambda sys, bath, dbath, th: quantum_coherence_2nd(sys, bath, th),
    "q-2-modes": lambda sys, bath, dbath, th: quantum_coherence_2nd_modes(sys, dbath, th),
    "hbar3": lambda sys, bath, dbath, th: hbar3_general(sys, bath, th),
    "oracle": lambda sys, bath, dbath, th: OracleSolver(
        sys, dbath, OracleConfig(n_modes=1, fock_levels=2)
    ),
}


@pytest.mark.parametrize("name", WRONG_SITE_COUNT)
def test_calculators_reject_bath_for_other_site_count(name, dimer, th300):
    bath = BathSpec.ohmic([100.0, 100.0, 50.0], 50.0)
    dbath = discretize_bath(bath, OracleConfig(n_modes=1, fock_levels=2))
    with pytest.raises(ModelError, match="bath couples 3 sites, system has 2"):
        WRONG_SITE_COUNT[name](dimer, bath, dbath, th300)


# each entry point that reads one bath type, given the other: a BathSpec where
# a DiscretizedBath belongs and the other way round
WRONG_BATH_TYPE = {
    "quantum_coherence_2nd": lambda sys, bath, dbath, th: quantum_coherence_2nd(sys, dbath, th),
    "validate_regime": lambda sys, bath, dbath, th: validate_regime(sys, dbath, th),
    "discretize_bath": lambda sys, bath, dbath, th: discretize_bath(dbath, OracleConfig()),
    "build_oracle": lambda sys, bath, dbath, th: build_oracle(sys, dbath, OracleConfig()),
    "quantum_coherence_2nd_modes": lambda sys, bath, dbath, th: quantum_coherence_2nd_modes(
        sys, bath, th),
    "uncertainty_lower_bound": lambda sys, bath, dbath, th: uncertainty_lower_bound(
        sys, bath, classical_coherence(sys, bath, th)),
    "hbar3_monte_carlo": lambda sys, bath, dbath, th: hbar3_monte_carlo(
        sys, bath, th, n_samples=100),
    "OracleSolver": lambda sys, bath, dbath, th: OracleSolver(
        sys, bath, OracleConfig(n_modes=1, fock_levels=2)),
}


@pytest.mark.parametrize("name", WRONG_BATH_TYPE)
def test_entry_points_reject_the_other_bath_type(name, dimer, bath_fig1a, th300):
    dbath = discretize_bath(bath_fig1a, OracleConfig(n_modes=1, fock_levels=2))
    with pytest.raises(ModelError, match=f"^{name} takes a (BathSpec|DiscretizedBath), got"):
        WRONG_BATH_TYPE[name](dimer, bath_fig1a, dbath, th300)


def test_sigma0_limits(dimer):
    basis = diagonalize_excited(dimer)
    # high temperature: uniform populations, Z -> N
    pops, z = populations_and_partition(basis, Thermo(1e9))
    assert np.allclose(pops, [0.5, 0.5], atol=1e-6)
    assert z == pytest.approx(2.0, rel=1e-6)
    # dimer partition sum Z = 2 cosh(beta D_S / 2)
    th = Thermo(300.0)
    ds = basis.omega_mu[1] - basis.omega_mu[0]
    _, z300 = populations_and_partition(basis, th)
    assert z300 == pytest.approx(2.0 * np.cosh(th.beta * ds / 2.0), rel=1e-12)
    # low temperature: all population in the lowest eigenstate
    pops, _ = populations_and_partition(basis, Thermo(0.1))
    assert pops[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(np.sum(pops) - 1.0) < 1e-14


def test_sigma0_overflow_guard(dimer):
    basis = diagonalize_excited(dimer)
    pops, _ = populations_and_partition(basis, Thermo(0.001))
    assert np.all(np.isfinite(pops))
    assert abs(np.sum(pops) - 1.0) < 1e-14


def test_validate_regime_quiet_on_fig1_parameters(dimer, bath_fig1a):
    assert validate_regime(dimer, bath_fig1a, Thermo(300.0)) == []


def test_validate_regime_adiabatic_warning(bath_fig1a):
    small = SiteSystem.dimer(200.0, 200.0, omega_bar=500.0)
    warnings = validate_regime(small, bath_fig1a, Thermo(300.0))
    assert any("adiabatic" in w for w in warnings)


def test_validate_regime_thermal_warning(dimer, bath_fig1a):
    warnings = validate_regime(dimer, bath_fig1a, Thermo(30000.0))
    assert any("thermal" in w for w in warnings)
    assert validate_regime(dimer, bath_fig1a, Thermo(30000.0))  # never raises
    # a batch is checked at its hottest temperature, which the warning names
    batch = validate_regime(dimer, bath_fig1a, Thermo([300.0, 30000.0, 1000.0]))
    assert [w for w in batch if "thermal" not in w] == \
        [w for w in warnings if "thermal" not in w]
    (thermal,) = [w for w in batch if "thermal" in w]
    assert thermal == [w for w in warnings if "thermal" in w][0] + " at T = 30000 K"
    assert validate_regime(dimer, bath_fig1a, Thermo([300.0, 400.0])) == []
