from dataclasses import replace

import numpy as np
import pytest

from mlsb import (
    BathSpec,
    DiscretizedBath,
    Method,
    ModelError,
    OracleConfig,
    OracleSolver,
    SiteSystem,
    Thermo,
    build_oracle,
    convergence_sweep,
    diagonalize_excited,
    discretize_bath,
    populations_and_partition,
    quantum_coherence_2nd_modes,
    reorganization_matrix,
)
from mlsb.core import site_hamiltonian


def test_discretize_single_mode_single_site():
    bath = BathSpec.ohmic([100.0, 0.0], 50.0, 0.0)
    dbath = discretize_bath(bath, OracleConfig(n_modes=1, fock_levels=4))
    assert dbath.n_modes == 1
    recomputed = reorganization_matrix(dbath)
    assert recomputed[0, 0] == pytest.approx(100.0, rel=1e-12)
    assert abs(recomputed[1, 1]) < 1e-12
    assert dbath.residual < 1e-10


def test_discretize_perfect_correlation_identical_rows():
    bath = BathSpec.ohmic([80.0, 80.0], 50.0, 1.0)
    dbath = discretize_bath(bath, OracleConfig(n_modes=3, fock_levels=4))
    assert dbath.n_modes == 3  # rank-1 target: one mode per bin
    assert np.allclose(dbath.alphas[0], dbath.alphas[1], atol=1e-12)


def test_discretize_roundtrip_ohmic():
    bath = BathSpec.ohmic([100.0, 40.0], 50.0, -0.5)
    for k in (1, 2, 4):
        dbath = discretize_bath(bath, OracleConfig(n_modes=k, fock_levels=4))
        recomputed = reorganization_matrix(dbath)
        target = reorganization_matrix(bath)
        assert np.max(np.abs(recomputed - target)) < 1e-10 * np.max(np.abs(target))
        assert dbath.residual <= 1e-10


def test_discretize_discrete_shape_passthrough():
    bath = BathSpec.discrete([30.0, 90.0], [1.0, 2.0], [60.0, 0.0], 0.0)
    dbath = discretize_bath(bath, OracleConfig(n_modes=1, fock_levels=4))
    assert set(np.round(dbath.omegas, 9)) == {30.0, 90.0}
    recomputed = reorganization_matrix(dbath)
    assert recomputed[0, 0] == pytest.approx(60.0, rel=1e-12)


def test_zero_weight_lines_make_no_modes(dimer, th300):
    # a line of weight 0 couples to nothing: [30, 60] with weights [1, 0] is
    # the oracle of [30] alone, dimension 2 x 6^2, not 2 x 6^4
    cfg = OracleConfig(fock_levels=6)
    lines = BathSpec.discrete([30.0, 60.0], [1.0, 0.0], [40.0, 20.0])
    assert discretize_bath(lines, cfg).n_modes == 2
    solver = build_oracle(dimer, lines, cfg)
    assert solver.dim == 72
    alone = build_oracle(dimer, BathSpec.discrete([30.0], [1.0], [40.0, 20.0]), cfg)
    c = solver.coherences(th300).c_matrix
    assert np.max(np.abs(c - alone.coherences(th300).c_matrix)) < 1e-13
    # the bath keeps its lines, so continuum q-2 sees the same spectral density
    assert np.array_equal(lines.shape.omegas, [30.0, 60.0])


def test_discretize_bin_frequencies_are_weighted_means():
    bath = BathSpec.ohmic([100.0, 0.0], 50.0, 0.0)
    dbath = discretize_bath(bath, OracleConfig(n_modes=1, fock_levels=4))
    wc = 50.0
    # reorganization-weighted mean of (1/wc) exp(-w/wc) over [0, 6 wc] = [0, 300]
    expected = wc * (1.0 - 7.0 * np.exp(-6.0)) / (1.0 - np.exp(-6.0))
    assert dbath.omegas[0] == pytest.approx(expected, rel=1e-12)


def test_dimension_cap_enforced(dimer, bath_fig1a):
    cfg = OracleConfig(n_modes=3, fock_levels=9, dim_cap=1000)
    dbath = discretize_bath(bath_fig1a, cfg)
    with pytest.raises(ModelError, match=r"2 x 9\^6 exceeds cap 1000"):
        OracleSolver(dimer, dbath, cfg)
    # refused before discretizing: 10^12 bins would need terabytes of edges
    with pytest.raises(ModelError, match=r"2 x 9\^2000000000000 exceeds cap 1000"):
        build_oracle(dimer, bath_fig1a, replace(cfg, n_modes=10**12))


def test_hamiltonian_hermiticity(dimer, bath_fig1a):
    from mlsb.oracle import _hamiltonian

    cfg = OracleConfig(n_modes=2, fock_levels=3)
    dbath = discretize_bath(bath_fig1a, cfg)
    h = _hamiltonian(site_hamiltonian(dimer), dbath, cfg.fock_levels, cfg.dim_cap)
    assert np.max(np.abs(h - h.T)) <= 1e-12 * max(np.max(np.abs(h)), 1.0)


def test_site_weights_match_eigenvector_contraction(dimer, bath_fig1a):
    # the fig1a recipe's oracle (dim 1152): coherences from the kept site
    # weights against the Boltzmann-weighted contraction of the eigenvectors
    from mlsb.oracle import _hamiltonian

    cfg = OracleConfig(n_modes=1, fock_levels=24)
    solver = build_oracle(dimer, bath_fig1a, cfg)
    assert solver.dim == 1152
    assert solver.site_weights.shape == (2, 2, 1152)
    assert not hasattr(solver, "vectors_by_site")
    energies, vecs = np.linalg.eigh(
        _hamiltonian(site_hamiltonian(dimer), solver.dbath, cfg.fock_levels, cfg.dim_cap)
    )
    v = vecs.reshape(2, -1, solver.dim)
    u = diagonalize_excited(dimer).u
    for t in (100.0, 300.0, 800.0):
        th = Thermo(t)
        w = np.exp(-th.beta * (energies - energies[0]))
        c = u @ (np.einsum("mbi,nbi,i->mn", v, v, w) / np.sum(w)) @ u.T
        c = 0.5 * (c + c.T)
        assert np.max(np.abs(solver.coherences(th).c_matrix - c)) < 1e-14


def test_uncoupled_bath_reproduces_sigma0(dimer, th300):
    dbath = DiscretizedBath(
        omegas=np.array([50.0, 120.0]),
        alphas=np.zeros((2, 2)),
        residual=0.0,
    )
    cfg = OracleConfig(n_modes=2, fock_levels=5)
    res = OracleSolver(dimer, dbath, cfg).coherences(th300)
    assert res.method is Method.ORACLE
    basis = diagonalize_excited(dimer)
    pops, _ = populations_and_partition(basis, th300)
    assert abs(res.c12) < 1e-12
    assert np.allclose(res.populations, pops, atol=1e-12)


def test_uncoupled_bath_has_no_modes_whatever_n_modes(dimer, th300):
    # E^r = 0 factors into no coupling directions, so no bin is made, not
    # even the 10**12 Ohmic ones asked for
    cfg = OracleConfig(n_modes=10**12, fock_levels=2)
    solver = build_oracle(dimer, BathSpec.ohmic([0.0, 0.0], 50.0, 0.0), cfg)
    assert solver.dim == 2 and solver.dbath.n_modes == 0
    assert abs(solver.coherences(th300).c12) < 1e-12


def test_oracle_reality_symmetry_trace(dimer, bath_site1, th300):
    res = build_oracle(dimer, bath_site1, OracleConfig(n_modes=2, fock_levels=8)
                       ).coherences(th300)
    assert np.isrealobj(res.c_matrix)
    assert res.diagnostics.c_asymmetry < 1e-12
    assert np.sum(res.populations) == pytest.approx(1.0, abs=1e-10)
    assert np.all(res.populations >= 0.0)


def test_zero_temperature_limit_concentrates(dimer, bath_site1):
    # population flows into the lowest polaron-dressed state as beta grows;
    # in the exciton basis that state is dominated by (but not identical to)
    # the lowest exciton
    solver = build_oracle(dimer, bath_site1, OracleConfig(n_modes=1, fock_levels=14))
    pops = [solver.coherences(Thermo(t)).populations[0] for t in (300.0, 50.0, 5.0)]
    assert pops[0] < pops[1] < pops[2]
    assert pops[-1] > 0.95
    res = solver.coherences(Thermo(5.0))
    assert np.sum(res.populations) == pytest.approx(1.0, abs=1e-10)


def test_correlated_symmetric_coherence_collapses(dimer, th300):
    values = []
    for m in (3, 5, 7):
        bath = BathSpec.ohmic([20.0, 20.0], 50.0, 1.0)
        solver = build_oracle(dimer, bath, OracleConfig(n_modes=2, fock_levels=m))
        values.append(abs(solver.coherences(th300).c12))
    assert values[-1] < 1e-10


def test_weak_coupling_residual_scaling(dimer, th300):
    # |C_oracle - C_q2| / E^2 roughly constant across E in {1, 2, 4} when the
    # perturbative result is evaluated on the same discretized modes
    ratios = []
    for e_r in (1.0, 2.0, 4.0):
        bath = BathSpec.ohmic([e_r, 0.0], 50.0, 0.0)
        solver = build_oracle(dimer, bath, OracleConfig(n_modes=1, fock_levels=60))
        oracle = solver.coherences(th300)
        pert = quantum_coherence_2nd_modes(dimer, solver.dbath, th300)
        ratios.append(abs(oracle.c12 - pert.c12) / e_r**2)
        if e_r == 1.0:
            # populations agree at the same perturbative order
            assert np.max(np.abs(oracle.populations - pert.populations)) < 1e-5
    for r in ratios[1:]:
        assert r == pytest.approx(ratios[0], rel=0.30)


def test_convergence_sweep_fock_levels(dimer, bath_site1, th300):
    sweep = convergence_sweep(
        dimer, bath_site1, th300,
        grid=[(1, 20), (1, 30), (1, 40), (1, 50)],
        cfg=OracleConfig(),
    )
    diffs = [abs(d) for d in sweep.diffs]
    assert diffs[0] > diffs[1] > diffs[2]
    assert sweep.uncertainty == diffs[-1]


def test_convergence_sweep_modes(dimer):
    # cold bath with a high cutoff: a modest Fock level converges every bin,
    # so the frequency-binning error dominates and shrinks with K
    bath = BathSpec.ohmic([5.0, 0.0], 150.0, 0.0)
    sweep = convergence_sweep(
        dimer, bath, Thermo(30.0),
        grid=[(1, 10), (2, 10), (3, 10)],
        cfg=OracleConfig(),
    )
    diffs = [abs(d) for d in sweep.diffs]
    assert diffs[-1] < diffs[0]


def test_convergence_sweep_uncoupled_constant(dimer, th300):
    bath = BathSpec.ohmic([0.0, 0.0], 50.0, 0.0)
    sweep = convergence_sweep(
        dimer, bath, th300, grid=[(1, 3), (1, 5), (2, 4)], cfg=OracleConfig()
    )
    values = [e[2] for e in sweep.entries]
    assert np.ptp(values) < 1e-14


def _independent_thermal_reduced_matrix(sys2, dbath, fock, th):
    """Occupation-number-basis construction, independent of OracleSolver.

    Enumerates |site, n_1, ..., n_K> states explicitly and assembles matrix
    elements one by one; diagonalizes with scipy and traces out the bath by
    direct summation.
    """
    from itertools import product

    from scipy.linalg import eigh as scipy_eigh

    n_sites = sys2.n_sites
    h_site = site_hamiltonian(sys2)
    states = [
        (m,) + occ
        for m in range(n_sites)
        for occ in product(range(fock), repeat=dbath.n_modes)
    ]
    index = {s: i for i, s in enumerate(states)}
    dim = len(states)
    h = np.zeros((dim, dim))
    for i, s in enumerate(states):
        m, occ = s[0], s[1:]
        h[i, i] += h_site[m, m] + sum(
            dbath.omegas[k] * occ[k] for k in range(dbath.n_modes)
        )
        for mp in range(n_sites):
            if mp != m:
                h[index[(mp,) + occ], i] += h_site[mp, m]
        for k in range(dbath.n_modes):
            if occ[k] + 1 < fock:
                up = occ[:k] + (occ[k] + 1,) + occ[k + 1:]
                elem = dbath.alphas[m, k] * np.sqrt(
                    (occ[k] + 1) / (2.0 * dbath.omegas[k])
                )
                j = index[(m,) + up]
                h[j, i] += elem
                h[i, j] += elem
    evals, vecs = scipy_eigh(h)
    weights = np.exp(-th.beta * (evals - evals[0]))
    rho_site = np.zeros((n_sites, n_sites))
    for i, wi in enumerate(weights):
        for a, sa in enumerate(states):
            for b, sb in enumerate(states):
                if sa[1:] == sb[1:]:
                    rho_site[sa[0], sb[0]] += wi * vecs[a, i] * vecs[b, i]
    return rho_site / np.sum(weights)


THREE_SITES = SiteSystem(
    np.array([16100.0, 15950.0, 16020.0]),
    np.array([[0.0, 80.0, -30.0], [80.0, 0.0, 60.0], [-30.0, 60.0, 0.0]]),
)


@pytest.mark.parametrize(
    "system, bath, fock",
    [
        # one frequency bin, rank-2 E^r: 2 modes, dimension 2 * 4^2
        (
            SiteSystem.dimer(200.0, 200.0, omega_bar=16000.0),
            BathSpec.ohmic([30.0, 10.0], 50.0, 0.5),
            4,
        ),
        # one frequency bin, rank-3 E^r: 3 modes, dimension 3 * 3^3
        (THREE_SITES, BathSpec.ohmic([30.0, 20.0, 10.0], 50.0, 0.3), 3),
    ],
    ids=["dimer", "three-sites"],
)
def test_solver_against_independent_construction(system, bath, fock, th300):
    cfg = OracleConfig(n_modes=1, fock_levels=fock)
    dbath = discretize_bath(bath, cfg)
    assert dbath.n_modes == system.n_sites
    rho_independent = _independent_thermal_reduced_matrix(
        system, dbath, cfg.fock_levels, th300
    )
    basis = diagonalize_excited(system)
    c_independent = basis.u @ rho_independent @ basis.u.T
    solver = OracleSolver(system, dbath, cfg)
    res = solver.coherences(th300)
    assert res.diagnostics.dim == system.n_sites * fock**system.n_sites
    assert np.max(np.abs(res.c_matrix - c_independent)) < 1e-12
    assert np.max(np.abs(solver.site_state(th300) - rho_independent)) < 1e-12
    # coherences is site_state rotated into the exciton basis and symmetrized
    batch = Thermo(np.array([77.0, 300.0, 800.0]))
    for th in (th300, batch):
        rho = solver.site_state(th)
        assert rho.shape == np.shape(th.beta) + (system.n_sites,) * 2
        assert np.max(np.abs(rho - np.swapaxes(rho, -1, -2))) < 1e-12
        assert np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)) < 1e-12
        c = basis.u @ rho @ basis.u.T
        c = 0.5 * (c + np.swapaxes(c, -1, -2))
        assert np.array_equal(solver.coherences(th).c_matrix, c)
    for row, t in zip(solver.site_state(batch), batch.temperature_K):
        assert np.max(np.abs(row - solver.site_state(Thermo(t)))) < 1e-14


def test_solver_rejects_bath_for_other_site_count(dimer):
    bath = BathSpec.ohmic([30.0, 20.0, 10.0], 50.0, 0.0)
    cfg = OracleConfig(n_modes=1, fock_levels=3)
    with pytest.raises(ModelError, match="couples 3 sites, system has 2"):
        OracleSolver(dimer, discretize_bath(bath, cfg), cfg)


def test_convergence_sweep_empty_grid(dimer, bath_site1, th300):
    with pytest.raises(ModelError, match="at least one grid point"):
        convergence_sweep(dimer, bath_site1, th300, grid=[])


@pytest.mark.parametrize("grid", [[(1.9, 3.7)], [(True, 4)]])
def test_convergence_sweep_refuses_non_integer_grid(dimer, bath_site1, th300, grid):
    with pytest.raises(ModelError, match="must be an integer"):
        convergence_sweep(dimer, bath_site1, th300, grid=grid)


@pytest.mark.parametrize("grid", [[(1, 4)], [(1, 4), (1, 5)]])
def test_convergence_sweep_refuses_temperature_batch(dimer, bath_site1, grid, monkeypatch):
    # refused before any oracle is built
    def no_solve(*args):
        raise AssertionError("an oracle was built for a temperature batch")

    monkeypatch.setattr("mlsb.oracle.build_oracle", no_solve)
    with pytest.raises(ModelError, match="convergence_sweep takes one temperature"):
        convergence_sweep(dimer, bath_site1, Thermo([100.0, 300.0]), grid=grid)


def test_convergence_sweep_accepts_numpy_integers(dimer, bath_site1, th300):
    sweep = convergence_sweep(dimer, bath_site1, th300, grid=[(np.int64(1), np.int32(3))])
    assert sweep.entries[0][:2] == (1, 3)
    assert all(type(x) is int for x in sweep.entries[0][:2])
