"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not calibrated elsewhere.
"""

from pathlib import Path

import numpy as np

from mlsb import (
    FIGURE2_NAMES,
    BathSpec,
    OracleConfig,
    OracleSolver,
    SiteSystem,
    Thermo,
    classical_coherence,
    convergence_sweep,
    diagonalize_excited,
    discretize_bath,
    grid_q_rms,
    hbar3_dimer,
    hbar3_general,
    kernel,
    quantum_coherence_2nd,
    quantum_coherence_2nd_modes,
    quantum_coherence_correlated,
    render_figure2,
    reorganization_matrix,
    rho10_quantum,
    rho10_via_moyal,
    semiclassical_exact,
    semiclassical_second_order,
    uncertainty_lower_bound,
    OhmicShape,
    KB_CM_PER_K,
)
from mlsb.cli import load_config, run_figure2, run_sweep

from conftest import random_bath, random_dimer

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
RECIPES = ("fig1a", "fig1b_site1", "fig1b_site2")

DIMER = SiteSystem.dimer(200.0, 200.0, omega_bar=16000.0)
BATH_FIG1A = BathSpec.ohmic([100.0, 100.0], 50.0, 0.0)
BATH_SITE1 = BathSpec.ohmic([100.0, 0.0], 50.0, 0.0)


def _report(num, description, ok):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_classical_nullity():
    ok = True
    for name in RECIPES:
        cfg = load_config(str(CONFIGS / f"{name}.ini"))
        for t in cfg.temperatures:
            res = classical_coherence(cfg.system, cfg.bath, Thermo(float(t)))
            ok &= res.c_matrix[0, 1] == 0.0
    rng = np.random.default_rng(2024)
    for _ in range(50):
        sys2 = random_dimer(rng)
        bath = random_bath(rng)
        res = classical_coherence(sys2, bath, Thermo(rng.uniform(20.0, 2000.0)))
        ok &= res.c_matrix[0, 1] == 0.0
    _report(1, "classical C12 identically zero on recipes and 50 random dimers", ok)


def test_criterion_02_semiclassical_symmetric_nullity():
    ok = True
    for c in (0.0, 0.7, -1.0):
        bath = BathSpec.ohmic([100.0, 100.0], 50.0, c)
        for t in (77.0, 300.0, 800.0):
            val = semiclassical_exact(DIMER, bath, Thermo(t)).c12
            ok &= val == 0.0
    _report(2, "sc-exact C12 == 0 for equal site reorganization energies", ok)


def test_criterion_03_correlated_bath_nullity():
    th = Thermo(300.0)
    general = quantum_coherence_2nd(
        DIMER, BathSpec.ohmic([100.0, 100.0], 50.0, 1.0), th
    ).c12
    closed = quantum_coherence_correlated(DIMER, 100.0, 1.0, OhmicShape(50.0), th).c12
    ok = abs(general) < 1e-8 and closed == 0.0
    _report(3, "q-2 coherence vanishes for a perfectly correlated bath", ok)


def test_criterion_04_common_high_temperature_limit():
    th = Thermo(4000.0)
    sc2 = semiclassical_second_order(DIMER, BATH_SITE1, th).c12
    q2 = quantum_coherence_2nd(DIMER, BATH_SITE1, th).c12
    h3 = hbar3_general(DIMER, BATH_SITE1, th).c12
    values = (sc2, q2, h3)
    ok = all(
        abs(a - b) / max(abs(a), abs(b)) < 0.03
        for i, a in enumerate(values)
        for b in values[i + 1:]
    )
    _report(4, "sc-2, q-2 and hbar3 agree pairwise within 3% at 4000 K", ok)


def test_criterion_05_oracle_perturbation_consistency():
    th = Thermo(300.0)
    residuals = {}
    c_at_one = None
    tolerance = None
    converged = True
    for e_r in (1.0, 2.0, 4.0):
        bath = BathSpec.ohmic([e_r, 0.0], 50.0, 0.0)
        sweep = convergence_sweep(
            DIMER, bath, th, grid=[(1, 40), (1, 55), (1, 70)], cfg=OracleConfig()
        )
        cfg = OracleConfig(n_modes=1, fock_levels=70)
        dbath = discretize_bath(bath, cfg)
        oracle = OracleSolver(DIMER, dbath, cfg).coherences(th)
        pert = quantum_coherence_2nd_modes(DIMER, dbath, th)
        residuals[e_r] = abs(oracle.c12 - pert.c12)
        if e_r == 1.0:
            c_at_one = abs(oracle.c12)
            tolerance = 0.01 * c_at_one
        converged &= sweep.uncertainty < 0.1 * (tolerance or 1.0)
    exp12 = np.log2(residuals[2.0] / residuals[1.0])
    exp24 = np.log2(residuals[4.0] / residuals[2.0])
    ok = (
        converged
        and abs(exp12 - 2.0) <= 0.3
        and abs(exp24 - 2.0) <= 0.3
        and residuals[1.0] < tolerance
    )
    _report(
        5,
        f"oracle vs q-2 residual exponents ({exp12:.2f}, {exp24:.2f}) in 2.0+-0.3, "
        f"agreement {residuals[1.0] / c_at_one:.2%} at E^r = 1",
        ok,
    )


def test_criterion_06_hbar3_internal_consistency():
    rng = np.random.default_rng(515)
    ok = True
    for i in range(100):
        sys2 = random_dimer(rng)
        bath = random_bath(rng)
        th = Thermo((77.0, 300.0, 900.0)[i % 3])
        general = hbar3_general(sys2, bath, th).c12
        closed = hbar3_dimer(
            diagonalize_excited(sys2), reorganization_matrix(bath), th
        ).c12
        ok &= abs(general - closed) < 1e-12
    _report(6, "hbar3 general and dimer closed form agree to 1e-12", ok)


def test_criterion_07_hbar3_qualitative_sign_vs_oracle():
    scaled = BathSpec.ohmic([4.0, 4.0], 50.0, 0.0)  # fig1a, weak-coupling-scaled
    ok = True
    # truncation check at the cheapest temperature: the Fock-level sequence
    # must be converged well enough to make the sign comparison conclusive
    sweep = convergence_sweep(
        DIMER, scaled, Thermo(300.0),
        grid=[(1, 22), (1, 28), (1, 34)], cfg=OracleConfig(),
    )
    ok &= abs(sweep.diffs[-1]) < abs(sweep.diffs[0])
    ok &= sweep.uncertainty < 0.02 * abs(sweep.entries[-1][2])
    for t, fock in ((300.0, 34), (500.0, 40), (800.0, 48)):
        th = Thermo(t)
        cfg = OracleConfig(n_modes=1, fock_levels=fock)
        dbath = discretize_bath(scaled, cfg)
        oracle = OracleSolver(DIMER, dbath, cfg).coherences(th).c12
        h3 = hbar3_general(DIMER, scaled, th).c12
        ok &= h3 != 0.0 and np.sign(h3) == np.sign(oracle)
    _report(7, "hbar3 nonzero with the oracle's sign on fig1a at 300-800 K", ok)


def test_criterion_08_kernel_regularity():
    rng = np.random.default_rng(88)
    th = Thermo(300.0)
    ok = True
    for _ in range(100):
        basis = diagonalize_excited(random_dimer(rng))
        dw = basis.delta_omega_mu
        mu, nu = (0, 1) if rng.random() < 0.5 else (1, 0)
        kappa = int(rng.integers(0, 2))
        for pole in (-(dw[mu] - dw[kappa]), -(dw[nu] - dw[kappa])):
            base = kernel(float(pole), kappa, mu, nu, basis, th)
            ok &= bool(np.isfinite(base))
            diffs = []
            for eps in (1e-2, 1e-4, 1e-6):
                val = kernel(float(pole) + eps, kappa, mu, nu, basis, th)
                ok &= bool(np.isfinite(val))
                diffs.append(abs(val - base))
            if diffs[0] > 1e-12 * max(abs(base), 1e-30):
                ok &= diffs[1] <= 0.1 * diffs[0]
                ok &= diffs[2] <= 0.1 * diffs[1]
    _report(8, "kernel finite and Cauchy-convergent through removable poles", ok)


def test_criterion_09_reality_symmetry():
    th = Thermo(300.0)
    results = [
        classical_coherence(DIMER, BATH_FIG1A, th),
        semiclassical_exact(DIMER, BATH_SITE1, th),
        semiclassical_second_order(DIMER, BATH_SITE1, th),
        quantum_coherence_2nd(DIMER, BATH_SITE1, th),
        hbar3_general(DIMER, BATH_FIG1A, th),
    ]
    cfg = OracleConfig(n_modes=1, fock_levels=40)
    dbath = discretize_bath(BATH_SITE1, cfg)
    oracle = OracleSolver(DIMER, dbath, cfg).coherences(th)
    results.append(oracle)
    ok = True
    for res in results:
        ok &= bool(np.isrealobj(res.c_matrix))
        ok &= float(np.max(np.abs(res.c_matrix - res.c_matrix.T))) < 1e-12
    ok &= abs(float(np.sum(oracle.populations)) - 1.0) < 1e-10
    _report(9, "all methods real-symmetric; oracle populations sum to 1", ok)


def test_criterion_10_phase_space():
    omega = 16000.0
    th = Thermo(300.0)
    coords = np.linspace(-4.0, 4.0, 101)
    q = coords / np.sqrt(omega)
    p = coords * np.sqrt(omega)
    direct = rho10_quantum(q[:, None], p[None, :], omega)
    moyal = rho10_via_moyal(q[:, None], p[None, :], omega)
    ok = float(np.max(np.abs(direct - moyal))) < 1e-12
    grids = {name: render_figure2(name, omega, th, n_grid=241, extent=4.0)[0]
             for name in FIGURE2_NAMES}
    ratio = grid_q_rms(grids["classical"]) / grid_q_rms(grids["quantum"])
    expected = np.sqrt(2.0 * KB_CM_PER_K * 300.0 / omega)
    ok &= abs(ratio / expected - 1.0) < 0.02
    extent_ratio = grid_q_rms(grids["semiclassical"]) / grid_q_rms(grids["quantum"])
    ok &= abs(extent_ratio - 1.0) < 0.20
    _report(
        10,
        f"phase space: product-rule identity, width ratio {ratio:.4f} vs "
        f"{expected:.4f}, radial extent ratio {extent_ratio:.3f}",
        ok,
    )


def test_criterion_11_uncertainty_bound():
    th = Thermo(300.0)
    cfg = OracleConfig(n_modes=2, fock_levels=2)
    dbath_fig1a = discretize_bath(BATH_FIG1A, cfg)
    diag = classical_coherence(DIMER, BATH_FIG1A, th)
    ok = uncertainty_lower_bound(DIMER, dbath_fig1a, diag) == 0.0
    correlated = discretize_bath(BathSpec.ohmic([100.0, 100.0], 50.0, 1.0), cfg)
    quantum = quantum_coherence_2nd(DIMER, BATH_FIG1A, th)
    ok &= uncertainty_lower_bound(DIMER, correlated, quantum) < 1e-9
    ok &= uncertainty_lower_bound(DIMER, dbath_fig1a, quantum) > 0.0
    _report(11, "uncertainty bound zero for diagonal/correlated, positive for q-2", ok)


def test_criterion_12_determinism(tmp_path):
    ok = True
    for name in RECIPES:
        cfg = load_config(str(CONFIGS / f"{name}.ini"))
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        run_sweep(cfg, str(a))
        run_sweep(cfg, str(b))
        ok &= a.read_bytes() == b.read_bytes()
    fig2 = load_config(str(CONFIGS / "fig2.ini"))
    pa, _, _ = run_figure2(fig2, str(tmp_path / "fa"))
    pb, _, _ = run_figure2(fig2, str(tmp_path / "fb"))
    for name in pa:
        ok &= Path(pa[name]).read_bytes() == Path(pb[name]).read_bytes()
    _report(12, "recipe outputs byte-identical across repeated runs", ok)
