"""Temperature batches: every calculator the command line dispatches is
evaluated once over a whole temperature grid, and row i of that batch is the
result at the i-th temperature alone."""

import functools
import json

import numpy as np
import pytest

from mlsb import (
    BathSpec,
    CoherenceResult,
    ModelError,
    OracleConfig,
    SiteSystem,
    Thermo,
    build_oracle,
    classical_coherence,
    convergence_sweep,
    core,
    hbar3_dimer,
    hbar3_general,
    quantum_coherence_2nd,
    quantum_coherence_2nd_modes,
    semiclassical_exact,
    semiclassical_second_order,
)
from mlsb.core import exciton_setup

TEMPERATURES = (0.5, 2.0, 77.0, 150.0, 300.0, 800.0)


def _fig1a():
    system = SiteSystem.dimer(200.0, 200.0, omega_bar=16000.0)
    return system, BathSpec.ohmic([100.0, 100.0], 50.0, 0.0), OracleConfig(fock_levels=8)


def _chain5():
    rng = np.random.default_rng(5)
    v = rng.uniform(60.0, 140.0, 4)
    system = SiteSystem(16000.0 + rng.uniform(-150.0, 150.0, 5),
                        np.diag(v, 1) + np.diag(v, -1))
    return system, BathSpec.ohmic(rng.uniform(60.0, 120.0, 5), 50.0, 0.0), OracleConfig(
        fock_levels=2)


def _lines(bath):
    return BathSpec.discrete([40.0, 90.0, 250.0], [1.0, 0.5, 2.0], bath.reorg_diag,
                             bath.correlation)


# (calculator, exact): exact ones must match bit for bit, the others (the
# quadrature and spectral sums) to 1e-14 of the largest entry
CALCULATORS = {
    "classical": (lambda s, b, o, th: classical_coherence(s, b, th), True),
    "sc-exact": (lambda s, b, o, th: semiclassical_exact(s, b, th), True),
    "sc-2": (lambda s, b, o, th: semiclassical_second_order(s, b, th), True),
    "hbar3": (lambda s, b, o, th: hbar3_general(s, b, th), True),
    "hbar3-dimer": (lambda s, b, o, th: hbar3_dimer(*exciton_setup(s, b), th), True),
    "q-2": (lambda s, b, o, th: quantum_coherence_2nd(s, b, th), False),
    "q-2-lines": (lambda s, b, o, th: quantum_coherence_2nd(s, _lines(b), th), False),
    "q-2-modes": (lambda s, b, o, th: quantum_coherence_2nd_modes(s, o.dbath, th), False),
    "oracle": (lambda s, b, o, th: o.coherences(th), False),
}
DIMER_ONLY = {"sc-exact", "sc-2", "hbar3-dimer"}
CASES = [(label, name) for label in ("fig1a", "chain5") for name in CALCULATORS
         if label == "fig1a" or name not in DIMER_ONLY]


@functools.cache
def _model(label):
    system, bath, ocfg = _fig1a() if label == "fig1a" else _chain5()
    return system, bath, build_oracle(system, bath, ocfg)


@pytest.mark.parametrize("budget", [core.BATCH_ELEMENTS, 1], ids=["one-run", "split"])
@pytest.mark.parametrize("label,name", CASES)
def test_batch_rows_equal_single_temperatures(label, name, budget, monkeypatch):
    # a budget of one element puts every temperature in a run of its own
    system, bath, solver = _model(label)
    calc, exact = CALCULATORS[name]
    monkeypatch.setattr(core, "BATCH_ELEMENTS", budget)
    batch = calc(system, bath, solver, Thermo(TEMPERATURES))
    assert batch.c_matrix.shape == (len(TEMPERATURES),) + (system.n_sites,) * 2
    assert batch.err_est.shape == (len(TEMPERATURES),)
    monkeypatch.undo()
    for i, t in enumerate(TEMPERATURES):
        single = calc(system, bath, solver, Thermo(t))
        assert isinstance(single.err_est, float)
        if exact:
            assert np.array_equal(batch.c_matrix[i], single.c_matrix)
            assert batch.err_est[i] == single.err_est
        else:
            scale = np.max(np.abs(single.c_matrix))
            assert np.max(np.abs(batch.c_matrix[i] - single.c_matrix)) <= 1e-14 * scale
            assert abs(batch.err_est[i] - single.err_est) <= 1e-14 * scale


@pytest.mark.parametrize("name", CALCULATORS)
def test_single_temperature_results_are_plain_floats(name):
    # the benchmark worker writes these with json.dump, which rejects numpy
    # arrays: one temperature must give a Python float
    system, bath, ocfg = _fig1a()
    solver = build_oracle(system, bath, ocfg)
    res = CALCULATORS[name][0](system, bath, solver, Thermo(300.0))
    assert type(res.c12) is float and type(res.err_est) is float
    assert res.c_matrix.shape == (2, 2) and res.populations.shape == (2,)
    json.dumps({"c12": res.c12, "err_est": res.err_est})


def test_convergence_sweep_entries_are_json():
    system, bath, _ = _fig1a()
    sweep = convergence_sweep(system, bath, Thermo(300.0), grid=[(1, 4), (1, 6)])
    json.dumps({"entries": sweep.entries, "diffs": sweep.diffs,
                "uncertainty": sweep.uncertainty})


def test_batch_checks_name_the_first_failing_row():
    with pytest.raises(ModelError, match="positive and finite") as info:
        Thermo([300.0, -1.0, np.nan])
    assert info.value.index == 1
    # 1/(k_B T) overflows below about 8.0e-309 K
    with pytest.raises(ModelError, match=r"beta = 1/\(k_B T\) overflows") as info:
        Thermo([300.0, 8.1e-309, 7.9e-309, 1e-310])
    assert info.value.index == 2
    for bad in ([], [[300.0]]):
        with pytest.raises(ModelError):
            Thermo(bad)
    c = np.stack([np.eye(2)] * 3)
    c[2, 0, 1] = np.inf
    with pytest.raises(ModelError, match="finite") as info:
        CoherenceResult(None, c)
    assert info.value.index == 2
    with pytest.raises(ModelError, match="non-negative") as info:
        CoherenceResult(None, np.stack([np.eye(2)] * 3), err_est=[0.0, -1e-3, 0.0])
    assert info.value.index == 1


def test_over_batches_holds_the_element_budget(monkeypatch):
    monkeypatch.setattr(core, "BATCH_ELEMENTS", 7)
    runs = []

    def fn(run):
        runs.append((run.start, run.stop))
        return (np.arange(run.start, run.stop),)

    (joined,) = core.over_batches(fn, [3, 3, 3, 9, 1, 3])
    # a temperature over the budget runs alone, and the rest fill runs in order
    assert runs == [(0, 2), (2, 3), (3, 4), (4, 6)]
    assert np.array_equal(joined, np.arange(6))
