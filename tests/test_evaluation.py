"""mlsb.evaluate: the one Method -> calculator dispatch, called as a library."""

import numpy as np
import pytest

from mlsb import (
    CoherenceResult,
    Method,
    ModelError,
    OracleConfig,
    Thermo,
    build_oracle,
    evaluate,
    hbar3_general,
    quantum_coherence_2nd,
    quantum_coherence_2nd_modes,
    semiclassical_second_order,
)

CFG = OracleConfig(fock_levels=6)


def test_evaluate_returns_each_calculators_own_result(dimer, bath_site1):
    th = Thermo([200.0, 300.0])
    q2, h3, exact = evaluate(dimer, bath_site1, [Method.Q2, Method.HBAR3, Method.ORACLE],
                             th, CFG)
    assert np.array_equal(q2.c_matrix, quantum_coherence_2nd(dimer, bath_site1, th).c_matrix)
    assert np.array_equal(h3.c_matrix, hbar3_general(dimer, bath_site1, th).c_matrix)
    solver = build_oracle(dimer, bath_site1, CFG)
    assert np.array_equal(exact.c_matrix, solver.coherences(th).c_matrix)
    assert exact.diagnostics.dim == solver.dim
    # q2_on_modes puts q-2 on the oracle's discretized modes, oracle or not
    (q2_modes,) = evaluate(dimer, bath_site1, [Method.Q2], th, CFG, q2_on_modes=True)
    expected = quantum_coherence_2nd_modes(dimer, solver.dbath, th)
    assert np.array_equal(q2_modes.c_matrix, expected.c_matrix)


def test_evaluate_failure_names_the_first_temperature_then_method(
        dimer, bath_site1, monkeypatch):
    def nan_at(calculator, row):
        def patched(system, bath, th):
            c = np.array(calculator(system, bath, th).c_matrix)
            c[row] = np.nan
            return CoherenceResult(Method.HBAR3, c)
        return patched

    monkeypatch.setattr("mlsb.evaluation.hbar3_general", nan_at(hbar3_general, 1))
    monkeypatch.setattr("mlsb.evaluation.semiclassical_second_order",
                        nan_at(semiclassical_second_order, 1))
    th = Thermo([200.0, 300.0, 400.0])
    with pytest.raises(ModelError) as info:
        evaluate(dimer, bath_site1, [Method.HBAR3, Method.SC2], th)
    assert str(info.value) == "method hbar3 failed at T = 300 K: c_matrix must be finite"
    assert (info.value.index, info.value.method) == (1, Method.HBAR3)


def test_evaluate_oracle_setup_failure_comes_before_any_calculator(
        dimer, bath_site1, monkeypatch):
    def no_calculator(*args):
        raise AssertionError("a calculator ran before the oracle was built")

    monkeypatch.setattr("mlsb.evaluation.hbar3_general", no_calculator)
    with pytest.raises(ModelError, match="^oracle setup failed: oracle dimension") as info:
        evaluate(dimer, bath_site1, [Method.HBAR3, Method.ORACLE], Thermo(300.0),
                 OracleConfig(fock_levels=6, dim_cap=10))
    assert info.value.index is None


def test_evaluate_names_the_temperature_where_an_hbar3_power_overflows(dimer, bath_site1):
    # beta^2 overflows a float at 1e-300 K: a non-finite result, refused like any
    # other, not an OverflowError (and no numpy warning, which the suite makes an error)
    with pytest.raises(ModelError) as info:
        evaluate(dimer, bath_site1, [Method.CLASSICAL, Method.HBAR3], Thermo([300.0, 1e-300]))
    assert str(info.value) == "method hbar3 failed at T = 1e-300 K: c_matrix must be finite"
    assert (info.value.index, info.value.method) == (1, Method.HBAR3)
