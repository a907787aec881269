import numpy as np
import pytest

from mlsb import (
    BathSpec,
    Method,
    ModelError,
    SiteSystem,
    Thermo,
    classical_coherence,
    equipartition_state,
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
