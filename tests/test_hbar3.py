import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsb import (
    BathSpec,
    ModelError,
    OracleConfig,
    SiteSystem,
    Thermo,
    diagonalize_excited,
    discretize_bath,
    hbar3_dimer,
    hbar3_general,
    hbar3_monte_carlo,
    quantum_coherence_2nd,
    reorganization_matrix,
    semiclassical_second_order,
)

from conftest import random_bath, random_dimer

mp.mp.dps = 40


def test_zero_reorganization_gives_zero(dimer, th300):
    bath = BathSpec.ohmic([0.0, 0.0], 50.0, 0.0)
    assert hbar3_general(dimer, bath, th300).c12 == 0.0


def test_general_equals_dimer_closed_form():
    rng = np.random.default_rng(101)
    th_values = [Thermo(t) for t in (77.0, 300.0, 1200.0)]
    for i in range(100):
        sys2 = random_dimer(rng)
        bath = random_bath(rng)
        th = th_values[i % 3]
        general = hbar3_general(sys2, bath, th)
        basis = diagonalize_excited(sys2)
        closed = hbar3_dimer(basis, reorganization_matrix(bath), th)
        assert closed.c12 == pytest.approx(general.c12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    delta=st.floats(-300, 300),
    v12=st.floats(-250, 250),
    e11=st.floats(0, 150),
    e22=st.floats(0, 150),
)
def test_general_equals_dimer_property(delta, v12, e11, e22):
    sys2 = SiteSystem.dimer(delta, v12)
    bath = BathSpec.ohmic([e11, e22], 50.0, 0.0)
    th = Thermo(300.0)
    general = hbar3_general(sys2, bath, th)
    closed = hbar3_dimer(diagonalize_excited(sys2), reorganization_matrix(bath), th)
    assert abs(closed.c12 - general.c12) < 1e-12


def test_symmetric_coupling_closed_value(dimer, bath_fig1a, th300):
    # first term vanishes; second term evaluated in arbitrary precision
    beta = 1 / (mp.mpf("0.6950348") * 300)
    ds = mp.sqrt(mp.mpf(200) ** 2 + 4 * mp.mpf(200) ** 2)
    phi = mp.atan2(2 * mp.mpf(200), mp.mpf(200)) / 2
    expected = float(
        beta**2 / 12 * ds * mp.cos(phi) * mp.sin(phi)
        * (mp.cos(phi) ** 2 - mp.sin(phi) ** 2) * 200
    )
    res = hbar3_general(dimer, bath_fig1a, th300)
    assert res.c12 == pytest.approx(expected, rel=1e-13)
    assert res.c12 == pytest.approx(0.034, abs=1e-3)


def test_perfectly_correlated_symmetric_is_zero(dimer, th300):
    bath = BathSpec.ohmic([100.0, 100.0], 50.0, 1.0)  # E11 + E22 = 2 E12
    assert abs(hbar3_general(dimer, bath, th300).c12) < 1e-15


def test_pi_over_four_mixing_kills_second_term(th300):
    sys2 = SiteSystem.dimer(0.0, 200.0)  # phi = pi/4
    sym = BathSpec.ohmic([100.0, 100.0], 50.0, 0.0)
    assert abs(hbar3_general(sys2, sym, th300).c12) < 1e-15
    asym = BathSpec.ohmic([100.0, 0.0], 50.0, 0.0)
    res = hbar3_general(sys2, asym, th300)
    basis = diagonalize_excited(sys2)
    first_term = th300.beta / 2.0 * basis.u[0, 0] * basis.u[1, 0] * 100.0
    assert res.c12 == pytest.approx(first_term, rel=1e-12)


def test_first_term_equals_common_high_t_limit(dimer, bath_site1):
    # the hbar^2 part reproduces (beta/2) f (E11 - E22) exactly, the limit
    # shared with the second-order quantum and semiclassical expansions
    basis = diagonalize_excited(dimer)
    f = basis.u[0, 0] * basis.u[1, 0]
    for t in (2000.0, 4000.0, 8000.0):
        th = Thermo(t)
        res = hbar3_general(dimer, bath_site1, th)
        second_term = hbar3_general(
            dimer, BathSpec.ohmic([50.0, 50.0], 50.0, 0.0), th
        ).c12  # E11 + E22 matched, difference zero: isolates the hbar^3 part
        first = res.c12 - second_term
        limit = th.beta / 2.0 * f * 100.0
        assert first == pytest.approx(limit, rel=1e-12)


def test_beta_to_zero_approaches_first_term(dimer, bath_site1):
    th = Thermo(1e6)
    basis = diagonalize_excited(dimer)
    f = basis.u[0, 0] * basis.u[1, 0]
    res = hbar3_general(dimer, bath_site1, th)
    assert res.c12 == pytest.approx(th.beta / 2.0 * f * 100.0, rel=1e-3)


def test_t_squared_scaling_of_symmetric_config(dimer, bath_fig1a):
    # symmetric coupling: C is pure second term, so C(T) * T^2 is constant
    values = [
        hbar3_general(dimer, bath_fig1a, Thermo(t)).c12 * t**2
        for t in np.linspace(1000.0, 4000.0, 7)
    ]
    assert np.ptp(values) / abs(np.mean(values)) < 1e-12


def test_agreement_with_other_methods_at_high_temperature(dimer, bath_site1):
    th = Thermo(4000.0)
    h3 = hbar3_general(dimer, bath_site1, th).c12
    sc2 = semiclassical_second_order(dimer, bath_site1, th).c12
    q2 = quantum_coherence_2nd(dimer, bath_site1, th).c12
    assert abs(h3 - sc2) / abs(sc2) < 0.03
    assert abs(h3 - q2) / abs(q2) < 0.03
    assert abs(q2 - sc2) / abs(sc2) < 0.03


def test_monte_carlo_validates_moment_algebra(dimer, th300):
    bath = BathSpec.ohmic([100.0, 30.0], 50.0, 0.4)
    dbath = discretize_bath(bath, OracleConfig(n_modes=4, fock_levels=2))
    mc = hbar3_monte_carlo(dimer, dbath, th300, n_samples=400000, seed=12)
    closed = hbar3_general(dimer, bath, th300)
    assert mc[0, 1] == pytest.approx(closed.c12, rel=0.02)


def test_cross_checks_reject_bath_for_other_site_count(dimer, th300):
    # a bath sized for three sites on the dimer: the closed form must not read
    # the 3 x 3 E^r as a 2 x 2 one, and the Monte-Carlo estimate must not fail
    # in numpy broadcasting
    bath = BathSpec.ohmic([100.0, 100.0, 50.0], 50.0)
    with pytest.raises(ModelError):
        hbar3_dimer(diagonalize_excited(dimer), reorganization_matrix(bath), th300)
    dbath = discretize_bath(bath, OracleConfig(n_modes=2, fock_levels=2))
    with pytest.raises(ModelError):
        hbar3_monte_carlo(dimer, dbath, th300, n_samples=100)


def test_monte_carlo_refuses_temperature_batch(dimer, bath_fig1a):
    # fig1a's bath has two modes, so a two-temperature beta would broadcast
    # against them and pair each temperature with one mode
    dbath = discretize_bath(bath_fig1a, OracleConfig(n_modes=1, fock_levels=2))
    assert dbath.n_modes == 2
    with pytest.raises(ModelError, match="one temperature"):
        hbar3_monte_carlo(dimer, dbath, Thermo([100.0, 300.0]), n_samples=100)
