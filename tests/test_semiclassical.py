import itertools

import mpmath as mp
import numpy as np
import pytest

from mlsb import semiclassical
from mlsb import (
    diagonalize_excited,
    BathSpec,
    ConvergenceError,
    Method,
    OracleConfig,
    SiteSystem,
    Thermo,
    UnsupportedConfigError,
    build_oracle,
    classical_coherence,
    h_eff_theta,
    hbar3_general,
    quantum_coherence_2nd,
    reorganization_matrix,
    semiclassical_exact,
    semiclassical_second_order,
)

mp.mp.dps = 40


def test_h_eff_zero_reorganization():
    e_r = np.zeros((2, 2))
    for theta in np.linspace(0.0, 2.0 * np.pi, 9):
        assert h_eff_theta(theta, e_r, 0.3) == 0.0


def test_h_eff_phi_zero_is_constant():
    e_r = np.array([[120.0, 30.0], [30.0, 60.0]])
    thetas = np.linspace(0.0, 2.0 * np.pi, 17)
    vals = h_eff_theta(thetas, e_r, 0.0)
    expected = -(e_r[0, 0] + e_r[1, 1]) / 4.0 - 2.0 * e_r[0, 1] / 4.0
    assert np.allclose(vals, expected, atol=1e-13)


def test_h_eff_symmetric_diagonals_even_in_cos():
    e_r = np.array([[90.0, 20.0], [20.0, 90.0]])
    thetas = np.linspace(0.0, np.pi, 11)
    assert np.allclose(
        h_eff_theta(thetas, e_r, 0.4),
        h_eff_theta(np.pi - thetas, e_r, 0.4),
        atol=1e-12,
    )


def test_exact_rejects_non_dimer(bath_fig1a, th300):
    omega = np.array([15900.0, 16000.0, 16100.0])
    v = np.zeros((3, 3))
    sys3 = SiteSystem(omega, v)
    bath3 = BathSpec.ohmic([100.0] * 3, 50.0, 0.0)
    with pytest.raises(UnsupportedConfigError):
        semiclassical_exact(sys3, bath3, th300)
    with pytest.raises(UnsupportedConfigError):
        semiclassical_second_order(sys3, bath3, th300)


def test_exact_zero_for_symmetric_coupling(dimer):
    for c in (0.0, 0.5, -1.0):
        bath = BathSpec.ohmic([100.0, 100.0], 50.0, c)
        for t in (77.0, 300.0, 800.0):
            res = semiclassical_exact(dimer, bath, Thermo(t))
            assert res.method is Method.SC_EXACT
            assert res.c12 == 0.0


def test_exact_zero_at_low_temperature_on_fig1a(dimer, bath_fig1a):
    # configs/fig1a.ini's dimer and bath: equal site reorganization energies
    # make the odd part vanish, so the first two rules agree exactly
    for t in (1.25, 5.0):
        res = semiclassical_exact(dimer, bath_fig1a, Thermo(t))
        assert res.c12 == 0.0
        assert res.err_est == 0.0
        assert res.diagnostics.n_points == 128


def test_exact_err_est_is_not_zero_when_the_rules_agree_to_the_bit(
        dimer, bath_fig1a, bath_site1):
    # on fig1b_site1 the last two rules agree to the bit at 10 and 50 K, and
    # at 11 of the recipe grid's 15 temperatures; err_est still carries one
    # rounding of C12, while fig1a's exact zero keeps err_est = 0
    th = Thermo([10.0, 50.0, 100.0])
    res = semiclassical_exact(dimer, bath_site1, th)
    c12 = res.c_matrix[:, 0, 1]
    assert np.all(res.err_est >= np.finfo(float).eps * np.abs(c12))
    assert np.all(res.err_est > 0.0)
    recipe = semiclassical_exact(dimer, bath_site1, Thermo(np.linspace(100.0, 800.0, 15)))
    assert np.all(recipe.err_est > 0.0)
    zero = semiclassical_exact(dimer, bath_fig1a, th)
    assert np.all(zero.c_matrix[:, 0, 1] == 0.0) and np.all(zero.err_est == 0.0)


def test_exact_zero_reorganization(dimer, th300):
    bath = BathSpec.ohmic([0.0, 0.0], 50.0, 0.0)
    assert abs(semiclassical_exact(dimer, bath, th300).c12) < 1e-15


def test_second_order_closed_form_value(dimer, bath_site1, th300):
    # independent arbitrary-precision evaluation of the closed form
    beta = 1 / (mp.mpf("0.6950348") * 300)
    ds = mp.sqrt(mp.mpf(200) ** 2 + 4 * mp.mpf(200) ** 2)
    phi = mp.atan2(2 * mp.mpf(200), mp.mpf(200)) / 2
    z = 2 * mp.cosh(beta * ds / 2)
    expected = float(beta / z * mp.cos(phi) * mp.sin(phi) * 100)
    res = semiclassical_second_order(dimer, bath_site1, th300)
    assert res.c12 == pytest.approx(expected, rel=1e-13)
    assert res.c12 == pytest.approx(0.0657, abs=2e-4)  # beta*D_S/2 = 1.0724
    assert float(beta * ds / 2) == pytest.approx(1.0724, abs=1e-4)


def test_second_order_zero_for_equal_diagonals(dimer, th300):
    bath = BathSpec.ohmic([100.0, 100.0], 50.0, 0.7)
    assert semiclassical_second_order(dimer, bath, th300).c12 == 0.0


def test_high_temperature_common_limit(dimer, bath_site1):
    # beta -> 0: C12 -> beta * f * (E11 - E22) / 2
    th = Thermo(2e6)
    res = semiclassical_second_order(dimer, bath_site1, th)
    f = np.cos(0.5535743588970452) * np.sin(0.5535743588970452)
    limit = th.beta * f * 100.0 / 2.0
    assert res.c12 == pytest.approx(limit, rel=1e-6)


def test_exact_close_to_second_order_at_fig1b(dimer, bath_site1, th300):
    exact = semiclassical_exact(dimer, bath_site1, th300).c12
    second = semiclassical_second_order(dimer, bath_site1, th300).c12
    assert exact != pytest.approx(second, rel=1e-6)  # corrections present
    # relative correction is O(beta * E^r); beta*E = 0.48 here
    assert abs(exact - second) / abs(second) < 1.5 * th300.beta * 100.0


def test_residual_scales_quadratically_in_reorganization(dimer, th300):
    residuals = []
    for eps in (1.0, 0.5, 0.25):
        bath = BathSpec.ohmic([100.0 * eps, 0.0], 50.0, 0.0)
        exact = semiclassical_exact(dimer, bath, th300).c12
        second = semiclassical_second_order(dimer, bath, th300).c12
        residuals.append(abs(exact - second))
    for larger, smaller in zip(residuals[:-1], residuals[1:]):
        assert larger / smaller == pytest.approx(4.0, rel=0.20)


SIGN_CALCULATORS = {
    "classical": classical_coherence,
    "sc-exact": semiclassical_exact,
    "sc-2": semiclassical_second_order,
    "q-2": quantum_coherence_2nd,
    "hbar3": hbar3_general,
    "oracle": lambda sys, bath, th: build_oracle(
        sys, bath, OracleConfig(fock_levels=20)).coherences(th),
}


@pytest.mark.parametrize("method", SIGN_CALCULATORS)
def test_exchange_relabeling(method):
    # Relabeling the sites (swap E11/E22, Delta -> -Delta) leaves the physical
    # eigenstates unchanged; under the row-sign convention the coherence is
    # therefore label-invariant, in every (Delta, V) quadrant and for every
    # calculator, while V -> -V flips it.  So C12 carries the sign of
    # Delta V (E11 - E22) (classical: C12 = 0).  (In the raw rotation
    # parametrization, where eigenvector signs are not re-fixed, relabeling
    # flips the sign of C12 because cos(phi) sin(phi) stays positive while
    # E11 - E22 negates.)
    calculator = SIGN_CALCULATORS[method]
    th = Thermo([100.0, 300.0, 800.0])
    reorg = np.array([100.0, 30.0])
    for delta, v in itertools.product((200.0, -200.0), (200.0, -200.0)):
        c = calculator(SiteSystem.dimer(delta, v), BathSpec.ohmic(reorg, 50.0), th).c12
        relabeled = calculator(
            SiteSystem.dimer(-delta, v), BathSpec.ohmic(reorg[::-1], 50.0), th).c12
        flipped = calculator(SiteSystem.dimer(delta, -v), BathSpec.ohmic(reorg, 50.0), th).c12
        np.testing.assert_allclose(relabeled, c, rtol=1e-12, atol=0)
        np.testing.assert_allclose(flipped, -c, rtol=1e-12, atol=0)
        expected = 0.0 if method == "classical" else np.sign(delta * v)
        assert np.all(np.sign(c) == expected)
    # raw-parametrization oddness: the product f * (E11 - E22) flips sign
    f_a = np.prod(diagonalize_excited(SiteSystem.dimer(200.0, 200.0)).u[:, 0])
    f_b = np.prod(diagonalize_excited(SiteSystem.dimer(-200.0, 200.0)).u[:, 0])
    assert f_b == pytest.approx(-f_a, rel=1e-12)


def test_second_order_independent_of_correlation(dimer, th300):
    values = [
        semiclassical_second_order(
            dimer, BathSpec.ohmic([100.0, 40.0], 50.0, c), th300
        ).c12
        for c in (-1.0, 0.0, 1.0)
    ]
    assert values[0] == values[1] == values[2]


def test_exact_depends_on_offdiagonal_only_through_even_terms(dimer, th300):
    # with equal diagonals the integrand stays odd for every correlation
    for c in (-0.9, -0.3, 0.4, 0.9):
        bath = BathSpec.ohmic([70.0, 70.0], 50.0, c)
        assert semiclassical_exact(dimer, bath, th300).c12 == 0.0


def _mp_c12(bath, t_k):
    # the angle integral of the module docstring at 50 digits, for the
    # dimer fixture (phi = 0.5535743588970452, exciton splitting sqrt(5) * 200)
    with mp.workdps(50):
        e_r = reorganization_matrix(bath)
        e11, e22, e12 = (mp.mpf(x) for x in (e_r[0, 0], e_r[1, 1], e_r[0, 1]))
        beta = 1 / (mp.mpf("0.6950348") * mp.mpf(t_k))
        f = mp.mpf(np.cos(0.5535743588970452) * np.sin(0.5535743588970452))

        def h_eff(theta):
            c = mp.cos(theta)
            return (
                -2 * e12 * (mp.mpf(1) / 4 - 4 * f**2 * c**2)
                - e11 * (mp.mpf(1) / 2 + 2 * f * c) ** 2
                - e22 * (mp.mpf(1) / 2 - 2 * f * c) ** 2
            )

        ds = mp.sqrt(mp.mpf(200) ** 2 + 4 * mp.mpf(200) ** 2)
        z = 2 * mp.cosh(beta * ds / 2)
        integral = mp.quad(
            lambda t: mp.e ** (-beta * h_eff(t)) * mp.cos(t), [0, mp.pi, 2 * mp.pi]
        )
        return float(integral / (2 * mp.pi) / z)


def test_exact_integral_against_mpmath_quadrature(dimer, bath_site1, th300):
    res = semiclassical_exact(dimer, bath_site1, th300)
    assert res.c12 == pytest.approx(_mp_c12(bath_site1, 300.0), abs=1e-12)


@pytest.mark.parametrize("diag, t_k", [([100.0, 100.0 + 1e-4], 300.0),
                                       ([100.0, 0.0], 1e8)])
def test_exact_small_beta_b_to_rounding(dimer, diag, t_k):
    # beta B of about 5e-7 (nearly equal site reorganization energies) and
    # 1e-6 (fig1b_site1 at 1e8 K): expm1 keeps every node exact to rounding,
    # so the first two rules already agree to ANGLE_TOL
    bath = BathSpec.ohmic(diag, 50.0, 0.0)
    res = semiclassical_exact(dimer, bath, Thermo(t_k))
    assert res.c12 == pytest.approx(_mp_c12(bath, t_k), rel=1e-14)
    assert res.diagnostics.n_points == 128


def test_exact_below_one_kelvin_is_finite_without_warnings(dimer, bath_fig1a, bath_site1):
    # neither Z0 nor exp(-beta H_eff) is formed, so no exponent overflows at
    # any temperature Thermo accepts; fig1a's E11 = E22 makes C12 exactly 0,
    # and error::RuntimeWarning turns any numpy warning into a failure
    th = Thermo([1e-300, 1e-30, 1e-3, 0.1, 0.3])
    zero = semiclassical_exact(dimer, bath_fig1a, th)
    assert np.all(zero.c_matrix[:, 0, 1] == 0.0) and np.all(zero.err_est == 0.0)
    res = semiclassical_exact(dimer, bath_site1, th)
    assert np.all(np.isfinite(res.c_matrix)) and np.all(np.isfinite(res.err_est))
    assert np.all(res.c_matrix[:, 0, 1] >= 0.0)


def test_exact_tiny_coherence_matches_fifty_digits(dimer, bath_site1):
    # the angle integral at 50 digits (12 quoted); the rules converge
    # relative to C12 itself, however small
    res = semiclassical_exact(dimer, bath_site1, Thermo([0.3, 0.5, 1.0]))
    expected = [2.07848349687e-63, 5.32494978069e-39, 1.25894416778e-20]
    assert res.c_matrix[:, 0, 1] == pytest.approx(expected, rel=5e-12)
    assert np.all(res.err_est <= 1e-13 * res.c_matrix[:, 0, 1])


def test_exact_largest_rule_is_angle_max_points(monkeypatch, dimer, bath_site1):
    # with no tolerance nothing converges: the rules double from 64 up to
    # ANGLE_MAX_POINTS, never beyond, and the error names the temperature
    sizes = []
    batches = semiclassical.over_batches
    monkeypatch.setattr(semiclassical, "over_batches",
                        lambda fn, rule: sizes.append(rule[0]) or batches(fn, rule))
    monkeypatch.setattr(semiclassical, "ANGLE_MAX_POINTS", 1024)
    monkeypatch.setattr(semiclassical, "ANGLE_TOL", 0.0)
    with pytest.raises(ConvergenceError) as info:
        semiclassical_exact(dimer, bath_site1, Thermo([300.0, 500.0]))
    assert sizes == [64, 128, 256, 512, 1024]
    assert info.value.index == 0
    assert len(info.value.estimates) == 2
