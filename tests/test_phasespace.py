import numpy as np
import pytest

from mlsb import (
    ModelError,
    PhaseGrid,
    Thermo,
    grid_q_rms,
    render_figure2,
    rho10_classical,
    rho10_quantum,
    rho10_semiclassical,
    rho10_via_moyal,
    write_grid_csv,
    KB_CM_PER_K,
)

OMEGA = 16000.0


def _natural_points(omega, coords):
    q = coords / np.sqrt(omega)
    p = coords * np.sqrt(omega)
    return q, p


def test_zero_at_origin(th300):
    assert rho10_classical(0.0, 0.0, OMEGA, th300) == 0.0
    assert rho10_quantum(0.0, 0.0, OMEGA) == 0.0


def test_classical_conjugation_under_p_flip(th300):
    q, p = 0.7 / np.sqrt(OMEGA), 1.1 * np.sqrt(OMEGA)
    v1 = rho10_classical(q, p, OMEGA, th300)
    v2 = rho10_classical(q, -p, OMEGA, th300)
    assert v2 == pytest.approx(np.conj(v1), rel=1e-14)


def test_classical_q_moment_scales_linearly_with_temperature():
    # second moment of |Re rho| along q grows linearly in T
    coords = np.linspace(-6.0, 6.0, 801)
    moments = []
    for t in (200.0, 400.0):
        th = Thermo(t)
        kt = KB_CM_PER_K * t
        q = coords * np.sqrt(kt) / OMEGA  # resolve the thermal width
        p = np.zeros_like(q)
        weight = np.abs(rho10_classical(q[:, None], p[None, :1], OMEGA, th).real)
        mom = float(np.sum(weight[:, 0] * q**2) / np.sum(weight[:, 0]))
        moments.append(mom)
    assert moments[1] / moments[0] == pytest.approx(2.0, rel=1e-3)


def test_semiclassical_shell():
    # on the action shell J = hbar the phase factor has unit modulus
    theta = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    r = np.sqrt(2.0)
    q = r * np.cos(theta) / np.sqrt(OMEGA)
    p = r * np.sin(theta) * np.sqrt(OMEGA)
    vals = rho10_semiclassical(q, p, OMEGA)
    assert np.allclose(np.abs(vals), np.abs(vals[0]), rtol=1e-12)
    # far from the shell the amplitude collapses
    far = rho10_semiclassical(10.0 / np.sqrt(OMEGA), 0.0, OMEGA)
    assert abs(far) < 1e-8 * abs(vals[0])


def test_semiclassical_radial_peak():
    r = np.linspace(0.5, 2.5, 4001)
    q = r / np.sqrt(OMEGA)
    vals = np.abs(rho10_semiclassical(q, 0.0, OMEGA))
    r_peak = r[int(np.argmax(vals))]
    assert r_peak == pytest.approx(np.sqrt(2.0), abs=0.03)


def test_quantum_q_maximum():
    # |Re rho| maximal at p = 0, q = sqrt(hbar / 2 omega)
    q = np.linspace(0.01, 3.0, 6000) / np.sqrt(OMEGA)
    vals = np.abs(rho10_quantum(q, 0.0, OMEGA).real)
    q_peak = q[int(np.argmax(vals))]
    assert q_peak == pytest.approx(np.sqrt(0.5 / OMEGA), rel=1e-3)


def test_moyal_identity_101_grid():
    coords = np.linspace(-4.0, 4.0, 101)
    q, p = _natural_points(OMEGA, coords)
    direct = rho10_quantum(q[:, None], p[None, :], OMEGA)
    moyal = rho10_via_moyal(q[:, None], p[None, :], OMEGA)
    assert np.max(np.abs(direct - moyal)) < 1e-12


def test_ground_state_wigner_normalized():
    # the ground-state Wigner function integrates to one over phase space
    coords = np.linspace(-6.0, 6.0, 601)
    q, p = _natural_points(OMEGA, coords)
    w0 = np.exp(-(OMEGA**2 * q[:, None] ** 2 + p[None, :] ** 2) / OMEGA) / np.pi
    dq, dp = q[1] - q[0], p[1] - p[0]
    assert float(np.sum(w0) * dq * dp) == pytest.approx(1.0, rel=1e-6)


def test_rotation_phase_property(th300):
    # advancing the phase-space angle by alpha multiplies the value by e^{i alpha}
    alpha = 0.6
    r = 1.3
    theta0 = 0.4

    def point(theta):
        return (
            r * np.cos(theta) / np.sqrt(OMEGA),
            -r * np.sin(theta) * np.sqrt(OMEGA),
        )

    for fn in (
        lambda q, p: rho10_classical(q, p, OMEGA, th300),
        lambda q, p: rho10_semiclassical(q, p, OMEGA),
        lambda q, p: rho10_quantum(q, p, OMEGA),
    ):
        v0 = fn(*point(theta0))
        v1 = fn(*point(theta0 + alpha))
        assert np.angle(v1 / v0) == pytest.approx(alpha, abs=1e-12)
        assert abs(v1) == pytest.approx(abs(v0), rel=1e-12)


def test_real_imag_related_by_quarter_rotation():
    # Im part equals the Re part rotated by 90 degrees in phase space
    coords = np.linspace(-3.0, 3.0, 41)
    q, p = _natural_points(OMEGA, coords)
    qq, pp = np.meshgrid(q, p, indexing="ij")
    v = rho10_quantum(qq, pp, OMEGA)
    rotated = rho10_quantum(-pp / OMEGA, qq * OMEGA, OMEGA)
    assert np.allclose(v.imag, rotated.real, atol=1e-14)


def test_render_figure2_normalization(th300):
    grids, meta = render_figure2(OMEGA, th300, n_grid=121, extent=4.0)
    for grid in grids.values():
        assert np.max(np.abs(grid.values.real)) == pytest.approx(1.0, abs=1e-12)
    assert meta["width_ratio"] == pytest.approx(
        np.sqrt(2.0 * KB_CM_PER_K * 300.0 / OMEGA), rel=1e-12
    )


def test_render_figure2_width_ratio_and_extents(th300):
    grids, meta = render_figure2(OMEGA, th300, n_grid=241, extent=4.0)
    ratio = grid_q_rms(grids["classical"]) / grid_q_rms(grids["quantum"])
    assert ratio == pytest.approx(meta["width_ratio"], rel=0.02)
    extent_ratio = grid_q_rms(grids["semiclassical"]) / grid_q_rms(grids["quantum"])
    assert abs(extent_ratio - 1.0) < 0.20


@pytest.mark.parametrize("omega", [0.0, -5.0, np.nan, np.inf])
def test_render_figure2_rejects_omega_not_positive_finite(omega, th300):
    with pytest.raises(ModelError, match="positive and finite"):
        render_figure2(omega, th300, n_grid=5)


def test_grid_validation():
    with pytest.raises(ModelError):
        PhaseGrid(np.array([0.0]), np.array([0.0, 1.0]), np.zeros((1, 2)))
    with pytest.raises(ModelError):
        PhaseGrid(
            np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.full((2, 2), np.nan)
        )


def test_csv_dump_format(tmp_path, th300):
    grids, _ = render_figure2(OMEGA, th300, n_grid=3, extent=1.0)
    path = tmp_path / "grid.csv"
    write_grid_csv(grids["quantum"], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "q,p,re,im"
    assert len(lines) == 1 + 9
    q, p, re, im = (float(tok) for tok in lines[1].split(","))
    assert (q, p) == (-1.0, -1.0)
    grid = grids["quantum"]
    assert re == pytest.approx(grid.values[0, 0].real, rel=1e-16)
    raw = path.read_bytes()
    assert b"\r" not in raw
