import numpy as np
import pytest

from mlsb import phasespace
from mlsb import (
    FIGURE2_NAMES,
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


def _render_all(omega, th, **grid):
    """The figure2 grids by name, and their shared meta."""
    rendered = {name: render_figure2(name, omega, th, **grid) for name in FIGURE2_NAMES}
    return {name: g for name, (g, _) in rendered.items()}, rendered["classical"][1]


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
    grids, meta = _render_all(OMEGA, th300, n_grid=121, extent=4.0)
    for grid in grids.values():
        assert np.max(np.abs(grid.values.real)) == pytest.approx(1.0, abs=1e-12)
    assert meta["width_ratio"] == pytest.approx(
        np.sqrt(2.0 * KB_CM_PER_K * 300.0 / OMEGA), rel=1e-12
    )


def test_render_figure2_width_ratio_and_extents(th300):
    grids, meta = _render_all(OMEGA, th300, n_grid=241, extent=4.0)
    ratio = grid_q_rms(grids["classical"]) / grid_q_rms(grids["quantum"])
    assert ratio == pytest.approx(meta["width_ratio"], rel=0.02)
    extent_ratio = grid_q_rms(grids["semiclassical"]) / grid_q_rms(grids["quantum"])
    assert abs(extent_ratio - 1.0) < 0.20


@pytest.mark.parametrize("omega", [0.0, -5.0, np.nan, np.inf])
def test_render_figure2_rejects_omega_not_positive_finite(omega, th300):
    for name in FIGURE2_NAMES:
        with pytest.raises(ModelError, match="positive and finite"):
            render_figure2(name, omega, th300, n_grid=5)


def test_render_figure2_names_in_render_order(th300):
    assert FIGURE2_NAMES == ("classical", "semiclassical", "quantum")
    with pytest.raises(ModelError, match="unknown figure2 distribution"):
        render_figure2("wigner", OMEGA, th300, n_grid=5)


def test_grid_validation():
    with pytest.raises(ModelError):
        PhaseGrid(np.array([0.0]), np.array([0.0, 1.0]), np.zeros((1, 2)))
    with pytest.raises(ModelError):
        PhaseGrid(
            np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.full((2, 2), np.nan)
        )


def test_csv_dump_format(tmp_path, th300):
    grid, _ = render_figure2("quantum", OMEGA, th300, n_grid=3, extent=1.0)
    path = tmp_path / "grid.csv"
    write_grid_csv(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "q,p,re,im"
    assert len(lines) == 1 + 9
    q, p, re, im = (float(tok) for tok in lines[1].split(","))
    assert (q, p) == (-1.0, -1.0)
    assert re == pytest.approx(grid.values[0, 0].real, rel=1e-16)
    raw = path.read_bytes()
    assert b"\r" not in raw


def _per_point_csv(grid):
    # one %-format per grid point, four %.17g conversions each
    text = ["q,p,re,im\n"]
    for qv, row in zip(grid.q_values, grid.values):
        for pv, v in zip(grid.p_values, row):
            text.append("%.17g,%.17g,%.17g,%.17g\n" % (qv, pv, v.real, v.imag))
    return "".join(text).encode()


def _complex(re, im):
    # built part by part, so the signs of zero parts are kept
    values = np.empty(re.shape, dtype=complex)
    values.real, values.imag = re, im
    return values


def test_csv_bytes_match_per_point_format(tmp_path):
    # non-square, both %g notations and a signed zero in coordinates and values
    special = [-0.0, 5e-324, 1e-300, -1e-5, 1e16, 1e17]
    q = np.array([-0.0, 1e-300, 0.25, 1e17])
    p = np.array([5e-324, -1e-5, 1e16])
    re = np.array(special * 2).reshape(q.size, p.size)
    values = re + 1j * re[::-1, ::-1]
    grid = PhaseGrid(q_values=q, p_values=p, values=values)
    path = tmp_path / "special.csv"
    write_grid_csv(grid, path)
    raw = path.read_bytes()
    for text in (b"-0,", b",10000000000000000,", b"1e+17", b"e-324", b"e-05"):
        assert text in raw
    assert raw == _per_point_csv(grid)
    grids, _ = _render_all(16000.0, Thermo(300.0), n_grid=31)
    # no repeated magnitude: random bit patterns, from subnormals to DBL_MAX
    bits = np.random.default_rng(11).integers(0, 2**63 - 1, (9, 14), dtype=np.int64)
    bits[0, :3] = [0x7FEFFFFFFFFFFFFF, 0x000FFFFFFFFFFFFF, 0x0010000000000000]
    bits[1, :2] = [0, 1]
    bits[1::2] |= np.int64(-(2**63))  # sign bit on alternate rows: -0.0, -5e-324
    finite = bits.view(np.float64)
    finite[~np.isfinite(finite)] = 1.5
    assert np.unique(np.abs(finite)).size == finite.size
    rows = np.arange(9.0) - 4.0
    re, im = finite[:, :7], finite[:, 7:]
    grids["distinct"] = PhaseGrid(rows, rows[:7], _complex(re, im))
    # one magnitude under mixed signs
    signs = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0]])
    for magnitude in (0.375, 0.0):
        grids[f"only-{magnitude}"] = PhaseGrid(
            rows[:2], rows[:3], _complex(magnitude * signs, magnitude * signs[::-1])
        )
    # real-valued and transposed (non-contiguous) values
    grids["real"] = PhaseGrid(rows, rows[:7], re)
    grids["transposed"] = PhaseGrid(rows[:7], rows, _complex(re, im).T)
    assert not grids["transposed"].values.flags.c_contiguous
    # a wide grid: one q row holds more than _FORMAT_CHUNK values, so every
    # block the writer formats is a single q row
    rng = np.random.default_rng(13)
    wide = rng.standard_normal((2, 3, 2100)) * 10.0 ** rng.integers(-30, 30, (2, 3, 2100))
    assert 2 * wide.shape[2] > phasespace._FORMAT_CHUNK
    grids["wide"] = PhaseGrid(rows[:3], np.arange(2100.0) / 7.0, _complex(*wide))
    for name, grid in grids.items():
        path = tmp_path / f"{name}.csv"
        write_grid_csv(grid, path)
        assert path.read_bytes() == _per_point_csv(grid), name


def _text_corpus():
    # every power of two and its odd multiples up to 15 (exact ties such as
    # 2^-25 included), +-1 ulp around every power of ten, the extremes and
    # the %g notation switches, all of both signs; random bit patterns, inf
    # and nan included
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    special = np.array([0.0, 5e-324, np.finfo(float).max, 1e-4, 1e-5, 1e16, 1e17])
    with np.errstate(over="ignore"):
        values = np.concatenate([
            (np.arange(1, 16, 2.0)[:, None] * powers).ravel(),
            tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
            special, np.nextafter(special, 0.0), np.nextafter(special, np.inf),
        ])
    values = values[np.isfinite(values)]
    bits = np.random.default_rng(5).integers(0, 2**63 - 1, 10**5, dtype=np.int64)
    bits[::2] |= np.int64(-(2**63))
    random = bits.view(np.float64)
    return np.concatenate([values, -values, random, [np.inf, -np.inf, np.nan]])


def test_text_table_matches_cpython(monkeypatch):
    values = _text_corpus()
    calls = []
    cpython = phasespace._cpython_table
    monkeypatch.setattr(
        phasespace, "_cpython_table", lambda v: calls.append(v.size) or cpython(v)
    )
    table = phasespace._text_table(values)
    assert table.shape == (values.size, phasespace._TEXT_WIDTH)
    lines = np.column_stack([table, np.full(values.size, ord("\n"), np.uint8)])
    got = lines.tobytes().translate(None, b"\0").decode().splitlines()
    expected = ("%.17g\n" * values.size % tuple(values.tolist())).splitlines()
    bad = [(x, g, e) for x, g, e in zip(values.tolist(), got, expected) if g != e]
    assert not bad, bad[:5]
    # the CPython path ran: 2^-25 = 2.98023223876953125e-08 is an exact tie
    assert sum(calls) > 0
    calls.clear()
    text = bytes(phasespace._text_table([2.0**-25])[0]).replace(b"\0", b"")
    assert text == b"2.9802322387695312e-08"
    assert calls == [1]


def test_figure2_values_need_no_cpython_fallback(tmp_path, monkeypatch):
    def refuse(values):
        raise AssertionError(f"{values.size} values left to CPython")

    monkeypatch.setattr(phasespace, "_cpython_table", refuse)
    grids, _ = _render_all(16000.0, Thermo(300.0))
    for name, grid in grids.items():
        write_grid_csv(grid, tmp_path / f"{name}.csv")
