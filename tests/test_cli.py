import numpy as np
import pytest

from mlsb import (
    CoherenceResult,
    Method,
    OracleSolver,
    Thermo,
    discretize_bath,
    quantum_coherence_2nd_modes,
)
from mlsb.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    load_config,
    main,
    run_compare,
    run_figure2,
    run_sweep,
    run_validate,
)

CONFIG_DIR = "configs"


def _write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
[system]
delta = 200.0
v12 = 200.0

[bath]
shape = ohmic
cutoff = 50.0
reorg_diag = 100.0, 0.0
correlation = 0.0

[sweep]
t_min_k = 200.0
t_max_k = 400.0
n_points = 3

[methods]
methods = classical, sc-2, hbar3

[output]
path = out.csv
"""


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert cfg.system.n_sites == 2
    assert cfg.system.omega_bar_defaulted
    assert np.allclose(cfg.temperatures, [200.0, 300.0, 400.0])
    assert [m.value for m in cfg.methods] == ["classical", "sc-2", "hbar3"]


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


def test_load_config_bad_method(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, MINIMAL.replace("sc-2", "bogus")))


def test_load_config_bad_temperature(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, MINIMAL.replace("t_min_k = 200.0", "t_min_k = -5")))


def test_sweep_csv_layout(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    out = tmp_path / "sweep.csv"
    run_sweep(cfg, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "T_K,method,C12,err_est,pop1,pop2"
    assert len(lines) == 1 + 3 * 3
    temps = []
    methods = []
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        temps.append(float(fields[0]))
        methods.append(fields[1])
        for tok in fields[2:]:
            assert np.isfinite(float(tok))
    assert temps == sorted(temps)
    assert methods[:3] == ["classical", "sc-2", "hbar3"]  # declaration order


def test_sweep_classical_only_all_zero(tmp_path):
    text = MINIMAL.replace("classical, sc-2, hbar3", "classical")
    cfg = load_config(_write(tmp_path, text))
    out = tmp_path / "classical.csv"
    run_sweep(cfg, str(out))
    for line in out.read_text().splitlines()[1:]:
        assert line.split(",")[2] == "0"


def test_cli_main_exit_codes(tmp_path):
    cfg_path = _write(tmp_path, MINIMAL)
    out = tmp_path / "cli.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    assert out.exists()
    assert main(["sweep", "--config", "/missing.ini"]) == EXIT_CONFIG
    bad = _write(tmp_path, MINIMAL.replace("methods = classical, sc-2, hbar3",
                                           "methods = "), name="bad.ini")
    assert main(["sweep", "--config", bad]) == EXIT_CONFIG
    assert main(["validate", "--config", cfg_path]) == EXIT_OK
    # invalid [oracle] values are config errors, even where unused
    bad_oracle = _write(tmp_path, MINIMAL + "\n[oracle]\nfock_levels = 1\n",
                        name="bad_oracle.ini")
    assert main(["validate", "--config", bad_oracle]) == EXIT_CONFIG
    assert main(["sweep", "--config", bad_oracle, "--out", str(out)]) == EXIT_CONFIG
    # an oracle over its size cap is a numerical failure in sweep and compare
    too_big = _write(
        tmp_path,
        MINIMAL.replace("classical, sc-2, hbar3", "classical, oracle")
        + "\n[oracle]\nfock_levels = 8\ndim_cap = 10\n",
        name="too_big.ini",
    )
    assert main(["sweep", "--config", too_big, "--out", str(out)]) == EXIT_NUMERICAL
    assert main(["compare", "--config", too_big, "--out", str(out)]) == EXIT_NUMERICAL
    # degenerate [figure2] grids, temperatures and frequencies are rejected at load
    fig2 = "[figure2]\nomega = 16000.0\ntemperature_k = 300.0\n"
    figs = str(tmp_path / "figs")
    bad_fig2s = [fig2 + extra for extra in
                 ("n_grid = 0\n", "n_grid = 1\n", "extent = 0\n", "extent = -1\n",
                  "extent = inf\n")]
    bad_fig2s += [fig2.replace("temperature_k = 300.0", f"temperature_k = {t}")
                  for t in ("0", "-5")]
    bad_fig2s += [fig2.replace("omega = 16000.0", f"omega = {w}")
                  for w in ("0", "-5", "nan", "inf")]
    for text in bad_fig2s:
        bad_fig2 = _write(tmp_path, text, name="bad_fig2.ini")
        assert main(["figure2", "--config", bad_fig2, "--out", figs]) == EXIT_CONFIG
    # a [methods] section without its methods key
    no_methods = _write(tmp_path, MINIMAL.replace("methods = classical, sc-2, hbar3", ""),
                        name="no_methods.ini")
    assert main(["sweep", "--config", no_methods, "--out", str(out)]) == EXIT_CONFIG
    # malformed INI: a duplicate key, a missing section header
    for text in (MINIMAL + "path = again.csv\n", "delta = 200.0\n" + MINIMAL):
        bad_ini = _write(tmp_path, text, name="bad_ini.ini")
        assert main(["sweep", "--config", bad_ini, "--out", str(out)]) == EXIT_CONFIG
    # omega_max <= 0 is a config error even where the oracle is unused
    bad_omega = _write(tmp_path, MINIMAL + "\n[oracle]\nomega_max = -1\n",
                       name="bad_omega.ini")
    assert main(["validate", "--config", bad_omega]) == EXIT_CONFIG
    # a bath with more or fewer sites than the system
    for reorg in ("100.0, 100.0, 50.0", "100.0"):
        bad_sites = _write(
            tmp_path, MINIMAL.replace("reorg_diag = 100.0, 0.0", f"reorg_diag = {reorg}"),
            name="bad_sites.ini",
        )
        assert main(["validate", "--config", bad_sites]) == EXIT_CONFIG
        assert main(["sweep", "--config", bad_sites, "--out", str(out)]) == EXIT_CONFIG
    # non-finite sweep temperatures
    for t in ("inf", "nan"):
        bad_t = _write(tmp_path, MINIMAL.replace("t_min_k = 200.0", f"t_min_k = {t}"),
                       name="bad_t.ini")
        assert main(["sweep", "--config", bad_t, "--out", str(out)]) == EXIT_CONFIG


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_sweep_q2_low_temperature_exits_numerical(tmp_path):
    # q-2 overflows below about 1 K; the sweep must fail fast, not hang
    text = MINIMAL.replace("classical, sc-2, hbar3", "q-2").replace(
        "t_min_k = 200.0\nt_max_k = 400.0\nn_points = 3", "t_min_k = 0.5")
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "low_t.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == EXIT_NUMERICAL


def test_validate_reports_warnings(tmp_path, capsys):
    text = MINIMAL.replace("delta = 200.0", "delta = 200.0\nomega_bar = 500.0")
    cfg = load_config(_write(tmp_path, text))
    warnings = run_validate(cfg)
    assert warnings
    assert "adiabatic" in capsys.readouterr().out


def test_figure2_outputs(tmp_path):
    text = """
[figure2]
omega = 16000.0
temperature_k = 300.0
n_grid = 61
extent = 4.0

[output]
path = unused
"""
    cfg = load_config(_write(tmp_path, text))
    paths, meta, ratio = run_figure2(cfg, str(tmp_path / "figs"))
    headers = set()
    for name, path in paths.items():
        lines = open(path).read().splitlines()
        headers.add(lines[0])
        assert len(lines) == 1 + 61 * 61
        values = np.array(
            [[float(t) for t in line.split(",")] for line in lines[1:]]
        )
        re_max = np.max(np.abs(values[:, 2]))
        assert re_max == pytest.approx(1.0, abs=1e-12)
    assert headers == {"q,p,re,im"}
    # moment ratio recomputed from the emitted CSV matches the module value
    data = np.array(
        [[float(t) for t in line.split(",")]
         for line in open(paths["classical"]).read().splitlines()[1:]]
    )
    weight = np.abs(data[:, 2])
    rms_c = np.sqrt(np.sum(weight * data[:, 0] ** 2) / np.sum(weight))
    data_q = np.array(
        [[float(t) for t in line.split(",")]
         for line in open(paths["quantum"]).read().splitlines()[1:]]
    )
    wq = np.abs(data_q[:, 2])
    rms_q = np.sqrt(np.sum(wq * data_q[:, 0] ** 2) / np.sum(wq))
    assert rms_c / rms_q == pytest.approx(ratio, rel=1e-12)


def test_bundled_recipes_parse():
    for name in ("fig1a", "fig1b_site1", "fig1b_site2"):
        cfg = load_config(f"{CONFIG_DIR}/{name}.ini")
        assert cfg.system is not None and cfg.bath is not None
        assert cfg.oracle is not None
        assert len(cfg.temperatures) == 15
    fig2 = load_config(f"{CONFIG_DIR}/fig2.ini")
    assert fig2.fig2 is not None


def test_sweep_deterministic_bytes(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(cfg, str(out1))
    run_sweep(cfg, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def _sweep_by_method(path):
    rows = {}
    for line in open(path).read().splitlines()[1:]:
        t, method, c12 = line.split(",")[:3]
        rows.setdefault(method, []).append((float(t), float(c12)))
    return rows


def test_sweep_dispatches_oracle(tmp_path):
    text = MINIMAL.replace("classical, sc-2, hbar3", "oracle, q-2, classical")
    text += "\n[oracle]\nn_modes = 1\nfock_levels = 8\n"
    cfg = load_config(_write(tmp_path, text))
    out = tmp_path / "oracle.csv"
    run_sweep(cfg, str(out))
    rows = _sweep_by_method(out)
    assert set(rows) == {"oracle", "q-2", "classical"}
    solver = OracleSolver(cfg.system, discretize_bath(cfg.bath, cfg.oracle), cfg.oracle)
    assert [t for t, _ in rows["oracle"]] == [200.0, 300.0, 400.0]
    for t, c12 in rows["oracle"]:
        assert c12 == solver.coherences(Thermo(t)).c12


def test_fig1a_recipe_quantum_only_coherence(tmp_path):
    cfg = load_config(f"{CONFIG_DIR}/fig1a.ini")
    out = tmp_path / "fig1a.csv"
    run_sweep(cfg, str(out))
    rows = _sweep_by_method(out)
    assert all(c == 0.0 for _, c in rows["classical"])
    assert all(abs(c) < 1e-12 for _, c in rows["sc-exact"])
    assert all(c == 0.0 for _, c in rows["sc-2"])
    assert all(abs(c) > 1e-4 for _, c in rows["q-2"])


def test_fig1b_site1_recipe_sign_agreement(tmp_path):
    cfg = load_config(f"{CONFIG_DIR}/fig1b_site1.ini")
    out = tmp_path / "fig1b.csv"
    run_sweep(cfg, str(out))
    rows = _sweep_by_method(out)
    q2 = dict(rows["q-2"])
    for t, c in rows["sc-2"]:
        if t >= 300.0:
            assert np.sign(c) == np.sign(q2[t])


COMPARE = """
[system]
delta = 200.0
v12 = 200.0

[bath]
shape = ohmic
cutoff = 50.0
reorg_diag = 2.0, 0.0
correlation = 0.0

[sweep]
t_min_k = 300.0
n_points = 1

[methods]
methods = q-2, classical

[oracle]
n_modes = 1
fock_levels = 70

[output]
path = cmp.csv
"""


def _read_compare(path):
    rows = []
    lines = open(path).read().splitlines()
    assert lines[0] == "T_K,method,C12,C12_oracle,residual,scaling_exponent"
    for line in lines[1:]:
        t, method, c12, c_or, res, expo = line.split(",")
        rows.append((float(t), method, float(c12), float(c_or),
                     float(res), float(expo)))
    return rows


def test_compare_quadratic_exponent_for_q2(tmp_path):
    cfg = load_config(_write(tmp_path, COMPARE))
    out = tmp_path / "cmp.csv"
    run_compare(cfg, str(out))
    rows = {r[1]: r for r in _read_compare(out)}
    assert rows["q-2"][5] == pytest.approx(2.0, abs=0.3)
    # classical residual is minus the oracle value, first order in E^r
    assert rows["classical"][4] == pytest.approx(-rows["classical"][3])
    assert rows["classical"][5] == pytest.approx(1.0, abs=0.1)


def test_compare_runs_every_method(tmp_path):
    text = COMPARE.replace("methods = q-2, classical",
                           "methods = classical, sc-exact, sc-2, q-2, hbar3")
    cfg = load_config(_write(tmp_path, text))
    out = tmp_path / "cmp_all.csv"
    run_compare(cfg, str(out))
    rows = {r[1]: r for r in _read_compare(out)}
    assert set(rows) == {m.value for m in Method if m is not Method.ORACLE}
    # q-2 is evaluated on the oracle's discretized modes
    dbath = discretize_bath(cfg.bath, cfg.oracle)
    th = Thermo(300.0)
    assert rows["q-2"][2] == quantum_coherence_2nd_modes(cfg.system, dbath, th).c12
    solver = OracleSolver(cfg.system, dbath, cfg.oracle)
    assert rows["q-2"][3] == solver.coherences(th).c12


def test_compare_zero_coupling_residuals(tmp_path):
    text = COMPARE.replace("reorg_diag = 2.0, 0.0", "reorg_diag = 0.0, 0.0")
    cfg = load_config(_write(tmp_path, text))
    out = tmp_path / "cmp0.csv"
    run_compare(cfg, str(out))
    for row in _read_compare(out):
        assert abs(row[4]) < 1e-12
        assert row[5] == 0.0


def test_compare_hbar3_residual_shrinks_at_high_temperature(tmp_path):
    text = COMPARE.replace("reorg_diag = 2.0, 0.0", "reorg_diag = 100.0, 0.0")
    text = text.replace("t_min_k = 300.0\nn_points = 1",
                        "t_min_k = 300.0\nt_max_k = 2000.0\nn_points = 2")
    text = text.replace("methods = q-2, classical", "methods = hbar3")
    text = text.replace("fock_levels = 70", "fock_levels = 220")
    cfg = load_config(_write(tmp_path, text))
    out = tmp_path / "cmp_h3.csv"
    run_compare(cfg, str(out))
    rows = _read_compare(out)
    residuals = {t: abs(res) for t, _, _, _, res, _ in rows}
    assert residuals[2000.0] < residuals[300.0]


DISCRETE_BATH = """
[system]
delta = 200.0
v12 = 200.0

[bath]
shape = discrete
mode_omegas = 30.0, 90.0
mode_weights = 1.0, 2.0
reorg_diag = 40.0, 0.0
correlation = 0.0

[sweep]
t_min_k = 300.0
n_points = 1

[methods]
methods = q-2, hbar3

[output]
path = d.csv
"""


def test_discrete_bath_config(tmp_path):
    cfg = load_config(_write(tmp_path, DISCRETE_BATH))
    out = tmp_path / "d.csv"
    run_sweep(cfg, str(out))
    rows = _sweep_by_method(out)
    assert abs(rows["q-2"][0][1]) > 1e-4
    assert abs(rows["hbar3"][0][1]) > 1e-4


def test_sweep_non_finite_result_exits_numerical(tmp_path, monkeypatch):
    # a NaN from any calculator is rejected by CoherenceResult inside the
    # dispatch and reported as a numerical failure, not written to the CSV
    def nan_hbar3(system, bath, th):
        c = np.full((2, 2), float("nan"))
        return CoherenceResult(Method.HBAR3, c)

    monkeypatch.setattr("mlsb.cli.hbar3_general", nan_hbar3)
    cfg_path = _write(tmp_path, MINIMAL)
    out = tmp_path / "nan.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == EXIT_NUMERICAL
