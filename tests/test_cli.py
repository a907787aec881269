import errno
import os
import tracemalloc

import numpy as np
import pytest

from mlsb import core
from mlsb import (
    BathSpec,
    CoherenceResult,
    Method,
    OracleConfig,
    SiteSystem,
    Thermo,
    build_oracle,
    hbar3_general,
    quantum_coherence_2nd,
    quantum_coherence_2nd_modes,
    semiclassical_second_order,
)
from mlsb.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    _write_csv,
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


# an N-site [system]; its coupling rows are separated by ';' with spaces
CHAIN3 = """
[system]
omega = 15900.0, 16000.0, 16100.0
coupling = 0, 50, 0 ; 50, 0, 50 ; 0, 50, 0

[bath]
cutoff = 50.0
reorg_diag = 100.0, 0.0, 50.0

[sweep]
t_min_k = 300.0
t_max_k = 500.0
n_points = 2

[methods]
methods = q-2
"""


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert cfg.system.n_sites == 2
    assert cfg.system.omega_bar == 16000.0   # DEFAULT_OMEGA_BAR
    assert np.allclose(cfg.temperatures, [200.0, 300.0, 400.0])
    assert [m.value for m in cfg.methods] == ["classical", "sc-2", "hbar3"]
    assert cfg.oracle is None
    # an [oracle] block takes OracleConfig's defaults for every key it omits
    cfg = load_config(_write(tmp_path, MINIMAL + "\n[oracle]\nfock_levels = 24\n"))
    assert cfg.oracle == OracleConfig(fock_levels=24)
    # every value is read verbatim: '%' is no interpolation and '%%' stays '%%'
    for path in ("fig1a_100%.csv", "a%%b"):
        text = MINIMAL.replace("path = out.csv", f"path = {path}")
        assert load_config(_write(tmp_path, text)).out_path == path


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


def test_load_config_bad_method(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, MINIMAL.replace("sc-2", "bogus")))


def test_load_config_refuses_repeated_method(tmp_path, capsys):
    # a repeated method would be evaluated again and its rows written twice
    text = MINIMAL.replace("classical, sc-2, hbar3", "q-2, q-2, hbar3").replace(
        "t_min_k = 200.0\nt_max_k = 400.0\nn_points = 3",
        "t_min_k = 300.0\nt_max_k = 400.0\nn_points = 2")
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=r"^\[methods\] lists 'q-2' more than once$"):
        load_config(path)
    out = tmp_path / "dup.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: [methods] lists 'q-2' more than once\n"
    assert not out.exists()


def test_load_config_bad_temperature(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, MINIMAL.replace("t_min_k = 200.0", "t_min_k = -5")))


@pytest.mark.parametrize("section, key", [
    ("system", "omega_bars"), ("bath", "cut_off"), ("sweep", "n_point"),
    ("methods", "method"), ("oracle", "fock_level"), ("figure2", "n_grids"),
    ("output", "paths"),
    # a key of the [system] or [bath] form the section does not use, and a
    # key of a section that nothing reads
    ("system", "omega"), ("system", "coupling"), ("bath", "mode_omegas"),
    ("outputs", "path"),
])
def test_load_config_rejects_unknown_key(tmp_path, capsys, section, key):
    # a key no reader takes is refused by name instead of falling back to a
    # default or being ignored
    text = (MINIMAL + "\n[oracle]\nfock_levels = 24\n"
            "\n[figure2]\nomega = 16000.0\ntemperature_k = 300.0\n")
    load_config(_write(tmp_path, text))
    if f"[{section}]\n" not in text:
        text += f"\n[{section}]\n"
    path = _write(tmp_path, text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
    with pytest.raises(ConfigError, match=rf"^\[{section}\] unknown key '{key}'$"):
        load_config(path)
    assert main(["validate", "--config", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: [{section}] unknown key '{key}'\n"


def test_semicolon_after_a_space_separates_entries_and_rows(tmp_path):
    # only '#' starts an inline comment; ';' separates list entries and
    # matrix rows wherever it stands
    text = MINIMAL.replace("reorg_diag = 100.0, 0.0", "reorg_diag = 100.0 ; 0.0  # site 2 free")
    assert list(load_config(_write(tmp_path, text)).bath.reorg_diag) == [100.0, 0.0]
    coupling = load_config(_write(tmp_path, CHAIN3)).system.coupling
    assert np.array_equal(coupling, [[0.0, 50.0, 0.0], [50.0, 0.0, 50.0], [0.0, 50.0, 0.0]])


def test_n_site_sweep_matches_the_library(tmp_path):
    # the [system] omega / coupling form: the CSV's C12 column is q-2 on the
    # same SiteSystem, to the 17 digits written
    out = tmp_path / "chain.csv"
    assert main(["sweep", "--config", _write(tmp_path, CHAIN3), "--out", str(out)]) == EXIT_OK
    system = SiteSystem(np.array([15900.0, 16000.0, 16100.0]),
                        np.array([[0.0, 50.0, 0.0], [50.0, 0.0, 50.0], [0.0, 50.0, 0.0]]))
    bath = BathSpec.ohmic([100.0, 0.0, 50.0], 50.0)
    expected = quantum_coherence_2nd(system, bath, Thermo([300.0, 500.0])).c12
    rows = _sweep_by_method(out)["q-2"]
    assert [t for t, _ in rows] == [300.0, 500.0]
    assert np.array_equal([c12 for _, c12 in rows], expected)


def test_sweep_spacing(tmp_path, capsys):
    # log spacing is numpy's geometric grid; any other spacing is refused
    text = MINIMAL.replace("n_points = 3", "n_points = 5\nspacing = log")
    cfg = load_config(_write(tmp_path, text))
    assert np.array_equal(cfg.temperatures, np.geomspace(200.0, 400.0, 5))
    path = _write(tmp_path, text.replace("spacing = log", "spacing = cubic"))
    assert main(["validate", "--config", path]) == EXIT_CONFIG
    assert "[sweep] unknown spacing" in capsys.readouterr().err


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


def test_cli_main_exit_codes(tmp_path, capsys):
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
    # a truncation whose dimension has thousands of digits is refused the same
    # way, before discretizing, and the message gives it in factored form
    fig1a = open(f"{CONFIG_DIR}/fig1a.ini").read()
    huge = _write(tmp_path, fig1a.replace("n_modes = 1", "n_modes = 2500").replace(
        "methods = classical, sc-exact, sc-2, q-2, hbar3", "methods = oracle"),
        name="huge.ini")
    assert main(["sweep", "--config", huge, "--out", str(out)]) == EXIT_NUMERICAL
    assert "2 x 24^5000 exceeds cap 20000" in capsys.readouterr().err
    # a dim_cap below 1 would refuse every oracle: a config error
    for cap in ("0", "-5"):
        bad_cap = _write(tmp_path, MINIMAL + f"\n[oracle]\ndim_cap = {cap}\n",
                         name="bad_cap.ini")
        assert main(["validate", "--config", bad_cap]) == EXIT_CONFIG
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
    # a [figure2] distribution that vanishes on its grid (0.001 K) or overflows
    # (omega = 1e300, where numpy warns before Python's float power raises) is
    # a numerical failure, and no CSV is written
    capsys.readouterr()
    cold = _write(tmp_path, fig2.replace("temperature_k = 300.0", "temperature_k = 0.001"),
                  name="cold_fig2.ini")
    assert main(["figure2", "--config", cold, "--out", figs]) == EXIT_NUMERICAL
    assert "numerical error:" in capsys.readouterr().err
    # an overflowing omega, in array or scalar arithmetic: one stderr line and
    # no numpy warning (the suite turns any RuntimeWarning into an error)
    for omega in ("1e300", "1e200"):
        huge_omega = _write(tmp_path, fig2.replace("omega = 16000.0", f"omega = {omega}"),
                            name="huge_omega_fig2.ini")
        assert main(["figure2", "--config", huge_omega, "--out", figs]) == EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error:")
    assert not list((tmp_path / "figs").glob("*.csv"))
    # a [methods] section without its methods key
    no_methods = _write(tmp_path, MINIMAL.replace("methods = classical, sc-2, hbar3", ""),
                        name="no_methods.ini")
    assert main(["sweep", "--config", no_methods, "--out", str(out)]) == EXIT_CONFIG
    # malformed INI: a duplicate key, a missing section header
    for text in (MINIMAL + "path = again.csv\n", "delta = 200.0\n" + MINIMAL):
        bad_ini = _write(tmp_path, text, name="bad_ini.ini")
        assert main(["sweep", "--config", bad_ini, "--out", str(out)]) == EXIT_CONFIG
    # the Ohmic window is fixed at 6 cutoffs: an omega_max key is unknown
    old_window = _write(tmp_path, MINIMAL + "\n[oracle]\nomega_max = 300.0\n",
                        name="old_window.ini")
    assert main(["validate", "--config", old_window]) == EXIT_CONFIG
    assert "[oracle] unknown key 'omega_max'" in capsys.readouterr().err
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
    # an empty reorg_diag, for an Ohmic and for a discrete bath
    capsys.readouterr()
    empty = MINIMAL.replace("reorg_diag = 100.0, 0.0", "reorg_diag =")
    discrete = (MINIMAL.replace("cutoff = 50.0", "mode_omegas = 30.0\nmode_weights = 1.0")
                .replace("shape = ohmic", "shape = discrete"))
    for text in (empty, discrete.replace("reorg_diag = 100.0, 0.0", "reorg_diag =")):
        no_sites = _write(tmp_path, text, name="no_sites.ini")
        for args in (["validate"], ["sweep", "--out", str(out)]):
            assert main([*args, "--config", no_sites]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                "config error: [bath] reorg_diag must list at least one site\n")
    # the Ohmic cutoff in a discrete bath, a dimer-only method on three
    # sites, an unknown bath shape, an empty temperature grid, and the oracle
    # with no [oracle] block
    refused = [
        (discrete.replace("reorg_diag", "cutoff = 50.0\nreorg_diag"),
         "[bath] unknown key 'cutoff'"),
        (CHAIN3.replace("methods = q-2", "methods = q-2, sc-2"),
         "methods ['sc-2'] support dimers only"),
        (MINIMAL.replace("shape = ohmic", "shape = lorentzian"),
         "[bath] unknown shape 'lorentzian'"),
        (MINIMAL.replace("n_points = 3", "n_points = 0"), "[sweep] n_points must be >= 1"),
        (MINIMAL.replace("classical, sc-2, hbar3", "oracle"),
         "method 'oracle' requires an [oracle] block"),
    ]
    for text, message in refused:
        path = _write(tmp_path, text, name="refused.ini")
        assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_sweep_temperatures_past_the_float_range(tmp_path, capsys):
    # at 1e-300 K hbar3's beta^2 overflows: a numerical failure naming that
    # temperature, with no CSV and no numpy warning
    out = tmp_path / "cold.csv"
    cold = _write(tmp_path, MINIMAL.replace("t_min_k = 200.0", "t_min_k = 1e-300"))
    assert main(["sweep", "--config", cold, "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical error: method hbar3 failed at T = 1e-300 K: c_matrix must be finite\n")
    assert not out.exists()
    # at 1e-310 K beta = 1/(k_B T) itself overflows, which Thermo refuses as
    # the config is read, before q-2 runs
    colder = _write(tmp_path, MINIMAL.replace("t_min_k = 200.0", "t_min_k = 1e-310")
                    .replace("classical, sc-2, hbar3", "q-2"), name="colder.ini")
    assert main(["sweep", "--config", colder, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: [sweep] t_min_k = '1e-310': temperature is too small: "
        "beta = 1/(k_B T) overflows\n")
    assert not out.exists()
    # compare evaluates full and half E^r, both fail at the same row, and the
    # first (T, method) of the two is the one error line
    cold_compare = _write(tmp_path, MINIMAL.replace("t_min_k = 200.0", "t_min_k = 1e-300")
                          .replace("classical, sc-2, hbar3", "hbar3")
                          + "\n[oracle]\nfock_levels = 4\n", name="cold_compare.ini")
    assert main(["compare", "--config", cold_compare, "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical error: method hbar3 failed at T = 1e-300 K: c_matrix must be finite\n")
    assert not out.exists()


def test_sweep_q2_at_1e300_kelvin_is_one_numerical_error_line(tmp_path, capsys):
    # q-2's Ohmic correlation is not finite at 1e-300 K: refused as a
    # non-finite result, with no numpy warning before the one stderr line
    out = tmp_path / "cold.csv"
    cold = _write(tmp_path, MINIMAL.replace("t_min_k = 200.0", "t_min_k = 1e-300")
                  .replace("classical, sc-2, hbar3", "q-2"))
    assert main(["sweep", "--config", cold, "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical error: method q-2 failed at T = 1e-300 K: c_matrix must be finite\n")
    assert not out.exists()


def test_sweep_q2_low_temperature_exits_ok(tmp_path):
    # q-2 in imaginary time has no positive exponent, so a sub-kelvin sweep
    # runs to the end with finite rows
    text = MINIMAL.replace("classical, sc-2, hbar3", "q-2").replace(
        "t_min_k = 200.0\nt_max_k = 400.0\nn_points = 3", "t_min_k = 0.5")
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "low_t.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    header, *rows = out.read_text().splitlines()
    assert header == "T_K,method,C12,err_est,pop1,pop2"
    assert rows
    for row in rows:
        t, method, *numbers = row.split(",")
        assert method == "q-2"
        assert all(np.isfinite(float(x)) for x in [t, *numbers])


def test_sweep_closed_forms_at_1e30_kelvin_exit_ok(tmp_path):
    # fig1b_site1's five closed forms at 1e-30 K: sc-exact converges on a
    # coherence of 0 with no overflow, and every row is finite
    text = open(f"{CONFIG_DIR}/fig1b_site1.ini").read()
    text = text.replace("t_min_k = 100.0", "t_min_k = 1e-30").replace(
        "t_max_k = 800.0", "t_max_k = 300.0").replace("n_points = 15", "n_points = 2")
    out = tmp_path / "cold.csv"
    assert main(["sweep", "--config", _write(tmp_path, text), "--out", str(out)]) == EXIT_OK
    header, *rows = out.read_text().splitlines()
    assert len(rows) == 10
    for row in rows:
        t, method, *numbers = row.split(",")
        assert all(np.isfinite(float(x)) for x in [t, *numbers])


@pytest.mark.parametrize("command, method", [("sweep", "oracle"), ("compare", "q-2")])
def test_uncoupled_oracle_ignores_n_modes(tmp_path, command, method):
    # a bath that couples nothing has no oracle modes, so 10**12 bins cost nothing
    text = (MINIMAL.replace("reorg_diag = 100.0, 0.0", "reorg_diag = 0.0, 0.0")
            .replace("classical, sc-2, hbar3", method)
            + "\n[oracle]\nn_modes = 1000000000000\nfock_levels = 2\n")
    out = tmp_path / "uncoupled.csv"
    assert main([command, "--config", _write(tmp_path, text), "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 4


def test_compare_low_temperature_exits_ok(tmp_path):
    # compare's q-2 runs on the oracle's discretized modes; measured from the
    # lowest exciton, that line sum stays finite below 1 K
    text = open(f"{CONFIG_DIR}/fig1a.ini").read()
    text = text.replace("t_min_k = 100.0", "t_min_k = 0.5").replace(
        "t_max_k = 800.0", "t_max_k = 2.0").replace("n_points = 15", "n_points = 3")
    text = text.replace("fock_levels = 24", "fock_levels = 6")
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "cmp_low_t.csv"
    assert main(["compare", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    q2 = [row for row in _read_compare(out) if row[1] == "q-2"]
    assert len(q2) == 3
    assert all(np.isfinite(row[2]) for row in q2)


def test_compare_warns_on_inadmissible_results(tmp_path, capsys):
    # hbar3 gives |C12| of 386-12344 for fig1a at 0.5-2 K, far above
    # sqrt(C11 C22) <= 1/2: one warning per result, rows and exit code kept
    text = open(f"{CONFIG_DIR}/fig1a.ini").read()
    text = text.replace("t_min_k = 100.0", "t_min_k = 0.5").replace(
        "t_max_k = 800.0", "t_max_k = 2.0").replace("n_points = 15", "n_points = 3")
    text = text.replace("fock_levels = 24", "fock_levels = 6")
    out = tmp_path / "cmp_low_t.csv"
    cfg_path = _write(tmp_path, text)
    assert main(["compare", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    warnings = capsys.readouterr().err.splitlines()
    hbar3 = [line for line in warnings if line.startswith("warning: hbar3 ")]
    assert len(hbar3) == 6  # 3 temperatures, full and half E^r
    assert hbar3[0].startswith(
        "warning: hbar3 at T = 0.5 K is not admissible: |C_1,2| = 12343."
    )
    # the half-E^r evaluation's lines, and only those, carry its label
    labelled = [line for line in hbar3 if line.startswith("warning: hbar3 (E^r/2) at T = ")]
    assert len(labelled) == 3 and labelled == hbar3[1::2]
    assert all(line.startswith("warning: hbar3 at T = ") for line in hbar3[::2])
    assert all(line.startswith("warning: ") for line in warnings)
    assert not [line for line in warnings if "classical" in line or "oracle" in line]
    # sc-exact is exactly 0 here: equal site reorganization energies
    assert not [line for line in warnings if line.startswith("warning: sc-exact")]
    rows = [row for row in _read_compare(out) if row[1] == "hbar3"]
    assert [row[0] for row in rows] == [0.5, 1.25, 2.0]
    assert all(abs(row[2]) > 300.0 for row in rows)


def _warning(method, t, c_mn, bound):
    return (f"warning: {method} at T = {t} K is not admissible: |C_1,2| = {c_mn} > "
            f"sqrt(C_1,1 C_2,2) + err_est = {bound}")


FIG1B_SITE1_WARNINGS = {
    "sweep": [
        _warning("sc-exact", 100, 0.112639, 0.0400028),
        _warning("q-2", 100, 0.130167, 0.117946),
        _warning("hbar3", 100, 0.476015, 0.0400028),
        _warning("sc-exact", 150, 0.125362, 0.115508),
        _warning("hbar3", 150, 0.283056, 0.115508),
        _warning("hbar3", 200, 0.199434, 0.192456),
    ],
    "compare": [
        _warning("sc-exact", 100, 0.112639, 0.0400028),
        _warning("q-2", 100, 0.130342, 0.118014),   # on the oracle's modes
        _warning("hbar3", 100, 0.476015, 0.0400028),
        _warning("hbar3 (E^r/2)", 100, 0.238007, 0.0400028),
        _warning("sc-exact", 150, 0.125362, 0.115508),
        _warning("hbar3", 150, 0.283056, 0.115508),
        _warning("hbar3 (E^r/2)", 150, 0.141528, 0.115508),
        _warning("hbar3", 200, 0.199434, 0.192456),
    ],
}


@pytest.mark.parametrize("command", FIG1B_SITE1_WARNINGS)
def test_fig1b_site1_warning_lines(tmp_path, capsys, command):
    # every inadmissible row of the recipe, T-then-method, and at one
    # (T, method) full E^r before E^r/2
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", f"{CONFIG_DIR}/fig1b_site1.ini",
                 "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == FIG1B_SITE1_WARNINGS[command]


def test_compare_refuses_oracle_only_before_any_solve(tmp_path, monkeypatch, capsys):
    # with nothing to compare, no oracle is built and no CSV written
    builds = []
    monkeypatch.setattr("mlsb.evaluation.build_oracle", lambda *args: builds.append(args))
    text = MINIMAL.replace("classical, sc-2, hbar3", "oracle")
    path = _write(tmp_path, text + "\n[oracle]\nn_modes = 1\nfock_levels = 6\n")
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: compare requires a method other than 'oracle' in [methods]\n")
    assert builds == []
    assert sorted(os.listdir(tmp_path)) == ["cfg.ini"]


def test_admissible_sweep_prints_no_warning(tmp_path, capsys):
    # hbar3 breaks the bound on this system at 200 K, not from 300 K
    text = MINIMAL.replace("t_min_k = 200.0", "t_min_k = 300.0")
    cfg = load_config(_write(tmp_path, text))
    run_sweep(cfg, str(tmp_path / "out.csv"))
    assert capsys.readouterr().err == ""


def test_sweep_diagonalizes_each_system_once(tmp_path, monkeypatch):
    calls = []
    diagonalize = core._diagonalize
    monkeypatch.setattr(
        core, "_diagonalize", lambda s: calls.append(s) or diagonalize(s)
    )
    cfg = load_config(f"{CONFIG_DIR}/fig1a.ini")
    run_sweep(cfg, str(tmp_path / "fig1a.csv"))
    assert calls == [cfg.system]  # 15 temperatures x 5 methods share one basis


def test_validate_reports_warnings(tmp_path, capsys):
    text = MINIMAL.replace("delta = 200.0", "delta = 200.0\nomega_bar = 500.0")
    cfg = load_config(_write(tmp_path, text))
    warnings = run_validate(cfg)
    # each warning once, the thermal one at the hottest of 200, 300, 400 K
    expected = [
        "adiabatic separation violated: omega_bar = 500 cm^-1 is less than 10x "
        "the site frequency differences scale (200 cm^-1)",
        "thermal separation violated: omega_bar = 500 cm^-1 is less than 10x "
        "k_B T = 278.014 cm^-1 at T = 400 K",
    ]
    assert warnings == expected
    assert capsys.readouterr().out.splitlines() == [f"warning: {w}" for w in expected]
    # fig1a's 15 temperatures at omega_bar = 1500: still two lines
    text = open(f"{CONFIG_DIR}/fig1a.ini").read()
    cfg = load_config(_write(tmp_path, text.replace("omega_bar = 16000.0", "omega_bar = 1500"),
                             name="fig1a_1500.ini"))
    run_validate(cfg)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("warning: adiabatic separation violated")
    assert out[1].endswith("k_B T = 556.028 cm^-1 at T = 800 K")


def test_figure2_holds_one_grid_at_a_time(tmp_path, capsys):
    # each distribution is built in place, written and dropped before the
    # next: the traced peak stays below 3.5 complex 241 x 241 grids
    cfg = load_config(f"{CONFIG_DIR}/fig2.ini")
    assert cfg.fig2.n_grid == 241
    tracemalloc.start()
    try:
        run_figure2(cfg, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 241**2 * 16
    assert sorted(os.listdir(tmp_path)) == [
        "fig2_classical.csv", "fig2_quantum.csv", "fig2_semiclassical.csv"]


def test_figure2_failure_in_a_later_grid_writes_no_csv(tmp_path, capsys):
    # at 1e6 K and omega = 1 the classical grid is finite, but the ring and
    # the Wigner Gaussian underflow to zero at the grid points 1000 apart
    text = "[figure2]\nomega = 1.0\ntemperature_k = 1e6\nn_grid = 3\nextent = 1000\n"
    figs = tmp_path / "figs"
    assert main(["figure2", "--config", _write(tmp_path, text), "--out", str(figs)]) \
        == EXIT_NUMERICAL
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "semiclassical distribution vanished" in err[0]
    assert not list(tmp_path.rglob("fig2_*"))


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_unwritable_output_exits_config_before_any_calculator(
        tmp_path, monkeypatch, capsys, command):
    def no_calculator(*args, **kwargs):
        raise AssertionError("a calculator was set up before the output was checked")

    for name in ("build_oracle", "classical_coherence", "semiclassical_exact",
                 "semiclassical_second_order", "quantum_coherence_2nd",
                 "quantum_coherence_2nd_modes", "hbar3_general"):
        monkeypatch.setattr(f"mlsb.evaluation.{name}", no_calculator)
    cfg_path = _write(tmp_path, MINIMAL + "\n[oracle]\nn_modes = 1\nfock_levels = 2\n")
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main([command, "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: cannot write output '{out}'")
    assert sorted(os.listdir(tmp_path)) == ["cfg.ini"]


def test_csv_write_failure_leaves_no_partial_file(tmp_path):
    # the rows go to a .part file, which cannot replace a directory
    with pytest.raises(ConfigError, match="cannot write output"):
        _write_csv(str(tmp_path), ("a",), [(1.0,)])
    assert not os.path.exists(str(tmp_path) + ".part")


def test_figure2_unwritable_output_exits_config(tmp_path, monkeypatch, capsys):
    cfg_path = f"{CONFIG_DIR}/fig2.ini"
    blocker = tmp_path / "file"
    blocker.write_text("")
    figs = blocker / "figs"   # makedirs cannot pass through a file
    assert main(["figure2", "--config", cfg_path, "--out", str(figs)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: cannot write output '{figs}'")

    # a write that fails after the check (here a full disk) removes its .part
    def full_disk(grid, path):
        with open(path, "w") as fh:
            fh.write("q,p,re,im\n")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr("mlsb.cli.write_grid_csv", full_disk)
    figs = tmp_path / "figs"
    assert main(["figure2", "--config", cfg_path, "--out", str(figs)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: cannot write output '{figs}': No space left on device\n")
    assert os.listdir(figs) == []


def test_figure2_failed_rename_exits_config_and_leaves_no_file(
        tmp_path, monkeypatch, capsys):
    # the second of the three renames fails: the grid already renamed and
    # both .part files are removed, and the error names the directory
    replace, renames = os.replace, []

    def second_fails(src, dst):
        renames.append(dst)
        if len(renames) == 2:
            raise OSError(errno.EACCES, os.strerror(errno.EACCES))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", second_fails)
    text = "[figure2]\nomega = 16000.0\ntemperature_k = 300.0\nn_grid = 5\n"
    figs = tmp_path / "figs"
    assert main(["figure2", "--config", _write(tmp_path, text), "--out", str(figs)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: cannot write output '{figs}': Permission denied\n")
    assert len(renames) == 2
    assert os.listdir(figs) == []


def test_default_outputs_without_output_path(tmp_path, monkeypatch, capsys):
    # with neither [output] path nor --out, sweep writes out.csv and figure2
    # its three grids into the current directory
    sweep_cfg = _write(tmp_path, MINIMAL.replace("[output]\npath = out.csv\n", ""),
                       name="sweep.ini")
    fig2_cfg = _write(tmp_path, "[figure2]\nomega = 16000.0\ntemperature_k = 300.0\n"
                      "n_grid = 5\n", name="fig2.ini")
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", sweep_cfg]) == EXIT_OK
    assert main(["figure2", "--config", fig2_cfg]) == EXIT_OK
    assert sorted(os.listdir(tmp_path)) == [
        "fig2.ini", "fig2_classical.csv", "fig2_quantum.csv", "fig2_semiclassical.csv",
        "out.csv", "sweep.ini"]
    assert load_config(fig2_cfg).out_path is None


def test_figure2_grid_beyond_address_space_exits_numerical(tmp_path, capsys):
    # 10^7 x 10^7 complex values are 1.42 PiB, more than a 47-bit address
    # space holds, so the allocation fails at once on any machine
    text = "[figure2]\nomega = 16000.0\ntemperature_k = 300.0\nn_grid = 10000000\n"
    figs = tmp_path / "figs"
    assert main(["figure2", "--config", _write(tmp_path, text), "--out", str(figs)]) \
        == EXIT_NUMERICAL
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error: figure2 failed")
    assert "Unable to allocate" in err[0]
    assert not figs.exists()


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


def _split_csv(path):
    header, *rows = open(path).read().splitlines()
    fields = [row.split(",") for row in rows]
    text = [row[:2] for row in fields]
    numbers = np.array([[float(v) for v in row[2:]] for row in fields])
    return header, text, numbers


@pytest.mark.parametrize("name", ["fig1a", "fig1b_site1", "fig1b_site2"])
def test_recipe_sweep_matches_reference(tmp_path, name):
    # the stored benchmark references pin every calculator on the recipes;
    # q-2 has moved in the last digits since they were written, so numbers
    # compare to rtol 1e-12 and the text columns exactly
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", "--config", f"{CONFIG_DIR}/{name}.ini",
                 "--out", str(out)]) == EXIT_OK
    header, text, numbers = _split_csv(out)
    ref_header, ref_text, ref_numbers = _split_csv(
        f"perfbench/reference/recipes/{name}.csv")
    assert header == ref_header
    assert text == ref_text
    assert np.allclose(numbers, ref_numbers, rtol=1e-12, atol=1e-14)


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
    solver = build_oracle(cfg.system, cfg.bath, cfg.oracle)
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
    solver = build_oracle(cfg.system, cfg.bath, cfg.oracle)
    th = Thermo(300.0)
    assert rows["q-2"][2] == quantum_coherence_2nd_modes(cfg.system, solver.dbath, th).c12
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

    monkeypatch.setattr("mlsb.evaluation.hbar3_general", nan_hbar3)
    cfg_path = _write(tmp_path, MINIMAL)
    out = tmp_path / "nan.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == EXIT_NUMERICAL


def test_sweep_nan_at_one_temperature_names_it(tmp_path, monkeypatch, capsys):
    # each method runs once over the grid 200, 300, 400 K; a NaN in one row
    # of a batch exits 3 with no CSV, naming that row's temperature, and of
    # two failures the first in the rows' T-then-method order is reported
    def nan_at(calculator, t):
        def patched(system, bath, th):
            c = np.array(calculator(system, bath, th).c_matrix)
            c[list(th.temperature_K).index(t)] = np.nan
            return CoherenceResult(Method.HBAR3, c)
        return patched

    monkeypatch.setattr("mlsb.evaluation.hbar3_general", nan_at(hbar3_general, 300.0))
    monkeypatch.setattr("mlsb.evaluation.semiclassical_second_order",
                        nan_at(semiclassical_second_order, 400.0))
    out = tmp_path / "nan.csv"
    assert main(["sweep", "--config", _write(tmp_path, MINIMAL), "--out", str(out)]) \
        == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical error: method hbar3 failed at T = 300 K: c_matrix must be finite\n")
    assert not out.exists()
