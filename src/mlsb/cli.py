"""Command-line interface: config ingestion, sweeps and figure recipes.

Subcommands::

    mlsb sweep    --config cfg.ini [--out path]   temperature sweep -> CSV
    mlsb compare  --config cfg.ini [--out path]   oracle residuals -> CSV
    mlsb figure2  --config cfg.ini [--out dir]    phase-space grids -> 3 CSVs
    mlsb validate --config cfg.ini                regime warnings

Configs are INI files; see the bundled recipes under configs/.  Exit codes:
0 success, 2 config error (including unparsable INI, non-positive or
non-finite temperatures, invalid [oracle] or [figure2] values, a [methods]
section without its methods key and a [bath] sized for another site count),
3 numerical failure (including an oracle larger than its dim_cap, q-2 below
about 1 K and any non-finite result).  Sweep rows are computed serially,
temperatures ascending, then methods in declaration order.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys as _sys
from dataclasses import dataclass

import numpy as np

from .classical import classical_coherence
from .core import (
    BathSpec,
    Method,
    ModelError,
    SiteSystem,
    Thermo,
    validate_regime,
)
from .hbar3 import hbar3_general
from .oracle import OracleConfig, OracleSolver, discretize_bath
from .phasespace import grid_q_rms, render_figure2, write_grid_csv
from .quantum import quantum_coherence_2nd, quantum_coherence_2nd_modes
from .semiclassical import semiclassical_exact, semiclassical_second_order

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


class NumericalFailure(Exception):
    pass


@dataclass(frozen=True)
class Fig2Config:
    omega: float
    temperature_K: float
    n_grid: int
    extent: float


@dataclass(frozen=True)
class RunConfig:
    system: SiteSystem = None
    bath: BathSpec = None
    temperatures: np.ndarray = None
    methods: tuple = ()
    oracle: OracleConfig = None
    fig2: Fig2Config = None
    out_path: str = "out.csv"


def _fmt(x):
    return f"{float(x):.17g}"


def _write_csv(path, header, rows):
    """Write ``header`` and ``rows``; strings verbatim, numbers via _fmt."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n")
    return path


def _get(parser, section, key, conv, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] missing required key '{key}'")
        return default
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except (ValueError, ModelError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _float_list(raw):
    return [float(tok) for tok in raw.replace(";", ",").split(",") if tok.strip()]


def _temperature(raw):
    return Thermo(float(raw)).temperature_K


def _positive(raw):
    value = float(raw)
    if not 0 < value < np.inf:
        raise ValueError("must be positive and finite")
    return value


def _matrix(raw):
    rows = [r for r in raw.split(";") if r.strip()]
    return np.array([[float(tok) for tok in r.split(",")] for r in rows])


def load_config(path):
    """Parse an INI run configuration; raises ConfigError on any problem."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    system = None
    if parser.has_section("system"):
        try:
            if parser.has_option("system", "delta"):
                system = SiteSystem.dimer(
                    _get(parser, "system", "delta", float, required=True),
                    _get(parser, "system", "v12", float, required=True),
                    _get(parser, "system", "omega_bar", float),
                )
            else:
                omega = _get(parser, "system", "omega", _float_list, required=True)
                coupling = _get(parser, "system", "coupling", _matrix, required=True)
                system = SiteSystem(np.array(omega), coupling)
        except ModelError as exc:
            raise ConfigError(f"[system] {exc}") from exc

    bath = None
    if parser.has_section("bath"):
        shape_name = _get(parser, "bath", "shape", str, default="ohmic").lower()
        reorg = _get(parser, "bath", "reorg_diag", _float_list, required=True)
        corr = _get(parser, "bath", "correlation", float, default=0.0)
        try:
            if shape_name == "ohmic":
                cutoff = _get(parser, "bath", "cutoff", float, required=True)
                bath = BathSpec.ohmic(reorg, cutoff, corr)
            elif shape_name == "discrete":
                modes = _get(parser, "bath", "mode_omegas", _float_list, required=True)
                weights = _get(parser, "bath", "mode_weights", _float_list, required=True)
                bath = BathSpec.discrete(modes, weights, reorg, corr)
            else:
                raise ConfigError(f"[bath] unknown shape {shape_name!r}")
        except ModelError as exc:
            raise ConfigError(f"[bath] {exc}") from exc

    temperatures = None
    if parser.has_section("sweep"):
        t_min = _get(parser, "sweep", "t_min_k", _temperature, required=True)
        t_max = _get(parser, "sweep", "t_max_k", _temperature, default=None)
        n_points = _get(parser, "sweep", "n_points", int, default=1)
        spacing = _get(parser, "sweep", "spacing", str, default="linear").lower()
        if n_points < 1:
            raise ConfigError("[sweep] n_points must be >= 1")
        if t_max is None:
            t_max = t_min
        if spacing == "linear":
            temperatures = np.linspace(t_min, t_max, n_points)
        elif spacing == "log":
            temperatures = np.geomspace(t_min, t_max, n_points)
        else:
            raise ConfigError(f"[sweep] unknown spacing {spacing!r}")

    methods = ()
    if parser.has_section("methods"):
        raw = _get(parser, "methods", "methods", str, required=True)
        names = [tok.strip() for tok in raw.split(",") if tok.strip()]
        if not names:
            raise ConfigError("[methods] must list at least one method")
        try:
            methods = tuple(Method(name) for name in names)
        except ValueError as exc:
            raise ConfigError(f"[methods] {exc}") from exc

    ocfg = None
    if parser.has_section("oracle"):
        try:
            ocfg = OracleConfig(
                n_modes=_get(parser, "oracle", "n_modes", int, default=1),
                fock_levels=_get(parser, "oracle", "fock_levels", int, default=8),
                omega_max=_get(parser, "oracle", "omega_max", float),
                dim_cap=_get(parser, "oracle", "dim_cap", int, default=20000),
            )
        except ModelError as exc:
            raise ConfigError(f"[oracle] {exc}") from exc

    fig2 = None
    if parser.has_section("figure2"):
        fig2 = Fig2Config(
            omega=_get(parser, "figure2", "omega", _positive, required=True),
            temperature_K=_get(
                parser, "figure2", "temperature_k", _temperature, required=True
            ),
            n_grid=_get(parser, "figure2", "n_grid", int, default=241),
            extent=_get(parser, "figure2", "extent", _positive, default=4.0),
        )
        if fig2.n_grid < 2:
            raise ConfigError("[figure2] n_grid must be >= 2")

    out_path = "out.csv"
    if parser.has_section("output"):
        out_path = _get(parser, "output", "path", str, default="out.csv")

    if system is not None and bath is not None and bath.n_sites != system.n_sites:
        raise ConfigError(
            f"[bath] reorg_diag has {bath.n_sites} entries, the system "
            f"{system.n_sites} sites"
        )

    if system is not None and system.n_sites != 2:
        dimer_only = {Method.SC_EXACT, Method.SC2}
        bad = dimer_only.intersection(methods)
        if bad:
            raise ConfigError(
                f"methods {sorted(m.value for m in bad)} support dimers only"
            )

    return RunConfig(
        system=system,
        bath=bath,
        temperatures=temperatures,
        methods=methods,
        oracle=ocfg,
        fig2=fig2,
        out_path=out_path,
    )


def _require(cfg, what, names):
    for name in names:
        if getattr(cfg, name) is None or (
            name == "methods" and not getattr(cfg, name)
        ):
            raise ConfigError(f"{what} requires a [{name}] configuration block")


def _calculator(cfg, bath, compare=False):
    """The one Method -> calculator dispatch, for cfg.system coupled to ``bath``.

    Returns ``run(method, t)``, the CoherenceResult of ``method`` at ``t``
    kelvin.  This is the only place that builds the oracle (once, for every
    temperature), turns calculator errors into NumericalFailure and checks
    that the reported numbers are finite.  The oracle is built when
    cfg.methods lists it or ``compare`` is set.

    ``compare`` makes the one exception: q-2 is evaluated on the oracle's
    discretized modes (see run_compare).
    """
    system = cfg.system
    solver = dbath = None
    if compare or Method.ORACLE in cfg.methods:
        if cfg.oracle is None:
            raise ConfigError("method 'oracle' requires an [oracle] block")
        try:
            dbath = discretize_bath(bath, cfg.oracle)
            solver = OracleSolver(system, dbath, cfg.oracle)
        except (ModelError, RuntimeError) as exc:
            raise NumericalFailure(f"oracle setup failed: {exc}") from exc

    def run(method, t):
        try:
            th = Thermo(float(t))
            if method is Method.CLASSICAL:
                res = classical_coherence(system, bath, th)
            elif method is Method.SC_EXACT:
                res = semiclassical_exact(system, bath, th)
            elif method is Method.SC2:
                res = semiclassical_second_order(system, bath, th)
            elif method is Method.Q2 and compare:
                res = quantum_coherence_2nd_modes(system, dbath, th)
            elif method is Method.Q2:
                res = quantum_coherence_2nd(system, bath, th)
            elif method is Method.HBAR3:
                res = hbar3_general(system, bath, th)
            else:
                res = solver.coherences(th)
        except (ModelError, RuntimeError) as exc:
            raise NumericalFailure(
                f"method {method.value} failed at T = {t:g} K: {exc}"
            ) from exc
        return res

    return run


def run_sweep(cfg: RunConfig, out_path=None):
    """Temperature sweep; one CSV row per (T, method), T ascending."""
    _require(cfg, "sweep", ("system", "bath", "temperatures", "methods"))
    run = _calculator(cfg, cfg.bath)
    rows = []
    for t in np.sort(cfg.temperatures):
        for method in cfg.methods:
            res = run(method, t)
            rows.append((t, method.value, res.c12, res.err_est, *res.populations[:2]))
    return _write_csv(
        out_path or cfg.out_path,
        ("T_K", "method", "C12", "err_est", "pop1", "pop2"),
        rows,
    )


def run_compare(cfg: RunConfig, out_path=None):
    """Oracle-vs-method residuals with E^r-halving scaling exponents.

    The perturbative quantum method is evaluated on the same discretized
    modes as the oracle so its residual isolates the truncation order rather
    than bath-discretization error; coupling-shape-blind methods depend only
    on E^r, which the discretization reproduces exactly.
    """
    _require(cfg, "compare", ("system", "bath", "temperatures", "methods", "oracle"))
    methods = tuple(m for m in cfg.methods if m is not Method.ORACLE)

    def bath_scaled(factor):
        return BathSpec(
            cfg.bath.shape, cfg.bath.reorg_diag * factor, cfg.bath.correlation
        )

    full = _calculator(cfg, bath_scaled(1.0), compare=True)
    half = _calculator(cfg, bath_scaled(0.5), compare=True)

    rows = []
    for t in np.sort(cfg.temperatures):
        oracle_full = full(Method.ORACLE, t).c12
        oracle_half = half(Method.ORACLE, t).c12
        for method in methods:
            c_full = full(method, t).c12
            c_half = half(method, t).c12
            res_full = c_full - oracle_full
            res_half = c_half - oracle_half
            if abs(res_full) < 1e-15 and abs(res_half) < 1e-15:
                exponent = 0.0
            else:
                exponent = float(
                    np.log2(max(abs(res_full), 1e-300) / max(abs(res_half), 1e-300))
                )
            rows.append((t, method.value, c_full, oracle_full, res_full, exponent))

    return _write_csv(
        out_path or cfg.out_path,
        ("T_K", "method", "C12", "C12_oracle", "residual", "scaling_exponent"),
        rows,
    )


def run_figure2(cfg: RunConfig, out_dir=None):
    """Emit the three phase-space grids and print a moment-ratio report."""
    _require(cfg, "figure2", ("fig2",))
    fc = cfg.fig2
    th = Thermo(fc.temperature_K)
    grids, meta = render_figure2(
        fc.omega, th, n_grid=fc.n_grid, extent=fc.extent
    )
    directory = out_dir or cfg.out_path or "."
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in ("classical", "semiclassical", "quantum"):
        grid = grids[name]
        if not np.all(np.isfinite(grid.values)):
            raise NumericalFailure(f"non-finite values in {name} grid")
        path = os.path.join(directory, f"fig2_{name}.csv")
        write_grid_csv(grid, path)
        paths[name] = path
    ratio_grids = grid_q_rms(grids["classical"]) / grid_q_rms(grids["quantum"])
    report = (
        f"width_ratio_expected={_fmt(meta['width_ratio'])} "
        f"width_ratio_grids={_fmt(ratio_grids)}"
    )
    print(report)
    return paths, meta, float(ratio_grids)


def run_validate(cfg: RunConfig):
    _require(cfg, "validate", ("system", "bath"))
    temps = cfg.temperatures if cfg.temperatures is not None else [300.0]
    all_warnings = []
    for t in temps:
        for warning in validate_regime(cfg.system, cfg.bath, Thermo(float(t))):
            line = f"T = {t:g} K: {warning}"
            if line not in all_warnings:
                all_warnings.append(line)
    if all_warnings:
        for line in all_warnings:
            print(f"warning: {line}")
    else:
        print("ok: parameters satisfy the separation-of-scales restrictions")
    return all_warnings


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mlsb",
        description="Equilibrium stationary coherences of the multi-level "
        "spin-boson model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "temperature sweep over the configured methods"),
        ("compare", "oracle-vs-method residuals and scaling exponents"),
        ("figure2", "phase-space distribution grids"),
        ("validate", "report separation-of-scales warnings"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="INI configuration file")
        if name != "validate":
            sp.add_argument("--out", default=None, help="output path override")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "sweep":
            run_sweep(cfg, args.out)
        elif args.command == "compare":
            run_compare(cfg, args.out)
        elif args.command == "figure2":
            run_figure2(cfg, args.out)
        elif args.command == "validate":
            run_validate(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical error: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
