"""Command-line interface: config ingestion, sweeps and figure recipes.

Subcommands::

    mlsb sweep    --config cfg.ini [--out path]   temperature sweep -> CSV
    mlsb compare  --config cfg.ini [--out path]   oracle residuals -> CSV
    mlsb figure2  --config cfg.ini [--out dir]    phase-space grids -> 3 CSVs
    mlsb validate --config cfg.ini                regime warnings

Configs are INI files; see the bundled recipes under configs/.  Exit codes:
0 success, 2 config error (including unparsable INI, a key load_config does
not read, non-positive or non-finite temperatures and those whose 1/(k_B T)
overflows, invalid [oracle] or [figure2] values, a [methods] section without
its methods key or listing a method twice, compare with no method but
oracle, a [bath] with no sites or sized for another site count and an
output that cannot be written, refused before any calculator runs when the
path alone shows it),
3 numerical failure (including an oracle larger than its dim_cap, refused
before the bath is discretized, any non-finite result and a figure2
distribution that vanishes or overflows on its grid or cannot be allocated,
with no CSV written).
Rows and warnings are written T-then-method (temperatures ascending, methods
in declaration order), and a failure names the first (T, method) it concerns;
each row that CoherenceResult.inadmissible lists gets a "warning:" line on
stderr, and is still written with the exit code unchanged.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys as _sys
from dataclasses import dataclass, fields

import numpy as np

from .core import BathSpec, Method, ModelError, SiteSystem, Thermo, validate_regime
from .evaluation import evaluate
from .oracle import OracleConfig
from .phasespace import FIGURE2_NAMES, grid_q_rms, render_figure2, write_grid_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
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
    out_path: str = None   # [output] path; each subcommand has its own default


def _fmt(x):
    return f"{float(x):.17g}"


def _unwritable(path, reason):
    return ConfigError(f"cannot write output {path!r}: {reason}")


def _check_output(path, directory=False):
    """ConfigError naming ``path`` unless it looks writable: a file's parent,
    or a ``directory``'s nearest existing ancestor (makedirs creates the
    rest), must be a writable directory, and ``path`` must not already be
    something else.  It creates nothing, so it runs before any calculator."""
    target = os.path.abspath(path)
    if os.path.exists(target) and os.path.isdir(target) != directory:
        raise _unwritable(path, "not a directory" if directory else "is a directory")
    parent = target if directory else os.path.dirname(target)
    while directory and not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
        raise _unwritable(path, f"{parent!r} is not a writable directory")


def _write_csv(path, header, rows):
    """Write ``header`` and ``rows``; strings verbatim, numbers via _fmt.

    The rows go to a ``.part`` file renamed to ``path`` once complete; an
    OSError removes it and is a ConfigError naming ``path``.
    """
    part = path + ".part"
    try:
        with open(part, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n")
        os.replace(part, path)
    except OSError as exc:
        if os.path.exists(part):
            os.remove(part)
        raise _unwritable(path, exc.strerror or exc) from exc
    return path


def _get(parser, section, key, conv, default=None, required=False):
    # takes the key out of parser: load_config refuses every key left
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] missing required key '{key}'")
        return default
    raw = parser.get(section, key)
    parser.remove_option(section, key)
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
    """Parse an INI run configuration; raises ConfigError on any problem,
    including a key no reader takes, so a misspelling cannot silently fall
    back to a default.  Only ``#`` starts an inline comment: ``;`` separates
    matrix rows.  Values are read verbatim: ``%`` is not interpolated."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
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
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise ConfigError(f"[methods] lists {repeated[0]!r} more than once")

    ocfg = None
    if parser.has_section("oracle"):
        try:
            # OracleConfig owns the keys and their defaults
            ocfg = OracleConfig(**{
                f.name: _get(parser, "oracle", f.name, int, default=f.default)
                for f in fields(OracleConfig)
            })
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

    out_path = _get(parser, "output", "path", str)

    for section in parser.sections():
        for key in parser.options(section):
            raise ConfigError(f"[{section}] unknown key '{key}'")

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


def _warn(evaluations, temperatures):
    """Print the inadmissible rows of ``evaluations``, (label, results) pairs, in
    T-then-method order, those of one (T, method) in the order of ``evaluations``."""
    lines = [((i, k, e), f"warning: {res.method.value}{label} at T = {temperatures[i]:g} K "
              f"is not admissible: |C_{m + 1},{n + 1}| = {c_mn:.6g} > "
              f"sqrt(C_{m + 1},{m + 1} C_{n + 1},{n + 1}) + err_est = {bound:.6g}")
             for e, (label, results) in enumerate(evaluations)
             for k, res in enumerate(results)
             for i, m, n, c_mn, bound in res.inadmissible]
    for _, line in sorted(lines):
        print(line, file=_sys.stderr)


def run_sweep(cfg: RunConfig, out_path=None):
    """Temperature sweep; one CSV row per (T, method), T ascending."""
    _require(cfg, "sweep", ("system", "bath", "temperatures", "methods"))
    out_path = out_path or cfg.out_path or "out.csv"
    _check_output(out_path)
    if Method.ORACLE in cfg.methods and cfg.oracle is None:
        raise ConfigError("method 'oracle' requires an [oracle] block")
    th = Thermo(np.sort(cfg.temperatures))
    results = evaluate(cfg.system, cfg.bath, cfg.methods, th, cfg.oracle)
    _warn([("", results)], th.temperature_K)
    columns = [(res.method.value, res.c12, res.err_est, res.populations) for res in results]
    rows = [(t, name, c12[i], err[i], *pops[i, :2])
            for i, t in enumerate(th.temperature_K) for name, c12, err, pops in columns]
    return _write_csv(out_path, ("T_K", "method", "C12", "err_est", "pop1", "pop2"), rows)


def run_compare(cfg: RunConfig, out_path=None):
    """Oracle-vs-method residuals with E^r-halving scaling exponents.

    The perturbative quantum method is evaluated on the same discretized
    modes as the oracle so its residual isolates the truncation order rather
    than bath-discretization error; coupling-shape-blind methods depend only
    on E^r, which the discretization reproduces exactly.
    """
    _require(cfg, "compare", ("system", "bath", "temperatures", "methods", "oracle"))
    methods = (Method.ORACLE, *(m for m in cfg.methods if m is not Method.ORACLE))
    if len(methods) == 1:
        raise ConfigError("compare requires a method other than 'oracle' in [methods]")
    out_path = out_path or cfg.out_path or "out.csv"
    _check_output(out_path)
    th = Thermo(np.sort(cfg.temperatures))
    evaluations, failures = [], []
    for factor in (1.0, 0.5):
        bath = BathSpec(cfg.bath.shape, cfg.bath.reorg_diag * factor, cfg.bath.correlation)
        try:
            evaluations.append(evaluate(cfg.system, bath, methods, th, cfg.oracle, True))
        except ModelError as exc:
            if exc.index is None:   # the oracle setup failed
                raise
            failures.append(exc)
    if failures:
        raise min(failures, key=lambda exc: (exc.index, methods.index(exc.method)))
    full, half = evaluations
    _warn([("", full), (" (E^r/2)", half)], th.temperature_K)

    oracle_full, oracle_half = full[0].c12, half[0].c12
    columns = []
    for res_full, res_half in zip(full[1:], half[1:]):
        residual = res_full.c12 - oracle_full
        r_full, r_half = np.abs(residual), np.abs(res_half.c12 - oracle_half)
        ratio = np.maximum(r_full, 1e-300) / np.maximum(r_half, 1e-300)
        exponent = np.where((r_full < 1e-15) & (r_half < 1e-15), 0.0, np.log2(ratio))
        columns.append((res_full.method.value, res_full.c12, residual, exponent))
    rows = [(t, name, c12[i], oracle_full[i], res[i], exponent[i])
            for i, t in enumerate(th.temperature_K) for name, c12, res, exponent in columns]
    header = ("T_K", "method", "C12", "C12_oracle", "residual", "scaling_exponent")
    return _write_csv(out_path, header, rows)


def run_figure2(cfg: RunConfig, out_dir=None):
    """Emit the three phase-space grids and print a moment-ratio report.

    The distributions are rendered and written one at a time, in
    FIGURE2_NAMES order, so at most one grid is held.  Each is written under
    a ``.part`` name and renamed once all three are written.  If a grid or a
    rename fails, the ``.part`` files and the grids already renamed are
    removed, so a numerical failure in any grid, one that cannot be allocated
    included, or an output that cannot be written leaves no CSV; an OSError
    is a ConfigError naming the directory.
    """
    _require(cfg, "figure2", ("fig2",))
    fc = cfg.fig2
    th = Thermo(fc.temperature_K)
    directory = out_dir or cfg.out_path or "."
    _check_output(directory, directory=True)
    paths, q_rms, renamed = {}, {}, []
    try:
        for name in FIGURE2_NAMES:
            try:
                grid, meta = render_figure2(
                    name, fc.omega, th, n_grid=fc.n_grid, extent=fc.extent
                )
            except (ModelError, ArithmeticError, MemoryError) as exc:
                raise ModelError(
                    f"figure2 failed at omega = {fc.omega:g}, "
                    f"T = {fc.temperature_K:g} K: {exc}"
                ) from exc
            paths[name] = os.path.join(directory, f"fig2_{name}.csv")
            os.makedirs(directory, exist_ok=True)
            write_grid_csv(grid, paths[name] + ".part")
            q_rms[name] = grid_q_rms(grid)
            del grid   # before the next grid is rendered
        for path in paths.values():
            os.replace(path + ".part", path)
            renamed.append(path)
    except BaseException as exc:
        for path in paths.values():
            written = path if path in renamed else path + ".part"
            if os.path.exists(written):
                os.remove(written)
        if isinstance(exc, OSError):
            raise _unwritable(directory, exc.strerror or exc) from exc
        raise
    ratio_grids = q_rms["classical"] / q_rms["quantum"]
    report = (
        f"width_ratio_expected={_fmt(meta['width_ratio'])} "
        f"width_ratio_grids={_fmt(ratio_grids)}"
    )
    print(report)
    return paths, meta, float(ratio_grids)


def run_validate(cfg: RunConfig):
    """Print each separation-of-scales warning once, or an ok: line.

    The whole temperature grid is checked in one call, at its hottest
    temperature, which the thermal warning names.
    """
    _require(cfg, "validate", ("system", "bath"))
    temps = cfg.temperatures if cfg.temperatures is not None else [300.0]
    warnings = validate_regime(cfg.system, cfg.bath, Thermo(temps))
    for line in warnings:
        print(f"warning: {line}")
    if not warnings:
        print("ok: parameters satisfy the separation-of-scales restrictions")
    return warnings


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
    except ModelError as exc:
        print(f"numerical error: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
