#!/usr/bin/env python3
"""Regenerate the reference tables under perfbench/reference/.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the repository root, at the commit whose outputs become the
reference; it records that commit in reference/meta.json.  It writes:

* recipes/{fig1a,fig1b_site1,fig1b_site2}.csv -- the sweep outputs;
* recipes/fig2.json -- every FIG2_SAMPLE_STEP-th row of each figure2 grid and
  the grid width ratio;
* multisite/seed-{0,HELD_OUT}/chain{3,5,8}.csv -- the chain sweeps;
* oracle/<recipe>_compare.csv -- the compare output plus the truncation
  uncertainty of its oracle-derived columns, taken as the change when the
  recipe's Fock levels are raised to COMPARE_FOCK_HI;
* oracle/convergence.json -- the criterion-07 sweep, with each entry's
  uncertainty taken against a CONVERGENCE_FOCK_HI Fock basis.

Takes about a minute; the largest oracle solve has dimension 4608.
"""

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import mlsb
import mlsb.cli as cli

import checks
import workloads

ROOT = Path(__file__).resolve().parents[1]
REF = workloads.REFERENCE
COMPARE_FOCK_HI = {"fig1a": 34, "fig1b_site1": 90, "fig1b_site2": 90}
CONVERGENCE_FOCK_HI = 48


def recipes(tmp):
    out = REF / "recipes"
    out.mkdir(parents=True, exist_ok=True)
    for name in workloads.RECIPES:
        cfg = cli.load_config(str(ROOT / "configs" / f"{name}.ini"))
        cli.run_sweep(cfg, str(out / f"{name}.csv"))
    cfg = cli.load_config(str(ROOT / "configs" / "fig2.ini"))
    paths, meta, ratio = cli.run_figure2(cfg, str(tmp / "fig2"))
    samples = {}
    for name, path in paths.items():
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        samples[name] = [[i, *map(float, data[i])]
                         for i in range(0, data.shape[0], workloads.FIG2_SAMPLE_STEP)]
    (out / "fig2.json").write_text(json.dumps({
        "width_ratio_grids": ratio, "width_ratio_expected": meta["width_ratio"],
        "sample_step": workloads.FIG2_SAMPLE_STEP, "samples": samples}, indent=1))


def multisite(tmp):
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        out = REF / "multisite" / f"seed-{seed}"
        out.mkdir(parents=True, exist_ok=True)
        jobs, _ = workloads.build("multisite", seed, ROOT, tmp)
        for job in jobs:
            cli.run_sweep(cli.load_config(job["config"]), str(out / f"{job['name']}.csv"))


def oracle(tmp):
    out = REF / "oracle"
    out.mkdir(parents=True, exist_ok=True)
    for name in workloads.RECIPES:
        cfg = cli.load_config(str(ROOT / "configs" / f"{name}.ini"))
        hi = dataclasses.replace(cfg, oracle=dataclasses.replace(
            cfg.oracle, fock_levels=COMPARE_FOCK_HI[name]))
        cli.run_compare(cfg, str(tmp / "lo.csv"))
        cli.run_compare(hi, str(tmp / "hi.csv"))
        lo_rows, hi_rows = checks.read_rows(tmp / "lo.csv"), checks.read_rows(tmp / "hi.csv")
        with open(out / f"{name}_compare.csv", "w", newline="\n") as fh:
            fh.write(",".join(lo_rows[0] + ["C12_oracle_unc", "residual_unc",
                                            "scaling_exponent_unc"]) + "\n")
            for lo, hi in zip(lo_rows[1:], hi_rows[1:]):
                unc = [abs(float(a) - float(b)) for a, b in zip(lo[3:], hi[3:])]
                fh.write(",".join(lo + [f"{u:.17g}" for u in unc]) + "\n")

    p = workloads.CONVERGENCE
    sys_ = mlsb.SiteSystem.dimer(p["delta"], p["v12"], p["omega_bar"])
    bath = mlsb.BathSpec.ohmic(p["reorg_diag"], p["cutoff"], p["correlation"])
    th = mlsb.Thermo(p["temperature_K"])
    sweep = mlsb.convergence_sweep(sys_, bath, th, grid=p["grid"], cfg=mlsb.OracleConfig())
    cfg_hi = mlsb.OracleConfig(n_modes=1, fock_levels=CONVERGENCE_FOCK_HI)
    c_hi = mlsb.OracleSolver(sys_, mlsb.discretize_bath(bath, cfg_hi), cfg_hi).coherences(th).c12
    (out / "convergence.json").write_text(json.dumps({
        "entries": [list(e) for e in sweep.entries],
        "entry_unc": [abs(e[2] - c_hi) for e in sweep.entries],
        "fock_levels_hi": CONVERGENCE_FOCK_HI, "c12_hi": c_hi,
        "diffs": list(sweep.diffs), "uncertainty": sweep.uncertainty}, indent=1))


def main():
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        recipes(Path(tmp))
        multisite(Path(tmp))
        oracle(Path(tmp))
    (REF / "meta.json").write_text(json.dumps({
        "generated_at_commit": commit, "numpy": np.__version__,
        "python": sys.version.split()[0]}, indent=1) + "\n")


if __name__ == "__main__":
    main()
