"""Workload job lists and their seeded inputs.

A job is a dict the worker runs through ``mlsb.cli`` (``sweep``, ``compare``,
``figure2``) or through the library call behind the acceptance criteria
(``convergence``).  Each job names its reference table, if one exists for the
seed, and the number of output checks it yields.

Why these workloads:

* ``recipes`` -- the paper-reproduction path: ``sweep`` on the three dimer
  recipes and ``figure2``.  Ohmic ``q-2`` quadrature over few (mu, nu, kappa)
  triples and many temperatures dominates, then figure2's CSV formatting.
  No oracle runs.  The inputs are the bundled recipes: the seed changes
  nothing.
* ``multisite`` -- ``sweep`` with classical, q-2 and hbar3 on seeded random
  nearest-neighbour chains of 3, 5 and 8 sites at two temperatures.  ``q-2``
  is nearly all the time, spent on many triples (n^3) at few temperatures;
  the sweep's thread pool gets few, very unequal tasks.  CSV output is
  negligible.
* ``oracle`` -- ``compare`` on the three dimer recipes plus the truncation
  check of acceptance criterion 07.  Dense ``eigh`` and the ``kron`` build
  dominate and set peak memory; ``q-2`` runs only as the mode sum.  The seed
  changes nothing.
"""

from __future__ import annotations

import configparser
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919  # reference exists; keep it out of tuning work

RECIPES = ("fig1a", "fig1b_site1", "fig1b_site2")
CHAIN_SIZES = (3, 5, 8)
CHAIN_TEMPERATURES_K = (150.0, 300.0)
CHAIN_METHODS = ("classical", "q-2", "hbar3")

# criterion 07: fig1a scaled to E^r = 4 cm^-1 at 300 K, Fock grid 22/28/34
CONVERGENCE = {
    "delta": 200.0, "v12": 200.0, "omega_bar": 16000.0,
    "reorg_diag": [4.0, 4.0], "cutoff": 50.0, "correlation": 0.0,
    "temperature_K": 300.0, "grid": [[1, 22], [1, 28], [1, 34]],
}

FIG2_SAMPLE_STEP = 401  # every 401st grid row is compared with the reference

WORKLOADS = ("recipes", "multisite", "oracle")


def _sweep_rows(path, drop=()):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(path)
    methods = [m.strip() for m in parser.get("methods", "methods").split(",")
               if m.strip() and m.strip() not in drop]
    return parser.getint("sweep", "n_points", fallback=1) * len(methods)


def _fig2_rows(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(path)
    return parser.getint("figure2", "n_grid", fallback=241) ** 2


def _ref(path):
    return str(path) if path.exists() else None


def chain_ini(rng, n_sites):
    """INI text for a random nearest-neighbour chain with an Ohmic bath."""
    omega = 16000.0 + rng.uniform(-150.0, 150.0, n_sites)
    v = rng.uniform(60.0, 140.0, n_sites - 1)
    coupling = np.diag(v, 1) + np.diag(v, -1)
    reorg = rng.uniform(60.0, 120.0, n_sites)
    rows = ";".join(", ".join(repr(float(x)) for x in row) for row in coupling)
    return (
        "[system]\n"
        f"omega = {', '.join(repr(float(x)) for x in omega)}\n"
        f"coupling = {rows}\n\n"
        "[bath]\nshape = ohmic\ncutoff = 50.0\n"
        f"reorg_diag = {', '.join(repr(float(x)) for x in reorg)}\n"
        "correlation = 0.0\n\n"
        f"[sweep]\nt_min_k = {CHAIN_TEMPERATURES_K[0]!r}\n"
        f"t_max_k = {CHAIN_TEMPERATURES_K[-1]!r}\n"
        f"n_points = {len(CHAIN_TEMPERATURES_K)}\nspacing = linear\n\n"
        f"[methods]\nmethods = {', '.join(CHAIN_METHODS)}\n"
    )


def build(workload, seed, root, work_dir):
    """Write the workload's inputs under ``work_dir``; return (jobs, notes)."""
    configs = Path(root) / "configs"
    work_dir = Path(work_dir)
    notes = []
    jobs = []
    if workload == "recipes":
        notes.append("inputs are the bundled recipes; the seed changes nothing")
        for name in RECIPES:
            cfg = configs / f"{name}.ini"
            jobs.append({"name": name, "kind": "sweep", "config": str(cfg),
                         "reference": _ref(REFERENCE / "recipes" / f"{name}.csv"),
                         "checks": _sweep_rows(cfg)})
        cfg = configs / "fig2.ini"
        grid_rows = _fig2_rows(cfg)
        samples = len(range(0, grid_rows, FIG2_SAMPLE_STEP))
        jobs.append({"name": "fig2", "kind": "figure2", "config": str(cfg),
                     "reference": _ref(REFERENCE / "recipes" / "fig2.json"),
                     "grid_rows": grid_rows, "samples": samples,
                     # per grid: structure and sampled rows; then the width ratio
                     "checks": 3 * (1 + samples) + 1})
    elif workload == "multisite":
        rng = np.random.default_rng(seed)
        ref_dir = REFERENCE / "multisite" / f"seed-{seed}"
        if not ref_dir.is_dir():
            notes.append(f"no reference for seed {seed}: invariant checks only")
        for n_sites in CHAIN_SIZES:
            cfg = work_dir / f"chain{n_sites}.ini"
            cfg.write_text(chain_ini(rng, n_sites))
            jobs.append({"name": f"chain{n_sites}", "kind": "sweep", "config": str(cfg),
                         "reference": _ref(ref_dir / f"chain{n_sites}.csv"),
                         "checks": len(CHAIN_TEMPERATURES_K) * len(CHAIN_METHODS)})
    elif workload == "oracle":
        notes.append("inputs are the bundled recipes and criterion 07; "
                     "the seed changes nothing")
        for name in RECIPES:
            cfg = configs / f"{name}.ini"
            jobs.append({"name": f"{name}_compare", "kind": "compare", "config": str(cfg),
                         "reference": _ref(REFERENCE / "oracle" / f"{name}_compare.csv"),
                         "checks": _sweep_rows(cfg, drop=("oracle",))})
        jobs.append({"name": "convergence", "kind": "convergence", "params": CONVERGENCE,
                     "reference": _ref(REFERENCE / "oracle" / "convergence.json"),
                     "checks": len(CONVERGENCE["grid"]) + 1})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs, notes
