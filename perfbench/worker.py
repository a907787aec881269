"""One pass of a workload's job list, in a fresh process.

Usage (started by run.py, not by hand):

    python3 worker.py SPEC.json RESULT.json SPAWN_NS {probe|plain|trace}

SPAWN_NS is ``time.monotonic_ns()`` in the parent just before it started
this process, so ``setup_s`` runs from process start, through ``import mlsb``
and config parsing, to the point where the first job could start.  ``probe``
stops there.  ``plain`` times the job list; ``trace`` also records spans.
Peak memory is this process's own ``ru_maxrss``.
"""

import json
import os
import resource
import sys
import time
import traceback

import mlsb
import mlsb.cli as cli


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _prepare(job):
    if job["kind"] == "convergence":
        p = job["params"]
        return {
            "sys": mlsb.SiteSystem.dimer(p["delta"], p["v12"], p["omega_bar"]),
            "bath": mlsb.BathSpec.ohmic(p["reorg_diag"], p["cutoff"], p["correlation"]),
            "th": mlsb.Thermo(p["temperature_K"]),
            "grid": [tuple(g) for g in p["grid"]],
        }
    return cli.load_config(job["config"])


def _run(job, prepared):
    """Run one job; return (output paths, extra values for the checker)."""
    kind, out = job["kind"], job["out"]
    if kind == "sweep":
        return [cli.run_sweep(prepared, out)], {}
    if kind == "compare":
        return [cli.run_compare(prepared, out)], {}
    if kind == "figure2":
        paths, meta, ratio = cli.run_figure2(prepared, out)
        return list(paths.values()), {"width_ratio_grids": ratio,
                                      "width_ratio_expected": meta["width_ratio"]}
    if kind == "convergence":
        sweep = mlsb.convergence_sweep(prepared["sys"], prepared["bath"], prepared["th"],
                                       grid=prepared["grid"], cfg=mlsb.OracleConfig())
        return [], {"entries": [list(e) for e in sweep.entries], "diffs": list(sweep.diffs),
                    "uncertainty": sweep.uncertainty}
    raise ValueError(f"unknown job kind {kind!r}")


def main(spec_path, result_path, spawn_ns, mode):
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(spec_path) as fh:
        spec = json.load(fh)
    jobs = spec["jobs"]
    prepared, errors = [], {}
    for job in jobs:
        try:
            prepared.append(_prepare(job))
        except Exception:  # a job that cannot start fails all of its checks
            prepared.append(None)
            errors[job["name"]] = traceback.format_exc()
    result = {"setup_s": (time.monotonic_ns() - spawn_ns) / 1e9}
    if mode == "probe":
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        return

    outcomes = []
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    for job, cfg in zip(jobs, prepared):
        start = time.perf_counter()
        outcome = {"name": job["name"], "ok": False, "outputs": [], "extra": {}}
        if cfg is not None:
            try:
                outcome["outputs"], outcome["extra"] = _run(job, cfg)
                outcome["ok"] = True
            except Exception:
                errors[job["name"]] = traceback.format_exc()
        outcome["job_s"] = time.perf_counter() - start
        outcomes.append(outcome)
    wall1, cpu1 = time.perf_counter(), _cpu_s()
    result.update({
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "jobs": outcomes,
        "errors": errors,
    })
    if tracer is not None:
        tracer.restore()
        csv_bytes = sum(os.path.getsize(p) for o in outcomes for p in o["outputs"]
                        if os.path.exists(p))
        result["layers"] = tracer.layer_metrics(csv_bytes)
        tracer.dump(spec["spans_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])
