#!/usr/bin/env python3
"""Benchmark for mlsb: one workload per invocation.

    python3 perfbench/run.py --workload {recipes,multisite,oracle} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (the program is imported from ``src/``).  Every
pass runs the workload's whole job list in a fresh Python process (see
worker.py), closed loop, one client, jobs back to back; passes repeat until
``--seconds`` is used up (at least three).  Each pass's outputs are checked
(checks.py) before the next pass starts.

``--trace 0`` reports the end-to-end metrics as medians over the passes:
``setup_s`` (also sampled by set-up-only processes), ``wall_s``, ``cpu_s``,
``peak_rss_mb`` and ``checks_passed_frac``.  ``--trace 1`` alternates plain
and traced passes and reports the per-layer metrics of the traced ones, plus
``trace.overhead_s`` (traced minus plain ``wall_s``).

Earlier stdout lines give the machine and provenance record and one line per
pass; the last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 3
SETUP_PROBES = 8
DEADLINE_S = 170.0  # an invocation must end within 180 s


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def provenance(workload, seed, notes):
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "notes": notes,
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


class Runner:
    def __init__(self, workload, jobs, work_dir, deadline):
        self.workload = workload
        self.jobs = jobs
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.log = work_dir / "worker.log"
        self.count = 0

    def worker(self, spec, mode):
        """Run worker.py once; its result dict, or None if it failed."""
        self.count += 1
        spec_path = self.work_dir / f"spec-{self.count}.json"
        result_path = self.work_dir / f"result-{self.count}.json"
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        spawn = time.monotonic_ns()
        try:
            with open(self.log, "ab") as log:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(spec_path),
                     str(result_path), str(spawn), mode],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
                    timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"worker {self.count} ({mode}) timed out", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.exists():
            print(f"worker {self.count} ({mode}) exited {proc.returncode}; log:\n"
                  + self.log.read_text(errors="replace")[-2000:], file=sys.stderr)
            return None
        return json.loads(result_path.read_text())

    def probe(self):
        result = self.worker({"jobs": self.jobs}, "probe")
        return result and result["setup_s"]

    def run_pass(self, mode):
        """One pass of the job list; (result or None, checks.Tally)."""
        pass_dir = self.work_dir / f"pass-{self.count + 1}"
        pass_dir.mkdir()
        jobs = [dict(job, out=str(pass_dir / job["name"]) +
                     ("" if job["kind"] == "figure2" else ".csv")) for job in self.jobs]
        spec = {"jobs": jobs, "spans_path": str(OUT / f"spans-{self.workload}.json")}
        result = self.worker(spec, mode)
        outcomes = {o["name"]: o for o in result["jobs"]} if result else {}
        tally = checks.Tally()
        for job in jobs:
            tally.merge(checks.check_job(job, outcomes.get(job["name"])))
        for name, text in (result or {}).get("errors", {}).items():
            print(f"job {name} failed:\n{text}", file=sys.stderr)
        shutil.rmtree(pass_dir)
        return result, tally


def _stats(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


@dataclass
class Measurement:
    plain: list = field(default_factory=list)      # worker results, untraced
    traced: list = field(default_factory=list)     # worker results, traced
    setups: list = field(default_factory=list)     # setup_s samples
    tally: checks.Tally = field(default_factory=checks.Tally)


def measure(runner, seconds, trace, start):
    """Run passes until ``seconds`` is spent."""
    cycle = ("plain", "trace") if trace else ("plain",)
    min_passes = len(cycle) if trace else MIN_PASSES
    m = Measurement()
    durations = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup = runner.probe()
            if setup is not None:
                m.setups.append(setup)
    measured_from = time.monotonic()
    while True:
        mode = cycle[len(durations) % len(cycle)]
        began = time.monotonic()
        result, pass_tally = runner.run_pass(mode)
        durations.append(time.monotonic() - began)
        m.tally.merge(pass_tally)
        if result is None:
            break
        (m.traced if mode == "trace" else m.plain).append(result)
        m.setups.append(result["setup_s"])
        print(json.dumps({"pass": len(durations), "mode": mode,
                          **{k: result[k] for k in ("setup_s", "wall_s", "cpu_s",
                                                    "peak_rss_mb")},
                          "job_s": {o["name"]: o["job_s"] for o in result["jobs"]},
                          "checks": [pass_tally.attempted, pass_tally.failed]}))
        if len(durations) % len(cycle):
            continue
        now = time.monotonic()
        next_cycle = len(cycle) * statistics.median(durations)
        if len(durations) >= min_passes and now - measured_from + next_cycle > seconds:
            break
        if now + next_cycle > start + DEADLINE_S:
            break
    return m


def layer_metrics(m):
    """Per-layer metrics: medians over the traced passes."""
    layers = {}
    for result in m.traced:
        for key, (value, unit) in result["layers"].items():
            layers.setdefault(key, (unit, []))[1].append(value)
    metrics = {key: {"value": statistics.median(values), "unit": unit}
               for key, (unit, values) in layers.items()}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(r["wall_s"] for r in m.traced)
        - statistics.median(r["wall_s"] for r in m.plain),
        "unit": "s"}
    return metrics


def end_to_end_metrics(m):
    """Medians over the set-up samples and the passes."""
    summary = {"setup_s": _stats(m.setups)}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        summary[key] = _stats([r[key] for r in m.plain])
    print(json.dumps({"summary": summary}))
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    metrics = {key: {"value": summary[key]["median"], "unit": unit}
               for key, unit in units.items()}
    metrics["checks_passed_frac"] = {"value": 1.0 - m.tally.failed_frac, "unit": "1"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    missing = [p for p in ("src/mlsb/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"not an mlsb checkout: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2

    work_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        jobs, notes = workloads.build(args.workload, args.seed, ROOT, work_dir)
        print(json.dumps({"provenance": provenance(args.workload, args.seed, notes)}))
        runner = Runner(args.workload, jobs, work_dir, start + DEADLINE_S)
        m = measure(runner, args.seconds, args.trace, start)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for note in m.tally.notes:
        print(f"check failed: {note}", file=sys.stderr)

    if not m.plain or (args.trace and not m.traced):
        print("no pass completed; no metrics to report", file=sys.stderr)
        return 1
    metrics = layer_metrics(m) if args.trace else end_to_end_metrics(m)
    print(json.dumps({"correct": m.tally.failed == 0, "attempted": m.tally.attempted,
                      "failed": m.tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
