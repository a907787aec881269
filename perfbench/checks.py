"""Output checks: every row of every job output is one check.

With a reference table, a row must match it within the tolerance of the
method that made it:

* ``classical`` -- exactly zero coherence, exact match;
* ``sc-exact``, ``sc-2``, ``hbar3`` -- 1e-12 absolute, as acceptance
  criteria 02 and 06;
* ``q-2`` -- its own ``err_est``: |C - C_ref| <= 2 (err + err_ref) + 1e-12;
* oracle columns of ``compare`` and the convergence entries -- twice their
  truncation uncertainty (the change against a larger Fock basis, stored
  with the reference), since a better-converged oracle may move them.

Every row also has to pass the invariants: finite values, populations in
[0, 1], the expected row count and ascending temperatures; criterion 10's
width ratio for ``figure2``; criterion 07's conditions for the convergence
sweep.  Without a reference for the seed, a sweep row must also satisfy
|C12| <= sqrt(p1 p2) within err_est.  Referenced rows are exempt because the
bundled dimer recipes break that bound at the reference commit (fig1b_site1
at 100 K: q-2 C12 = 0.130 > 0.118, hbar3 0.476), a known defect of the
perturbative methods outside their validity domain; the reference comparison
pins those values instead.  A job that raised fails all of its checks.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ABS_TOL = 1e-12          # criteria 02 and 06
ORACLE_ABS_TOL = 1e-11   # dense-eigh rounding on dim ~1e3
EXPONENT_ABS_TOL = 1e-6  # log2 of residual ratios ~1e-5 carrying ORACLE_ABS_TOL
SWEEP_HEADER = ["T_K", "method", "C12", "err_est", "pop1", "pop2"]
COMPARE_HEADER = ["T_K", "method", "C12", "C12_oracle", "residual", "scaling_exponent"]
GRID_HEADER = "q,p,re,im"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def add(self, ok, note=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: max(0, 20 - len(self.notes))])

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def method_tolerance(method, err=0.0, err_ref=0.0):
    if method == "classical":
        return 0.0
    if method == "q-2":
        return 2.0 * (err + err_ref) + ABS_TOL
    return ABS_TOL


def _sweep_row_ok(row, prev_t, ref):
    """Reason the sweep row fails, or '' when it passes."""
    if len(row) != len(SWEEP_HEADER):
        return "wrong field count"
    t, method = float(row[0]), row[1]
    c12, err, p1, p2 = (float(x) for x in row[2:])
    if not all(math.isfinite(x) for x in (t, c12, err, p1, p2)):
        return "non-finite value"
    if prev_t is not None and t < prev_t:
        return "temperatures not ascending"
    if err < 0:
        return "negative err_est"
    if not (-ABS_TOL <= p1 <= 1 + ABS_TOL and -ABS_TOL <= p2 <= 1 + ABS_TOL):
        return "population outside [0, 1]"
    if method == "classical" and c12 != 0.0:
        return "classical C12 not exactly zero"
    if ref is None:
        if abs(c12) > math.sqrt(max(p1, 0.0) * max(p2, 0.0)) * (1 + 1e-9) + err:
            return "|C12| > sqrt(p1 p2)"
        return ""
    if method != ref[1] or abs(t - float(ref[0])) > 1e-12 * abs(float(ref[0])):
        return f"row is ({t}, {method}), reference ({ref[0]}, {ref[1]})"
    err_ref = float(ref[3])
    for name, value, expected in (("C12", c12, ref[2]), ("pop1", p1, ref[4]),
                                  ("pop2", p2, ref[5])):
        expected = float(expected)
        if abs(value - expected) > method_tolerance(method, err, err_ref):
            return f"{name} {value!r} vs reference {expected!r}"
    return ""


def _compare_row_ok(row, prev_t, ref):
    """Reason the compare row fails, or '' when it passes."""
    if len(row) != len(COMPARE_HEADER):
        return "wrong field count"
    t, method = float(row[0]), row[1]
    c12, oracle, residual, exponent = (float(x) for x in row[2:])
    if not all(math.isfinite(x) for x in (t, c12, oracle, residual, exponent)):
        return "non-finite value"
    if prev_t is not None and t < prev_t:
        return "temperatures not ascending"
    if abs(oracle) > 0.5:
        return "|C12_oracle| > 1/2"
    if abs(residual - (c12 - oracle)) > 1e-15 * max(abs(c12), abs(oracle)):
        return "residual is not C12 - C12_oracle"
    if method == "classical" and c12 != 0.0:
        return "classical C12 not exactly zero"
    if ref is None:
        return ""
    if method != ref[1] or abs(t - float(ref[0])) > 1e-12 * abs(float(ref[0])):
        return f"row is ({t}, {method}), reference ({ref[0]}, {ref[1]})"
    c_ref, o_ref, r_ref, e_ref, o_unc, r_unc, e_unc = (float(x) for x in ref[2:9])
    checks = (
        ("C12", c12, c_ref, method_tolerance(method)),
        ("C12_oracle", oracle, o_ref, 2.0 * o_unc + ORACLE_ABS_TOL),
        ("residual", residual, r_ref,
         2.0 * r_unc + ORACLE_ABS_TOL + method_tolerance(method)),
        ("scaling_exponent", exponent, e_ref, 2.0 * e_unc + EXPONENT_ABS_TOL),
    )
    for name, value, expected, tol in checks:
        if abs(value - expected) > tol:
            return f"{name} {value!r} vs reference {expected!r} (tol {tol:.3g})"
    return ""


def _check_table(job, outcome, header, row_ok):
    """One check per expected CSV row; missing or extra rows fail."""
    tally = Tally()
    ref = read_rows(job["reference"])[1:] if job.get("reference") else None
    expected = len(ref) if ref is not None else job["checks"]
    rows = None
    if outcome and outcome["ok"] and Path(outcome["outputs"][0]).exists():
        rows = read_rows(outcome["outputs"][0])
        if not rows or rows[0] != header:
            rows = None
    if rows is None:
        for _ in range(expected):
            tally.add(False, f"{job['name']}: job failed or output missing")
        return tally
    rows = rows[1:]
    prev_t = None
    for i in range(max(expected, len(rows))):
        if i >= len(rows) or i >= expected:
            tally.add(False, f"{job['name']}: {len(rows)} rows, expected {expected}")
            continue
        try:
            reason = row_ok(rows[i], prev_t, ref[i] if ref else None)
            prev_t = float(rows[i][0])
        except ValueError as exc:
            reason = f"unparsable row: {exc}"
        tally.add(not reason, f"{job['name']} row {i + 1}: {reason}")
    return tally


def check_sweep(job, outcome):
    return _check_table(job, outcome, SWEEP_HEADER, _sweep_row_ok)


def check_compare(job, outcome):
    return _check_table(job, outcome, COMPARE_HEADER, _compare_row_ok)


def check_figure2(job, outcome):
    tally = Tally()
    ref = json.loads(Path(job["reference"]).read_text()) if job.get("reference") else None
    if not (outcome and outcome["ok"]):
        for _ in range(job["checks"]):
            tally.add(False, f"{job['name']}: job failed")
        return tally
    paths = {Path(p).stem.removeprefix("fig2_"): p for p in outcome["outputs"]}
    for name in ("classical", "semiclassical", "quantum"):
        path = paths.get(name)
        data = None
        if path and Path(path).exists():
            with open(path) as fh:
                if fh.readline().strip() == GRID_HEADER:
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data is None or data.shape != (job["grid_rows"], 4):
            for _ in range(1 + job["samples"]):
                tally.add(False, f"fig2_{name}: missing or malformed")
            continue
        tally.add(bool(np.all(np.isfinite(data)))
                  and abs(float(np.max(np.abs(data[:, 2]))) - 1.0) <= ABS_TOL,
                  f"fig2_{name}: non-finite values or max |Re| != 1")
        for index, *expected in (ref["samples"][name] if ref else ()):
            ok = bool(np.all(np.abs(data[index] - np.array(expected)) <= ABS_TOL))
            tally.add(ok, f"fig2_{name} row {index + 1} differs from reference")
    ratio = outcome["extra"].get("width_ratio_grids", float("nan"))
    expected_ratio = outcome["extra"].get("width_ratio_expected", float("nan"))
    ok = abs(ratio / expected_ratio - 1.0) < 0.02  # criterion 10
    if ref:
        ok &= abs(ratio - ref["width_ratio_grids"]) <= 1e-10 * abs(ref["width_ratio_grids"])
    tally.add(bool(ok), f"fig2 width ratio {ratio!r} vs expected {expected_ratio!r}")
    return tally


def check_convergence(job, outcome):
    tally = Tally()
    ref = json.loads(Path(job["reference"]).read_text()) if job.get("reference") else None
    grid = job["params"]["grid"]
    if not (outcome and outcome["ok"]):
        for _ in range(job["checks"]):
            tally.add(False, f"{job['name']}: job failed")
        return tally
    extra = outcome["extra"]
    entries, diffs = extra["entries"], extra["diffs"]
    for i, (k, m) in enumerate(grid):
        ok = i < len(entries) and entries[i][:2] == [k, m] and math.isfinite(entries[i][2])
        if ok and ref:
            c_ref, unc = ref["entries"][i][2], ref["entry_unc"][i]
            ok = abs(entries[i][2] - c_ref) <= 2.0 * unc + ORACLE_ABS_TOL
        tally.add(ok, f"convergence entry ({k}, {m}) = {entries[i] if i < len(entries) else None}")
    # criterion 07: shrinking differences and a 2% truncation uncertainty
    ok = (len(diffs) >= 2 and len(entries) == len(grid)
          and abs(diffs[-1]) < abs(diffs[0])
          and extra["uncertainty"] < 0.02 * abs(entries[-1][2]))
    tally.add(ok, f"criterion 07 truncation conditions: diffs {diffs}")
    return tally


CHECKERS = {
    "sweep": check_sweep,
    "compare": check_compare,
    "figure2": check_figure2,
    "convergence": check_convergence,
}


def check_job(job, outcome):
    """Tally of the checks on one job's outputs; ``outcome`` None means it never ran."""
    return CHECKERS[job["kind"]](job, outcome)
