"""Self-test of the output checker; needs only the reference tables.

    python3 -m pytest -q perfbench/test_checks.py
"""

import shutil

import checks
import workloads


def _sweep_job(tmp_path, ref, rows):
    out = tmp_path / ref.name
    shutil.copy(ref, out)
    job = {"name": ref.stem, "kind": "sweep", "reference": str(ref), "checks": rows}
    outcome = {"name": ref.stem, "ok": True, "outputs": [str(out)], "extra": {}}
    return job, outcome, out


def _recipe_job(tmp_path):
    return _sweep_job(tmp_path, workloads.REFERENCE / "recipes" / "fig1b_site1.csv", 75)


def _perturb(path, row, column, factor):
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[row].rstrip("\n").split(",")
    fields[column] = repr(float(fields[column]) * factor)
    lines[row] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


def test_reference_copy_passes(tmp_path):
    job, outcome, _ = _recipe_job(tmp_path)
    tally = checks.check_job(job, outcome)
    assert (tally.attempted, tally.failed) == (75, 0)


def test_perturbed_value_counts_in_failed_frac(tmp_path):
    job, outcome, out = _recipe_job(tmp_path)
    _perturb(out, row=4, column=2, factor=1.0 + 1e-6)  # q-2 C12 at 100 K
    tally = checks.check_job(job, outcome)
    assert tally.failed == 1
    assert tally.failed_frac > 0


def test_failed_job_fails_every_row(tmp_path):
    job, outcome, _ = _recipe_job(tmp_path)
    tally = checks.check_job(job, dict(outcome, ok=False))
    assert (tally.attempted, tally.failed) == (75, 75)


def test_unreferenced_rows_get_the_admissibility_bound(tmp_path):
    ref = workloads.REFERENCE / "multisite" / "seed-0" / "chain3.csv"
    job, outcome, out = _sweep_job(tmp_path, ref, 6)
    job = dict(job, reference=None)
    assert checks.check_job(job, outcome).failed == 0
    _perturb(out, row=2, column=2, factor=1e3)  # q-2 |C12| far above sqrt(p1 p2)
    assert checks.check_job(job, outcome).failed == 1


def test_compare_oracle_column_uses_truncation_uncertainty(tmp_path):
    name = "fig1a_compare"
    ref = workloads.REFERENCE / "oracle" / f"{name}.csv"
    out = tmp_path / f"{name}.csv"
    lines = ref.read_text().splitlines()
    out.write_text("\n".join(",".join(line.split(",")[:6]) for line in lines) + "\n")
    job = {"name": name, "kind": "compare", "reference": str(ref), "checks": 75}
    outcome = {"name": name, "ok": True, "outputs": [str(out)], "extra": {}}
    assert checks.check_job(job, outcome).failed == 0
    _perturb(out, row=1, column=3, factor=1.5)  # oracle C12 far outside it
    assert checks.check_job(job, outcome).failed == 1
