"""Self-test of the span arithmetic in tracer.py; needs no program run.

    python3 -m pytest -q perfbench/test_tracer.py
"""

import time
from concurrent.futures import ThreadPoolExecutor

import tracer


def test_pool_spans_are_reparented_and_excluded_from_self_time():
    t = tracer.Tracer()
    q2 = t.wrap(lambda: time.sleep(0.05), "quantum.q2")

    def sweep():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: q2(), range(2)))

    t.wrap(sweep, "cli.run_sweep")()
    metrics = t.layer_metrics(csv_bytes=0)
    wall = metrics["cli.run_sweep.s"][0]
    assert metrics["quantum.q2.calls"][0] == 2
    assert metrics["quantum.q2.samples"][0] == 2
    assert metrics["cli.run_sweep.self_s"][0] < wall - 0.04
    assert metrics["cli.run_sweep.parallelism"][0] > 1.5


def test_only_under_records_direct_calls_only():
    t = tracer.Tracer()
    eigh = t.wrap(lambda: None, "oracle.eigh", only_under="oracle.solver_init")
    diag = t.wrap(eigh, "core.diagonalize_excited")
    t.wrap(lambda: (eigh(), diag()), "oracle.solver_init")()
    eigh()
    assert [s[0] for s in t.spans].count("oracle.eigh") == 1
