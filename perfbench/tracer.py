"""In-memory span tracer wrapped around the calls into each mlsb module.

The tracer lives in the benchmark, not in the program: it replaces module
attributes with timing wrappers for the duration of one traced pass and puts
the originals back afterwards.  ``mlsb.cli`` and the package ``__init__`` bind
calculators with ``from ... import``, so every namespace in ``mlsb.*`` that
holds the original object is patched, not only the defining module.

Each span is ``[name, start_ns, end_ns, parent, thread_id, attr]``; ``parent``
is the enclosing span on the same thread.  Spans opened on a pool thread have
no same-thread parent and are re-parented to the ``cli.run_sweep`` span that
contains them in time.  Spans are kept in memory and written once, when the
pass ends.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import threading
import time

import numpy as np

# (defining module, attribute, span name); wrapped wherever the object is bound
FUNCTIONS = (
    ("mlsb.cli", "load_config", "cli.load_config"),
    ("mlsb.cli", "run_sweep", "cli.run_sweep"),
    ("mlsb.cli", "run_compare", "cli.run_compare"),
    ("mlsb.cli", "run_figure2", "cli.run_figure2"),
    ("mlsb.core", "diagonalize_excited", "core.diagonalize_excited"),
    ("mlsb.classical", "classical_coherence", "classical.coherence"),
    ("mlsb.semiclassical", "semiclassical_exact", "semiclassical.sc_exact"),
    ("mlsb.semiclassical", "semiclassical_second_order", "semiclassical.sc2"),
    ("mlsb.quantum", "quantum_coherence_2nd", "quantum.q2"),
    ("mlsb.quantum", "quantum_coherence_2nd_modes", "quantum.q2_modes"),
    # private, but a layer of its own: wrapped by module attribute
    ("mlsb.quantum", "_folded_weight", "quantum.folded_weight"),
    ("mlsb.hbar3", "hbar3_general", "hbar3.general"),
    ("mlsb.oracle", "discretize_bath", "oracle.discretize"),
    ("mlsb.oracle", "convergence_sweep", "oracle.convergence_sweep"),
    ("mlsb.phasespace", "render_figure2", "phasespace.render"),
    ("mlsb.phasespace", "write_grid_csv", "phasespace.write_grid_csv"),
)

# Stated constant for a dense symmetric eigensolve with eigenvectors,
# ~9 n^3 flops (Golub & Van Loan, Matrix Computations, 4th ed., sec. 8.3).
EIGH_FLOP_CONSTANT = 9.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = set()
        self._local = threading.local()
        self._undo = []
        self._main_thread = threading.get_ident()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, attr=None, only_under=None):
        """Return ``fn`` wrapped in a span.

        ``attr(args, result)`` stores one number on the span.  With
        ``only_under`` the call is recorded only when the innermost open span
        on this thread has that name.
        """
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            if only_under is not None and (parent is None or parent[0] != only_under):
                return fn(*args, **kwargs)
            span = [name, time.perf_counter_ns(), 0, parent, threading.get_ident(), None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if attr is not None:
                span[5] = attr(args, result)
            return result

        return wrapper

    def _replace(self, owner, attribute, new):
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, new)

    def install(self):
        """Wrap every layer boundary; names that no longer exist are recorded
        in ``missing`` and their metrics are reported absent."""
        attrs = {
            "quantum.folded_weight": lambda args, _: int(np.size(args[1])),
            "phasespace.write_grid_csv": lambda args, _: os.path.getsize(args[1]),
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mlsb" or n.startswith("mlsb."))]
        for module_name, attribute, name in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attribute, None)
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self.wrap(original, name, attr=attrs.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

        solver = getattr(sys.modules.get("mlsb.oracle"), "OracleSolver", None)
        if solver is None:
            self.missing.update({"oracle.solver_init", "oracle.coherences", "oracle.eigh"})
        else:
            self._replace(solver, "__init__", self.wrap(
                solver.__init__, "oracle.solver_init",
                attr=lambda args, _: int(args[0].dim)))
            self._replace(solver, "coherences",
                          self.wrap(solver.coherences, "oracle.coherences"))
            # diagonalize_excited and _psd_factor also call eigh; only the
            # solve of the oracle Hamiltonian itself is attributed
            self._replace(np.linalg, "eigh", self.wrap(
                np.linalg.eigh, "oracle.eigh",
                attr=lambda args, _: int(args[0].shape[0]),
                only_under="oracle.solver_init"))

    def restore(self):
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)

    def _reparent_pool_spans(self):
        sweeps = [s for s in self.spans
                  if s[0] == "cli.run_sweep" and s[4] == self._main_thread]
        for span in self.spans:
            if span[3] is None and span[4] != self._main_thread:
                for sweep in sweeps:
                    if sweep[1] <= span[1] and span[2] <= sweep[2]:
                        span[3] = sweep
                        break

    def dump(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s[0], s[1], s[2], index.get(id(s[3])), s[4], s[5]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "thread", "attr"],
                       "spans": rows}, fh)

    def layer_metrics(self, csv_bytes):
        """Per-layer metrics of this pass, keyed by the names in BENCHMARK.json."""
        self._reparent_pool_spans()
        by_name = {}
        children = {}
        for span in self.spans:
            by_name.setdefault(span[0], []).append(span)
            if span[3] is not None:
                children.setdefault(id(span[3]), []).append(span)

        def durations(name):
            return [(s[2] - s[1]) / 1e9 for s in by_name.get(name, ())]

        def busy(name):
            return sum(durations(name))

        def calls(name):
            return len(by_name.get(name, ()))

        def self_time(name):
            total = 0.0
            for span in by_name.get(name, ()):
                covered, cursor = 0, span[1]
                for start, end in sorted((c[1], c[2]) for c in children.get(id(span), ())):
                    start = max(start, cursor)
                    if end > start:
                        covered += end - start
                        cursor = end
                total += (span[2] - span[1] - covered) / 1e9
            return total

        def attr_sum(name):
            return sum(s[5] or 0 for s in by_name.get(name, ()))

        def ratio(num, den):
            return num / den if den else 0.0

        def under(span, name):
            parent = span[3]
            while parent is not None:
                if parent[0] == name:
                    return True
                parent = parent[3]
            return False

        sweep_wall = busy("cli.run_sweep")
        sweep_child_busy = sum(
            (c[2] - c[1]) / 1e9
            for s in by_name.get("cli.run_sweep", ()) for c in children.get(id(s), ()))
        q2_ms = sorted(d * 1e3 for d in durations("quantum.q2"))
        if len(q2_ms) >= 2:
            deciles = statistics.quantiles(q2_ms, n=10, method="inclusive")
            p50, p90 = statistics.median(q2_ms), deciles[8]
        else:
            p50 = p90 = q2_ms[0] if q2_ms else 0.0
        fw_points = attr_sum("quantum.folded_weight")
        fw_points_q2 = sum(s[5] or 0 for s in by_name.get("quantum.folded_weight", ())
                           if under(s, "quantum.q2"))
        dims = [s[5] for s in by_name.get("oracle.solver_init", ()) if s[5]]
        eigh_dims = [s[5] for s in by_name.get("oracle.eigh", ()) if s[5]]
        write_s = busy("phasespace.write_grid_csv")

        metrics = {}

        def put(key, value, unit, *spans):
            # a metric built on a span that could not be installed is absent, not 0
            if not self.missing.intersection(spans):
                metrics[key] = (value, unit)

        put("cli.load_config.s", busy("cli.load_config"), "s", "cli.load_config")
        put("cli.run_sweep.s", sweep_wall, "s", "cli.run_sweep")
        put("cli.run_sweep.self_s", self_time("cli.run_sweep"), "s", "cli.run_sweep")
        put("cli.run_sweep.parallelism", ratio(sweep_child_busy, sweep_wall), "1",
            "cli.run_sweep")
        put("cli.run_compare.self_s", self_time("cli.run_compare"), "s", "cli.run_compare")
        put("cli.run_figure2.self_s", self_time("cli.run_figure2"), "s", "cli.run_figure2")
        put("cli.csv_bytes", csv_bytes, "bytes")
        put("quantum.q2.calls", calls("quantum.q2"), "count", "quantum.q2")
        put("quantum.q2.busy_s", busy("quantum.q2"), "s", "quantum.q2")
        put("quantum.q2.p50_ms", p50, "ms", "quantum.q2")
        put("quantum.q2.p90_ms", p90, "ms", "quantum.q2")
        put("quantum.q2.samples", len(q2_ms), "count", "quantum.q2")
        put("quantum.q2_modes.calls", calls("quantum.q2_modes"), "count", "quantum.q2_modes")
        put("quantum.q2_modes.busy_s", busy("quantum.q2_modes"), "s", "quantum.q2_modes")
        put("quantum.folded_weight.calls", calls("quantum.folded_weight"), "count",
            "quantum.folded_weight")
        put("quantum.folded_weight.points", fw_points, "count", "quantum.folded_weight")
        put("quantum.folded_weight.ns_per_point",
            ratio(busy("quantum.folded_weight") * 1e9, fw_points), "ns/point",
            "quantum.folded_weight")
        put("quantum.points_per_q2_call", ratio(fw_points_q2, calls("quantum.q2")),
            "points/call", "quantum.folded_weight", "quantum.q2")
        put("oracle.discretize.busy_s", busy("oracle.discretize"), "s", "oracle.discretize")
        put("oracle.solver_init.calls", calls("oracle.solver_init"), "count",
            "oracle.solver_init")
        put("oracle.solver_init.busy_s", busy("oracle.solver_init"), "s",
            "oracle.solver_init")
        put("oracle.eigh.busy_s", busy("oracle.eigh"), "s", "oracle.eigh")
        put("oracle.build.self_s", busy("oracle.solver_init") - busy("oracle.eigh"), "s",
            "oracle.solver_init", "oracle.eigh")
        put("oracle.coherences.busy_s", busy("oracle.coherences"), "s", "oracle.coherences")
        put("oracle.convergence_sweep.busy_s", busy("oracle.convergence_sweep"), "s",
            "oracle.convergence_sweep")
        put("oracle.dim_max", max(dims, default=0), "count", "oracle.solver_init")
        put("oracle.matrix_mb_computed", sum(8.0 * d * d for d in dims) / 1e6, "MB",
            "oracle.solver_init")
        put("oracle.eigh_gflop_computed",
            sum(EIGH_FLOP_CONSTANT * float(d) ** 3 for d in eigh_dims) / 1e9, "GFLOP",
            "oracle.eigh")
        put("phasespace.render.busy_s", busy("phasespace.render"), "s", "phasespace.render")
        put("phasespace.write_grid_csv.busy_s", write_s, "s", "phasespace.write_grid_csv")
        put("phasespace.write_grid_csv.mb_per_s",
            ratio(attr_sum("phasespace.write_grid_csv") / 1e6, write_s), "MB/s",
            "phasespace.write_grid_csv")
        put("semiclassical.sc_exact.calls", calls("semiclassical.sc_exact"), "count",
            "semiclassical.sc_exact")
        put("semiclassical.sc_exact.busy_s", busy("semiclassical.sc_exact"), "s",
            "semiclassical.sc_exact")
        put("semiclassical.sc2.busy_s", busy("semiclassical.sc2"), "s", "semiclassical.sc2")
        put("hbar3.general.calls", calls("hbar3.general"), "count", "hbar3.general")
        put("hbar3.general.busy_s", busy("hbar3.general"), "s", "hbar3.general")
        put("classical.coherence.busy_s", busy("classical.coherence"), "s",
            "classical.coherence")
        put("core.diagonalize_excited.calls", calls("core.diagonalize_excited"), "count",
            "core.diagonalize_excited")
        put("core.diagonalize_excited.busy_s", busy("core.diagonalize_excited"), "s",
            "core.diagonalize_excited")
        return metrics
