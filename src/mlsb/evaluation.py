"""The one Method -> calculator dispatch, over a whole temperature batch."""

import numpy as np

from .classical import classical_coherence
from .core import Method, ModelError
from .hbar3 import hbar3_general
from .oracle import OracleConfig, build_oracle
from .quantum import quantum_coherence_2nd, quantum_coherence_2nd_modes
from .semiclassical import semiclassical_exact, semiclassical_second_order


def evaluate(system, bath, methods, th, oracle=None, q2_on_modes=False):
    """One CoherenceResult per method of ``methods``, each over the Thermo ``th``.

    The oracle is built once, by build_oracle under ``oracle`` (OracleConfig()
    when None), when ``methods`` lists it or ``q2_on_modes`` puts q-2 on its
    modes.  A failed build is a ModelError with no ``index``; a failed
    calculator, the ModelError of the first (T, method) in T-then-method
    order, which it carries as ``index`` and ``method``.
    """
    # looked up at each call, so a calculator rebound in this module is called
    calculators = {
        Method.CLASSICAL: classical_coherence, Method.SC_EXACT: semiclassical_exact,
        Method.SC2: semiclassical_second_order, Method.Q2: quantum_coherence_2nd,
        Method.HBAR3: hbar3_general,
    }
    if q2_on_modes or Method.ORACLE in methods:
        try:
            solver = build_oracle(system, bath, oracle or OracleConfig())
        except (ModelError, RuntimeError) as exc:
            raise ModelError(f"oracle setup failed: {exc}") from exc
        calculators[Method.ORACLE] = lambda system, bath, th: solver.coherences(th)
        if q2_on_modes:
            calculators[Method.Q2] = lambda system, bath, th: quantum_coherence_2nd_modes(
                system, solver.dbath, th)
    results, failures = [], []
    for k, method in enumerate(methods):
        try:
            results.append(calculators[method](system, bath, th))
        except (ModelError, RuntimeError) as exc:
            failures.append((getattr(exc, "index", None) or 0, k, method, exc))
    if failures:
        i, _, method, exc = min(failures, key=lambda failure: failure[:2])
        error = ModelError(f"method {method.value} failed at "
                           f"T = {np.atleast_1d(th.temperature_K)[i]:g} K: {exc}")
        error.index, error.method = i, method
        raise error from exc
    return results
