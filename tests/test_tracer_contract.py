"""The benchmark's span tracer finds every function it wraps in mlsb.

perfbench/tracer.py wraps mlsb functions by module and attribute name; a
renamed or deleted one is reported absent in a traced benchmark run, so
its metrics vanish.  This installs the tracer and checks that it missed
nothing and that restoring it puts every original back.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import mlsb
import mlsb.cli  # noqa: F401  (the tracer wraps the modules already imported)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mlsb_bindings():
    return {(name, key): value
            for name, module in list(sys.modules.items())
            if module is not None and (name == "mlsb" or name.startswith("mlsb."))
            for key, value in vars(module).items() if callable(value)}


def test_tracer_installs_every_wrapped_function_and_restores():
    tracer = _load_tracer()
    eigh = np.linalg.eigh
    before = _mlsb_bindings()
    solver = mlsb.OracleSolver
    methods = (solver.__init__, solver.coherences)
    t = tracer.Tracer()
    try:
        t.install()
        assert t.missing == set()
        wrapped = {key for key, value in _mlsb_bindings().items() if value is not before[key]}
        assert {(module, attribute) for module, attribute, _ in tracer.FUNCTIONS} <= wrapped
        assert np.linalg.eigh is not eigh
    finally:
        t.restore()
    assert np.linalg.eigh is eigh
    assert (solver.__init__, solver.coherences) == methods
    after = _mlsb_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
