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


def test_tracer_times_the_oracle_eigh_under_solver_init():
    # the tracer records eigh only as the innermost span under solver_init;
    # moved under any other span it would read 0 s, and oracle.build.self_s
    # (solver_init minus eigh) would take its time
    tracer = _load_tracer()
    system = mlsb.SiteSystem.dimer(200.0, 200.0, omega_bar=16000.0)
    bath = mlsb.BathSpec.ohmic([100.0, 100.0], 50.0, 0.0)
    t = tracer.Tracer()
    try:
        t.install()
        solver = mlsb.build_oracle(system, bath, mlsb.OracleConfig(fock_levels=4))
        solver.coherences(mlsb.Thermo(300.0))
    finally:
        t.restore()
    (eigh,) = [span for span in t.spans if span[0] == "oracle.eigh"]
    parent, dim = eigh[3], eigh[5]
    assert parent[0] == "oracle.solver_init"
    assert dim == solver.dim == 2 * 4**2  # two sites, two uncorrelated modes
    assert [span[0] for span in t.spans].count("oracle.coherences") == 1
    # build_oracle discretizes through discretize_bath, so its layer is timed
    assert [span[0] for span in t.spans].count("oracle.discretize") == 1


def test_tracer_times_every_calculator_evaluate_dispatches():
    # evaluate looks its calculators up at each call, so it calls the
    # tracer's wrappers; a dispatch table built at import would hold the
    # unwrapped functions, and these spans, and their metrics, would be gone
    tracer = _load_tracer()
    system = mlsb.SiteSystem.dimer(200.0, 200.0, omega_bar=16000.0)
    bath = mlsb.BathSpec.ohmic([100.0, 100.0], 50.0, 0.0)
    th, cfg = mlsb.Thermo([200.0, 300.0]), mlsb.OracleConfig(fock_levels=4)
    methods = (mlsb.Method.Q2, mlsb.Method.HBAR3, mlsb.Method.ORACLE)
    t = tracer.Tracer()
    try:
        t.install()
        mlsb.evaluate(system, bath, methods, th, cfg)
        names = {span[0] for span in t.spans}
        mlsb.evaluate(system, bath, methods, th, cfg, q2_on_modes=True)
    finally:
        t.restore()
    assert {"quantum.q2", "hbar3.general", "oracle.solver_init", "oracle.eigh"} <= names
    assert "quantum.q2_modes" in {span[0] for span in t.spans} - names
