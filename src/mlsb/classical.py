"""Classical limit: the equipartition stationary state.

The classical analog of the model thermalizes to a coherence-free
equipartition state, so classical stationary coherences vanish identically at
every temperature and coupling strength.  This module encodes that result in
closed form: the coherence matrix has exact zeros off the diagonal.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BathSpec,
    CoherenceResult,
    Method,
    ModelError,
    SiteSystem,
    Thermo,
    check_integer,
    exciton_setup,
)


def equipartition_state(n_sites, excited_population):
    """Stationary classical state: excited_population/N per mode, no coherence."""
    check_integer(n_sites, "n_sites", 1)
    if not 0.0 <= excited_population <= 1.0:
        raise ModelError("excited_population must lie in [0, 1]")
    return np.diag(np.full(n_sites, excited_population / n_sites))


def classical_coherence(sys: SiteSystem, bath: BathSpec, th: Thermo) -> CoherenceResult:
    """Classical equilibrium coherences: exactly zero off the diagonal.

    The stationary state of the classical model is the equipartition state
    for every temperature and system-bath coupling, so the result depends on
    ``bath`` only through the check that it couples every site, and not on
    ``th``; a batch repeats the state once per temperature.  The
    excited-subspace population is 1, so the diagonal compares
    directly with quantum excited-subspace populations.
    """
    exciton_setup(sys, bath)
    state = equipartition_state(sys.n_sites, 1.0)
    return CoherenceResult(
        method=Method.CLASSICAL,
        c_matrix=np.broadcast_to(state, np.shape(th.temperature_K) + state.shape),
        err_est=0.0,
    )
