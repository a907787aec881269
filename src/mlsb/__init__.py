"""Equilibrium stationary coherences of the multi-level spin-boson model."""

from .classical import (
    CorrelationEstimate,
    PhaseSampleEnsemble,
    classical_coherence,
    correlation_coherence,
    equipartition_ensemble,
    equipartition_state,
    thermal_gaussian_ensemble,
)
from .core import (
    DEFAULT_OMEGA_BAR,
    KB_CM_PER_K,
    BathSpec,
    CoherenceResult,
    ConvergenceError,
    DiscreteShape,
    ExcitonBasis,
    Method,
    ModelError,
    OhmicShape,
    SiteSystem,
    Thermo,
    UnsupportedConfigError,
    diagonalize_excited,
    populations_and_partition,
    reorganization_matrix,
    site_hamiltonian,
    validate_regime,
)
from .hbar3 import b2_term, hbar3_dimer, hbar3_general, hbar3_monte_carlo
from .oracle import (
    ConvergenceSweep,
    DiscretizedBath,
    OracleConfig,
    OracleSolver,
    convergence_sweep,
    discretize_bath,
)
from .phasespace import (
    PhaseGrid,
    grid_q_rms,
    render_figure2,
    rho10_classical,
    rho10_quantum,
    rho10_semiclassical,
    rho10_via_moyal,
    write_grid_csv,
)
from .quantum import (
    KernelEval,
    bose_occupation,
    kernel,
    quantum_coherence_2nd,
    quantum_coherence_2nd_modes,
    quantum_coherence_correlated,
    uncertainty_lower_bound,
)
from .semiclassical import (
    h_eff_theta,
    semiclassical_exact,
    semiclassical_second_order,
)

__version__ = "0.1.0"
