"""Classical limit: equipartition stationary state and correlation estimators.

The classical analog of the model thermalizes to a coherence-free
equipartition state, so classical stationary coherences vanish identically at
every temperature and coupling strength.  This module encodes that result
analytically and provides the phase-space correlation estimators that define
what a classical coherence *would* measure on a sample ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BathSpec,
    CoherenceResult,
    ExcitonBasis,
    Method,
    ModelError,
    SiteSystem,
    Thermo,
    KB_CM_PER_K,
    exciton_setup,
)


@dataclass(frozen=True)
class PhaseSampleEnsemble:
    """Weighted normal-mode phase-space samples at a fixed temperature.

    q, p have shape (n_samples, n_modes); weights are normalized to sum to 1.
    """

    q: np.ndarray
    p: np.ndarray
    temperature_K: float
    weights: np.ndarray = None

    def __post_init__(self):
        q = np.atleast_2d(np.array(self.q, dtype=float))
        p = np.atleast_2d(np.array(self.p, dtype=float))
        if q.shape != p.shape:
            raise ModelError("q and p sample arrays must have the same shape")
        if self.weights is None:
            w = np.full(q.shape[0], 1.0 / q.shape[0])
        else:
            w = np.array(self.weights, dtype=float)
            if w.shape != (q.shape[0],):
                raise ModelError("weights must have one entry per sample")
            if np.any(w < 0) or not np.any(w > 0):
                raise ModelError("weights must be non-negative, not all zero")
            w = w / np.sum(w)
        for arr in (q, p, w):
            arr.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "weights", w)

    @property
    def n_samples(self):
        return self.q.shape[0]

    @property
    def n_modes(self):
        return self.q.shape[1]


@dataclass(frozen=True)
class CorrelationEstimate:
    """Pairwise coherence estimators and their standard errors.

    re_p -- <p_mu p_nu> / kT, re_q -- w_mu w_nu <q_mu q_nu> / kT (equivalent
    estimators of the real part), im -- w_nu <p_mu q_nu> / kT.
    """

    re_p: np.ndarray
    re_q: np.ndarray
    im: np.ndarray
    se_re_p: np.ndarray
    se_re_q: np.ndarray
    se_im: np.ndarray


def equipartition_state(n_sites, pi_exc):
    """Stationary classical state: population pi_exc/N per mode, no coherence."""
    if not 0.0 <= pi_exc <= 1.0:
        raise ModelError("pi_exc must lie in [0, 1]")
    return np.diag(np.full(n_sites, pi_exc / n_sites))


def classical_coherence(sys: SiteSystem, bath: BathSpec, th: Thermo) -> CoherenceResult:
    """Classical equilibrium coherences: exactly zero off the diagonal.

    The stationary state of the classical model is the equipartition state
    for every temperature and system-bath coupling, so the result depends on
    ``bath`` only through the check that it couples every site, and not on
    ``th``.  The excited-subspace population is pi_exc = 1, so the diagonal
    compares directly with quantum excited-subspace populations.
    """
    exciton_setup(sys, bath)
    return CoherenceResult(
        method=Method.CLASSICAL,
        c_matrix=equipartition_state(sys.n_sites, 1.0),
        err_est=0.0,
        meta={
            "pi_exc": 1.0,
            "temperature_K": th.temperature_K,
            "omega_bar_defaulted": sys.omega_bar_defaulted,
        },
    )


def _weighted_stats(x, w):
    """Weighted means and standard errors over the sample axis 0 of ``x``."""
    mean = np.einsum("s,s...->...", w, x)
    var = np.einsum("s,s...->...", w, (x - mean) ** 2)
    n_eff = 1.0 / float(np.sum(w**2))
    return mean, np.sqrt(var / max(n_eff - 1.0, 1.0))


def correlation_coherence(
    ens: PhaseSampleEnsemble, basis: ExcitonBasis
) -> CorrelationEstimate:
    """Estimate coherences from normal-mode position/momentum correlations."""
    if ens.n_samples < 2:
        raise ModelError("need at least two samples to estimate correlations")
    if ens.n_modes != basis.n_sites:
        raise ModelError("ensemble mode count does not match basis")
    kt = KB_CM_PER_K * ens.temperature_K
    omega = basis.omega_mu
    p, q, w = ens.p, ens.q, ens.weights
    # (mu, nu) estimators over the samples: p_mu p_nu, q_mu q_nu, p_mu q_nu
    m_p, s_p = _weighted_stats(p[:, :, None] * p[:, None, :], w)
    m_q, s_q = _weighted_stats(q[:, :, None] * q[:, None, :], w)
    m_i, s_i = _weighted_stats(p[:, :, None] * q[:, None, :], w)
    scale = np.outer(omega, omega) / kt
    return CorrelationEstimate(
        re_p=m_p / kt,
        re_q=m_q * scale,
        im=m_i * omega / kt,
        se_re_p=s_p / kt,
        se_re_q=s_q * scale,
        se_im=s_i * omega / kt,
    )


def thermal_gaussian_ensemble(basis, temperature_K, n_samples, rng):
    """Independent thermal samples: q_mu ~ N(0, kT/w^2), p_mu ~ N(0, kT)."""
    kt = KB_CM_PER_K * temperature_K
    om = basis.omega_mu
    q = rng.standard_normal((n_samples, om.size)) * np.sqrt(kt) / om
    p = rng.standard_normal((n_samples, om.size)) * np.sqrt(kt)
    return PhaseSampleEnsemble(q=q, p=p, temperature_K=temperature_K)


def equipartition_ensemble(basis, temperature_K, action, n_samples, rng):
    """Fixed-action samples with independent uniform angles per mode."""
    om = basis.omega_mu
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(n_samples, om.size))
    q = np.sqrt(2.0 * action / om) * np.cos(theta)
    p = -np.sqrt(2.0 * action * om) * np.sin(theta)
    return PhaseSampleEnsemble(q=q, p=p, temperature_K=temperature_K)
