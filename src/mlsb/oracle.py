"""Brute-force reference: exact thermal state on a Fock-truncated bath.

The continuous bath is replaced by a finite set of modes whose couplings
reproduce the target reorganization-energy matrix exactly; the full
Hamiltonian on (excited subspace) x (truncated Fock space) is then written
in place, block by block, densely diagonalized, the thermal state formed, and
the bath traced out in one contraction.  Because the system-bath coupling is
site-diagonal, the excited subspace closes and no other sectors are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BathSpec,
    CoherenceResult,
    Method,
    ModelError,
    OhmicShape,
    SiteSystem,
    Thermo,
    exciton_setup,
    reorganization_matrix,
    site_hamiltonian,
)


@dataclass(frozen=True)
class DiscretizedBath:
    """Finite mode set (Omega_k, per-site coupling rows alpha[n, k]).

    Units: hbar * alpha_nk * Q_k is an energy, so with hbar = 1 the couplings
    satisfy E^r_mn = sum_k alpha_mk alpha_nk / (2 Omega_k^2).
    """

    omegas: np.ndarray
    alphas: np.ndarray
    target_e_r: np.ndarray
    residual: float
    tail_weight: float = 0.0

    def __post_init__(self):
        om = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        al = np.atleast_2d(np.asarray(self.alphas, dtype=float))
        if np.any(om <= 0):
            raise ModelError("discretized mode frequencies must be positive")
        if al.shape[1] != om.size:
            raise ModelError("alpha columns must match the mode count")
        om.setflags(write=False)
        al.setflags(write=False)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "alphas", al)

    @property
    def n_modes(self):
        return self.omegas.size


@dataclass(frozen=True)
class OracleConfig:
    """Discretization and truncation controls.

    n_modes     -- number of frequency bins K (each bin may expand into
                   several modes, one per independent coupling direction)
    fock_levels -- Fock levels M per mode
    omega_max   -- discretization upper cutoff; default 6x the Ohmic cutoff
    dim_cap     -- refuse to build Hamiltonians larger than this
    """

    n_modes: int = 1
    fock_levels: int = 8
    omega_max: float = None
    dim_cap: int = 20000

    def __post_init__(self):
        if self.n_modes < 1 or self.fock_levels < 2:
            raise ModelError("need n_modes >= 1 and fock_levels >= 2")
        if self.omega_max is not None and not 0 < self.omega_max < np.inf:
            raise ModelError("omega_max must be positive and finite")


def _psd_factor(matrix):
    """Columns g_j with sum_j g_j g_j^T = matrix; robust for singular PSD input."""
    evals, vecs = np.linalg.eigh(matrix)
    keep = evals > 1e-14 * max(float(evals[-1]), 1.0)
    return vecs[:, keep] * np.sqrt(evals[keep])


def discretize_bath(bath: BathSpec, cfg: OracleConfig) -> DiscretizedBath:
    """Replace the continuous bath by modes carrying exact shares of E^r.

    Ohmic shapes are partitioned into ``n_modes`` bins of equal
    reorganization weight int j(w)/w dw on [0, omega_max]; each bin's
    representative frequency is its reorganization-weighted mean.  Every bin
    carries exactly E^r / K, factored over independent coupling directions,
    so the recomputed reorganization matrix matches the target to rounding.
    The spectral weight beyond omega_max (folded back by the exact-share
    construction) is reported as ``tail_weight``.
    """
    target = reorganization_matrix(bath)
    if isinstance(bath.shape, OhmicShape):
        wc = bath.shape.cutoff
        omega_max = cfg.omega_max if cfg.omega_max is not None else 6.0 * wc
        k = cfg.n_modes
        t_max = omega_max / wc
        # equal bins of the weight (1/wc) exp(-w/wc): edges t_j solve
        # exp(-t_j) = (1 - j/k) + (j/k) exp(-t_max), stable far into the tail
        frac = np.arange(k + 1) / k
        edges_t = -np.log((1.0 - frac) + frac * np.exp(-t_max))
        ta, tb = edges_t[:-1], edges_t[1:]
        # reorganization-weighted bin mean, shifted to avoid underflow:
        # <t> = [(ta + 1) - (tb + 1) r] / (1 - r), r = exp(-(tb - ta))
        r = np.exp(-(tb - ta))
        bin_omegas = wc * ((ta + 1.0) - (tb + 1.0) * r) / (1.0 - r)
        shares = np.full(k, 1.0 / k)
        tail_weight = float(np.exp(-t_max))
    else:
        bin_omegas = bath.shape.omegas
        w = bath.shape.normalized_weights()
        shares = w / bin_omegas  # sums to 1 by normalization
        tail_weight = 0.0

    # every bin expands into one mode per independent coupling direction g,
    # alpha = g sqrt(2 share) Omega, bin-major
    factor = _psd_factor(target)
    omegas = np.repeat(bin_omegas, factor.shape[1])
    alphas = (
        factor[:, None, :] * np.sqrt(2.0 * shares)[:, None] * bin_omegas[:, None]
    ).reshape(target.shape[0], omegas.size)
    recomputed = (alphas / omegas) @ (alphas / omegas).T / 2.0
    scale = max(float(np.max(np.abs(target))), 1e-300)
    residual = float(np.max(np.abs(recomputed - target))) / scale
    return DiscretizedBath(
        omegas=omegas,
        alphas=alphas,
        target_e_r=target,
        residual=residual,
        tail_weight=tail_weight,
    )


class OracleSolver:
    """Dense-spectrum oracle; diagonalize once, evaluate many temperatures.

    H is built in place in the product basis |site> x |n_1 ... n_K>, mode 0
    slowest: the site Hamiltonian on the bath-diagonal of every site block,
    H_B = sum_k Omega_k n_k on the diagonal of the site-diagonal blocks, and
    each mode's coupling alpha_sk Q_k on its ladder elements, which sit
    m^(K-1-k) off the diagonal of block s.  Q_k = sqrt(1/(2 Omega_k))
    (a + a^dag) enters directly (no zero-point offset), and the constant bath
    zero-point energy sum_k Omega_k / 2 is dropped from H_B since it cancels
    in the normalized thermal state.
    """

    def __init__(self, sys: SiteSystem, dbath: DiscretizedBath, cfg: OracleConfig):
        self.sys = sys
        self.dbath = dbath
        self.cfg = cfg
        self.basis, _ = exciton_setup(sys, dbath)
        n = sys.n_sites
        m = cfg.fock_levels
        n_modes = dbath.n_modes
        bath_dim = m**n_modes
        dim = n * bath_dim
        if dim > cfg.dim_cap:
            raise ModelError(
                f"oracle dimension {dim} = {n} x {m}^{n_modes} exceeds cap "
                f"{cfg.dim_cap}"
            )

        h = np.zeros((dim, dim))
        blocks = h.reshape(n, bath_dim, n, bath_dim)
        sites = np.arange(n)[:, None]
        diag = np.arange(bath_dim)
        blocks[:, diag, :, diag] = site_hamiltonian(sys)
        occupations = np.indices((m,) * n_modes).reshape(n_modes, bath_dim)
        h_bath = np.zeros(bath_dim)
        for omega_k, n_k in zip(dbath.omegas, occupations):
            h_bath += omega_k * n_k
        blocks[sites, diag, sites, diag] += h_bath
        for k, (omega_k, n_k) in enumerate(zip(dbath.omegas, occupations)):
            lower = np.flatnonzero(n_k < m - 1)
            upper = lower + m ** (n_modes - 1 - k)
            q = np.sqrt(0.5 / omega_k) * np.sqrt(n_k[lower] + 1)
            coupling = np.outer(dbath.alphas[:, k], q)
            blocks[sites, lower, sites, upper] += coupling
            blocks[sites, upper, sites, lower] += coupling

        self.dim = dim
        self.bath_dim = bath_dim
        self.h_asymmetry = float(np.max(np.abs(h - h.T)))
        self.h_norm = float(np.max(np.abs(h)))
        try:
            self.energies, vecs = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise ModelError(
                f"eigendecomposition failed at dimension {dim} "
                f"({n} sites x {m}^{n_modes} Fock states): {exc}"
            ) from exc
        self.vectors_by_site = vecs.reshape(n, bath_dim, dim)

    def coherences(self, th: Thermo) -> CoherenceResult:
        w = np.exp(-th.beta * (self.energies - self.energies[0]))
        z = float(np.sum(w))
        v = self.vectors_by_site
        rho_site = np.einsum("mbi,nbi,i->mn", v, v, w)
        rho_site /= z
        c = self.basis.u @ rho_site @ self.basis.u.T
        asym = float(np.max(np.abs(c - c.T)))
        c = 0.5 * (c + c.T)
        return CoherenceResult(
            method=Method.ORACLE,
            c_matrix=c,
            err_est=0.0,
            meta={
                "dim": self.dim,
                "n_modes": self.dbath.n_modes,
                "fock_levels": self.cfg.fock_levels,
                "c_asymmetry": asym,
                "bath_residual": self.dbath.residual,
                "tail_weight": self.dbath.tail_weight,
                "omega_bar_defaulted": self.sys.omega_bar_defaulted,
            },
        )


@dataclass(frozen=True)
class ConvergenceSweep:
    entries: tuple          # ((n_modes, fock_levels, C12), ...)
    diffs: tuple            # successive C12 differences
    extrapolated: float
    uncertainty: float


def convergence_sweep(sys, bath, th, grid, cfg=None) -> ConvergenceSweep:
    """Evaluate C12 over a grid of (n_modes, fock_levels) truncations.

    The extrapolated value applies a geometric tail estimate when the last
    two differences shrink consistently; the quoted uncertainty is the last
    difference.
    """
    if cfg is None:
        cfg = OracleConfig()
    entries = []
    for k, m in grid:
        point_cfg = replace(cfg, n_modes=int(k), fock_levels=int(m))
        dbath = discretize_bath(bath, point_cfg)
        res = OracleSolver(sys, dbath, point_cfg).coherences(th)
        entries.append((int(k), int(m), res.c12))
    if not entries:
        raise ModelError("convergence_sweep needs at least one grid point")
    values = [e[2] for e in entries]
    diffs = tuple(b - a for a, b in zip(values[:-1], values[1:]))
    extrapolated = values[-1]
    uncertainty = abs(diffs[-1]) if diffs else float("inf")
    if len(diffs) >= 2 and abs(diffs[-2]) > 0:
        ratio = diffs[-1] / diffs[-2]
        if 0.0 < ratio < 0.9:
            extrapolated = values[-1] + diffs[-1] * ratio / (1.0 - ratio)
    return ConvergenceSweep(
        entries=tuple(entries),
        diffs=diffs,
        extrapolated=float(extrapolated),
        uncertainty=float(uncertainty),
    )
