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
    DiscretizedBath,
    Method,
    ModelError,
    OhmicShape,
    SiteSystem,
    Thermo,
    check_bath_type,
    check_integer,
    check_one_temperature,
    diagonalize_excited,
    exciton_setup,
    over_batches,
    reorganization_matrix,
    site_hamiltonian,
)

OHMIC_WINDOW = 6.0  # Ohmic bins cover [0, OHMIC_WINDOW * cutoff]


@dataclass(frozen=True)
class OracleConfig:
    """Discretization and truncation controls.

    n_modes     -- number of frequency bins K (each bin may expand into
                   several modes, one per independent coupling direction)
    fock_levels -- Fock levels M per mode
    dim_cap     -- refuse to build Hamiltonians larger than this
    """

    n_modes: int = 1
    fock_levels: int = 8
    dim_cap: int = 20000

    def __post_init__(self):
        check_integer(self.n_modes, "n_modes", 1)
        check_integer(self.fock_levels, "fock_levels", 2)
        check_integer(self.dim_cap, "dim_cap", 1)


def _psd_factor(matrix):
    """Columns g_j with sum_j g_j g_j^T = matrix; robust for singular PSD input."""
    evals, vecs = np.linalg.eigh(matrix)
    keep = evals > 1e-14 * max(float(evals[-1]), 1.0)
    return vecs[:, keep] * np.sqrt(evals[keep])


def discretize_bath(bath: BathSpec, cfg: OracleConfig) -> DiscretizedBath:
    """Replace the continuous bath by modes carrying exact shares of E^r.

    Ohmic shapes are partitioned into ``n_modes`` bins of equal
    reorganization weight int j(w)/w dw on [0, OHMIC_WINDOW * wc]; each bin's
    representative frequency is its reorganization-weighted mean.  Every bin
    carries exactly E^r / K, factored over independent coupling directions,
    so the recomputed reorganization matrix matches the target to rounding:
    the e^-6 (about 0.25%) of the weight beyond the window is folded back
    into the bins.
    """
    check_bath_type(bath, BathSpec, "discretize_bath")
    target = reorganization_matrix(bath)
    if isinstance(bath.shape, OhmicShape):
        wc = bath.shape.cutoff
        k = cfg.n_modes
        # equal bins of the weight (1/wc) exp(-w/wc): edges t_j solve
        # exp(-t_j) = (1 - j/k) + (j/k) exp(-OHMIC_WINDOW)
        frac = np.arange(k + 1) / k
        edges_t = -np.log((1.0 - frac) + frac * np.exp(-OHMIC_WINDOW))
        ta, tb = edges_t[:-1], edges_t[1:]
        # reorganization-weighted bin mean, shifted to avoid underflow:
        # <t> = [(ta + 1) - (tb + 1) r] / (1 - r), r = exp(-(tb - ta))
        r = np.exp(-(tb - ta))
        bin_omegas = wc * ((ta + 1.0) - (tb + 1.0) * r) / (1.0 - r)
        shares = np.full(k, 1.0 / k)
    else:
        bin_omegas = bath.shape.omegas
        w = bath.shape.normalized_weights()
        shares = w / bin_omegas  # sums to 1 by normalization

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
    return DiscretizedBath(omegas=omegas, alphas=alphas, residual=residual)


def _hamiltonian(h_site, dbath: DiscretizedBath, fock_levels: int, dim_cap: int):
    """Dense H in the product basis |site> x |n_1 ... n_K>, mode 0 slowest.

    H is written in place: ``h_site`` on the bath-diagonal of every N x N
    site block, H_B = sum_k Omega_k n_k on the diagonal of the site-diagonal
    blocks, and each mode's coupling alpha_sk Q_k on its ladder elements,
    which sit m^(K-1-k) off the diagonal of block s.  Q_k = sqrt(1/(2 Omega_k))
    (a + a^dag) enters directly (no zero-point offset), and the constant bath
    zero-point energy sum_k Omega_k / 2 is dropped from H_B since it cancels
    in the normalized thermal state.  N x m^K is checked against ``dim_cap`` first.
    """
    n = h_site.shape[0]
    m = fock_levels
    n_modes = dbath.n_modes
    bath_dim = _checked_dimension(n, m, n_modes, dim_cap) // n
    h = np.zeros((n * bath_dim, n * bath_dim))
    blocks = h.reshape(n, bath_dim, n, bath_dim)
    sites = np.arange(n)[:, None]
    diag = np.arange(bath_dim)
    blocks[:, diag, :, diag] = h_site
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
    return h


def _checked_dimension(n_sites, fock_levels, n_modes, dim_cap):
    """The oracle dimension n x m^K, or ModelError when it exceeds dim_cap.

    The power is built one factor at a time and abandoned once past the cap,
    and the refusal names it in factored form, so an absurd truncation costs
    neither time nor a many-thousand-digit integer.
    """
    dim = n_sites
    for _ in range(n_modes):
        if dim > dim_cap:
            break
        dim *= fock_levels
    if dim > dim_cap:
        raise ModelError(
            f"oracle dimension {n_sites} x {fock_levels}^{n_modes} exceeds cap "
            f"{dim_cap}"
        )
    return dim


def build_oracle(sys: SiteSystem, bath: BathSpec, cfg: OracleConfig):
    """OracleSolver for ``bath`` discretized under ``cfg``.

    The mode count, bins times independent coupling directions, is known
    before discretizing, so a truncation over ``cfg.dim_cap`` is refused
    before any O(n_modes) array is made.
    """
    check_bath_type(bath, BathSpec, "build_oracle")
    bins = cfg.n_modes if isinstance(bath.shape, OhmicShape) else bath.shape.omegas.size
    directions = _psd_factor(reorganization_matrix(bath)).shape[1]
    _checked_dimension(sys.n_sites, cfg.fock_levels, bins * directions, cfg.dim_cap)
    return OracleSolver(sys, discretize_bath(bath, cfg), cfg)


def _site_weights(vecs, n_sites):
    """The bath traced out of each eigenvector: W[m, n, i] = sum_b V[m b, i] V[n b, i]."""
    v = vecs.reshape(n_sites, -1, vecs.shape[1])
    return np.einsum("mbi,nbi->mni", v, v)


class OracleSolver:
    """Dense-spectrum oracle; diagonalize once, evaluate many temperatures.

    H comes from _hamiltonian, which checks n x m^K against ``cfg.dim_cap``.
    Only the eigenvectors' site weights (n^2 x dim numbers, not dim^2) are
    kept, so site_state is one Boltzmann-weighted contraction per temperature.
    """

    def __init__(self, sys: SiteSystem, dbath: DiscretizedBath, cfg: OracleConfig):
        check_bath_type(dbath, DiscretizedBath, "OracleSolver")
        exciton_setup(sys, dbath)  # refuses a bath for another site count
        self.sys = sys
        self.dbath = dbath
        self.cfg = cfg
        try:
            self.energies, vecs = np.linalg.eigh(
                _hamiltonian(site_hamiltonian(sys), dbath, cfg.fock_levels, cfg.dim_cap))
        except np.linalg.LinAlgError as exc:
            raise ModelError(
                f"eigendecomposition failed for {sys.n_sites} sites x "
                f"{cfg.fock_levels}^{dbath.n_modes} Fock states: {exc}"
            ) from exc
        self.dim = self.energies.size
        self.site_weights = _site_weights(vecs, sys.n_sites)

    def site_state(self, th: Thermo):
        """Site-basis reduced state shaped like ``th``, (N, N) or (T, N, N); one
        einsum per temperature, so a batch row equals its temperature alone."""
        betas = np.atleast_1d(th.beta)
        gaps = self.energies - self.energies[0]

        def run(sl):
            w = np.exp(-np.multiply.outer(betas[sl], gaps))
            rho_site = np.einsum("mni,ti->tmn", self.site_weights, w)
            return (rho_site / np.sum(w, axis=-1)[:, None, None],)

        (rho_site,) = over_batches(run, [gaps.size] * betas.size)
        return rho_site.reshape(np.shape(th.beta) + rho_site.shape[1:])

    def coherences(self, th: Thermo) -> CoherenceResult:
        """site_state rotated into the exciton basis of ``sys`` and symmetrized."""
        u = diagonalize_excited(self.sys).u
        c = u @ self.site_state(th) @ u.T
        asym = np.max(np.abs(c - np.swapaxes(c, -1, -2)), axis=(-2, -1))
        c = 0.5 * (c + np.swapaxes(c, -1, -2))
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
                "omega_bar_defaulted": self.sys.omega_bar_defaulted,
            },
        )


@dataclass(frozen=True)
class ConvergenceSweep:
    entries: tuple          # ((n_modes, fock_levels, C12), ...)
    diffs: tuple            # successive C12 differences
    uncertainty: float


def convergence_sweep(sys, bath, th, grid, cfg=None) -> ConvergenceSweep:
    """Evaluate C12 over a grid of (n_modes, fock_levels) truncations.

    The quoted uncertainty is the last difference.  Each point goes through
    OracleConfig unconverted, so a float or bool entry is refused, and a
    temperature batch is refused before anything is solved.
    """
    check_one_temperature(th, "convergence_sweep")
    if cfg is None:
        cfg = OracleConfig()
    entries = []
    for k, m in grid:
        point_cfg = replace(cfg, n_modes=k, fock_levels=m)
        res = build_oracle(sys, bath, point_cfg).coherences(th)
        entries.append((int(k), int(m), res.c12))
    if not entries:
        raise ModelError("convergence_sweep needs at least one grid point")
    values = [e[2] for e in entries]
    diffs = tuple(b - a for a, b in zip(values[:-1], values[1:]))
    uncertainty = abs(diffs[-1]) if diffs else float("inf")
    return ConvergenceSweep(
        entries=tuple(entries),
        diffs=diffs,
        uncertainty=float(uncertainty),
    )
