"""Phase-space distributions of the fundamental coherence of one oscillator.

Classical, action-quantized semiclassical, and Wigner (quantum)
representations of the |1><0| coherence state.  All three share the angular
factor (w q - i p) ~ exp(i theta); they differ in their radial profiles:
a thermal Gaussian of width ~ sqrt(2 kT), a ring on the action shell J = hbar,
and a Gaussian of width ~ sqrt(hbar w).  The ring is smeared to the fixed
radial width DELTA_WIDTH sqrt(hbar w).

hbar = 1 throughout; grids are expressed in the oscillator natural units
sqrt(hbar/w) for q and sqrt(hbar w) for p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KB_CM_PER_K, ModelError, Thermo

DELTA_WIDTH = 0.1  # radial width of the action-shell delta, in sqrt(hbar w)


@dataclass(frozen=True)
class PhaseGrid:
    """Complex-valued distribution sampled on a rectangular (q, p) grid.

    values[i, j] is the distribution at (q_values[i], p_values[j]); the
    coordinates are in natural oscillator units.
    """

    q_values: np.ndarray
    p_values: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q_values, dtype=float))
        p = np.atleast_1d(np.asarray(self.p_values, dtype=float))
        v = np.asarray(self.values)
        if q.size < 2 or p.size < 2:
            raise ModelError("grids need at least two points per axis")
        if v.shape != (q.size, p.size):
            raise ModelError("values shape does not match the grid")
        if not np.all(np.isfinite(v)):
            raise ModelError("grid contains non-finite values")
        object.__setattr__(self, "q_values", q)
        object.__setattr__(self, "p_values", p)
        object.__setattr__(self, "values", v)


def rho10_classical(q, p, omega, th: Thermo):
    """Classical |1><0| analog: thermal Gaussian times the angular factor."""
    kt = KB_CM_PER_K * th.temperature_K
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    amp = (omega * q - 1j * p) / np.sqrt(2.0 * kt)
    return omega / (2.0 * np.pi * kt) * amp * np.exp(
        -(omega**2 * q**2 + p**2) / (2.0 * kt)
    )


def rho10_semiclassical(q, p, omega):
    """Action-shell state: angular factor times a smeared delta at J = hbar.

    The radial width in the momentum-like coordinate sqrt(w^2 q^2 + p^2) is
    delta_width = DELTA_WIDTH sqrt(hbar w); the delta itself is realized as a
    normalized Gaussian in the action with
    sigma_J = delta_width * sqrt(2 hbar / w), which reproduces that radial
    thickness on the shell.
    """
    delta_width = DELTA_WIDTH * np.sqrt(omega)
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    amp = (omega * q - 1j * p) / np.sqrt(2.0 * omega)
    action = (omega**2 * q**2 + p**2) / (2.0 * omega)
    sigma = delta_width * np.sqrt(2.0 / omega)
    gauss = np.exp(-((action - 1.0) ** 2) / (2.0 * sigma**2)) / (
        sigma * np.sqrt(2.0 * np.pi)
    )
    return amp * gauss


def rho10_quantum(q, p, omega):
    """Wigner transform of |1><0| for a harmonic oscillator."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    amp = (omega * q - 1j * p) / np.sqrt(2.0 * omega)
    return 2.0 / np.pi * amp * np.exp(-(omega**2 * q**2 + p**2) / omega)


def rho10_via_moyal(q, p, omega):
    """|1><0| Wigner function built from the phase-space product rule.

    Applies the raising-operator symbol to the ground-state Wigner function
    through the gradient series of the phase-space product.  The symbol is
    linear in (q, p), so the series terminates exactly at first order:

        [a^dag rho]_W = A W + (hbar / 2i) (dA/dp dW/dq - dA/dq dW/dp).

    Independent of rho10_quantum; the two must agree pointwise.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    w0 = np.exp(-(omega**2 * q**2 + p**2) / omega) / np.pi
    a_sym = (omega * q - 1j * p) / np.sqrt(2.0 * omega)
    da_dp = -1j / np.sqrt(2.0 * omega)
    da_dq = omega / np.sqrt(2.0 * omega)
    dw_dq = -2.0 * omega * q * w0
    dw_dp = -(2.0 / omega) * p * w0
    return a_sym * w0 + (1.0 / 2j) * (da_dp * dw_dq - da_dq * dw_dp)


def _natural_grids(omega, n_grid, extent):
    coords = np.linspace(-extent, extent, n_grid)
    q_phys = coords / np.sqrt(omega)   # q in units of sqrt(hbar/w)
    p_phys = coords * np.sqrt(omega)   # p in units of sqrt(hbar w)
    return coords, q_phys, p_phys


def render_figure2(omega, th: Thermo, n_grid=241, extent=4.0):
    """Evaluate the three distributions on a shared natural-units grid.

    Returns (grids, meta): grids maps 'classical'/'semiclassical'/'quantum'
    to PhaseGrid objects normalized to unit maximum |Re|, and meta records
    the classical sqrt(2 kT) and quantum sqrt(hbar w) width scales.  The
    oscillator frequency ``omega`` must be positive and finite.
    """
    if not 0 < omega < np.inf:
        raise ModelError("oscillator frequency omega must be positive and finite")
    coords, q_phys, p_phys = _natural_grids(omega, n_grid, extent)
    qg, pg = np.meshgrid(q_phys, p_phys, indexing="ij")
    raw = {
        "classical": rho10_classical(qg, pg, omega, th),
        "semiclassical": rho10_semiclassical(qg, pg, omega),
        "quantum": rho10_quantum(qg, pg, omega),
    }
    grids = {}
    for name, values in raw.items():
        peak = float(np.max(np.abs(values.real)))
        if peak == 0.0:
            raise ModelError(f"{name} distribution vanished on the grid")
        grids[name] = PhaseGrid(
            q_values=coords, p_values=coords, values=values / peak
        )
    kt = KB_CM_PER_K * th.temperature_K
    meta = {
        "scale_classical": float(np.sqrt(2.0 * kt)),
        "scale_quantum": float(np.sqrt(omega)),
        "width_ratio": float(np.sqrt(2.0 * kt / omega)),
        "delta_width": float(DELTA_WIDTH * np.sqrt(omega)),
        "delta_profile": "gaussian",
    }
    return grids, meta


def grid_q_rms(grid: PhaseGrid):
    """Root-mean-square q of |Re values| over the grid (natural units)."""
    weight = np.abs(grid.values.real)
    total = float(np.sum(weight))
    mom2 = float(np.sum(weight * grid.q_values[:, None] ** 2))
    return np.sqrt(mom2 / total)


def write_grid_csv(grid: PhaseGrid, path):
    """CSV dump: header q,p,re,im; row-major over q then p; 17 digits; LF."""
    with open(path, "w", newline="\n") as fh:
        fh.write("q,p,re,im\n")
        for i, qv in enumerate(grid.q_values):
            row = grid.values[i]
            for pv, val in zip(grid.p_values, row):
                fh.write(
                    f"{qv:.17g},{pv:.17g},{val.real:.17g},{val.imag:.17g}\n"
                )
