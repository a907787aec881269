"""Core types and exciton-basis machinery for the multi-level spin-boson model.

Conventions used throughout the package:

* hbar = 1, and every energy and frequency is stored in cm^-1 (wavenumber)
  units, so a quantity quoted as ``2*pi*c * X cm^-1`` is stored simply as X.
* Temperatures are in kelvin; ``KB_CM_PER_K`` converts k_B*T to cm^-1.
* All Hamiltonians are real symmetric matrices, so equilibrium coherence
  matrices are real and symmetric in the exciton basis.
* Exciton eigenvectors are the rows of a real orthogonal matrix ``u`` sorted
  by ascending eigenfrequency, with the sign of each row fixed so that its
  largest-magnitude entry is non-negative.  This pins down the otherwise
  arbitrary sign of every off-diagonal coherence.
* Every calculator starts from ``exciton_setup`` (exciton basis, E^r and the
  check that the bath couples every site) and takes its zeroth-order
  populations from ``populations_and_partition``; ``zeroth_order_result``
  puts them on the diagonal of the closed-form results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

KB_CM_PER_K = 0.6950348        # Boltzmann constant (cm^-1 per kelvin)
DEFAULT_OMEGA_BAR = 16000.0    # fallback mean electronic gap (cm^-1)

_SYM_TOL = 1e-12


class ModelError(ValueError):
    """Invalid model input (shape, symmetry or range violation)."""

    index = None  # when set, the first row of a temperature batch it concerns


class UnsupportedConfigError(ModelError):
    """Input is valid but outside the validity domain of the method."""


class ConvergenceError(RuntimeError):
    """Iterative refinement failed; carries the last two estimates and, for a
    temperature batch, the row that failed."""

    def __init__(self, message, estimates=(), index=None):
        super().__init__(message)
        self.estimates = tuple(estimates)
        self.index = index


class Method(Enum):
    CLASSICAL = "classical"
    SC_EXACT = "sc-exact"
    SC2 = "sc-2"
    Q2 = "q-2"
    HBAR3 = "hbar3"
    ORACLE = "oracle"


def _check_square(a, name):
    if np.ndim(a) != 2 or np.shape(a)[0] != np.shape(a)[1]:
        raise ModelError(f"{name} must be a square matrix, got shape {np.shape(a)}")


def _check_rows(bad, message):
    """ModelError at the first batch row where ``bad`` (0-d or 1-d) is set."""
    bad = np.ravel(bad)
    if bad.any():
        exc = ModelError(message)
        exc.index = int(np.argmax(bad))
        raise exc


def _check_finite(a, name):
    if not np.all(np.isfinite(a)):
        raise ModelError(f"{name} must be finite")


def check_integer(value, name, low, high=None):
    """ModelError unless ``value`` is an int or a numpy integer, not a bool,
    at least ``low`` and, unless ``high`` is None, at most ``high``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ModelError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ModelError(f"{name} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ModelError(f"{name} must be at most {high}, got {value}")


def check_bath_type(bath, kind, caller):
    """ModelError unless ``bath`` is a ``kind`` (BathSpec or DiscretizedBath),
    the one bath type ``caller`` takes."""
    if not isinstance(bath, kind):
        raise ModelError(f"{caller} takes a {kind.__name__}, got {type(bath).__name__}")


def check_one_temperature(th, caller):
    """ModelError when ``th`` is a temperature batch, which ``caller`` refuses."""
    if np.ndim(th.temperature_K):
        raise ModelError(f"{caller} takes one temperature, not a batch")


def _store_arrays(obj, **values):
    """Set each named field of the frozen ``obj`` to a read-only float64 copy of
    its value (a 0-d value to a float), so the caller's arrays stay its own;
    returns the stored values in argument order."""
    stored = []
    for name, value in values.items():
        a = np.array(value, dtype=float)
        a.setflags(write=False)
        stored.append(float(a) if a.ndim == 0 else a)
        object.__setattr__(obj, name, stored[-1])
    return stored


def _check_symmetric(a, name, tol=_SYM_TOL):
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1), initial=0.0))
    asym = np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-2, -1), initial=0.0)
    _check_rows(asym > tol * scale,
                f"{name} is not symmetric (max asymmetry {np.max(asym):.3e})")


BATCH_ELEMENTS = 2**21  # float64 elements (16 MB) one batch's largest array may hold


def over_batches(fn, sizes):
    """Tuple outputs of ``fn(run)`` over slices ``run`` of a temperature batch,
    joined on axis 0; ``sizes`` are each temperature's elements of the largest
    array, and a run holds at most BATCH_ELEMENTS of them (or one temperature).
    """
    runs, start, total = [], 0, 0
    for i, size in enumerate(sizes):
        if i > start and total + size > BATCH_ELEMENTS:
            runs.append(slice(start, i))
            start, total = i, 0
        total += size
    runs.append(slice(start, len(sizes)))
    return tuple(np.concatenate(parts) for parts in zip(*map(fn, runs)))


@dataclass(frozen=True)
class SiteSystem:
    """Site frequencies and inter-site couplings of the excitonic system.

    omega      -- site excitation frequencies omega_n (cm^-1), length N >= 2
    coupling   -- symmetric N x N coupling matrix V_nm (cm^-1), zero diagonal
    """

    omega: np.ndarray
    coupling: np.ndarray
    # set by diagonalize_excited on first use; the system is immutable
    _basis: ExcitonBasis | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        omega, coupling = _store_arrays(
            self, omega=np.atleast_1d(self.omega), coupling=self.coupling)
        _check_square(coupling, "coupling")
        if omega.ndim != 1:
            raise ModelError("omega must be a 1-d sequence of frequencies")
        if omega.size < 2:
            raise ModelError("at least two sites are required")
        if coupling.shape != (omega.size, omega.size):
            raise ModelError(
                f"coupling shape {coupling.shape} does not match {omega.size} sites"
            )
        _check_finite(omega, "omega")
        _check_finite(coupling, "coupling")
        _check_symmetric(coupling, "coupling")
        if np.any(np.diagonal(coupling) != 0.0):
            raise ModelError("coupling diagonal must be exactly zero")

    @property
    def n_sites(self):
        return self.omega.size

    @property
    def omega_bar(self):
        return float(np.mean(self.omega))

    @classmethod
    def dimer(cls, delta, v12, omega_bar=None):
        """Two-site system with site splitting ``delta`` = omega_2 - omega_1.

        When ``omega_bar`` is omitted the mean frequency defaults to
        ``DEFAULT_OMEGA_BAR`` (typical bio-chromophore scale).
        """
        ob = DEFAULT_OMEGA_BAR if omega_bar is None else float(omega_bar)
        omega = np.array([ob - delta / 2.0, ob + delta / 2.0])
        coupling = np.array([[0.0, float(v12)], [float(v12), 0.0]])
        return cls(omega, coupling)


@dataclass(frozen=True)
class OhmicShape:
    """Ohmic spectral shape with exponential cutoff: j(w) = (w/wc) exp(-w/wc)."""

    cutoff: float

    def __post_init__(self):
        if not 0 < self.cutoff < np.inf:
            raise ModelError("Ohmic cutoff must be positive and finite")


@dataclass(frozen=True)
class DiscreteShape:
    """Finite set of spectral-density lines (frequency, relative weight)."""

    omegas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        om, wt = _store_arrays(self, omegas=np.atleast_1d(self.omegas),
                               weights=np.atleast_1d(self.weights))
        if om.shape != wt.shape or om.ndim != 1 or om.size == 0:
            raise ModelError("discrete shape needs matching 1-d omegas/weights")
        _check_finite(om, "discrete mode frequencies")
        _check_finite(wt, "discrete weights")
        if np.any(om <= 0):
            raise ModelError("discrete mode frequencies must be positive")
        if np.any(wt < 0) or not np.any(wt > 0):
            raise ModelError("discrete weights must be non-negative, not all zero")

    def normalized_weights(self):
        """Weights w_k rescaled so that sum_k w_k / Omega_k = 1.

        With this normalization, J_mn(w) = E^r_mn * sum_k w_k delta(w - W_k)
        satisfies the reorganization-energy sum rule int J/w dw = E^r.
        """
        w = self.weights / np.sum(self.weights / self.omegas)
        return w


def _correlation_matrix(correlation, n):
    """Scalar c -> n x n matrix of c with unit diagonal; matrices pass through."""
    if np.ndim(correlation) == 0:
        corr = np.full((n, n), float(correlation))
        np.fill_diagonal(corr, 1.0)
        return corr
    return np.array(correlation, dtype=float)


@dataclass(frozen=True)
class BathSpec:
    """Spectral-density family: shape plus reorganization/ correlation data.

    reorg_diag  -- per-site reorganization energies E^r_nn (cm^-1)
    correlation -- symmetric matrix c_mn with unit diagonal, |c_mn| <= 1;
                   E^r_mn = c_mn * sqrt(E^r_mm E^r_nn) must be positive
                   semidefinite (it is a Gram matrix of coupling vectors).
    """

    shape: object
    reorg_diag: np.ndarray
    correlation: np.ndarray

    def __post_init__(self):
        if not isinstance(self.shape, (OhmicShape, DiscreteShape)):
            raise ModelError("shape must be OhmicShape or DiscreteShape")
        diag, corr = _store_arrays(self, reorg_diag=np.atleast_1d(self.reorg_diag),
                                   correlation=self.correlation)
        if diag.size == 0:
            raise ModelError("reorg_diag must list at least one site")
        _check_square(corr, "correlation")
        _check_finite(diag, "reorganization energies")
        _check_finite(corr, "correlation")
        if np.any(diag < 0):
            raise ModelError("reorganization energies must be non-negative")
        if corr.shape != (diag.size, diag.size):
            raise ModelError("correlation shape does not match reorg_diag")
        _check_symmetric(corr, "correlation")
        if np.any(np.abs(np.diagonal(corr) - 1.0) > 1e-12):
            raise ModelError("correlation diagonal must be 1")
        if np.any(np.abs(corr) > 1.0 + 1e-12):
            raise ModelError("correlation entries must satisfy |c| <= 1")
        e_r = reorganization_matrix(self)
        evals = np.linalg.eigvalsh(e_r)
        floor = -1e-10 * max(1.0, float(np.max(np.abs(e_r))))
        if evals[0] < floor:
            raise ModelError(
                "reorganization matrix is not positive semidefinite "
                f"(eigenvalue {evals[0]:.6e})"
            )

    @property
    def n_sites(self):
        return self.reorg_diag.size

    @classmethod
    def ohmic(cls, reorg_diag, cutoff, correlation=0.0):
        """Ohmic bath; scalar ``correlation`` fills every off-diagonal c_mn."""
        corr = _correlation_matrix(correlation, np.size(reorg_diag))
        return cls(OhmicShape(float(cutoff)), reorg_diag, corr)

    @classmethod
    def discrete(cls, omegas, weights, reorg_diag, correlation=0.0):
        corr = _correlation_matrix(correlation, np.size(reorg_diag))
        return cls(DiscreteShape(omegas, weights), reorg_diag, corr)


@dataclass(frozen=True)
class DiscretizedBath:
    """Finite mode set (Omega_k, per-site coupling rows alpha[n, k]).

    Units: hbar * alpha_nk * Q_k is an energy, so with hbar = 1 the couplings
    satisfy E^r_mn = sum_k alpha_mk alpha_nk / (2 Omega_k^2).
    """

    omegas: np.ndarray
    alphas: np.ndarray
    residual: float

    def __post_init__(self):
        om, al, residual = _store_arrays(
            self, omegas=np.atleast_1d(self.omegas), alphas=np.atleast_2d(self.alphas),
            residual=self.residual)
        if om.ndim != 1 or al.ndim != 2:
            raise ModelError("discretized bath needs 1-d omegas and 2-d alphas")
        if np.ndim(residual) != 0 or not np.isfinite(residual):
            raise ModelError("discretized residual must be a finite number")
        _check_finite(om, "discretized mode frequencies")
        _check_finite(al, "discretized couplings")
        if np.any(om <= 0):
            raise ModelError("discretized mode frequencies must be positive")
        if al.shape[1] != om.size:
            raise ModelError("alpha columns must match the mode count")

    @property
    def n_modes(self):
        return self.omegas.size


@dataclass(frozen=True)
class ExcitonBasis:
    """Real orthogonal transform to the eigenbasis of the excited subspace.

    u              -- rows are exciton eigenvectors over sites (u[mu, m])
    delta_omega_mu -- eigenfrequencies relative to omega_bar (cm^-1), ascending
    """

    u: np.ndarray
    delta_omega_mu: np.ndarray

    def __post_init__(self):
        _store_arrays(self, u=self.u, delta_omega_mu=self.delta_omega_mu)

    @property
    def n_sites(self):
        return self.delta_omega_mu.size


@dataclass(frozen=True)
class Thermo:
    """Temperature in kelvin, or a batch: a 1-d read-only array of them, each
    positive and finite with a finite ``beta`` = 1/(k_B T) (so at least about
    8.0e-309 K); ``beta`` and ``kt`` follow elementwise.  Every calculator
    evaluates a batch at once (see CoherenceResult).
    """

    temperature_K: float | np.ndarray

    def __post_init__(self):
        (t,) = _store_arrays(self, temperature_K=self.temperature_K)
        if np.ndim(t) > 1 or np.size(t) == 0:
            raise ModelError("temperature must be one value or a 1-d array")
        _check_rows(~(np.isfinite(t) & (t > 0)), "temperature must be positive and finite")
        with np.errstate(over="ignore"):
            _check_rows(~np.isfinite(self.beta),
                        "temperature is too small: beta = 1/(k_B T) overflows")

    @property
    def beta(self):
        """Inverse thermal energy 1/(k_B T) in cm."""
        return 1.0 / (KB_CM_PER_K * self.temperature_K)

    @property
    def kt(self):
        """Thermal energy k_B T in cm^-1."""
        return KB_CM_PER_K * self.temperature_K


@dataclass(frozen=True)
class Diagnostics:
    """What a calculator measured making a result, None where it measures
    nothing; the arrays, one entry per temperature, are stored read-only."""

    n_points: np.ndarray | None = None     # sc-exact: angle-rule points
    z2: np.ndarray | None = None           # q-2: trace of the bare 2nd-order matrix
    dim: int | None = None                 # oracle: Hamiltonian dimension,
    n_modes: int | None = None             # discretized mode count,
    fock_levels: int | None = None         # Fock levels per mode,
    c_asymmetry: np.ndarray | None = None  # asymmetry before symmetrizing,
    bath_residual: float | None = None     # and the bath's relative E^r residual

    def __post_init__(self):
        arrays = {"n_points": self.n_points, "z2": self.z2, "c_asymmetry": self.c_asymmetry}
        _store_arrays(self, **{name: a for name, a in arrays.items() if a is not None})


@dataclass(frozen=True)
class CoherenceResult:
    """Coherence matrix produced by one of the calculators.

    c_matrix is real symmetric; off-diagonals are exciton-basis stationary
    coherences, diagonals populations where the method computes them.  For
    one temperature c_matrix is N x N and err_est a float; for a batch of T
    (see Thermo) they are (T, N, N) and (T,), row i at the i-th temperature,
    and a failed check's ModelError.index is the first row that fails it.
    """

    method: Method
    c_matrix: np.ndarray
    err_est: float | np.ndarray = 0.0
    diagnostics: Diagnostics = Diagnostics()

    def __post_init__(self):
        (c,) = _store_arrays(self, c_matrix=self.c_matrix)
        if np.ndim(c) not in (2, 3) or c.shape[-1] != c.shape[-2]:
            raise ModelError(f"c_matrix must be square matrices, got shape {np.shape(c)}")
        (err,) = _store_arrays(self, err_est=np.broadcast_to(self.err_est, c.shape[:-2]))
        _check_rows(~np.all(np.isfinite(c), axis=(-2, -1)), "c_matrix must be finite")
        _check_symmetric(c, "c_matrix")
        _check_rows(~np.isfinite(err), "err_est must be finite")
        _check_rows(err < 0, "err_est must be non-negative")

    @property
    def c12(self):
        """C_12: a float for one temperature, a (T,) array for a batch."""
        c12 = self.c_matrix[..., 0, 1]
        return float(c12) if c12.ndim == 0 else c12

    @property
    def populations(self):
        return np.diagonal(self.c_matrix, axis1=-2, axis2=-1).copy()

    @property
    def inadmissible(self):
        """(row, m, n, |C_mn|, bound) for each row (0 for one temperature)
        where some |C_mn| exceeds its bound sqrt(C_mm C_nn) + err_est, at the
        pair with the largest excess.  Every density matrix obeys the bound;
        a perturbative result outside its validity domain can break it."""
        c = self.c_matrix.reshape((-1,) + self.c_matrix.shape[-2:])
        pops = np.maximum(np.diagonal(c, axis1=1, axis2=2), 0.0)
        err = np.reshape(self.err_est, (-1, 1, 1))
        bound = np.sqrt(pops[:, :, None] * pops[:, None, :]) + err
        excess = np.where(np.eye(c.shape[-1], dtype=bool), 0.0, np.abs(c) - bound)
        m, n = np.unravel_index(np.argmax(excess.reshape(len(c), -1), axis=1), c.shape[1:])
        return [(i, int(m[i]), int(n[i]), abs(c[i, m[i], n[i]]), bound[i, m[i], n[i]])
                for i in range(len(c)) if excess[i, m[i], n[i]] > 0]


def site_hamiltonian(sys: SiteSystem):
    """Excited-subspace system Hamiltonian relative to omega_bar (site basis)."""
    h = np.diag(sys.omega - sys.omega_bar) + sys.coupling
    return h


def diagonalize_excited(sys: SiteSystem) -> ExcitonBasis:
    """Diagonalize the excited-subspace Hamiltonian.

    Returns the exciton basis with ascending eigenfrequencies and the row-sign
    convention applied.

    The basis is computed once per system and kept on it: SiteSystem and
    ExcitonBasis are frozen and their arrays read-only, so every later call
    returns the same object.
    """
    if sys._basis is None:
        object.__setattr__(sys, "_basis", _diagonalize(sys))
    return sys._basis


def _diagonalize(sys: SiteSystem) -> ExcitonBasis:
    h = site_hamiltonian(sys)
    evals, vecs = np.linalg.eigh(h)
    u = vecs.T.copy()
    for row in u:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    norm = float(np.max(np.abs(h))) if h.size else 0.0
    rot = u @ h @ u.T
    off = rot - np.diag(np.diagonal(rot))
    if norm > 0 and float(np.max(np.abs(off))) > 1e-10 * norm:
        raise ModelError("eigen-decomposition failed to diagonalize H_e")
    return ExcitonBasis(u=u, delta_omega_mu=evals)


def reorganization_matrix(bath):
    """Reorganization-energy matrix E^r_mn (cm^-1).

    Accepts a BathSpec (Gram form c_mn sqrt(E_mm E_nn)) or a DiscretizedBath,
    for which E^r_mn = hbar^2 sum_k alpha_mk alpha_nk / (2 Omega_k^2).
    """
    if isinstance(bath, DiscretizedBath):
        return (bath.alphas / bath.omegas) @ (bath.alphas / bath.omegas).T / 2.0
    if isinstance(bath, BathSpec):
        diag = bath.reorg_diag
        return bath.correlation * np.sqrt(np.outer(diag, diag))
    raise ModelError(f"cannot compute reorganization matrix for {type(bath)!r}")


def exciton_setup(sys: SiteSystem, bath):
    """Exciton basis and reorganization matrix of ``sys`` coupled to ``bath``.

    ``bath`` is a BathSpec or a DiscretizedBath.  This is the library's one
    check that the bath couples as many sites as the system has; every
    calculator starts here.
    """
    e_r = reorganization_matrix(bath)
    if e_r.shape[0] != sys.n_sites:
        raise ModelError(
            f"bath couples {e_r.shape[0]} sites, system has {sys.n_sites}"
        )
    return diagonalize_excited(sys), e_r


def populations_and_partition(basis: ExcitonBasis, th: Thermo):
    """Zeroth-order excited-subspace populations and their partition sum.

    Returns (pops, Z) with pops = exp(-beta dw_mu) / Z, each with a leading
    axis for a temperature batch.  Exponents are shifted by the minimum
    before exponentiation so the populations never overflow; Z itself may
    overflow to inf only at sub-kelvin temperatures, and an exponent that
    overflows is a zero weight.
    """
    dw = basis.delta_omega_mu
    shift = float(np.min(dw))
    beta = np.asarray(th.beta)[..., None]
    with np.errstate(over="ignore"):
        weights = np.exp(-beta * (dw - shift))
        z_shift = np.sum(weights, axis=-1)
        pops = weights / z_shift[..., None]
        z = z_shift * np.exp(-beta[..., 0] * shift)
    return pops, z


def zeroth_order_result(method, basis, th, c, err_est=0.0, diagnostics=Diagnostics()):
    """CoherenceResult of the coherences ``c`` with zeroth-order populations.

    The diagonal of (a copy of) ``c``, (T, N, N) for a batch ``th``, is
    replaced by the populations of populations_and_partition.
    """
    c = np.array(c, dtype=float)
    diag = np.arange(c.shape[-1])
    c[..., diag, diag] = populations_and_partition(basis, th)[0]
    return CoherenceResult(method, c, err_est, diagnostics)


def validate_regime(sys: SiteSystem, bath: BathSpec, th: Thermo):
    """Check the separation-of-scales assumptions; returns a list of warnings.

    A batch ``th`` is checked at its hottest temperature, which the thermal
    warning names.  The model remains mathematically defined outside the
    regime, so this never raises.
    """
    check_bath_type(bath, BathSpec, "validate_regime")
    warnings = []
    omega_bar = sys.omega_bar
    scales = {
        "site frequency differences": float(
            np.max(np.abs(sys.omega[:, None] - sys.omega[None, :]))
        ),
        "couplings": float(np.max(np.abs(sys.coupling))),
        "reorganization energies": float(
            np.max(np.abs(reorganization_matrix(bath)))
        ),
    }
    if isinstance(bath.shape, OhmicShape):
        scales["bath cutoff"] = bath.shape.cutoff
    else:
        scales["bath frequencies"] = float(np.max(bath.shape.omegas))
    worst = max(scales, key=scales.get)
    if omega_bar < 10.0 * scales[worst]:
        warnings.append(
            f"adiabatic separation violated: omega_bar = {omega_bar:g} cm^-1 is "
            f"less than 10x the {worst} scale ({scales[worst]:g} cm^-1)"
        )
    kt = np.max(th.kt)
    if omega_bar < 10.0 * kt:
        hottest = "" if np.ndim(th.kt) == 0 else f" at T = {np.max(th.temperature_K):g} K"
        warnings.append(
            f"thermal separation violated: omega_bar = {omega_bar:g} cm^-1 is "
            f"less than 10x k_B T = {kt:g} cm^-1{hottest}"
        )
    return warnings
