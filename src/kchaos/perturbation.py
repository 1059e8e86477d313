"""Saturation bound for energy-localized initial states and the quadratic
overlap-scaling check behind it.

For a state ``(|e_j> + delta |t>) / sqrt(1+delta^2)`` the complexity
saturation is bounded by ``(3D/2 - 1) delta^2`` to leading order; the bound
rests on every overlap ``|<K_n|e_j>|^2`` (n >= 1) scaling as ``delta^2``,
which is what the fitting routine verifies numerically.

Both experiments run in the eigenbasis, where their seeds are defined, so they
take the spectrum, not the Hamiltonian: its eigenvalues are all they read,
and ``eigendecompose(ham, vectors=False)`` solves for them alone.  Every seed
lies in span{e_j} + K(H, t), so one Lanczos chain of ``|t>`` on diag(E)
without level j gives the chain of every delta through
``krylov.perturbed_chain``.  ``check_bound_sweep`` and ``check_overlap_scaling``
check an experiment's arguments against the dimension alone, so a caller can
run them before the eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hamiltonians import DiagonalOperator, SpectralData
from .krylov import _c_bar, lanczos_full_orth, perturbed_chain
from .states import GaussianProfile, UniformComplement, perturbed_coefficients


@dataclass(frozen=True)
class BoundSweep:
    """Measured saturations against the quadratic bound on the caller's delta grid.

    ``delta_ok_up_to`` is the largest grid delta such that the bound holds at
    it and at every smaller grid point (nan when it fails already at the
    first point).
    """

    c_bar: np.ndarray
    bound: np.ndarray
    delta_ok_up_to: float


@dataclass(frozen=True)
class ScalingReport:
    """Per-site log-log slopes of |<K_n|e_j>|^2 against delta.

    ``slopes[i]`` is the fitted exponent for chain site ``n_values[i]``;
    ``f_intercepts[i]`` estimates the quadratic coefficient f_n under an
    exact slope-2 model.  Overlaps below the noise floor are excluded from
    the fits (slope recorded as nan).
    """

    n_values: np.ndarray
    slopes: np.ndarray
    f_intercepts: np.ndarray

    @property
    def median_slope(self) -> float:
        good = self.slopes[np.isfinite(self.slopes)]
        return float(np.median(good)) if good.size else float("nan")

    @property
    def f_sum(self) -> float:
        good = self.f_intercepts[np.isfinite(self.f_intercepts)]
        return float(np.sum(good))


OVERLAP_FLOOR = 1e-14


def _admixture(dim: int, j: int, profile: GaussianProfile | UniformComplement) -> np.ndarray:
    """Coefficients of the unit admixture ``|t>`` in complement coordinates,
    eigen-coordinates without column j.

    Raises ValueError for an anchor outside [0, dim) or a profile that
    vanishes off level j.
    """
    # off level j, every seed's coefficients are proportional to those of |t>
    seed = np.delete(perturbed_coefficients(dim, j, profile, 1.0), j)
    seed /= np.linalg.norm(seed)
    return seed


def _complement_chain(
    spec: SpectralData,
    j: int,
    profile: GaussianProfile | UniformComplement,
    allow_degenerate: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Lanczos chain of the admixture ``|t>``: its coefficients and its
    Krylov rows in complement coordinates, the form ``perturbed_chain``
    reads.

    The chain runs on diag(E) with level j removed, applied as a diagonal
    operator, and is seeded with the exact complement coefficients, so
    roundoff cannot bring e_j back into it.  In the basis of the matrix it
    does: on banded D=1024 with j=10 the overlap with e_j grows from 2e-17
    past 0.1 by step 235, up to 0.45.  The rows are a view of the chain's own
    basis, so beside it the chain holds no D x D array.  The chain is gated
    with the degeneracy verdict of the whole spectrum.
    """
    seed = _admixture(spec.dim, j, profile)
    rest = np.delete(spec.eigenvalues, j)
    rest_spec = replace(spec, eigenvalues=rest, eigenvectors=np.empty((rest.size, 0)))
    tail = lanczos_full_orth(
        DiagonalOperator(rest), seed, rest_spec, allow_degenerate=allow_degenerate
    )
    return tail.a, tail.b, tail.basis.T


def _fit_sites(deltas: np.ndarray, overlaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-log slope and f_n of every column of ``overlaps`` (one row per delta).

    Each column is fitted on its overlaps above ``OVERLAP_FLOOR``: the slope
    is the least-squares slope of log overlap against log delta, and f_n the
    geometric mean of overlap / delta^2.  All columns are fitted at once in
    closed form, from the kept points' centred sums; a column with fewer than
    two kept points gets nan for both.
    """
    keep = overlaps > OVERLAP_FLOOR  # nan compares False
    count = keep.sum(axis=0)
    log_d = np.log(deltas)[:, None]
    log_o = np.log(np.where(keep, overlaps, 1.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_d = (keep * log_d).sum(axis=0) / count
        mean_o = (keep * log_o).sum(axis=0) / count
        dx = np.where(keep, log_d - mean_d, 0.0)
        slopes = (dx * (log_o - mean_o)).sum(axis=0) / (dx * dx).sum(axis=0)
    fitted = count >= 2
    slopes = np.where(fitted, slopes, np.nan)
    f_intercepts = np.where(fitted, np.exp(mean_o - 2.0 * mean_d), np.nan)
    return slopes, f_intercepts


def bound_rhs(dim: int, delta: float) -> float:
    """Leading-order saturation bound (3D/2 - 1) * delta^2."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return (1.5 * dim - 1.0) * delta * delta


def check_bound_sweep(
    dim: int, j: int, profile: GaussianProfile | UniformComplement, deltas: np.ndarray
) -> np.ndarray:
    """Raise ValueError unless ``run_bound_sweep`` takes these arguments on a
    dimension-``dim`` spectrum: the delta grid, then the anchor and the
    profile.  Returns the grid as a float array."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("deltas must be a nonempty 1-D grid")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("deltas must be finite")
    if np.any(np.diff(deltas) <= 0) or deltas[0] < 0:
        raise ValueError("deltas must be strictly increasing and >= 0")
    _admixture(dim, j, profile)
    return deltas


def check_overlap_scaling(
    dim: int, j: int, profile: GaussianProfile | UniformComplement, delta_grid: np.ndarray
) -> np.ndarray:
    """Raise ValueError unless ``overlap_scaling_check`` takes these arguments
    on a dimension-``dim`` spectrum: the delta grid, then the anchor and the
    profile.  Returns the grid as a float array."""
    delta_grid = np.asarray(delta_grid, dtype=float)
    if delta_grid.size < 4:
        raise ValueError("need at least 4 grid points for a credible fit")
    if not np.all((delta_grid > 0) & (delta_grid <= 0.05)):  # rejects nan too
        raise ValueError("delta grid must lie in (0, 0.05]")
    if delta_grid.ndim != 1 or np.unique(delta_grid).size != delta_grid.size:
        raise ValueError(f"delta grid must be 1-D without repeated values, got {delta_grid}")
    _admixture(dim, j, profile)
    return delta_grid


def run_bound_sweep(
    spec: SpectralData,
    j: int,
    profile: GaussianProfile | UniformComplement,
    deltas: np.ndarray,
    allow_degenerate: bool = False,
) -> BoundSweep:
    """Measure the saturation of perturbed eigenstates along a delta grid.

    ``spec`` is the spectrum of the Hamiltonian; only its eigenvalues are
    read.  Each delta's chain comes from one shared chain of the admixture;
    c_bar is sum_n n sum_i w_i <K_n|e_i>^2 with the exact eigenbasis weights
    w_i of the seed.  The result pairs the measured saturation with the
    quadratic bound.
    """
    deltas = check_bound_sweep(spec.dim, j, profile, deltas)
    tail = _complement_chain(spec, j, profile, allow_degenerate)
    c_bar = np.empty(deltas.shape[0])
    bound = np.empty(deltas.shape[0])
    for i, delta in enumerate(deltas):
        weights = perturbed_coefficients(spec.dim, j, profile, float(delta)) ** 2
        # the chain's rows are its overlaps with the eigenbasis, and die with the call
        c_bar[i] = _c_bar(perturbed_chain(*tail, spec.eigenvalues, j, float(delta)), weights)
        bound[i] = bound_rhs(spec.dim, float(delta))
    holds = c_bar <= bound
    ok_prefix = np.where(~holds)[0]
    if ok_prefix.size == 0:
        delta_ok = float(deltas[-1])
    elif ok_prefix[0] == 0:
        delta_ok = float("nan")
    else:
        delta_ok = float(deltas[ok_prefix[0] - 1])
    return BoundSweep(c_bar=c_bar, bound=bound, delta_ok_up_to=delta_ok)


def overlap_scaling_check(
    spec: SpectralData,
    j: int,
    profile: GaussianProfile | UniformComplement,
    delta_grid: np.ndarray,
) -> ScalingReport:
    """Fit the small-delta scaling of |<K_n|e_j>|^2 for every n >= 1.

    ``spec`` is the spectrum of the Hamiltonian; only its eigenvalues are
    read.  For each delta the Krylov chain is derived from the shared chain
    of the admixture and the overlap with the anchored eigenstate, column j
    of its rows in eigen-coordinates, recorded; a least-squares fit of log
    overlap against log delta should give slope 2 site by site.  The
    quadratic coefficients f_n are recovered as geometric means of
    overlap/delta^2.  The grid may run either way but may not repeat a
    value.  A near-degenerate spectrum is refused (DegenerateSpectrumError).
    """
    delta_grid = check_overlap_scaling(spec.dim, j, profile, delta_grid)
    tail = _complement_chain(spec, j, profile, allow_degenerate=False)
    overlaps = np.full((delta_grid.shape[0], spec.dim), np.nan)
    k_min = spec.dim
    for i, delta in enumerate(delta_grid):
        rows = perturbed_chain(*tail, spec.eigenvalues, j, float(delta))
        k_min = min(k_min, rows.shape[0])
        overlaps[i, : rows.shape[0]] = rows[:, j] ** 2
        del rows
    slopes, f_intercepts = _fit_sites(delta_grid, overlaps[:, 1:k_min])
    return ScalingReport(n_values=np.arange(1, k_min), slopes=slopes, f_intercepts=f_intercepts)
