"""Saturation bound for energy-localized initial states and the quadratic
overlap-scaling check behind it.

For a state ``(|e_j> + delta |t>) / sqrt(1+delta^2)`` the complexity
saturation is bounded by ``(3D/2 - 1) delta^2`` to leading order; the bound
rests on every overlap ``|<K_n|e_j>|^2`` (n >= 1) scaling as ``delta^2``,
which is what the fitting routine verifies numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import Hamiltonian, eigendecompose
from .krylov import lanczos_full_orth, saturation
from .states import GaussianProfile, UniformComplement, state_perturbed


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


def _check_anchor(j: int, dim: int) -> None:
    if not 0 <= j < dim:
        raise ValueError(f"eigenstate index {j} out of range [0, {dim})")


def bound_rhs(dim: int, delta: float) -> float:
    """Leading-order saturation bound (3D/2 - 1) * delta^2."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return (1.5 * dim - 1.0) * delta * delta


def run_bound_sweep(
    ham: Hamiltonian,
    j: int,
    profile: GaussianProfile | UniformComplement,
    deltas: np.ndarray,
    allow_degenerate: bool = False,
) -> BoundSweep:
    """Measure the saturation of perturbed eigenstates along a delta grid.

    Each delta is an independent Lanczos run seeded with the perturbed state;
    the result pairs the measured saturation with the quadratic bound.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("deltas must be a nonempty 1-D grid")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("deltas must be finite")
    if np.any(np.diff(deltas) <= 0) or deltas[0] < 0:
        raise ValueError("deltas must be strictly increasing and >= 0")
    _check_anchor(j, ham.dim)
    spec = eigendecompose(ham)
    c_bar = np.empty(deltas.shape[0])
    bound = np.empty(deltas.shape[0])
    for i, delta in enumerate(deltas):
        psi = state_perturbed(spec, j, profile, float(delta))
        lan = lanczos_full_orth(ham, psi, spec=spec, allow_degenerate=allow_degenerate)
        rep = saturation(lan, allow_degenerate=allow_degenerate)
        c_bar[i] = rep.c_bar
        bound[i] = bound_rhs(ham.dim, float(delta))
        # release this D x D Krylov basis before the next run allocates its own
        del lan
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
    ham: Hamiltonian,
    j: int,
    profile: GaussianProfile | UniformComplement,
    delta_grid: np.ndarray,
) -> ScalingReport:
    """Fit the small-delta scaling of |<K_n|e_j>|^2 for every n >= 1.

    For each delta the full Krylov basis is rebuilt and the overlap with the
    anchored eigenstate recorded; a least-squares fit of log overlap against
    log delta should give slope 2 site by site.  The quadratic coefficients
    f_n are recovered as geometric means of overlap/delta^2.  A
    near-degenerate spectrum is refused (DegenerateSpectrumError).
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    if delta_grid.size < 4:
        raise ValueError("need at least 4 grid points for a credible fit")
    if not np.all((delta_grid > 0) & (delta_grid <= 0.05)):  # rejects nan too
        raise ValueError("delta grid must lie in (0, 0.05]")
    _check_anchor(j, ham.dim)
    spec = eigendecompose(ham)
    e_j = spec.eigenvectors[:, j]
    overlaps = np.full((delta_grid.shape[0], ham.dim), np.nan)
    k_min = ham.dim
    for i, delta in enumerate(delta_grid):
        psi = state_perturbed(spec, j, profile, float(delta))
        lan = lanczos_full_orth(ham, psi, spec=spec)
        k_min = min(k_min, lan.krylov_dim)
        overlaps[i, : lan.krylov_dim] = np.abs(lan.basis.conj().T @ e_j) ** 2
        del lan
    n_values = np.arange(1, k_min)
    slopes = np.full(n_values.shape[0], np.nan)
    f_intercepts = np.full(n_values.shape[0], np.nan)
    log_d = np.log(delta_grid)
    for pos, n in enumerate(n_values):
        o = overlaps[:, n]
        keep = o > OVERLAP_FLOOR
        if keep.sum() < 2:
            continue
        slopes[pos] = np.polyfit(log_d[keep], np.log(o[keep]), 1)[0]
        f_intercepts[pos] = np.exp(np.mean(np.log(o[keep]) - 2.0 * log_d[keep]))
    return ScalingReport(n_values=n_values, slopes=slopes, f_intercepts=f_intercepts)
