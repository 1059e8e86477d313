"""Saturation bound for energy-localized initial states and the quadratic
overlap-scaling check behind it.

For a state ``(|e_j> + delta |t>) / sqrt(1+delta^2)`` the complexity
saturation is bounded by ``(3D/2 - 1) delta^2`` to leading order; the bound
rests on every overlap ``|<K_n|e_j>|^2`` (n >= 1) scaling as ``delta^2``,
which is what the fitting routine verifies numerically.

Both experiments run in the eigenbasis, where their seeds are defined: every
seed lies in span{e_j} + K(H, t), so one Lanczos chain of ``|t>`` on diag(E)
without level j gives the chain of every delta through
``krylov.perturbed_chain``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hamiltonians import Hamiltonian, eigendecompose
from .krylov import lanczos_full_orth, perturbed_chain
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


def _check_anchor(j: int, dim: int) -> None:
    if not 0 <= j < dim:
        raise ValueError(f"eigenstate index {j} out of range [0, {dim})")


def _complement_chain(
    ham: Hamiltonian,
    j: int,
    profile: GaussianProfile | UniformComplement,
    allow_degenerate: bool,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The eigenvalues of ``ham`` and the Lanczos chain of the admixture
    ``|t>``: its coefficients and its Krylov rows in eigen-coordinates, which
    are zero in column j.

    The chain runs on diag(E) with level j removed, seeded with the exact
    complement coefficients, so roundoff cannot bring e_j back into it.  In
    the basis of the matrix it does: on banded D=1024 with j=10 the overlap
    with e_j grows from 2e-17 past 0.1 by step 235, up to 0.45.  The chain is
    gated with the degeneracy verdict of the whole spectrum.
    """
    _check_anchor(j, ham.dim)
    spec = eigendecompose(ham)
    levels = spec.eigenvalues
    rest = np.delete(levels, j)
    # the chain reads no eigenvector matrix, so the D x D one goes now
    rest_spec = replace(spec, eigenvalues=rest, eigenvectors=np.empty((rest.size, 0)))
    del spec
    # off level j, every seed's coefficients are proportional to those of |t>
    seed = np.delete(perturbed_coefficients(levels.size, j, profile, 1.0), j)
    seed /= np.linalg.norm(seed)
    tail = lanczos_full_orth(
        Hamiltonian(np.diag(rest)), seed, rest_spec, allow_degenerate=allow_degenerate
    )
    rows = np.insert(tail.basis.T, j, 0.0, axis=1)
    return levels, (tail.a, tail.b, rows)


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

    Each delta's chain comes from one shared chain of the admixture; c_bar is
    sum_n n sum_i w_i <K_n|e_i>^2 with the exact eigenbasis weights w_i of
    the seed.  The result pairs the measured saturation with the quadratic
    bound.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("deltas must be a nonempty 1-D grid")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("deltas must be finite")
    if np.any(np.diff(deltas) <= 0) or deltas[0] < 0:
        raise ValueError("deltas must be strictly increasing and >= 0")
    levels, tail = _complement_chain(ham, j, profile, allow_degenerate)
    c_bar = np.empty(deltas.shape[0])
    bound = np.empty(deltas.shape[0])
    for i, delta in enumerate(deltas):
        rows = perturbed_chain(*tail, levels, j, float(delta))[2]
        weights = perturbed_coefficients(ham.dim, j, profile, float(delta)) ** 2
        rows *= rows
        c_bar[i] = float(np.arange(rows.shape[0]) @ (rows @ weights))
        bound[i] = bound_rhs(ham.dim, float(delta))
        # release these Krylov rows before the next delta allocates its own
        del rows
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

    For each delta the Krylov chain is derived from the shared chain of the
    admixture and the overlap with the anchored eigenstate, column j of its
    rows in eigen-coordinates, recorded; a least-squares fit of log overlap
    against log delta should give slope 2 site by site.  The quadratic
    coefficients f_n are recovered as geometric means of overlap/delta^2.  A
    near-degenerate spectrum is refused (DegenerateSpectrumError).
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    if delta_grid.size < 4:
        raise ValueError("need at least 4 grid points for a credible fit")
    if not np.all((delta_grid > 0) & (delta_grid <= 0.05)):  # rejects nan too
        raise ValueError("delta grid must lie in (0, 0.05]")
    levels, tail = _complement_chain(ham, j, profile, allow_degenerate=False)
    overlaps = np.full((delta_grid.shape[0], ham.dim), np.nan)
    k_min = ham.dim
    for i, delta in enumerate(delta_grid):
        rows = perturbed_chain(*tail, levels, j, float(delta))[2]
        k_min = min(k_min, rows.shape[0])
        overlaps[i, : rows.shape[0]] = rows[:, j] ** 2
        del rows
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
