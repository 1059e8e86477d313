"""Initial-state constructors.

All constructors return read-only unit arrays expressed in the basis the
Hamiltonian matrix itself lives in (the "sector" basis); states defined
through an eigenbasis are rotated back with the eigenvector matrix.
Amplitudes are kept real wherever the construction allows, which keeps the
Lanczos recursion in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import ParityBasis, SpectralData


@dataclass(frozen=True)
class GaussianProfile:
    """Eigenbasis amplitude envelope exp(-(i-center)^2 / (4 sigma^2)).

    The squared amplitudes then form a Gaussian probability profile of
    standard deviation ``sigma`` around ``center``.
    """

    center: float
    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise ValueError(f"gaussian profile center must be finite, got {self.center:g}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"gaussian profile sigma must be finite and > 0, got {self.sigma:g}")


@dataclass(frozen=True)
class UniformComplement:
    """Equal amplitude moduli on every eigenstate except the anchored one."""


def _make_state(amplitudes: np.ndarray) -> np.ndarray:
    """The unit vector a constructor built, made read-only."""
    amplitudes = np.asarray(amplitudes)
    amplitudes.setflags(write=False)
    return amplitudes


def state_all_up(basis: ParityBasis) -> np.ndarray:
    """The all-spins-up product state inside the even parity sector.

    All-up is palindromic under chain reflection, so it exists only in the
    even sector, where it coincides with one symmetry-adapted basis element.
    """
    if basis.sector != "even":
        raise ValueError("the all-up state is palindromic and lives in the even sector")
    position = int(np.searchsorted(basis.representatives, 0))
    if position >= basis.dim or basis.representatives[position] != 0:
        raise ValueError("basis does not contain the all-up representative")
    amplitudes = np.zeros(basis.dim)
    amplitudes[position] = 1.0
    return _make_state(amplitudes)


def state_uniform_eigenbasis(spec: SpectralData) -> np.ndarray:
    """State with equal weight 1/D on every eigenstate, all phases +1."""
    coeffs = np.full(spec.dim, 1.0 / np.sqrt(spec.dim))
    return _make_state(spec.eigenvectors @ coeffs)


def state_random(dim: int, seed: int) -> np.ndarray:
    """Normalized vector of i.i.d. standard-normal entries (real).

    Real Gaussian amplitudes stay Gaussian in any orthogonal eigenbasis, so the
    eigenbasis weights follow the Porter-Thomas distribution rather than the
    flat ``1/D``.  The normalized saturation of such a state therefore sits on
    a plateau below 1 (about 0.7 at D=256), not at the delocalized value.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    return _make_state(v / np.linalg.norm(v))


def state_eigenstate(spec_ref: SpectralData, index: int) -> np.ndarray:
    """The ``index``-th eigenvector of a reference Hamiltonian."""
    if not 0 <= index < spec_ref.dim:
        raise ValueError(f"eigenstate index {index} out of range [0, {spec_ref.dim})")
    return _make_state(spec_ref.eigenvectors[:, index].copy())


def perturbed_coefficients(
    dim: int,
    j: int,
    tilde_profile: GaussianProfile | UniformComplement,
    delta: float,
) -> np.ndarray:
    """Eigenbasis coefficients of eigenstate j plus a weight-delta admixture
    orthogonal to it.

    The state is ``(|e_j> + delta |t>) / sqrt(1 + delta^2)`` where ``|t>`` is
    a unit vector built from ``tilde_profile`` with its j-th eigenbasis
    coefficient zeroed, so ``|<e_j|psi>|^2 = 1/(1 + delta^2)`` exactly.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if not 0 <= j < dim:
        raise ValueError(f"eigenstate index {j} out of range [0, {dim})")
    if isinstance(tilde_profile, GaussianProfile):
        i = np.arange(dim, dtype=float)
        tilde = np.exp(-((i - tilde_profile.center) ** 2) / (4.0 * tilde_profile.sigma**2))
    elif isinstance(tilde_profile, UniformComplement):
        tilde = np.ones(dim)
    else:
        raise TypeError(f"unsupported tilde profile: {tilde_profile!r}")
    tilde[j] = 0.0
    tilde_norm = np.linalg.norm(tilde)
    if tilde_norm == 0.0:
        raise ValueError("tilde profile vanishes after zeroing the anchored coefficient")
    coeffs = (delta / tilde_norm) * tilde
    coeffs[j] = 1.0
    coeffs /= np.sqrt(1.0 + delta * delta)
    return coeffs


def select_center_states(spec: SpectralData, count: int) -> list[int]:
    """Indices of the ``count`` eigenvalues closest to the median eigenvalue.

    Ties broken toward the lower index; the result is sorted ascending.
    """
    if count > spec.dim:
        raise ValueError(f"requested {count} states from a dimension-{spec.dim} spectrum")
    median = np.median(spec.eigenvalues)
    distance = np.abs(spec.eigenvalues - median)
    order = np.argsort(distance, kind="stable")
    return sorted(int(i) for i in order[:count])
