"""Model Hamiltonians and their spectral decomposition.

Two families are provided: an open Ising chain with a tilted magnetic field
(restricted to a reflection-parity sector) and a banded random-matrix model
interpolating between Poisson and GOE level statistics.  Everything is dense
real-symmetric; the full eigenbasis is required downstream, so matrices are
diagonalized directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

# Dense-matrix cap for the spin chain: 2^14 = 16384 sites is the largest
# dimension that is still comfortable on a workstation.
MAX_SPINS = 14

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Hamiltonian:
    """Real symmetric matrix plus a descriptor of the model it came from."""

    matrix: np.ndarray
    dim: int
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SpectralData:
    """Full eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are ascending; column ``i`` of ``eigenvectors`` belongs to
    ``eigenvalues[i]``.  ``near_degenerate`` is set when the minimum level
    spacing falls below ``degeneracy_tol``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    min_spacing: float
    near_degenerate: bool
    degeneracy_tol: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


@dataclass(frozen=True)
class ParityBasis:
    """Orthonormal basis of one reflection-parity sector of a spin chain.

    Each basis element is ``(|s> + |R(s)>)/sqrt(2)`` (even) or
    ``(|s> - |R(s)>)/sqrt(2)`` (odd), where ``R`` reverses the chain;
    palindromic states ``s = R(s)`` enter the even sector with coefficient 1.
    Elements are ordered by their orbit representative ``min(s, R(s))``.
    """

    n_spins: int
    sector: str
    representatives: np.ndarray
    partners: np.ndarray
    palindrome: np.ndarray
    dim: int

    def dense_matrix(self) -> np.ndarray:
        """Embedding matrix P (2^N x dim) with the sector basis as columns."""
        full_dim = 2**self.n_spins
        p = np.zeros((full_dim, self.dim))
        w_rep, w_par = self._weights()
        p[self.representatives, np.arange(self.dim)] = w_rep
        # palindromes have partner == representative and w_par == 0
        p[self.partners, np.arange(self.dim)] += w_par
        return p

    def embed(self, sector_vec: np.ndarray) -> np.ndarray:
        """Lift a sector-basis vector to the full 2^N computational basis."""
        full = np.zeros(2**self.n_spins, dtype=np.asarray(sector_vec).dtype)
        w_rep, w_par = self._weights()
        full[self.representatives] += w_rep * sector_vec
        np.add.at(full, self.partners, w_par * sector_vec)
        return full

    def _weights(self) -> tuple[np.ndarray, np.ndarray]:
        sign = 1.0 if self.sector == "even" else -1.0
        w_rep = np.where(self.palindrome, 1.0, 1.0 / np.sqrt(2.0))
        w_par = np.where(self.palindrome, 0.0, sign / np.sqrt(2.0))
        return w_rep, w_par


def _as_hamiltonian(matrix: np.ndarray, meta: dict) -> Hamiltonian:
    matrix = np.ascontiguousarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    resid = float(np.max(np.abs(matrix - matrix.T))) if matrix.size else 0.0
    if resid > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric: max |H - H^T| = {resid:.3e}")
    matrix.setflags(write=False)
    return Hamiltonian(matrix=matrix, dim=matrix.shape[0], meta=meta)


def hamiltonian_from_matrix(matrix: np.ndarray) -> Hamiltonian:
    """Wrap an externally built symmetric matrix (copied, caller keeps ownership)."""
    return _as_hamiltonian(np.array(matrix, dtype=float), {"family": "custom"})


def build_ising_full(n_spins: int, h_z: float) -> Hamiltonian:
    """Open Ising chain with transverse+longitudinal field, full 2^N basis.

    H = sum_i (sx_i + h_z sz_i) - sum_i sz_i sz_{i+1}

    Computational-basis convention: spin ``i`` (0-based from the left end)
    lives on bit ``N-1-i`` of the index, bit value 0 meaning spin up, so the
    all-up state is index 0.
    """
    if n_spins < 1:
        raise ValueError("n_spins must be >= 1")
    if n_spins > MAX_SPINS:
        raise ValueError(
            f"n_spins = {n_spins} exceeds the dense-matrix cap of {MAX_SPINS}"
        )
    dim = 2**n_spins
    idx = np.arange(dim)
    # sz eigenvalue per site: +1 for bit 0 (up), -1 for bit 1 (down)
    sz = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n_spins - 1, -1, -1)[None, :]) & 1)
    diag = h_z * sz.sum(axis=1) - (sz[:, :-1] * sz[:, 1:]).sum(axis=1)
    h = np.zeros((dim, dim))
    h[idx, idx] = diag
    for site in range(n_spins):
        flipped = idx ^ (1 << (n_spins - 1 - site))
        h[idx, flipped] += 1.0
    return _as_hamiltonian(
        h, {"family": "ising", "n_spins": n_spins, "h_z": float(h_z), "sector": None}
    )


def _reflect_indices(n_spins: int) -> np.ndarray:
    """Index permutation of the chain-reflection operator (bit reversal)."""
    idx = np.arange(2**n_spins)
    rev = np.zeros_like(idx)
    for b in range(n_spins):
        rev |= ((idx >> b) & 1) << (n_spins - 1 - b)
    return rev


def parity_basis(n_spins: int, sector: str) -> ParityBasis:
    """Symmetry-adapted basis of the even or odd reflection sector."""
    if n_spins < 1:
        raise ValueError("n_spins must be >= 1")
    if sector not in ("even", "odd"):
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    rev = _reflect_indices(n_spins)
    idx = np.arange(2**n_spins)
    if sector == "even":
        keep = idx <= rev
    else:
        keep = idx < rev
    reps = idx[keep]
    partners = rev[keep]
    palindrome = reps == partners
    return ParityBasis(
        n_spins=n_spins,
        sector=sector,
        representatives=reps,
        partners=partners,
        palindrome=palindrome,
        dim=int(reps.size),
    )


def project_to_sector(ham: Hamiltonian, basis: ParityBasis) -> Hamiltonian:
    """Restrict a full-chain Hamiltonian to one reflection-parity sector.

    The result is the ``dim x dim`` matrix of H in the symmetry-adapted
    basis; the full spectrum is the disjoint union of the two sector spectra.
    """
    if ham.dim != 2**basis.n_spins:
        raise ValueError(
            f"dimension mismatch: H is {ham.dim}, basis expects {2**basis.n_spins}"
        )
    if basis.dim == 0:
        raise ValueError(f"the {basis.sector} sector of N={basis.n_spins} is empty")
    w_rep, w_par = basis._weights()
    h = ham.matrix
    # (H P) built column-wise from at most two source columns each
    hp = h[:, basis.representatives] * w_rep + h[:, basis.partners] * w_par
    hs = w_rep[:, None] * hp[basis.representatives, :] + w_par[:, None] * hp[basis.partners, :]
    hs = 0.5 * (hs + hs.T)
    meta = dict(ham.meta)
    meta["sector"] = basis.sector
    return _as_hamiltonian(hs, meta)


def _draw_banded_symmetric(dim: int, bandwidth: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix, diagonal ~ N(0,2), entries with 0 < |i-j| <= b ~ N(0,1)."""
    v = np.zeros((dim, dim))
    v[np.arange(dim), np.arange(dim)] = rng.standard_normal(dim) * np.sqrt(2.0)
    for off in range(1, bandwidth + 1):
        band = rng.standard_normal(dim - off)
        rows = np.arange(dim - off)
        v[rows, rows + off] = band
        v[rows + off, rows] = band
    return v


def build_banded_random(dim: int, bandwidth: int, k: float, seed: int) -> Hamiltonian:
    """Poisson-to-GOE interpolating model (H0 + k V) / sqrt(1 + k^2).

    H0 is diagonal with standard-normal entries; V is symmetric and banded
    (zero outside ``|i-j| <= bandwidth``) with the GOE convention of unit
    off-diagonal and doubled diagonal variance.  The draw is a deterministic
    function of ``seed``, independent of ``k``, so a fixed seed gives one
    (H0, V) realization traced through the whole k sweep.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if not 1 <= bandwidth <= dim - 1:
        raise ValueError(f"bandwidth must be in [1, {dim - 1}], got {bandwidth}")
    if k < 0:
        raise ValueError("k must be >= 0")
    rng = np.random.default_rng(seed)
    h0 = rng.standard_normal(dim)
    v = _draw_banded_symmetric(dim, bandwidth, rng)
    h = (np.diag(h0) + k * v) / np.sqrt(1.0 + k * k)
    return _as_hamiltonian(
        h,
        {
            "family": "banded",
            "dim": dim,
            "bandwidth": bandwidth,
            "k": float(k),
            "seed": int(seed),
        },
    )


def build_goe(dim: int, seed: int) -> Hamiltonian:
    """GOE draw: symmetric, off-diagonal variance 1, diagonal variance 2."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    h = (a + a.T) / np.sqrt(2.0)
    return _as_hamiltonian(h, {"family": "goe", "dim": dim, "seed": int(seed)})


def eigendecompose(ham: Hamiltonian) -> SpectralData:
    """Dense symmetric eigendecomposition with near-degeneracy detection.

    ``degeneracy_tol`` is 1e-10 times the spectral range; a minimum level
    spacing below it sets the ``near_degenerate`` flag, which makes
    downstream Lanczos runs refuse the spectrum unless overridden.
    """
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(ham.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    spacings = np.diff(eigenvalues)
    min_spacing = float(spacings.min()) if spacings.size else np.inf
    degeneracy_tol = 1e-10 * float(eigenvalues[-1] - eigenvalues[0])
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return SpectralData(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        min_spacing=min_spacing,
        near_degenerate=bool(min_spacing < degeneracy_tol),
        degeneracy_tol=float(degeneracy_tol),
    )
