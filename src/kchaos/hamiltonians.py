"""Model Hamiltonians and their spectral decomposition.

Two families are provided: an open Ising chain with a tilted magnetic field
(restricted to a reflection-parity sector) and a banded random-matrix model
interpolating between Poisson and GOE level statistics.  Every matrix is real
symmetric and stored dense, applied through its band or its nonzeros; the full
eigenbasis is required downstream, so matrices are diagonalized directly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalError

# Chain-length cap, which bounds the sector dimension: the N=14 even sector
# (dimension 8256) is a 545 MB dense matrix, the largest whose eigensolve
# still fits a 7 GiB machine.
MAX_SPINS = 14

SYMMETRY_TOL = 1e-12
# H is applied through its nonzero entries when at most this share is nonzero;
# on one thread dense gemv beats the slot product at 6% density on the N=8
# sector (D = 136) and near 5% at D = 256, the slots win up to 10% or more
# from D = 528 on
SPARSE_MAX_DENSITY = 0.05
# rows per block of the band product; below 4 blocks (D < 512) the dense
# product wins even on a narrow band
BAND_ROWS = 128
# the band product runs when its blocks read at most this share of H
BAND_MAX_COVER = 0.75


def _band_product(h: np.ndarray) -> Callable[[np.ndarray], np.ndarray] | None:
    """Row-block product over the band of ``h``, or None when it would not pay.

    Block ``[r0, r1)`` multiplies the view of ``h`` between the first and the
    last column in which those rows have a nonzero entry, so on a band of
    half-width ``bw`` it reads ``h[r0:r1, r0-bw:r1+bw]`` (clipped to the
    matrix) and skips the zero corners.  The nonzero pattern is read one
    block at a time, so the choice allocates no D x D array.
    """
    dim = h.shape[0]
    if dim < 4 * BAND_ROWS:
        return None
    blocks = []
    for r0 in range(0, dim, BAND_ROWS):
        rows = slice(r0, min(dim, r0 + BAND_ROWS))
        cols = np.flatnonzero(np.any(h[rows] != 0.0, axis=0))
        blocks.append((rows, slice(cols[0], cols[-1] + 1) if cols.size else slice(0, 0)))
    cover = sum((r.stop - r.start) * (c.stop - c.start) for r, c in blocks)
    if cover > BAND_MAX_COVER * dim * dim:
        return None
    blocks = [(r, h[r, c], c) for r, c in blocks]

    def apply(x: np.ndarray) -> np.ndarray:
        y = np.empty(dim, dtype=np.result_type(h, x))
        for rows, block, cols in blocks:
            np.matmul(block, x[cols], out=y[rows])
        return y

    return apply


@dataclass(frozen=True)
class Hamiltonian:
    """Real symmetric matrix plus a descriptor of the model it came from."""

    matrix: np.ndarray
    dim: int
    meta: dict = field(default_factory=dict)

    @cached_property
    def _product(self) -> tuple[str, Callable[[np.ndarray], np.ndarray]]:
        h, dim = self.matrix, self.dim
        if np.count_nonzero(h) > SPARSE_MAX_DENSITY * dim * dim:
            band = _band_product(h)
            return ("dense", h.__matmul__) if band is None else ("band", band)
        # slot s of column i holds the s-th nonzero of row i, in column order;
        # short rows are padded with (column 0, value 0)
        rows, cols = np.nonzero(h)
        counts = np.bincount(rows, minlength=dim)
        slots = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        idx = np.zeros((int(counts.max(initial=0)), dim), dtype=np.intp)
        vals = np.zeros(idx.shape)
        idx[slots, rows] = cols
        vals[slots, rows] = h[rows, cols]
        return "sparse", lambda x: (vals * x[idx]).sum(axis=0)

    @property
    def layout(self) -> str:
        """How ``matvec`` reads the matrix: ``"sparse"``, ``"band"`` or ``"dense"``."""
        return self._product[0]

    @property
    def matvec(self) -> Callable[[np.ndarray], np.ndarray]:
        """``x -> matrix @ x`` in the layout ``layout`` names, chosen once per
        Hamiltonian and shared by every run on it.

        ``sparse``, at most ``SPARSE_MAX_DENSITY`` nonzero: the nonzeros sit
        slot-major and are summed over the slots, which adds each row's terms
        in column order.  ``band``: see ``_band_product``.  ``dense``:
        everything else.  ``count_nonzero`` runs first, so a dense matrix
        never pays for index arrays.
        """
        return self._product[1]


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
    palindrome: np.ndarray
    dim: int


def _as_hamiltonian(matrix: np.ndarray, meta: dict) -> Hamiltonian:
    matrix = np.ascontiguousarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    diff = matrix - matrix.T
    resid = float(np.max(np.abs(diff, out=diff))) if matrix.size else 0.0
    if resid > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric: max |H - H^T| = {resid:.3e}")
    matrix.setflags(write=False)
    return Hamiltonian(matrix=matrix, dim=matrix.shape[0], meta=meta)


def _reflect(states: np.ndarray, n_spins: int) -> np.ndarray:
    """Chain reflection of computational-basis indices (bit reversal)."""
    rev = np.zeros_like(states)
    for b in range(n_spins):
        rev |= ((states >> b) & 1) << (n_spins - 1 - b)
    return rev


def check_chain(n_spins: int, sector: str) -> None:
    """Reject a chain length or sector that ``parity_basis`` does not build."""
    if n_spins < 1:
        raise ValueError("n_spins must be >= 1")
    if n_spins > MAX_SPINS:
        raise ValueError(f"n_spins = {n_spins} exceeds the cap of {MAX_SPINS} spins")
    if sector not in ("even", "odd"):
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")


def sector_dim(n_spins: int, sector: str) -> int:
    """Dimension of ``parity_basis(n_spins, sector)`` without building it: half
    of the 2^N states, plus (even) or minus (odd) half of the 2^ceil(N/2)
    palindromes."""
    check_chain(n_spins, sector)
    palindromes = 2 ** ((n_spins + 1) // 2)
    return (2**n_spins + (palindromes if sector == "even" else -palindromes)) // 2


def parity_basis(n_spins: int, sector: str) -> ParityBasis:
    """Symmetry-adapted basis of the even or odd reflection sector."""
    check_chain(n_spins, sector)
    idx = np.arange(2**n_spins)
    rev = _reflect(idx, n_spins)
    keep = idx <= rev if sector == "even" else idx < rev
    reps = idx[keep]
    return ParityBasis(
        n_spins=n_spins,
        sector=sector,
        representatives=reps,
        palindrome=reps == rev[keep],
        dim=int(reps.size),
    )


def build_ising_sector(n_spins: int, h_z: float, sector: str) -> Hamiltonian:
    """Open Ising chain with transverse+longitudinal field in one parity sector.

    H = sum_i (sx_i + h_z sz_i) - sum_i sz_i sz_{i+1}

    is written directly in the basis of ``parity_basis(n_spins, sector)``;
    the full spectrum is the disjoint union of the two sector spectra.
    Computational-basis convention: spin ``i`` (0-based from the left end)
    lives on bit ``N-1-i`` of the index, bit value 0 meaning spin up, so the
    all-up state is index 0.

    The field and coupling terms are diagonal and reflection-invariant, so
    they are read off each orbit representative.  Flipping one spin of a
    column's representative gives a state ``t`` whose orbit representative
    ``min(t, R t)`` names the row (A. W. Sandvik, AIP Conf. Proc. 1297, 135,
    2010, sec. 4).  The entry is 1 between two orbit pairs, times the sector
    sign when ``t`` is the reflected member of its pair; sqrt(2) between a
    palindrome and a pair in the even sector, where the palindromic column
    reaches the pair through two mirror sites and the palindromic row through
    one; 0 from a pair into a palindrome in the odd sector; and 1 between two
    palindromes.  Both sides of a palindrome entry are built from the one
    constant sqrt(2)/2, so the matrix is exactly symmetric.
    """
    basis = parity_basis(n_spins, sector)
    if basis.dim == 0:
        raise ValueError(f"the {sector} sector of N={n_spins} is empty")
    reps, pal_col = basis.representatives, basis.palindrome
    # sz eigenvalue per site: +1 for bit 0 (up), -1 for bit 1 (down)
    sz = 1.0 - 2.0 * ((reps[:, None] >> np.arange(n_spins - 1, -1, -1)[None, :]) & 1)
    h = np.diag(h_z * sz.sum(axis=1) - (sz[:, :-1] * sz[:, 1:]).sum(axis=1))
    sign = 1.0 if sector == "even" else -1.0
    r = 0.5 * np.sqrt(2.0)
    cols = np.arange(basis.dim)
    for bit in range(n_spins):
        t = reps ^ (1 << bit)
        t_rev = _reflect(t, n_spins)
        vals = np.where(
            t == t_rev,
            (1.0 + sign) * np.where(pal_col, 0.5, r),
            np.where(pal_col, r, np.where(t < t_rev, 1.0, sign)),
        )
        keep = vals != 0.0
        rows = np.searchsorted(reps, np.minimum(t, t_rev)[keep])
        np.add.at(h, (rows, cols[keep]), vals[keep])
    return _as_hamiltonian(
        h, {"family": "ising", "n_spins": n_spins, "h_z": float(h_z), "sector": sector}
    )


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
