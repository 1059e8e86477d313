"""Model Hamiltonians and their spectral decomposition.

Two families are provided: an open Ising chain with a tilted magnetic field
(restricted to a reflection-parity sector) and a banded random-matrix model
interpolating between Poisson and GOE level statistics.  Every matrix is real
symmetric and stored dense, applied through its band or its nonzeros.  The
Lanczos runs need the full eigenbasis, so matrices are diagonalized directly
by LAPACK's divide and conquer (``dsyevd``) on one copy of H, which becomes
the eigenvectors; callers that read only the levels solve for the eigenvalues
alone, and the levels of a sector that no Hamiltonian holds are solved in the
storage of their own build.  The LAPACK routines are those of the OpenBLAS
numpy bundles; where it exports none, numpy's ``eigh`` and ``eigvalsh`` solve.
"""

from __future__ import annotations

import ctypes
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .errors import NumericalError

# Chain-length cap, which bounds the sector dimension: the N=14 even sector
# (dimension 8256) is a 545 MB dense matrix, the largest whose eigensolve
# still fits a 7 GiB machine.
MAX_SPINS = 14

SYMMETRY_TOL = 1e-12
# the symmetry check compares H with H^T in row blocks of at most this many bytes
SYMMETRY_BLOCK_BYTES = 2**20
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
# H and the Krylov rows start on a boundary of this many bytes: at D = 256
# (dense layout, one thread) a Lanczos run took 6.9 ms with both on it and
# up to 9.9 ms with both 16 bytes past it, so the speed of a sweep followed
# wherever the allocator happened to put them
ALIGN_BYTES = 64
# eigenvalue-only solves from this dimension on run LAPACK's two-stage
# tridiagonal reduction (dense -> band -> tridiagonal) where numpy's OpenBLAS
# exports it; median time two-stage / eigvalsh over 5-15 solves, one thread
# of a 2-core Xeon VM:
# 1.40 at D = 256, 1.26 at 512, 1.06 at 768, 0.91-1.07 at 960, 0.87-0.90 at
# 1000, 0.84-0.87 at 1024, 0.70 at 1536 and 0.66 at 2080 (the N=12 sector)
TWO_STAGE_MIN_DIM = 1000
_LAPACK_COL_MAJOR = 102


def _aligned_empty(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """Uninitialized array whose data starts on an ``ALIGN_BYTES`` boundary."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    buf = np.empty(size + ALIGN_BYTES, dtype=np.uint8)
    start = -buf.ctypes.data % ALIGN_BYTES
    return buf[start : start + size].view(dtype).reshape(shape)


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
    """A real symmetric matrix, applied through ``matvec``."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

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
class DiagonalOperator:
    """diag(levels), for a Lanczos run in an eigenbasis: ``matvec`` is
    ``levels * x``, so no D x D matrix is held."""

    levels: np.ndarray

    @property
    def dim(self) -> int:
        return self.levels.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.levels * x


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are ascending; column ``i`` of ``eigenvectors`` belongs to
    ``eigenvalues[i]``, and the array has no columns when only the
    eigenvalues were solved for.  ``near_degenerate`` is set when the minimum
    level spacing falls below ``degeneracy_tol``.
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

    @property
    def dim(self) -> int:
        return self.representatives.shape[0]


def _asymmetry(matrix: np.ndarray) -> float:
    """max |H - H^T| of a square matrix, 0 when it is empty.

    Rows ``[r0, r1)`` are compared from column r0 on with the same columns
    read from row r0 down, in blocks of at most ``SYMMETRY_BLOCK_BYTES``,
    which covers every pair (i, j) with i <= j without a D x D temporary.
    """
    dim = matrix.shape[0]
    step = max(1, SYMMETRY_BLOCK_BYTES // (8 * max(dim, 1)))
    # one maximum per block, so a nan anywhere reaches the result
    worst = [0.0]
    for r0 in range(0, dim, step):
        # inf - inf is nan, which the caller refuses, so numpy need not warn
        with np.errstate(invalid="ignore"):
            diff = matrix[r0 : r0 + step, r0:] - matrix[r0:, r0 : r0 + step].T
        worst.append(np.abs(diff, out=diff).max())
        # freed here, so the next block is not allocated beside it
        del diff
    return float(np.max(worst))


def _checked_symmetric(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as a C-order float64 array, refused unless square and
    symmetric to ``SYMMETRY_TOL``; a conforming array is returned uncopied."""
    matrix = np.ascontiguousarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    resid = _asymmetry(matrix)
    # a nan or inf entry makes resid nan, which no comparison passes
    if not resid <= SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric: max |H - H^T| = {resid:.3e}")
    return matrix


def _as_hamiltonian(matrix: np.ndarray) -> Hamiltonian:
    matrix = _checked_symmetric(matrix)
    matrix.setflags(write=False)
    return Hamiltonian(matrix=matrix)


def _reflect(states: np.ndarray, n_spins: int) -> np.ndarray:
    """Chain reflection of computational-basis indices (bit reversal)."""
    rev = np.zeros_like(states)
    for b in range(n_spins):
        rev |= ((states >> b) & 1) << (n_spins - 1 - b)
    return rev


def parity_basis(n_spins: int, sector: str) -> ParityBasis:
    """Symmetry-adapted basis of the even or odd reflection sector."""
    if n_spins < 1:
        raise ValueError("n_spins must be >= 1")
    if n_spins > MAX_SPINS:
        raise ValueError(f"n_spins = {n_spins} exceeds the cap of {MAX_SPINS} spins")
    if sector not in ("even", "odd"):
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    idx = np.arange(2**n_spins)
    rev = _reflect(idx, n_spins)
    keep = idx <= rev if sector == "even" else idx < rev
    reps = idx[keep]
    return ParityBasis(
        n_spins=n_spins,
        sector=sector,
        representatives=reps,
        palindrome=reps == rev[keep],
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
    return _as_hamiltonian(_ising_sector_matrix(n_spins, h_z, sector))


def _ising_sector_matrix(n_spins: int, h_z: float, sector: str) -> np.ndarray:
    """The aligned, writable matrix ``build_ising_sector`` wraps."""
    if not np.isfinite(h_z):
        raise ValueError(f"h_z must be finite, got {h_z:g}")
    basis = parity_basis(n_spins, sector)
    if basis.dim == 0:
        raise ValueError(f"the {sector} sector of N={n_spins} is empty")
    reps, pal_col = basis.representatives, basis.palindrome
    # sz eigenvalue per site: +1 for bit 0 (up), -1 for bit 1 (down)
    sz = 1.0 - 2.0 * ((reps[:, None] >> np.arange(n_spins - 1, -1, -1)[None, :]) & 1)
    h = _aligned_empty((basis.dim, basis.dim))
    h.fill(0.0)
    np.fill_diagonal(h, h_z * sz.sum(axis=1) - (sz[:, :-1] * sz[:, 1:]).sum(axis=1))
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
    return h


def _draw_banded_symmetric(dim: int, bandwidth: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix, diagonal ~ N(0,2), entries with 0 < |i-j| <= b ~ N(0,1).

    Diagonal ``off`` is every (D+1)-th entry of the flat matrix from ``off``
    (upper) or ``off * D`` (lower).  The bands are written through views of
    ``v.ravel()``; slices of ``v.flat`` are copies and would drop the writes.
    """
    v = _aligned_empty((dim, dim))
    v.fill(0.0)
    flat = v.ravel()
    flat[:: dim + 1] = rng.standard_normal(dim) * np.sqrt(2.0)
    for off in range(1, bandwidth + 1):
        band = rng.standard_normal(dim - off)
        flat[off :: dim + 1][: dim - off] = band
        flat[off * dim :: dim + 1] = band
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
    if not np.isfinite(k):
        raise ValueError(f"k must be finite, got {k:g}")
    if k < 0:
        raise ValueError("k must be >= 0")
    rng = np.random.default_rng(seed)
    h0 = rng.standard_normal(dim)
    h = _draw_banded_symmetric(dim, bandwidth, rng)
    # (diag(H0) + k V) / sqrt(1 + k^2) in place on V, bit for bit: the same
    # products, sums and quotients.  Off the diagonal the sum's +0.0 only
    # turns k V's -0.0 (k = 0 times a negative entry) into +0.0, hence fill.
    if k == 0.0:
        h.fill(0.0)
    else:
        h *= k
    h.ravel()[:: dim + 1] += h0
    h /= np.sqrt(1.0 + k * k)
    return _as_hamiltonian(h)


def build_goe(dim: int, seed: int) -> Hamiltonian:
    """GOE draw: symmetric, off-diagonal variance 1, diagonal variance 2."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    h = np.add(a, a.T, out=_aligned_empty((dim, dim)))
    h /= np.sqrt(2.0)
    return _as_hamiltonian(h)


def _spectral_data(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> SpectralData:
    """Wrap an ascending spectrum read-only, with its degeneracy verdict."""
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


def _lapacke_routine(name: str) -> Callable | None:
    """``LAPACKE_<name>`` of the ILP64 OpenBLAS that numpy bundles, typed as
    (layout, jobz, uplo, n, a, lda, w) -> info with 64-bit integers, or None
    where numpy ships none that exports it (Accelerate, distro or conda
    builds).  The library is the one numpy already has loaded."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            solve = getattr(ctypes.CDLL(str(lib)), f"scipy_LAPACKE_{name}64_")
        except (OSError, AttributeError):
            continue
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        solve.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, ptr, i64, ptr]
        solve.restype = i64
        return solve
    return None


@cache
def _two_stage_solver() -> Callable | None:
    """``LAPACKE_dsyevd_2stage``, the eigenvalue-only route; see ``_lapacke_routine``."""
    return _lapacke_routine("dsyevd_2stage")


@cache
def _vectors_solver() -> Callable | None:
    """``LAPACKE_dsyevd``, the eigenvector route; see ``_lapacke_routine``."""
    return _lapacke_routine("dsyevd")


def _lapack_shape(matrix: np.ndarray) -> bool:
    """Whether the real routines can read ``matrix``: a square float64 array.
    numpy takes (or refuses) anything else."""
    return matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1] and matrix.dtype == np.float64


def _eigvalsh(matrix: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, through the two-stage
    reduction from ``TWO_STAGE_MIN_DIM`` on where it is available and through
    ``np.linalg.eigvalsh`` otherwise.  The two-stage solve overwrites a copy,
    or with ``overwrite`` the C-order ``matrix`` itself: a symmetric matrix
    is its own column-major form, so either is the input LAPACK reads.
    ``np.linalg.eigvalsh`` copies internally whatever ``overwrite`` says."""
    dim = matrix.shape[0]
    solve = _two_stage_solver() if dim >= TWO_STAGE_MIN_DIM else None
    if solve is None or not _lapack_shape(matrix):
        return np.linalg.eigvalsh(matrix)
    work = matrix if overwrite else matrix.copy(order="C")
    levels = np.empty(dim)
    info = solve(_LAPACK_COL_MAJOR, b"N", b"L", dim, work.ctypes.data, dim, levels.ctypes.data)
    if info != 0:
        raise NumericalError(f"eigensolver failed: dsyevd_2stage returned info = {info}")
    return levels


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and C-order eigenvectors (one per column) of a
    symmetric matrix, bit for bit those of ``np.linalg.eigh``, which solves
    them where numpy bundles no ``LAPACKE_dsyevd``.

    The real routine works on one copy of ``matrix``, written column-major
    so that LAPACK reads the lower triangle numpy's ``eigh`` reads, and
    leaves V there column-major.  The in-place transpose that makes it C
    order runs once LAPACK has freed its 2 D^2 workspace, so the transient
    copy numpy buffers for it never sits beside that workspace.
    """
    solve = _vectors_solver()
    if solve is None or not _lapack_shape(matrix):
        return np.linalg.eigh(matrix)
    dim = matrix.shape[0]
    work = _aligned_empty((dim, dim))
    work[...] = matrix.T
    levels = np.empty(dim)
    info = solve(_LAPACK_COL_MAJOR, b"V", b"L", dim, work.ctypes.data, dim, levels.ctypes.data)
    if info != 0:
        raise NumericalError(f"eigensolver failed: dsyevd returned info = {info}")
    work[...] = work.T
    return levels, work


@contextmanager
def _solver_errors():
    """Raise numpy's LinAlgError as a NumericalError."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc


def eigendecompose(ham: Hamiltonian, vectors: bool = True) -> SpectralData:
    """Dense symmetric eigendecomposition with near-degeneracy detection.

    ``degeneracy_tol`` is 1e-10 times the spectral range; a minimum level
    spacing below it sets the ``near_degenerate`` flag, which makes
    downstream Lanczos runs refuse the spectrum unless overridden.

    With ``vectors`` (see ``_eigh``) the solve holds H, one D x D array that
    becomes the C-order eigenvectors, and LAPACK's 2 D^2 workspace: 4 x 8 D^2
    bytes at its peak.  ``np.linalg.eigh``, the fallback where numpy bundles
    no ``LAPACKE_dsyevd``, gives the same levels and vectors bit for bit but
    holds a separate output array beside its own copy of H: 5 x 8 D^2.

    ``vectors=False`` solves for the eigenvalues alone (see ``_eigvalsh``),
    with the same verdict and an empty (D, 0) eigenvector array: no D x D
    eigenvectors, no 2 D^2 workspace, about half the time of ``eigh``.
    ``ham.matrix`` is left as it was.
    """
    with _solver_errors():
        if vectors:
            eigenvalues, eigenvectors = _eigh(ham.matrix)
        else:
            eigenvalues, eigenvectors = _eigvalsh(ham.matrix), np.empty((ham.dim, 0))
    return _spectral_data(eigenvalues, eigenvectors)


def _ising_sector_levels(n_spins: int, h_z: float, sector: str) -> np.ndarray:
    """The levels of ``eigendecompose(build_ising_sector(...), vectors=False)``
    without a Hamiltonian: the two-stage solve overwrites the freshly built
    matrix, so the peak holds one D x D array instead of H and its copy."""
    matrix = _checked_symmetric(_ising_sector_matrix(n_spins, h_z, sector))
    with _solver_errors():
        return _eigvalsh(matrix, overwrite=True)
