"""Lanczos recursion, Krylov-basis evolution and complexity saturation.

The recursion keeps the Krylov basis orthonormal to working precision: each
candidate vector is re-projected against every previous Krylov vector (one
classical Gram-Schmidt pass, repeated only after heavy cancellation) before
its norm is taken as the next off-diagonal coefficient.  From
``PRO_MIN_DIM`` on, the N=10 Ising sector included, a pass runs only at the
steps where Simon's estimate of the orthogonality loss asks for one (partial
reorthogonalization).  The chain of a perturbed eigenstate is derived from
the chain of its admixture by a Givens bulge chase (``perturbed_chain``).
Time evolution inside the Krylov chain is computed spectrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, OrthogonalityLossError
from .hamiltonians import DiagonalOperator, Hamiltonian, SpectralData, _aligned_empty

DEFAULT_B_TOL = 1e-12
# largest deviation of the Krylov basis Gram matrix from the identity a run accepts
ORTHO_TOL = 1e-10
# a Gram-Schmidt pass is repeated when it leaves less than this share of the norm
DGKS_RATIO = 1.0 / np.sqrt(2.0)
# from this dimension on, a Gram-Schmidt pass runs only where the omega
# estimate asks for one: with one BLAS thread and random seeds it breaks even
# between D = 300 and 330 and saves 7-30% per chain from D = 400 (about 15%
# on the N=10 sector, D = 528); smaller runs keep a pass at every step
PRO_MIN_DIM = 400
# the omega estimate asks for a pass when some |<q_n|q_k>| may exceed this
OMEGA_TOL = 1e-12
# complexity_values takes times in blocks whose D x T complex phases fit in this many bytes
BLOCK_BYTES = 64 * 2**20
# the Gram check takes Krylov rows in blocks whose slice of the Gram matrix fits
# in this many bytes: up to 362 real rows are one block, one symmetric product
GRAM_BLOCK_BYTES = 2**20
# and in no more blocks than this, each of which re-reads the later rows: with
# one BLAS thread, blocks of 63 rows made the check 25% slower at K = 2079
GRAM_MAX_BLOCKS = 8


@dataclass(frozen=True)
class LanczosResult:
    """Lanczos coefficients, the orthonormal Krylov basis and the spectrum
    the run was gated and scaled with.

    ``a`` holds the K diagonal coefficients, ``b`` the K-1 positive
    off-diagonal ones (the leading b_0 = 0 is omitted).  ``basis`` has the
    Krylov vectors as columns; its first column is the seed state.
    ``ortho_residual`` is the largest deviation of the basis Gram matrix from
    the identity, and ``reorth_passes`` the number of Gram-Schmidt passes the
    run made, repeats included.
    """

    a: np.ndarray
    b: np.ndarray
    basis: np.ndarray
    krylov_dim: int
    ortho_residual: float
    reorth_passes: int
    spec: SpectralData

    @property
    def halted_early(self) -> bool:
        """The recursion found a vanishing norm before full dimension."""
        return self.krylov_dim < self.spec.dim


@dataclass(frozen=True)
class SaturationReport:
    """Infinite-time average of the complexity.

    ``c_bar`` is the first moment of the time-averaged occupations of the
    chain sites and ``c_bar_normalized`` divides it by the fully delocalized
    value (D-1)/2.
    """

    c_bar: float
    c_bar_normalized: float


def lanczos_full_orth(
    ham: Hamiltonian | DiagonalOperator,
    psi0: np.ndarray,
    spec: SpectralData,
    allow_degenerate: bool = False,
) -> LanczosResult:
    """Three-term recursion with reorthogonalization against the whole basis.

    A Gram-Schmidt pass projects the candidate vector on every previous
    Krylov vector; a second pass follows only when the first left less than
    ``DGKS_RATIO`` of its norm (the criterion of Daniel, Gragg, Kaufman and
    Stewart, Math. Comp. 30, 1976).  Below ``PRO_MIN_DIM`` every step runs a
    pass.  From it on, the step carries Simon's omega recurrence (H. D.
    Simon, Math. Comp. 42, 1984), an estimate of the overlaps |<q_n|q_k>|
    from the coefficients alone, with roundoff eps*sqrt(D)*||H|| entering at
    every step and the neighbour overlap set to eps*sqrt(D)*||H||/b_n.  A
    pass runs only when some estimate exceeds ``OMEGA_TOL``, and then again
    at the next step; both rows of the estimate restart at eps.  Either way
    the final Gram check against ``ORTHO_TOL`` holds the basis to the same
    standard.  The recursion halts at the first off-diagonal coefficient
    below ``DEFAULT_B_TOL`` times the spectral range of ``spec`` (times 1
    when the range is 0).

    Parameters
    ----------
    ham : Hamiltonian or DiagonalOperator
        Real symmetric operator driving the recursion, applied through its
        ``matvec``.
    psi0 : np.ndarray
        Unit seed vector in the same basis as the matrix.
    spec : SpectralData
        Eigendecomposition of ``ham``: supplies the spectral scale, ||H|| for
        the estimate and the degeneracy gate.
    allow_degenerate : bool
        Run even when ``spec`` is flagged near-degenerate.

    Returns
    -------
    LanczosResult
    """
    dim = ham.dim
    v = np.asarray(psi0)
    if v.shape != (dim,) or spec.dim != dim:
        raise ValueError(
            f"state {v.shape} and spectrum ({spec.dim},) must match matrix dimension {dim}"
        )
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")
    if spec.near_degenerate and not allow_degenerate:
        raise DegenerateSpectrumError(
            f"spectrum has min spacing {spec.min_spacing:.3e} below tolerance "
            f"{spec.degeneracy_tol:.3e}; pass allow_degenerate=True to proceed"
        )
    scale = spec.spectral_range
    if scale == 0.0:
        scale = 1.0
    apply_h = ham.matvec

    dtype = complex if np.iscomplexobj(v) else float
    # Krylov vectors are the rows, so each projection reads contiguous memory
    q = _aligned_empty((dim, dim), dtype)
    q[0] = v
    a = np.empty(dim)
    b = np.empty(dim - 1) if dim > 1 else np.empty(0)

    partial = dim >= PRO_MIN_DIM
    if partial:
        eps = np.finfo(float).eps
        # roundoff one step adds to b_n * omega_{n,k}
        local = eps * np.sqrt(dim) * float(np.max(np.abs(spec.eigenvalues)))
        # rows omega_{n-2}, omega_{n-1} and omega_n of the estimate, and a work row
        old, cur, new, work = np.full((4, dim), eps)
        new[0] = 1.0
    force = False
    passes = 0

    w = apply_h(v)
    a[0] = np.vdot(v, w).real
    w -= a[0] * v
    k = 1
    for n in range(1, dim):
        b_n = math.sqrt(np.vdot(w, w).real)
        skip = False
        if partial:
            old, cur, new = cur, new, old
            if not force and local < OMEGA_TOL * b_n:
                # b_n omega_{n,k} = b_{k+1} omega_{n-1,k+1} + (a_k - a_{n-1}) omega_{n-1,k}
                #                   + b_k omega_{n-1,k-1} - b_{n-1} omega_{n-2,k}
                m = n - 1
                t, s = new[:m], work[:m]
                if m:
                    np.multiply(b[:m], cur[1:n], out=t)
                    np.subtract(a[:m], a[m], out=s)
                    s *= cur[:m]
                    t += s
                    np.multiply(b[: m - 1], cur[: m - 1], out=s[1:])
                    t[1:] += s[1:]
                    np.multiply(b[m - 1], old[:m], out=s)
                    t -= s
                    t += np.copysign(local, t, out=s)
                    t /= b_n
                skip = float(np.abs(t, out=s).max(initial=0.0)) <= OMEGA_TOL
                new[m] = local / b_n
            # a pass asked for by the estimate is repeated at the next step
            force = not skip and not force
        if not skip:
            prev = q[:n]
            for _ in range(2):
                # conj() of a real array is the array itself: one path for both dtypes
                w -= (prev @ w.conj()).conj() @ prev
                passes += 1
                before, b_n = b_n, math.sqrt(np.vdot(w, w).real)
                if b_n >= DGKS_RATIO * before:
                    break
            if partial:
                new[:n] = eps
        if b_n < DEFAULT_B_TOL * scale:
            break
        if partial:
            new[n] = 1.0
        v = np.divide(w, b_n, out=q[n])
        b[n - 1] = b_n
        k = n + 1
        w = apply_h(v)
        a[n] = np.vdot(v, w).real
        w -= a[n] * v
        w -= b_n * q[n - 1]

    ortho_resid = _gram_check(q[:k])
    basis = q[:k].T
    basis.setflags(write=False)
    return LanczosResult(
        a=a[:k],
        b=b[: k - 1],
        basis=basis,
        krylov_dim=k,
        ortho_residual=ortho_resid,
        reorth_passes=passes,
        spec=spec,
    )


def _gram_residual(rows: np.ndarray) -> float:
    """Largest |(R R^H - I)_mn| over m <= n for the K rows R, real or complex.

    The rows are taken in blocks, each against itself and every later row,
    so the K x K Gram matrix is never formed whole.  A block's slice fits in
    ``GRAM_BLOCK_BYTES`` or, when that would take more than
    ``GRAM_MAX_BLOCKS`` blocks, holds K / ``GRAM_MAX_BLOCKS`` rows, rounded
    up.  A single block is the one product ``R R^H``, a symmetric rank-k
    update for real rows.
    """
    k = rows.shape[0]
    step = max(GRAM_BLOCK_BYTES // (rows.itemsize * k), -(-k // GRAM_MAX_BLOCKS))
    # one maximum per block, so a nan anywhere reaches the result
    worst = []
    for start in range(0, k, step):
        # conj() of a real array is the array itself: one path for both dtypes
        gram = rows[start : start + step].conj() @ rows[start:].T
        gram.ravel()[:: gram.shape[1] + 1] -= 1.0
        worst.append(np.abs(gram, out=gram).real.max())
        # release this block's slice before the next block allocates its own
        del gram
    return float(np.max(worst))


def _gram_check(rows: np.ndarray) -> float:
    """``_gram_residual`` of Krylov rows; raises OrthogonalityLossError above ``ORTHO_TOL``."""
    ortho_resid = _gram_residual(rows)
    if ortho_resid > ORTHO_TOL:
        raise OrthogonalityLossError(
            f"Krylov basis orthogonality residual {ortho_resid:.3e} exceeds {ORTHO_TOL:.1e}"
        )
    return ortho_resid


def perturbed_chain(
    a: np.ndarray,
    b: np.ndarray,
    rows: np.ndarray,
    levels: np.ndarray,
    j: int,
    delta: float,
) -> np.ndarray:
    """Lanczos chain of ``(|e_j> + delta |t>) / sqrt(1 + delta^2)`` on
    diag(E), in eigen-coordinates, from the chain of ``|t>``.

    ``levels`` are the eigenvalues E, ascending, and ``a``, ``b`` and
    ``rows`` the coefficients and the Krylov vectors of a unit state ``|t>``
    with no weight on level ``j``.  The rows are in complement coordinates,
    eigen-coordinates without column j, as the chain of ``|t>`` on diag(E)
    without level j leaves them: (K, D-1), read in place, one row at a time.
    In the basis e_j, t_0, t_1, ... diag(E) is E_j beside the tridiagonal T
    of ``|t>``.  One rotation in the (e_j, t_0) plane makes the seed the first
    basis vector and leaves a bulge at (0, 2); Givens rotations in the planes
    (n, n+1), n = 1, 2, ..., chase it down and off the matrix and restore
    tridiagonal form with the first vector fixed (node updating, Gragg and
    Harrod, Numer. Math. 44, 1984), so by the implicit-Q theorem the result
    is the seed's Lanczos chain.  The work is O(K) scalar steps plus two row
    rotations of length D per step.  The chain halts, as
    ``lanczos_full_orth`` does, at the first off-diagonal coefficient below
    ``DEFAULT_B_TOL`` times the spectral range (times 1 when it is 0), and
    the rotated rows pass the same Gram check against ``ORTHO_TOL``.

    Returns the (K, D) Krylov rows, the first of which is the seed.
    """
    dim = levels.shape[0]
    size = a.shape[0] + 1
    scale = float(levels[-1] - levels[0])
    tol = DEFAULT_B_TOL * (scale if scale != 0.0 else 1.0)
    out = np.empty((size, dim))
    # tau is t_n in eigen-coordinates, filled from its row around a 0 at j
    carry, work, tau = np.zeros((3, dim))
    carry[j] = 1.0
    c = 1.0 / math.hypot(1.0, delta)
    s = delta * c
    # p, e: entries (n, n) and (n, n+1) before the rotation in (n, n+1); row
    # n+1 is still t_n, whose diagonal entry is a[n] and coupling onward b[n]
    p, e = float(levels[j]), 0.0
    k = size
    for n in range(size - 1):
        q, f = a[n], (b[n] if n + 1 < size - 1 else 0.0)
        cc, ss, cs = c * c, s * s, c * s
        # (x, y): entries (n, n+1) and (n, n+2) after the rotation; y is the bulge
        x, y = cs * (q - p) + (cc - ss) * e, s * f
        p, e = ss * p - 2.0 * cs * e + cc * q, c * f
        tau[:j], tau[j + 1 :] = rows[n, :j], rows[n, j:]
        row = np.multiply(carry, c, out=out[n])
        row += np.multiply(tau, s, out=work)
        carry *= -s
        carry += np.multiply(tau, c, out=work)
        r = math.hypot(x, y)
        if r < tol:
            k = n + 1
            break
        c, s = x / r, y / r
    else:
        # the last rotation has no bulge to chase: it only fixes the sign of b
        np.multiply(carry, c, out=out[-1])
    basis = out[:k]
    _gram_check(basis)
    return basis


def _eigen_overlaps(lan: LanczosResult) -> np.ndarray:
    """Matrix <K_n|e_i> of shape (K, D); ValueError if the spectrum lacks eigenvectors."""
    if lan.spec.eigenvectors.shape[1] < lan.spec.dim:
        raise ValueError("the run's spectrum lacks eigenvectors: solve it with eigendecompose(ham)")
    return lan.basis.conj().T @ lan.spec.eigenvectors


def _c_bar(overlaps: np.ndarray, weights: np.ndarray) -> float:
    """sum_n n sum_i w_i |<K_n|e_i>|^2 from the (K, D) overlaps; squares real ones in place."""
    if np.iscomplexobj(overlaps):
        overlaps = np.abs(overlaps)
    # |<K_n|e_i>|^2 in place, so a real basis needs one K x D array, not two
    overlaps *= overlaps
    return float(np.arange(overlaps.shape[0]) @ (overlaps @ weights))


def _seed_weights(lan: LanczosResult) -> np.ndarray:
    """Eigenbasis coefficients <e_i|psi0> of the seed, the first Krylov vector."""
    return lan.spec.eigenvectors.T @ lan.basis[:, 0]


def _seed_phases(lan: LanczosResult, seed: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The (D, len(times)) matrix exp(-i e_i t) <e_i|psi0>."""
    phases = -1j * lan.spec.eigenvalues[:, None] * times[None, :]
    np.exp(phases, out=phases)
    return np.multiply(seed[:, None], phases, out=phases)


def krylov_amplitudes(lan: LanczosResult, times: np.ndarray) -> np.ndarray:
    """Spectral-method amplitudes psi_n(t) on the Krylov chain.

    Returns the (K, len(times)) complex matrix with
    psi_n(t) = sum_i exp(-i e_i t) <K_n|e_i><e_i|psi0>.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return _eigen_overlaps(lan) @ _seed_phases(lan, _seed_weights(lan), times)


def complexity_values(lan: LanczosResult, times: np.ndarray) -> np.ndarray:
    """Spectral-method complexity C(t) = sum_n n |psi_n(t)|^2, exactly 0 at
    t = 0, where the state is the first chain site.

    Works through blocks of times whose D x T phase matrix fits in
    ``BLOCK_BYTES``, so long grids never materialize the full amplitude
    matrix; ``tests/oracles.py::complexity_curve`` computes the same values
    from the full matrix of ``krylov_amplitudes``.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    values = np.empty(times.shape[0])
    overlaps, seed = _eigen_overlaps(lan), _seed_weights(lan)
    positions = np.arange(lan.krylov_dim)
    block = max(1, BLOCK_BYTES // (16 * lan.spec.dim))
    for start in range(0, times.shape[0], block):
        weights = np.abs(overlaps @ _seed_phases(lan, seed, times[start : start + block]))
        values[start : start + block] = positions @ np.square(weights, out=weights)
        # release this block's K x T weights before the next block allocates its own
        del weights
    values[times == 0.0] = 0.0
    return values


def saturation(lan: LanczosResult) -> SaturationReport:
    """Exact infinite-time average of the Krylov complexity.

    For a nondegenerate spectrum the time average of C(t) equals
    sum_n n Q_0n with Q_0n = sum_i |<e_i|psi0>|^2 |<K_n|e_i>|^2.  When the
    recursion halted at K < D the weights are supported on n < K and the
    formula remains valid inside the Krylov subspace.  The spectrum is the
    one ``lanczos_full_orth`` gated, so a run allowed on a near-degenerate
    spectrum is averaged without a second check.
    """
    c_bar = _c_bar(_eigen_overlaps(lan), np.abs(_seed_weights(lan)) ** 2)
    half = (lan.spec.dim - 1) / 2.0
    c_bar_normalized = c_bar / half if half > 0 else 0.0
    return SaturationReport(c_bar=c_bar, c_bar_normalized=c_bar_normalized)


def default_time_grid(
    spectral_range: float, dim: int, n_points: int = 400
) -> np.ndarray:
    """Sampling grid for complexity curves: log-spaced up to the Heisenberg
    time, then linear out to ten times it."""
    if spectral_range <= 0 or dim < 2:
        raise ValueError("need spectral_range > 0 and dim >= 2")
    t_heisenberg = 2.0 * np.pi * (dim - 1) / spectral_range
    n_log = n_points // 2
    log_part = np.geomspace(1e-2 / spectral_range, t_heisenberg, n_log)
    lin_part = np.linspace(t_heisenberg, 10.0 * t_heisenberg, n_points - n_log + 1)[1:]
    return np.concatenate(([0.0], log_part, lin_part))
