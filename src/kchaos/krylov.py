"""Lanczos recursion, Krylov-basis evolution and complexity saturation.

The recursion keeps the Krylov basis orthonormal to working precision: each
candidate vector is re-projected against every previous Krylov vector (one
classical Gram-Schmidt pass, repeated only after heavy cancellation) before
its norm is taken as the next off-diagonal coefficient.  From
``PRO_MIN_DIM`` on, a pass runs only at the steps where Simon's estimate of
the orthogonality loss asks for one (partial reorthogonalization).  Time
evolution inside the Krylov chain is computed spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, OrthogonalityLossError
from .hamiltonians import Hamiltonian, SpectralData
from .states import StateVector

DEFAULT_B_TOL = 1e-12
DEFAULT_ORTHO_TOL = 1e-10
# a Gram-Schmidt pass is repeated when it leaves less than this share of the norm
DGKS_RATIO = 1.0 / np.sqrt(2.0)
# from this dimension on, a Gram-Schmidt pass runs only where the omega
# estimate asks for one; it breaks even near D = 400, and the N=10 sector
# (D = 528) and smaller keep a pass at every step and their results bit for bit
PRO_MIN_DIM = 600
# the omega estimate asks for a pass when some |<q_n|q_k>| may exceed this
OMEGA_TOL = 1e-12
# time points per block of Krylov amplitudes in complexity_values
CHUNK_TIMES = 16384


@dataclass(frozen=True)
class LanczosResult:
    """Lanczos coefficients and the orthonormal Krylov basis.

    ``a`` holds the K diagonal coefficients, ``b`` the K-1 positive
    off-diagonal ones (the leading b_0 = 0 is omitted).  ``basis`` has the
    Krylov vectors as columns.  ``halt_index`` records the step at which the
    recursion found a vanishing norm, or None when it ran to full dimension.
    ``ortho_residual`` is the largest deviation of the basis Gram matrix from
    the identity, and ``reorth_passes`` the number of Gram-Schmidt passes the
    run made, repeats included.
    """

    a: np.ndarray
    b: np.ndarray
    basis: np.ndarray
    krylov_dim: int
    halt_index: int | None
    ortho_residual: float
    reorth_passes: int

    @property
    def halted_early(self) -> bool:
        return self.halt_index is not None


@dataclass(frozen=True)
class ComplexityCurve:
    """Mean Krylov-chain position as a function of time."""

    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class SaturationReport:
    """Infinite-time average of the complexity and its transition weights.

    ``q0n[n]`` is the time-averaged occupation of chain site n; ``c_bar`` is
    its first moment and ``c_bar_normalized`` divides by the fully
    delocalized value (D-1)/2.
    """

    c_bar: float
    c_bar_normalized: float
    q0n: np.ndarray


def _check_degeneracy(spec: SpectralData, allow_degenerate: bool) -> None:
    if spec.near_degenerate and not allow_degenerate:
        raise DegenerateSpectrumError(
            f"spectrum has min spacing {spec.min_spacing:.3e} below tolerance "
            f"{spec.degeneracy_tol:.3e}; pass allow_degenerate=True to proceed"
        )


def lanczos_full_orth(
    ham: Hamiltonian,
    psi0: StateVector,
    spec: SpectralData,
    allow_degenerate: bool = False,
    ortho_tol: float = DEFAULT_ORTHO_TOL,
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
    the final Gram check against ``ortho_tol`` holds the basis to the same
    standard.  The recursion halts at the first off-diagonal coefficient
    below ``DEFAULT_B_TOL`` times the spectral range of ``spec`` (times 1
    when the range is 0).

    Parameters
    ----------
    ham : Hamiltonian
        Real symmetric matrix driving the recursion.
    psi0 : StateVector
        Unit seed vector in the same basis as the matrix.
    spec : SpectralData
        Eigendecomposition of ``ham``: supplies the spectral scale, ||H|| for
        the estimate and the degeneracy gate.
    allow_degenerate : bool
        Run even when ``spec`` is flagged near-degenerate.
    ortho_tol : float
        Maximum allowed deviation of the Gram matrix from the identity.

    Returns
    -------
    LanczosResult
    """
    dim = ham.dim
    v = np.asarray(psi0.amplitudes)
    if v.shape != (dim,):
        raise ValueError(f"state dimension {v.shape} does not match matrix dimension {dim}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")
    _check_degeneracy(spec, allow_degenerate)
    scale = spec.spectral_range
    if scale == 0.0:
        scale = 1.0
    apply_h = ham.matvec

    dtype = complex if np.iscomplexobj(v) else float
    # Krylov vectors are the rows, so each projection reads contiguous memory
    q = np.empty((dim, dim), dtype=dtype)
    q[0] = v
    a = np.empty(dim)
    b = np.empty(dim - 1) if dim > 1 else np.empty(0)

    partial = dim >= PRO_MIN_DIM
    if partial:
        eps = np.finfo(float).eps
        # roundoff one step adds to b_n * omega_{n,k}
        local = eps * np.sqrt(dim) * float(np.max(np.abs(spec.eigenvalues)))
        # rows omega_{n-2}, omega_{n-1} and omega_n of the estimate
        old, cur, new = np.full((3, dim), eps)
        new[0] = 1.0
    force = False
    passes = 0

    w = apply_h(v)
    a[0] = np.real(np.vdot(v, w))
    w = w - a[0] * v
    k = 1
    halt_index = None
    for n in range(1, dim):
        prev = q[:n]
        b_n = np.linalg.norm(w)
        skip = False
        if partial:
            old, cur, new = cur, new, old
            if not force and local < OMEGA_TOL * b_n:
                # b_n omega_{n,k} = b_{k+1} omega_{n-1,k+1} + (a_k - a_{n-1}) omega_{n-1,k}
                #                   + b_k omega_{n-1,k-1} - b_{n-1} omega_{n-2,k}
                m = n - 1
                if m:
                    t = new[:m]
                    np.multiply(b[:m], cur[1:n], out=t)
                    t += (a[:m] - a[m]) * cur[:m]
                    t[1:] += b[: m - 1] * cur[: m - 1]
                    t -= b[m - 1] * old[:m]
                    t += np.copysign(local, t)
                    t /= b_n
                skip = float(np.max(np.abs(new[:m]), initial=0.0)) <= OMEGA_TOL
                new[m] = local / b_n
            # a pass asked for by the estimate is repeated at the next step
            force = not skip and not force
        if not skip:
            for _ in range(2):
                w = w - (prev @ w.conj()).conj() @ prev
                passes += 1
                before, b_n = b_n, np.linalg.norm(w)
                if b_n >= DGKS_RATIO * before:
                    break
            if partial:
                new[:n] = eps
        if b_n < DEFAULT_B_TOL * scale:
            halt_index = n
            break
        if partial:
            new[n] = 1.0
        v = w / b_n
        q[n] = v
        b[n - 1] = b_n
        k = n + 1
        u = apply_h(v)
        a[n] = np.real(np.vdot(v, u))
        w = u - a[n] * v - b_n * q[n - 1]

    basis = q[:k].T
    gram = q[:k].conj() @ basis
    gram.flat[:: k + 1] -= 1.0
    ortho_resid = float(np.max(np.abs(gram, out=gram).real))
    if ortho_resid > ortho_tol:
        raise OrthogonalityLossError(
            f"Krylov basis orthogonality residual {ortho_resid:.3e} exceeds {ortho_tol:.1e}"
        )
    basis.setflags(write=False)
    return LanczosResult(
        a=a[:k],
        b=b[: k - 1],
        basis=basis,
        krylov_dim=k,
        halt_index=halt_index,
        ortho_residual=ortho_resid,
        reorth_passes=passes,
    )


def _eigen_overlaps(spec: SpectralData, lan: LanczosResult) -> np.ndarray:
    """Matrix <K_n|e_i> of shape (K, D)."""
    return lan.basis.conj().T @ spec.eigenvectors


def _seed_check(lan: LanczosResult, psi0: StateVector) -> None:
    overlap = abs(np.vdot(lan.basis[:, 0], psi0.amplitudes))
    if abs(overlap - 1.0) > 1e-10:
        raise ValueError("psi0 is not the seed state of this Krylov basis")


def krylov_amplitudes(
    spec: SpectralData,
    lan: LanczosResult,
    psi0: StateVector,
    times: np.ndarray,
) -> np.ndarray:
    """Spectral-method amplitudes psi_n(t) on the Krylov chain.

    Returns the (K, len(times)) complex matrix with
    psi_n(t) = sum_i exp(-i e_i t) <K_n|e_i><e_i|psi0>.
    """
    if spec.dim != lan.basis.shape[0] or psi0.dim != spec.dim:
        raise ValueError("spec, lan and psi0 must share one Hilbert space dimension")
    _seed_check(lan, psi0)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    overlaps = _eigen_overlaps(spec, lan)
    weights = spec.eigenvectors.T @ np.asarray(psi0.amplitudes)
    phases = np.exp(-1j * spec.eigenvalues[:, None] * times[None, :])
    return overlaps @ (weights[:, None] * phases)


def complexity_values(
    spec: SpectralData,
    lan: LanczosResult,
    psi0: StateVector,
    times: np.ndarray,
) -> ComplexityCurve:
    """Spectral-method complexity curve C(t) = sum_n n |psi_n(t)|^2,
    evaluated ``CHUNK_TIMES`` times at a time.

    Never materializes the full amplitude matrix, which matters for the long
    grids used in time-average checks; ``tests/oracles.py::complexity_curve``
    computes the same curve from the full matrix of ``krylov_amplitudes``.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    values = np.empty(times.shape[0])
    positions = np.arange(lan.krylov_dim)
    for start in range(0, times.shape[0], CHUNK_TIMES):
        chunk = times[start : start + CHUNK_TIMES]
        amps = krylov_amplitudes(spec, lan, psi0, chunk)
        values[start : start + chunk.shape[0]] = positions @ (np.abs(amps) ** 2)
    return ComplexityCurve(times=times, values=values)


def saturation(
    spec: SpectralData,
    lan: LanczosResult,
    psi0: StateVector,
    allow_degenerate: bool = False,
) -> SaturationReport:
    """Exact infinite-time average of the Krylov complexity.

    For a nondegenerate spectrum the time average of C(t) equals
    sum_n n Q_0n with Q_0n = sum_i |<e_i|psi0>|^2 |<K_n|e_i>|^2.  When the
    recursion halted at K < D the weights are supported on n < K and the
    formula remains valid inside the Krylov subspace.
    """
    _check_degeneracy(spec, allow_degenerate)
    if spec.dim != lan.basis.shape[0] or psi0.dim != spec.dim:
        raise ValueError("spec, lan and psi0 must share one Hilbert space dimension")
    overlaps = _eigen_overlaps(spec, lan)
    if np.iscomplexobj(overlaps):
        overlaps = np.abs(overlaps)
    # |<K_n|e_i>|^2 in place, so a real basis needs one K x D array, not two
    overlaps *= overlaps
    weights = np.abs(spec.eigenvectors.T @ np.asarray(psi0.amplitudes)) ** 2
    q = overlaps @ weights
    q0n = np.zeros(spec.dim)
    q0n[: lan.krylov_dim] = q
    c_bar = float(np.arange(lan.krylov_dim) @ q)
    half = (spec.dim - 1) / 2.0
    c_bar_normalized = c_bar / half if half > 0 else 0.0
    return SaturationReport(c_bar=c_bar, c_bar_normalized=c_bar_normalized, q0n=q0n)


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
