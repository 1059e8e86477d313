"""Lanczos recursion, Krylov-basis evolution and complexity saturation.

The recursion is run with full orthogonalization: each candidate vector is
re-projected against every previous Krylov vector (one classical
Gram-Schmidt pass, repeated only after heavy cancellation) before its norm
is taken as the next off-diagonal coefficient.  Time evolution inside the
Krylov chain is computed spectrally, with a fixed-step 4th-order integrator
of the hopping-chain equation kept as an independent cross-check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, OrthogonalityLossError, NumericalError
from .hamiltonians import Hamiltonian, SpectralData
from .states import StateVector

DEFAULT_B_TOL = 1e-12
DEFAULT_ORTHO_TOL = 1e-10
# a Gram-Schmidt pass is repeated when it leaves less than this share of the norm
DGKS_RATIO = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class LanczosResult:
    """Lanczos coefficients and the orthonormal Krylov basis.

    ``a`` holds the K diagonal coefficients, ``b`` the K-1 positive
    off-diagonal ones (the leading b_0 = 0 is omitted).  ``basis`` has the
    Krylov vectors as columns.  ``halt_index`` records the step at which the
    recursion found a vanishing norm, or None when it ran to full dimension.
    ``ortho_residual`` is the largest deviation of the basis Gram matrix from
    the identity.
    """

    a: np.ndarray
    b: np.ndarray
    basis: np.ndarray
    krylov_dim: int
    halt_index: int | None
    ortho_residual: float

    @property
    def halted_early(self) -> bool:
        return self.halt_index is not None

    def tridiagonal(self) -> np.ndarray:
        """Dense K x K tridiagonal matrix built from the coefficients."""
        t = np.diag(self.a)
        if self.b.size:
            t += np.diag(self.b, 1) + np.diag(self.b, -1)
        return t


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
    """Three-term recursion with full reorthogonalization.

    Each candidate vector gets one classical Gram-Schmidt pass against every
    previous Krylov vector, and a second one only when the first left less
    than ``DGKS_RATIO`` of its norm (the criterion of Daniel, Gragg, Kaufman
    and Stewart, Math. Comp. 30, 1976).  The recursion halts at the first
    off-diagonal coefficient below ``DEFAULT_B_TOL`` times the spectral range
    of ``spec`` (times 1 when the range is 0).

    Parameters
    ----------
    ham : Hamiltonian
        Real symmetric matrix driving the recursion.
    psi0 : StateVector
        Unit seed vector in the same basis as the matrix.
    spec : SpectralData
        Eigendecomposition of ``ham``: supplies the spectral scale and the
        degeneracy gate.
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

    w = apply_h(v)
    a[0] = np.real(np.vdot(v, w))
    w = w - a[0] * v
    k = 1
    halt_index = None
    for n in range(1, dim):
        prev = q[:n]
        b_n = np.linalg.norm(w)
        for _ in range(2):
            w = w - (prev @ w.conj()).conj() @ prev
            before, b_n = b_n, np.linalg.norm(w)
            if b_n >= DGKS_RATIO * before:
                break
        if b_n < DEFAULT_B_TOL * scale:
            halt_index = n
            break
        v = w / b_n
        q[n] = v
        b[n - 1] = b_n
        k = n + 1
        u = apply_h(v)
        a[n] = np.real(np.vdot(v, u))
        w = u - a[n] * v - b_n * q[n - 1]

    basis = q[:k].T
    gram = q[:k].conj() @ basis
    ortho_resid = float(np.max(np.abs(gram - np.eye(k))))
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


def tight_binding_propagate(
    lan: LanczosResult, t_max: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the Krylov hopping chain with a classical 4th-order scheme.

    Solves i d/dt psi_n = a_n psi_n + b_n psi_{n-1} + b_{n+1} psi_{n+1} from
    psi_n(0) = delta_n0 with fixed step ``dt``; returns ``(times, psi)`` with
    one column per step.  Exists as an independent cross-check of the
    spectral amplitudes; raises when the accumulated norm drift exceeds 1e-6.
    """
    if dt <= 0 or t_max < 0:
        raise ValueError("need dt > 0 and t_max >= 0")
    a = lan.a
    b = lan.b
    k = lan.krylov_dim

    def rhs(psi: np.ndarray) -> np.ndarray:
        y = a * psi
        if k > 1:
            y[1:] += b * psi[:-1]
            y[:-1] += b * psi[1:]
        return -1j * y

    n_steps = int(round(t_max / dt))
    times = np.arange(n_steps + 1) * dt
    out = np.empty((k, n_steps + 1), dtype=complex)
    psi = np.zeros(k, dtype=complex)
    psi[0] = 1.0
    out[:, 0] = psi
    for step in range(1, n_steps + 1):
        k1 = rhs(psi)
        k2 = rhs(psi + 0.5 * dt * k1)
        k3 = rhs(psi + 0.5 * dt * k2)
        k4 = rhs(psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[:, step] = psi
    drift = float(np.max(np.abs(np.sum(np.abs(out) ** 2, axis=0) - 1.0)))
    if drift > 1e-6:
        suggested = dt * (1e-6 / drift) ** 0.25
        raise NumericalError(
            f"norm drift {drift:.3e} exceeds 1e-6; retry with dt <= {suggested:.3e}"
        )
    return times, out


def complexity_curve(psi_matrix: np.ndarray, times: np.ndarray) -> ComplexityCurve:
    """First moment of the chain occupation: C(t) = sum_n n |psi_n(t)|^2."""
    psi_matrix = np.asarray(psi_matrix)
    positions = np.arange(psi_matrix.shape[0])
    values = positions @ (np.abs(psi_matrix) ** 2)
    return ComplexityCurve(times=np.asarray(times, dtype=float), values=values)


def complexity_values(
    spec: SpectralData,
    lan: LanczosResult,
    psi0: StateVector,
    times: np.ndarray,
    chunk_size: int = 16384,
) -> ComplexityCurve:
    """Spectral-method complexity curve, evaluated in time chunks.

    Equivalent to ``complexity_curve(krylov_amplitudes(...), times)`` but
    never materializes the full amplitude matrix, which matters for the long
    grids used in time-average checks.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    values = np.empty(times.shape[0])
    positions = np.arange(lan.krylov_dim)
    for start in range(0, times.shape[0], chunk_size):
        chunk = times[start : start + chunk_size]
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
    weights = np.abs(spec.eigenvectors.T @ np.asarray(psi0.amplitudes)) ** 2
    q = (np.abs(overlaps) ** 2) @ weights
    q0n = np.zeros(spec.dim)
    q0n[: lan.krylov_dim] = q
    c_bar = float(np.arange(lan.krylov_dim) @ q)
    half = (spec.dim - 1) / 2.0
    c_bar_normalized = c_bar / half if half > 0 else 0.0
    return SaturationReport(c_bar=c_bar, c_bar_normalized=c_bar_normalized, q0n=q0n)


def time_average_complexity(
    curve: ComplexityCurve, t_final: float, fastest_phase: float | None = None
) -> float:
    """Trapezoidal average of a complexity curve over [0, t_final].

    ``fastest_phase`` (the spectral range) enables an undersampling warning
    when the grid cannot resolve the fastest oscillation.
    """
    mask = curve.times <= t_final * (1.0 + 1e-12)
    t = curve.times[mask]
    v = curve.values[mask]
    if t.shape[0] < 2:
        raise ValueError("need at least two samples inside [0, t_final]")
    max_step = float(np.max(np.diff(t)))
    if fastest_phase is not None and fastest_phase > 0 and max_step > 1.0 / fastest_phase:
        warnings.warn(
            f"time grid step {max_step:.3e} undersamples the fastest phase "
            f"(period {2 * np.pi / fastest_phase:.3e})",
            stacklevel=2,
        )
    return float(np.trapezoid(v, t) / (t[-1] - t[0]))


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
