"""Second implementations the library is checked against, and helpers only
tests use.

The package ships one implementation of each computation; the independent
routes to the same numbers live here: the RK4 hopping-chain propagator
beside the spectral amplitudes, the unchunked complexity curve beside
``complexity_values``, the trapezoid time average beside the exact
saturation, and the paired-log-ratio dispersion beside ``sigma_moving``.
"""

import warnings

import numpy as np

from kchaos.errors import NumericalError
from kchaos.hamiltonians import _as_hamiltonian
from kchaos.krylov import ComplexityCurve


def hamiltonian_from_matrix(matrix):
    """Wrap an externally built symmetric matrix (copied, caller keeps ownership)."""
    return _as_hamiltonian(np.array(matrix, dtype=float), {"family": "custom"})


def energy_coefficients(state, spec):
    """Overlaps <e_i|psi> of a sector-basis state with each eigenstate."""
    return spec.eigenvectors.T @ state.amplitudes


def tridiagonal(lan):
    """Dense K x K tridiagonal matrix built from the Lanczos coefficients."""
    t = np.diag(lan.a)
    if lan.b.size:
        t += np.diag(lan.b, 1) + np.diag(lan.b, -1)
    return t


def tight_binding_propagate(lan, t_max, dt):
    """Integrate the Krylov hopping chain with a classical 4th-order scheme.

    Solves i d/dt psi_n = a_n psi_n + b_n psi_{n-1} + b_{n+1} psi_{n+1} from
    psi_n(0) = delta_n0 with fixed step ``dt``; returns ``(times, psi)`` with
    one column per step.  An independent cross-check of the spectral
    amplitudes; raises when the accumulated norm drift exceeds 1e-6.
    """
    if dt <= 0 or t_max < 0:
        raise ValueError("need dt > 0 and t_max >= 0")
    a = lan.a
    b = lan.b
    k = lan.krylov_dim

    def rhs(psi):
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


def complexity_curve(psi_matrix, times):
    """First moment of the chain occupation: C(t) = sum_n n |psi_n(t)|^2."""
    psi_matrix = np.asarray(psi_matrix)
    positions = np.arange(psi_matrix.shape[0])
    values = positions @ (np.abs(psi_matrix) ** 2)
    return ComplexityCurve(times=np.asarray(times, dtype=float), values=values)


def time_average_complexity(curve, t_final, fastest_phase=None):
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


def sigma_log(b):
    """Dispersion of the off-diagonal sequence via paired log ratios.

    Forms x_m = ln|b_{2m-1} / b_{2m}| over all complete pairs (the sequence
    is indexed from 1) and returns the square root of their population
    variance.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] < 4:
        raise ValueError("need at least 4 coefficients (two complete pairs)")
    if np.any(b == 0):
        raise ValueError("sequence contains a zero entry")
    n_pairs = b.shape[0] // 2
    x = np.log(np.abs(b[0 : 2 * n_pairs : 2] / b[1 : 2 * n_pairs : 2]))
    return float(np.sqrt(np.var(x)))


def spearman_rank_correlation(x, y):
    """Spearman rank correlation with average ranks on ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.shape[0] < 2:
        raise ValueError("x and y must be equal-length vectors of length >= 2")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    return float(np.corrcoef(rx, ry)[0, 1])


def _average_ranks(v):
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.shape[0])
    ranks[order] = np.arange(1, v.shape[0] + 1, dtype=float)
    # average ranks within tied groups
    sorted_v = v[order]
    i = 0
    while i < sorted_v.shape[0]:
        j = i
        while j + 1 < sorted_v.shape[0] and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks
