"""Second implementations the library is checked against, and helpers only
tests use.

The package ships one implementation of each computation; the independent
routes to the same numbers live here: the full 2^N Ising chain and its
parity-sector projection beside ``build_ising_sector``, the whole-matrix
banded sum beside the in-place ``build_banded_random``, the per-site
``np.polyfit`` loop beside the one-shot overlap fit, the two-pass dense
Lanczos beside ``lanczos_full_orth`` (and, run on diag(E) from a perturbed
seed's exact eigenbasis coefficients, beside ``perturbed_chain``), the
perturbed seed in the basis of the matrix beside the eigen-coordinate chain,
the RK4 hopping-chain propagator beside the spectral amplitudes, the
unchunked complexity curve beside ``complexity_values``, the trapezoid time
average beside the exact saturation, the paired-log-ratio dispersion beside
``sigma_moving``, the ``bincount`` product beside the sparse layout of
``Hamiltonian.matvec``, and the admixture chain on a dense diag(E) with its
rows re-inserted into eigen-coordinates beside the chase on complement
coordinates.  The package returns neither the Lanczos coefficients of the
chase's rows nor the site occupations Q_0n whose first moment is the
saturation; both are computed here.
The sweep-CSV and config-file readers are here too: only tests call them.
"""

import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from kchaos.errors import NumericalError
from kchaos.hamiltonians import (
    MAX_SPINS,
    Hamiltonian,
    SpectralData,
    _as_hamiltonian,
    _reflect,
)
from kchaos.io import build_sweep_config, read_config_pairs
from kchaos.krylov import DEFAULT_B_TOL, LanczosResult, lanczos_full_orth
from kchaos.states import _make_state, perturbed_coefficients
from kchaos.sweeps import STAT_COLUMNS, SweepTable


def build_ising_full(n_spins, h_z):
    """Open Ising chain with transverse+longitudinal field, full 2^N basis:
    with ``project_to_sector``, the oracle for ``build_ising_sector``.

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
    return _as_hamiltonian(h)


def _weights(basis):
    """Each sector basis element's representative and partner indices in the
    full basis, with their coefficients."""
    partners = _reflect(basis.representatives, basis.n_spins)
    sign = 1.0 if basis.sector == "even" else -1.0
    w_rep = np.where(basis.palindrome, 1.0, 1.0 / np.sqrt(2.0))
    w_par = np.where(basis.palindrome, 0.0, sign / np.sqrt(2.0))
    return basis.representatives, partners, w_rep, w_par


def dense_matrix(basis):
    """Embedding matrix P (2^N x dim) with the sector basis as columns."""
    reps, partners, w_rep, w_par = _weights(basis)
    p = np.zeros((2**basis.n_spins, basis.dim))
    p[reps, np.arange(basis.dim)] = w_rep
    # palindromes have partner == representative and w_par == 0
    p[partners, np.arange(basis.dim)] += w_par
    return p


def embed(basis, sector_vec):
    """Lift a sector-basis vector to the full 2^N computational basis."""
    reps, partners, w_rep, w_par = _weights(basis)
    full = np.zeros(2**basis.n_spins, dtype=np.asarray(sector_vec).dtype)
    full[reps] += w_rep * sector_vec
    np.add.at(full, partners, w_par * sector_vec)
    return full


def project_to_sector(ham, basis):
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
    reps, partners, w_rep, w_par = _weights(basis)
    h = ham.matrix
    # (H P) built column-wise from at most two source columns each
    hp = h[:, reps] * w_rep + h[:, partners] * w_par
    hs = w_rep[:, None] * hp[reps, :] + w_par[:, None] * hp[partners, :]
    hs = 0.5 * (hs + hs.T)
    return _as_hamiltonian(hs)


def lanczos_reference(ham, psi0, spec):
    """Two-pass dense full-orthogonalization Lanczos: the oracle for the
    production kernel.

    Every step applies the dense matrix and runs two classical Gram-Schmidt
    passes against all previous Krylov vectors, which are stored as columns.
    Same halting rule as ``lanczos_full_orth``; no degeneracy gate and no
    orthogonality check, only the residual.
    """
    h = ham.matrix
    dim = ham.dim
    v = np.asarray(psi0)
    scale = spec.spectral_range
    if scale == 0.0:
        scale = 1.0

    dtype = complex if np.iscomplexobj(v) else float
    basis = np.empty((dim, dim), dtype=dtype)
    basis[:, 0] = v
    a = np.empty(dim)
    b = np.empty(dim - 1) if dim > 1 else np.empty(0)

    w = h @ v
    a[0] = np.real(np.vdot(v, w))
    w = w - a[0] * v
    k = 1
    passes = 0
    for n in range(1, dim):
        prev = basis[:, :n]
        for _ in range(2):
            w = w - prev @ (prev.conj().T @ w)
            passes += 1
        b_n = np.linalg.norm(w)
        if b_n < DEFAULT_B_TOL * scale:
            break
        v = w / b_n
        basis[:, n] = v
        b[n - 1] = b_n
        k = n + 1
        u = h @ v
        a[n] = np.real(np.vdot(v, u))
        w = u - a[n] * v - b_n * basis[:, n - 1]

    basis = np.ascontiguousarray(basis[:, :k])
    gram = basis.conj().T @ basis
    ortho_resid = float(np.max(np.abs(gram - np.eye(k))))
    return LanczosResult(
        a=a[:k],
        b=b[: k - 1],
        basis=basis,
        krylov_dim=k,
        ortho_residual=ortho_resid,
        reorth_passes=passes,
        spec=spec,
    )


def gram_residual_reference(rows):
    """max |R R^H - I| of the rows R over the whole K x K Gram matrix."""
    gram = rows.conj() @ rows.T
    return float(np.max(np.abs(gram - np.eye(rows.shape[0]))))


def banded_reference(dim, bandwidth, k, seed):
    """The banded random matrix (diag(H0) + k V) / sqrt(1 + k^2) from the same
    draws as ``build_banded_random``, with V filled by fancy indexing and the
    sum formed from whole matrices: the oracle the in-place build must match
    bit for bit."""
    rng = np.random.default_rng(seed)
    h0 = rng.standard_normal(dim)
    v = np.zeros((dim, dim))
    v[np.arange(dim), np.arange(dim)] = rng.standard_normal(dim) * np.sqrt(2.0)
    for off in range(1, bandwidth + 1):
        band = rng.standard_normal(dim - off)
        rows = np.arange(dim - off)
        v[rows, rows + off] = band
        v[rows + off, rows] = band
    return (np.diag(h0) + k * v) / np.sqrt(1.0 + k * k)


def fit_sites_reference(deltas, overlaps, floor):
    """One ``np.polyfit`` per column of ``overlaps`` (one row per delta) on its
    overlaps above ``floor``: the oracle for ``perturbation._fit_sites``.
    Columns with fewer than two such overlaps get nan slope and f_n."""
    log_d = np.log(deltas)
    slopes = np.full(overlaps.shape[1], np.nan)
    f_intercepts = np.full(overlaps.shape[1], np.nan)
    for n in range(overlaps.shape[1]):
        o = overlaps[:, n]
        keep = o > floor
        if keep.sum() < 2:
            continue
        slopes[n] = np.polyfit(log_d[keep], np.log(o[keep]), 1)[0]
        f_intercepts[n] = np.exp(np.mean(np.log(o[keep]) - 2.0 * log_d[keep]))
    return slopes, f_intercepts


def state_perturbed(spec, j, profile, delta):
    """The perturbed state of ``perturbed_coefficients`` rotated into the basis
    of the matrix: the seed of the matrix-basis route that the package's
    eigen-coordinate chain is checked against."""
    return _make_state(spec.eigenvectors @ perturbed_coefficients(spec.dim, j, profile, delta))


def perturbed_reference(levels, j, profile, delta):
    """``lanczos_reference`` on diag(E), seeded with the exact eigenbasis
    coefficients of the perturbed state: the oracle for ``perturbed_chain``.

    The run's spectrum has the identity as its eigenvector matrix, so its
    basis columns are the Krylov vectors in eigen-coordinates and
    ``saturation`` of it is c_bar with the exact eigenbasis weights.
    """
    levels = np.asarray(levels, dtype=float)
    spec = SpectralData(
        eigenvalues=levels,
        eigenvectors=np.eye(levels.size),
        min_spacing=float(np.min(np.diff(levels), initial=np.inf)),
        near_degenerate=False,
        degeneracy_tol=1e-10 * float(levels[-1] - levels[0]),
    )
    psi = perturbed_coefficients(levels.size, j, profile, delta)
    return lanczos_reference(hamiltonian_from_matrix(np.diag(levels)), psi, spec)


def insert_route_chain(spec, j, profile, delta):
    """The Krylov rows of one delta by the route the experiments took while the
    admixture's Krylov rows were re-inserted into eigen-coordinates: the
    admixture's chain on a dense diag(E) without level j, its rows copied with
    a zero column j by ``np.insert``, and the bulge chase on those rows.  The
    oracle the chase on complement-coordinate rows matches bit for bit.
    """
    levels = spec.eigenvalues
    rest = np.delete(levels, j)
    rest_spec = replace(spec, eigenvalues=rest, eigenvectors=np.empty((rest.size, 0)))
    seed = np.delete(perturbed_coefficients(levels.size, j, profile, 1.0), j)
    seed /= np.linalg.norm(seed)
    tail = lanczos_full_orth(Hamiltonian(np.diag(rest)), seed, rest_spec)
    a, b, rows = tail.a, tail.b, np.insert(tail.basis.T, j, 0.0, axis=1)
    size = a.shape[0] + 1
    scale = float(levels[-1] - levels[0])
    tol = DEFAULT_B_TOL * (scale if scale != 0.0 else 1.0)
    out = np.empty((size, rows.shape[1]))
    carry, work = np.zeros((2, rows.shape[1]))
    carry[j] = 1.0
    c = 1.0 / math.hypot(1.0, delta)
    s = delta * c
    p, e = float(levels[j]), 0.0
    k = size
    for n in range(size - 1):
        q, f = a[n], (b[n] if n + 1 < size - 1 else 0.0)
        cc, ss, cs = c * c, s * s, c * s
        x, y = cs * (q - p) + (cc - ss) * e, s * f
        p, e = ss * p - 2.0 * cs * e + cc * q, c * f
        tau = rows[n]
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
        np.multiply(carry, c, out=out[-1])
    return out[:k]


def chain_coefficients(rows, levels):
    """The Lanczos coefficients of Krylov rows in eigen-coordinates, read off
    as matrix elements of diag(E): a_n = sum_i E_i r_ni^2 and
    b_n = sum_i E_i r_ni r_(n+1)i.  ``perturbed_chain`` returns its rows
    alone; the tests compare these with a reference chain's a and b."""
    weighted = rows * levels
    a = np.einsum("ni,ni->n", weighted, rows)
    b = np.einsum("ni,ni->n", weighted[:-1], rows[1:])
    return a, b


def site_occupation(lan):
    """Time-averaged occupation Q_0n = sum_i |<e_i|psi0>|^2 |<K_n|e_i>|^2 of
    each chain site n < D, 0 from the run's Krylov dimension K on; c_bar of
    ``saturation`` is its first moment."""
    vecs = lan.spec.eigenvectors
    seed = np.abs(vecs.conj().T @ lan.basis[:, 0]) ** 2
    q0n = np.zeros(lan.spec.dim)
    q0n[: lan.krylov_dim] = np.abs(lan.basis.conj().T @ vecs) ** 2 @ seed
    return q0n


def assert_lanczos_structure(ham, spec, lan, expect_full=True):
    """Structural invariants every Lanczos run must satisfy.

    Orthonormal basis, tridiagonal representation with the recorded
    coefficients, spectrum preservation and the eigenvector three-term
    relation; ``expect_full`` additionally demands K = D.
    """
    k = lan.krylov_dim
    scale = spec.spectral_range if spec.spectral_range > 0 else 1.0

    assert np.all(lan.b > 0)

    gram = lan.basis.conj().T @ lan.basis
    assert np.max(np.abs(gram - np.eye(k))) <= 1e-10

    projected = lan.basis.conj().T @ ham.matrix @ lan.basis
    tri = tridiagonal(lan)
    assert np.max(np.abs(projected - tri)) <= 1e-8 * scale
    assert np.allclose(np.diag(projected), lan.a, atol=1e-8 * scale)
    if k > 1:
        assert np.allclose(np.diag(projected, 1), lan.b, atol=1e-8 * scale)

    tri_eigs = np.linalg.eigvalsh(tri)
    if expect_full:
        assert k == spec.dim
        assert np.max(np.abs(tri_eigs - spec.eigenvalues)) <= 1e-8
    else:
        # a halted run spans an invariant subspace: every tridiagonal
        # eigenvalue must coincide with some eigenvalue of H
        dist = np.min(np.abs(tri_eigs[:, None] - spec.eigenvalues[None, :]), axis=1)
        assert np.max(dist) <= 1e-8 * scale

    # eigenvector components in the Krylov basis satisfy the hopping relation
    eps = lan.basis.conj().T @ spec.eigenvectors
    residual = tri @ eps - eps * spec.eigenvalues[None, :]
    assert np.max(np.abs(residual)) <= 1e-8 * scale


def hamiltonian_from_matrix(matrix):
    """Wrap an externally built symmetric matrix (copied, caller keeps ownership)."""
    return _as_hamiltonian(np.array(matrix, dtype=float))


def bincount_matvec(matrix):
    """``x -> matrix @ x`` over the nonzero entries, each row's terms summed
    with ``bincount`` in column order: the reference for the sparse layout of
    ``Hamiltonian.matvec``, which must agree with it bit for bit."""
    rows, cols = np.nonzero(matrix)
    vals = matrix[rows, cols]
    dim = matrix.shape[0]

    def apply(x):
        y = vals * x[cols]
        if np.iscomplexobj(y):
            return np.bincount(rows, y.real, dim) + 1j * np.bincount(rows, y.imag, dim)
        return np.bincount(rows, weights=y, minlength=dim)

    return apply


def energy_coefficients(state, spec):
    """Overlaps <e_i|psi> of a sector-basis state with each eigenstate."""
    return spec.eigenvectors.T @ state


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


def complexity_curve(psi_matrix):
    """First moment of the chain occupation, C(t) = sum_n n |psi_n(t)|^2, for
    each column of the amplitude matrix."""
    psi_matrix = np.asarray(psi_matrix)
    positions = np.arange(psi_matrix.shape[0])
    return positions @ (np.abs(psi_matrix) ** 2)


def time_average_complexity(times, values, t_final, fastest_phase=None):
    """Trapezoidal average over [0, t_final] of complexity values sampled at
    ``times``.

    ``fastest_phase`` (the spectral range) enables an undersampling warning
    when the grid cannot resolve the fastest oscillation.
    """
    times = np.asarray(times, dtype=float)
    mask = times <= t_final * (1.0 + 1e-12)
    t = times[mask]
    v = np.asarray(values)[mask]
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


def read_csv(path):
    """Inverse of ``io.write_table`` for a sweep CSV: its ``SweepTable``."""
    text = Path(path).read_text(encoding="ascii")
    lines = [ln for ln in text.split("\n") if ln]
    header = tuple(lines[0].split(","))
    if header[:2] != ("param", "eta") or (len(header) - 2) % len(STAT_COLUMNS) != 0:
        raise ValueError(f"{path}: not a sweep CSV (header {header[:3]}...)")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return SweepTable(header, np.array(rows).reshape(len(rows), len(header)))


def parse_config(path):
    """Read a flat config file into a validated SweepConfig."""
    return build_sweep_config(read_config_pairs(path))
