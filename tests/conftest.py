import numpy as np
import pytest

from kchaos import eigendecompose
from kchaos.hamiltonians import MAX_SPINS, _as_hamiltonian, _reflect
from kchaos.krylov import DEFAULT_B_TOL, LanczosResult


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
    return _as_hamiltonian(
        h, {"family": "ising", "n_spins": n_spins, "h_z": float(h_z), "sector": None}
    )


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
    meta = dict(ham.meta)
    meta["sector"] = basis.sector
    return _as_hamiltonian(hs, meta)


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
    v = np.asarray(psi0.amplitudes)
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
    halt_index = None
    for n in range(1, dim):
        prev = basis[:, :n]
        for _ in range(2):
            w = w - prev @ (prev.conj().T @ w)
        b_n = np.linalg.norm(w)
        if b_n < DEFAULT_B_TOL * scale:
            halt_index = n
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
        halt_index=halt_index,
        ortho_residual=ortho_resid,
    )


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
    tri = lan.tridiagonal()
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


@pytest.fixture(scope="session")
def goe32():
    from kchaos import build_goe

    ham = build_goe(32, 12)
    return ham, eigendecompose(ham)
