import numpy as np
import pytest

from kchaos import eigendecompose
from kchaos.krylov import DEFAULT_B_TOL, LanczosResult


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
