import tracemalloc

import numpy as np
import pytest

from conftest import build_ising_full, dense_matrix, project_to_sector
from kchaos import (
    build_banded_random,
    build_goe,
    build_ising_sector,
    eigendecompose,
    parity_basis,
)
from kchaos.hamiltonians import BAND_ROWS, _band_product, sector_dim
from kchaos.sweeps import banded_hamiltonian
from oracles import bincount_matvec, hamiltonian_from_matrix


class TestIsingFull:
    def test_two_spins_hand_oracle(self):
        # hand Pauli algebra: diagonal from -sz.sz, unit off-diagonals for
        # single flips, no coupling between the two-flip states
        ham = build_ising_full(2, 0.0)
        expected = np.array(
            [
                [-1, 1, 1, 0],
                [1, 1, 0, 1],
                [1, 0, 1, 1],
                [0, 1, 1, -1],
            ],
            dtype=float,
        )
        assert np.array_equal(ham.matrix, expected)

    def test_single_spin(self):
        ham = build_ising_full(1, 2.0)
        assert np.array_equal(ham.matrix, np.array([[2.0, 1.0], [1.0, -2.0]]))

    def test_field_on_diagonal(self):
        ham = build_ising_full(2, 0.5)
        # all-up state gains +2*h_z from the field, -1 from the coupling
        assert ham.matrix[0, 0] == pytest.approx(1.0 - 1.0)
        assert ham.matrix[3, 3] == pytest.approx(-1.0 - 1.0)

    def test_large_chain_instance(self):
        ham = build_ising_full(13, 1.02)
        assert ham.dim == 8192
        assert ham.meta["h_z"] == 1.02

    def test_symmetry_invariant(self):
        for n, h_z in [(3, 0.7), (5, 1.02), (6, 4.0)]:
            m = build_ising_full(n, h_z).matrix
            assert np.max(np.abs(m - m.T)) <= 1e-12

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_ising_full(15, 1.0)
        with pytest.raises(ValueError):
            build_ising_full(0, 1.0)


class TestParityBasis:
    def test_two_spin_sector_content(self):
        basis = parity_basis(2, "even")
        assert basis.dim == 3
        p = dense_matrix(basis)
        s = 1 / np.sqrt(2)
        expected = np.array([[1, 0, 0], [0, s, 0], [0, s, 0], [0, 0, 1]])
        assert np.allclose(p, expected)
        odd = parity_basis(2, "odd")
        assert odd.dim == 1
        assert np.allclose(dense_matrix(odd)[:, 0], [0, s, -s, 0])

    @pytest.mark.parametrize("n", range(1, 15))
    def test_counting_formula(self, n):
        even = parity_basis(n, "even")
        odd = parity_basis(n, "odd")
        assert even.dim == (2**n + 2 ** ((n + 1) // 2)) // 2
        assert even.dim + odd.dim == 2**n

    def test_sector_dim_without_building(self):
        for n in range(1, 15):
            for sector in ("even", "odd"):
                assert sector_dim(n, sector) == parity_basis(n, sector).dim

    def test_known_sector_sizes(self):
        assert parity_basis(10, "even").dim == 528
        assert parity_basis(13, "even").dim == 4160

    def test_orthonormal_columns(self):
        basis = parity_basis(5, "odd")
        p = dense_matrix(basis)
        assert np.allclose(p.T @ p, np.eye(basis.dim), atol=1e-14)

    def test_bad_sector(self):
        with pytest.raises(ValueError):
            parity_basis(3, "both")


class TestProjection:
    def test_two_spin_even_oracle(self):
        # hand projection of the 4x4 matrix onto {uu, (ud+du)/sqrt2, dd}
        ham = project_to_sector(build_ising_full(2, 0.0), parity_basis(2, "even"))
        r2 = np.sqrt(2)
        expected = np.array([[-1, r2, 0], [r2, 1, r2], [0, r2, -1]])
        assert np.allclose(ham.matrix, expected, atol=1e-14)

    def test_two_spin_odd_oracle(self):
        ham = project_to_sector(build_ising_full(2, 0.0), parity_basis(2, "odd"))
        assert np.allclose(ham.matrix, [[1.0]])

    @pytest.mark.parametrize("n,h_z", [(3, 0.9), (5, 1.3), (8, 0.49)])
    def test_spectrum_union(self, n, h_z):
        full = build_ising_full(n, h_z)
        even = project_to_sector(full, parity_basis(n, "even"))
        odd = project_to_sector(full, parity_basis(n, "odd"))
        union = np.sort(
            np.concatenate(
                [np.linalg.eigvalsh(even.matrix), np.linalg.eigvalsh(odd.matrix)]
            )
        )
        assert np.allclose(union, np.linalg.eigvalsh(full.matrix), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            project_to_sector(build_ising_full(3, 1.0), parity_basis(4, "even"))

    def test_empty_sector(self):
        with pytest.raises(ValueError, match="empty"):
            project_to_sector(build_ising_full(1, 1.0), parity_basis(1, "odd"))


class TestIsingSector:
    @pytest.mark.parametrize(
        "n,sector",
        [(1, "even")] + [(n, sector) for n in range(2, 12) for sector in ("even", "odd")],
    )
    def test_matches_projected_full_chain(self, n, sector):
        basis = parity_basis(n, sector)
        for h_z in (0.25, 1.02, 4.0):
            ham = build_ising_sector(n, h_z, sector)
            ref = project_to_sector(build_ising_full(n, h_z), basis).matrix
            assert ham.dim == basis.dim
            assert np.max(np.abs(ham.matrix - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.array_equal(ham.matrix != 0, ref != 0)
            assert np.array_equal(ham.matrix, ham.matrix.T)
            assert ham.meta == {"family": "ising", "n_spins": n, "h_z": h_z, "sector": sector}

    def test_two_spin_hand_oracle(self):
        # uu, (ud+du)/sqrt2, dd: the pair couples to each palindrome by sqrt2;
        # in the odd sector both flips land on palindromes and drop out
        r2 = np.sqrt(2)
        expected = np.array([[-1, r2, 0], [r2, 1, r2], [0, r2, -1]])
        assert np.array_equal(build_ising_sector(2, 0.0, "even").matrix, expected)
        assert np.array_equal(build_ising_sector(2, 0.0, "odd").matrix, [[1.0]])

    def test_cap_and_empty_sector(self):
        with pytest.raises(ValueError, match="cap"):
            build_ising_sector(15, 1.0, "even")
        with pytest.raises(ValueError):
            build_ising_sector(0, 1.0, "even")
        with pytest.raises(ValueError, match="empty"):
            build_ising_sector(1, 1.0, "odd")

    def test_peak_memory_is_sector_sized(self):
        # the full 2^12 x 2^12 chain alone would be 134 MB; the sector matrix
        # (D = 2080) is 34.6 MB and the build may hold at most two more
        dim = parity_basis(12, "even").dim
        tracemalloc.start()
        try:
            build_ising_sector(12, 1.0, "even")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * dim**2


class TestBandedRandom:
    def test_k_zero_is_diagonal(self):
        ham = build_banded_random(32, 5, 0.0, 9)
        assert np.array_equal(ham.matrix, np.diag(np.diag(ham.matrix)))

    def test_band_structure(self):
        ham = build_banded_random(24, 3, 1.0, 4)
        i, j = np.indices(ham.matrix.shape)
        assert np.all(ham.matrix[np.abs(i - j) > 3] == 0.0)
        assert np.all(ham.matrix[(np.abs(i - j) > 0) & (np.abs(i - j) <= 3)] != 0.0)

    def test_seed_determinism(self):
        a = build_banded_random(64, 12, 0.3, 123).matrix
        b = build_banded_random(64, 12, 0.3, 123).matrix
        assert np.array_equal(a, b)
        c = build_banded_random(64, 12, 0.3, 124).matrix
        assert not np.array_equal(a, c)

    def test_offdiagonal_variance(self):
        # at k=1 an in-band off-diagonal entry has variance k^2/(1+k^2) = 1/2;
        # sample variance over 100 seeds must sit within 3 standard errors
        samples = np.array(
            [build_banded_random(16, 4, 1.0, s).matrix[2, 5] for s in range(100)]
        )
        se = 0.5 * np.sqrt(2.0 / (samples.size - 1))
        assert abs(np.var(samples) - 0.5) <= 3 * se

    def test_large_k_limit(self):
        # (H0 + kV)/sqrt(1+k^2) -> V entrywise as k grows; recover V
        # black-box from two small-k builds of the same seed
        dim, bw, seed = 64, 13, 31
        k1, k2 = 0.5, 2.0
        h1 = build_banded_random(dim, bw, k1, seed).matrix
        h2 = build_banded_random(dim, bw, k2, seed).matrix
        v = (np.sqrt(1 + k2**2) * h2 - np.sqrt(1 + k1**2) * h1) / (k2 - k1)
        ham = build_banded_random(dim, bw, 1e3, seed)
        assert np.max(np.abs(ham.matrix - v)) <= 2e-3 * np.max(np.abs(v))

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            build_banded_random(16, 0, 1.0, 0)
        with pytest.raises(ValueError):
            build_banded_random(16, 16, 1.0, 0)

    def test_reference_configuration(self):
        ham = build_banded_random(1024, 204, 0.5, 0)
        assert ham.dim == 1024
        assert ham.meta["bandwidth"] == 204


class TestGOE:
    def test_symmetric_and_scaled(self):
        ham = build_goe(400, 8)
        m = ham.matrix
        assert np.max(np.abs(m - m.T)) == 0.0
        off = m[np.triu_indices(400, k=1)]
        assert abs(np.var(off) - 1.0) < 0.05
        assert abs(np.var(np.diag(m)) - 2.0) < 0.5


class TestEigendecompose:
    def test_diagonal_permutation(self):
        spec = eigendecompose(hamiltonian_from_matrix(np.diag([3.0, 1.0, 2.0])))
        assert np.array_equal(spec.eigenvalues, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(spec.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    def test_two_spin_even_closed_form(self):
        # characteristic polynomial of the projected 3x3 gives (-1-x)(x^2-5)
        ham = project_to_sector(build_ising_full(2, 0.0), parity_basis(2, "even"))
        spec = eigendecompose(ham)
        assert np.allclose(spec.eigenvalues, [-np.sqrt(5), -1.0, np.sqrt(5)], atol=1e-12)

    def test_degeneracy_flag(self):
        spec = eigendecompose(hamiltonian_from_matrix(np.diag([1.0, 1.0, 2.0])))
        assert spec.near_degenerate
        assert spec.min_spacing == 0.0

    def test_orthogonality_and_residual_invariants(self):
        for seed in (0, 1):
            ham = build_goe(96, seed)
            spec = eigendecompose(ham)
            v = spec.eigenvectors
            assert np.max(np.abs(v.T @ v - np.eye(96))) <= 1e-10
            resid = ham.matrix @ v - v * spec.eigenvalues[None, :]
            assert np.max(np.abs(resid)) <= 1e-8 * spec.spectral_range
            assert np.all(np.diff(spec.eigenvalues) >= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            hamiltonian_from_matrix(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_wrapping_leaves_caller_array_writable(self):
        m = np.diag([1.0, 2.0])
        ham = hamiltonian_from_matrix(m)
        m[0, 0] = 7.0  # caller's buffer must not be frozen or aliased
        assert ham.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            ham.matrix[0, 0] = 9.0


def _probe(dim, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim)
    return x, x + 1j * rng.standard_normal(dim)


class TestMatvec:
    @pytest.mark.parametrize(
        "build",
        [
            *[
                pytest.param(lambda n=n, s=s: build_ising_sector(n, 0.5, s), id=f"ising{n}-{s}")
                for n in (9, 10, 11, 12)
                for s in ("even", "odd")
            ],
            # row 0 of diag(0, ..., 1) has no nonzero entry
            pytest.param(
                lambda: hamiltonian_from_matrix(np.diag(np.linspace(0.0, 1.0, 64))),
                id="empty-row",
            ),
        ],
    )
    def test_sparse_matches_bincount_bit_for_bit(self, build):
        ham = build()
        assert ham.layout == "sparse"
        oracle = bincount_matvec(ham.matrix)
        for x in _probe(ham.dim):
            assert np.array_equal(ham.matvec(x), oracle(x))

    @pytest.mark.parametrize(
        "matrix",
        [
            pytest.param(lambda: banded_hamiltonian(512, 0.2, 1.0, 1).matrix, id="d512"),
            pytest.param(lambda: banded_hamiltonian(640, 0.2, 1.0, 2).matrix, id="d640"),
            pytest.param(lambda: banded_hamiltonian(1024, 0.2, 1.0, 3).matrix, id="d1024"),
            pytest.param(lambda: banded_hamiltonian(2048, 0.2, 1.0, 4).matrix, id="d2048"),
            pytest.param(lambda: build_banded_random(512, 1, 1.0, 5).matrix, id="bandwidth1"),
            # a block of rows without any nonzero entry
            pytest.param(
                lambda: np.pad(banded_hamiltonian(384, 0.2, 1.0, 6).matrix, (BAND_ROWS, 0)),
                id="empty-block",
            ),
        ],
    )
    def test_band_product_matches_dense(self, matrix):
        h = matrix()
        apply = _band_product(h)
        assert apply is not None
        for x in _probe(h.shape[0]):
            assert np.max(np.abs(apply(x) - h @ x)) <= 1e-13 * np.max(np.abs(h))

    @pytest.mark.parametrize(
        "build,layout",
        [
            *[(lambda n=n: build_ising_sector(n, 0.5, "even"), "sparse") for n in (9, 10, 11, 12)],
            (lambda: banded_hamiltonian(256, 0.2, 0.125, 0), "dense"),
            (lambda: banded_hamiltonian(1024, 0.9, 0.125, 0), "dense"),
            (lambda: build_goe(1024, 0), "dense"),
            (lambda: banded_hamiltonian(512, 0.2, 0.125, 0), "band"),
            (lambda: banded_hamiltonian(1024, 0.2, 0.125, 0), "band"),
        ],
    )
    def test_layout_choice(self, build, layout):
        assert build().layout == layout

    def test_band_choice_allocates_no_square_array(self):
        # the bool pattern is read one row block at a time and the blocks are
        # views of H, so building the product stays below 2 D^2 bytes, a
        # quarter of H
        dim = 1024
        ham = banded_hamiltonian(dim, 0.2, 0.125, 0)
        tracemalloc.start()
        try:
            assert ham.layout == "band"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * dim**2
