import ctypes
import tracemalloc
import warnings

import numpy as np
import pytest

import kchaos.hamiltonians
from kchaos import (
    Hamiltonian,
    NumericalError,
    build_banded_random,
    build_goe,
    build_ising_sector,
    eigendecompose,
    parity_basis,
)
from kchaos.hamiltonians import (
    BAND_ROWS,
    TWO_STAGE_MIN_DIM,
    _asymmetry,
    _band_product,
    _eigvalsh,
    _ising_sector_levels,
    _two_stage_solver,
    _vectors_solver,
)
from kchaos.sweeps import banded_hamiltonian
from oracles import (
    banded_reference,
    bincount_matvec,
    build_ising_full,
    dense_matrix,
    hamiltonian_from_matrix,
    project_to_sector,
)


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
        # all up: the field gives 13 h_z, the 12 bonds -12
        assert ham.matrix[0, 0] == pytest.approx(13 * 1.02 - 12)

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

    def test_known_sector_sizes(self):
        assert parity_basis(10, "even").dim == 528
        assert parity_basis(13, "even").dim == 4160

    def test_orthonormal_columns(self):
        basis = parity_basis(5, "odd")
        p = dense_matrix(basis)
        assert np.allclose(p.T @ p, np.eye(basis.dim), atol=1e-14)

    @pytest.mark.parametrize(
        "n, sector, message",
        [
            (0, "even", "n_spins must be >= 1"),
            (15, "even", "exceeds the cap of 14 spins"),
            (3, "both", "sector must be 'even' or 'odd', got 'both'"),
        ],
        ids=["n-0", "n-15", "sector-both"],
    )
    def test_bad_sector(self, n, sector, message):
        with pytest.raises(ValueError, match=message):
            parity_basis(n, sector)


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

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: build_banded_random(1, 1, 1.0, 0), "dim must be >= 2"),
            (lambda: build_banded_random(16, 3, np.nan, 0), "k must be finite, got nan"),
            (lambda: build_banded_random(16, 3, -0.5, 0), "k must be >= 0"),
            (lambda: build_goe(1, 0), "dim must be >= 2"),
        ],
        ids=["banded-dim-1", "banded-k-nan", "banded-k-negative", "goe-dim-1"],
    )
    def test_builder_argument_checks(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("k", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize("dim", [2, 3, 64, 300])
    def test_matches_whole_matrix_oracle_bit_for_bit(self, dim, k):
        # the in-place build against the sum of whole matrices; comparing the
        # bit patterns also tells +0.0 from -0.0, which k = 0 would produce
        for bandwidth in (1, dim - 1):
            ham = build_banded_random(dim, bandwidth, k, 11)
            ref = banded_reference(dim, bandwidth, k, 11)
            assert np.array_equal(ham.matrix.view(np.uint64), ref.view(np.uint64))

    def test_build_holds_no_second_square_array(self):
        # H itself is 8 D^2 bytes; the symmetry check reads it in row blocks
        dim = 1024
        tracemalloc.start()
        try:
            build_banded_random(dim, 205, 0.125, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * dim**2

    def test_reference_configuration(self):
        ham = build_banded_random(1024, 204, 0.5, 0)
        assert ham.dim == 1024
        # the band reaches |i - j| = 204 and no further
        i, j = np.nonzero(ham.matrix)
        assert np.max(np.abs(i - j)) == 204
        assert np.all(np.diagonal(ham.matrix, 204) != 0.0)


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
        ham = hamiltonian_from_matrix(np.diag([1.0, 1.0, 2.0]))
        for vectors in (True, False):
            spec = eigendecompose(ham, vectors=vectors)
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

    @pytest.mark.parametrize(
        "ham, min_dim",
        [
            pytest.param(ham, min_dim, id=name + suffix)
            for suffix, min_dim in [("", TWO_STAGE_MIN_DIM), ("-two-stage", 0)]
            for name, ham in [
                ("goe", build_goe(128, 3)),
                ("banded", build_banded_random(200, 20, 0.3, 5)),
                (
                    "degenerate-diagonal",
                    hamiltonian_from_matrix(np.diag([0.0, 1.0, 1.0 + 1e-13, 2.0, 3.0])),
                ),
                ("d1", hamiltonian_from_matrix([[2.5]])),
                ("d2", build_goe(2, 4)),
                ("d3", build_goe(3, 5)),
            ]
        ],
    )
    def test_eigenvalue_only_verdict_matches(self, ham, min_dim, monkeypatch):
        # with the constant at 0 every size takes the two-stage route, where it exists
        monkeypatch.setattr(kchaos.hamiltonians, "TWO_STAGE_MIN_DIM", min_dim)
        full = eigendecompose(ham)
        levels = eigendecompose(ham, vectors=False)
        assert levels.eigenvectors.shape == (ham.dim, 0)
        assert not levels.eigenvalues.flags.writeable
        assert levels.near_degenerate == full.near_degenerate
        assert levels.degeneracy_tol == pytest.approx(full.degeneracy_tol, rel=1e-12)
        scale = full.spectral_range
        # D = 1 has no spacing: both read inf
        same = levels.min_spacing == full.min_spacing
        assert same or abs(levels.min_spacing - full.min_spacing) <= 1e-12 * scale
        assert np.max(np.abs(levels.eigenvalues - full.eigenvalues)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "matrix", [np.zeros((2, 3)), np.zeros(4)], ids=["two-by-three", "one-dimensional"]
    )
    def test_rejects_non_square(self, matrix):
        with pytest.raises(ValueError, match="expected a square matrix"):
            hamiltonian_from_matrix(matrix)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            hamiltonian_from_matrix(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nan(self):
        # nan - nan is nan, which the symmetry check must not pass
        with pytest.raises(ValueError, match="symmetric"):
            hamiltonian_from_matrix(np.diag([np.nan, 1.0]))

    @pytest.mark.parametrize(
        "matrix",
        [
            np.diag([np.inf, 1.0]),
            np.array([[0.0, np.inf], [np.inf, 0.0]]),
            np.array([[0.0, -np.inf], [-np.inf, 0.0]]),
        ],
        ids=["inf-diagonal", "inf-pair", "minus-inf-pair"],
    )
    def test_rejects_inf_without_a_warning(self, matrix):
        # inf - inf is nan, refused like a nan entry, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="symmetric"):
                hamiltonian_from_matrix(matrix)

    @pytest.mark.parametrize("dim", [0, 1, 7, 8, 9, 30])
    def test_blocked_asymmetry_matches_whole_matrix(self, dim, monkeypatch):
        # blocks of 8 rows at D = 8, 2 at D = 30; the upper triangle is skewed
        # by up to 1e-13 and the pair (0, D-1), first block against last, by 3e-12
        monkeypatch.setattr("kchaos.hamiltonians.SYMMETRY_BLOCK_BYTES", 8 * 8 * 8)
        rng = np.random.default_rng(dim)
        m = rng.standard_normal((dim, dim))
        m = m + m.T + 1e-13 * np.triu(rng.random((dim, dim)), 1)
        if dim > 1:
            m[-1, 0] += 3e-12
        whole = float(np.max(np.abs(m - m.T))) if dim else 0.0
        assert _asymmetry(m) == whole
        if dim > 1:
            with pytest.raises(ValueError, match=f"max .H - H.T. = {whole:.3e}"):
                hamiltonian_from_matrix(m)

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


needs_two_stage = pytest.mark.skipif(
    _two_stage_solver() is None, reason="numpy's BLAS exports no dsyevd_2stage"
)


def _must_not_run(*args, **kwargs):
    raise AssertionError("the two-stage routine ran")


class TestTwoStageRoute:
    def test_route_starts_at_the_constant(self, monkeypatch):
        loads = []

        def spy():
            loads.append(True)
            return _two_stage_solver()

        monkeypatch.setattr(kchaos.hamiltonians, "_two_stage_solver", spy)
        monkeypatch.setattr(kchaos.hamiltonians, "TWO_STAGE_MIN_DIM", 32)
        eigendecompose(build_goe(31, 0), vectors=False)
        eigendecompose(build_goe(32, 0))
        assert not loads
        eigendecompose(build_goe(32, 0), vectors=False)
        assert loads == [True]

    def test_below_the_constant_levels_are_numpys(self):
        ham = build_banded_random(TWO_STAGE_MIN_DIM - 1, 10, 0.5, 2)
        levels = eigendecompose(ham, vectors=False).eigenvalues
        assert np.array_equal(levels, np.linalg.eigvalsh(ham.matrix))

    def test_without_the_symbol_levels_are_numpys(self, monkeypatch):
        monkeypatch.setattr(kchaos.hamiltonians, "_two_stage_solver", lambda: None)
        monkeypatch.setattr(kchaos.hamiltonians, "TWO_STAGE_MIN_DIM", 0)
        ham = build_goe(64, 9)
        levels = eigendecompose(ham, vectors=False).eigenvalues
        assert np.array_equal(levels, np.linalg.eigvalsh(ham.matrix))

    def test_no_loadable_library_gives_no_solver(self, monkeypatch):
        def unloadable(name, *args, **kwargs):
            raise OSError(f"cannot load {name}")

        monkeypatch.setattr(ctypes, "CDLL", unloadable)
        # the uncached lookups, which try every bundled OpenBLAS
        assert _two_stage_solver.__wrapped__() is None
        assert _vectors_solver.__wrapped__() is None

    @needs_two_stage
    def test_solve_leaves_the_matrix_alone(self, monkeypatch):
        monkeypatch.setattr(kchaos.hamiltonians, "TWO_STAGE_MIN_DIM", 0)
        ham = build_goe(96, 1)
        before = ham.matrix.tobytes()
        eigendecompose(ham, vectors=False)
        assert ham.matrix.tobytes() == before

    def test_what_lapack_cannot_read_goes_to_numpy(self, monkeypatch):
        # LAPACK would read D x D doubles from a buffer that holds fewer
        monkeypatch.setattr(kchaos.hamiltonians, "TWO_STAGE_MIN_DIM", 0)
        monkeypatch.setattr(kchaos.hamiltonians, "_two_stage_solver", lambda: _must_not_run)
        with pytest.raises(NumericalError, match="square"):
            eigendecompose(Hamiltonian(np.zeros((3, 2))), vectors=False)
        single = np.diag([2.0, 1.0]).astype(np.float32)
        levels = eigendecompose(Hamiltonian(single), vectors=False).eigenvalues
        assert np.array_equal(levels, [1.0, 2.0])

    @needs_two_stage
    def test_lapack_error_is_numerical(self, monkeypatch):
        # LAPACKE refuses a nan entry (info = -5); a Hamiltonian cannot hold one
        monkeypatch.setattr(kchaos.hamiltonians, "TWO_STAGE_MIN_DIM", 0)
        with pytest.raises(NumericalError, match="dsyevd_2stage returned info = -5"):
            _eigvalsh(np.diag([np.nan, 1.0]))


needs_vectors_solver = pytest.mark.skipif(
    _vectors_solver() is None, reason="numpy's BLAS exports no dsyevd"
)


def _eigh_must_not_run(*args, **kwargs):
    raise AssertionError("np.linalg.eigh ran")


class TestVectorsRoute:
    @needs_vectors_solver
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_ising_sector(10, 0.7, "even"),
            lambda: build_ising_sector(9, 1.3, "odd"),
            lambda: build_banded_random(256, 51, 0.1, 3),
            lambda: build_goe(200, 8),
        ],
        ids=["ising-n10-even", "ising-n9-odd", "banded-d256", "goe"],
    )
    def test_spectrum_is_numpys_bit_for_bit(self, build, monkeypatch):
        ham = build()
        levels, vectors = np.linalg.eigh(ham.matrix)
        before = ham.matrix.tobytes()
        monkeypatch.setattr(np.linalg, "eigh", _eigh_must_not_run)
        spec = eigendecompose(ham)
        # bytes, so that a zero's sign counts too
        assert spec.eigenvalues.tobytes() == levels.tobytes()
        assert spec.eigenvectors.flags.c_contiguous
        assert spec.eigenvectors.tobytes() == vectors.tobytes()
        assert not spec.eigenvectors.flags.writeable
        assert ham.matrix.tobytes() == before

    def test_without_the_symbol_numpy_solves(self, monkeypatch):
        real_eigh, solved = np.linalg.eigh, []

        def eigh(matrix):
            solved.append(matrix)
            return real_eigh(matrix)

        monkeypatch.setattr(kchaos.hamiltonians, "_vectors_solver", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        ham = build_goe(64, 9)
        spec = eigendecompose(ham)
        assert len(solved) == 1
        levels, vectors = real_eigh(ham.matrix)
        assert spec.eigenvalues.tobytes() == levels.tobytes()
        assert spec.eigenvectors.tobytes() == vectors.tobytes()

    def test_what_lapack_cannot_read_goes_to_numpy(self, monkeypatch):
        monkeypatch.setattr(kchaos.hamiltonians, "_vectors_solver", lambda: _must_not_run)
        with pytest.raises(NumericalError, match="square"):
            eigendecompose(Hamiltonian(np.zeros((3, 2))))
        spec = eigendecompose(Hamiltonian(np.diag([2.0, 1.0]).astype(np.float32)))
        assert np.array_equal(spec.eigenvalues, [1.0, 2.0])
        assert np.array_equal(np.abs(spec.eigenvectors), [[0.0, 1.0], [1.0, 0.0]])

    @needs_vectors_solver
    def test_lapack_error_is_numerical(self):
        # LAPACKE refuses a nan entry (info = -5); a Hamiltonian cannot hold one
        with pytest.raises(NumericalError, match="dsyevd returned info = -5"):
            eigendecompose(Hamiltonian(np.diag([np.nan, 1.0])))


class TestIsingSectorLevels:
    @pytest.mark.parametrize("n_spins", [11, 8])
    @pytest.mark.parametrize("sector", ["even", "odd"])
    def test_levels_are_eigendecomposes(self, n_spins, sector):
        # the N=11 even sector (D = 1056) takes the two-stage route where it
        # exists; the N=11 odd one (D = 992) and both N=8 ones take eigvalsh
        for h_z in (0.5, 2.0):
            ham = build_ising_sector(n_spins, h_z, sector)
            expected = eigendecompose(ham, vectors=False).eigenvalues
            assert np.array_equal(_ising_sector_levels(n_spins, h_z, sector), expected)

    @needs_two_stage
    def test_solve_overwrites_the_build(self):
        # the routine works on the built matrix: no D x D copy is traced
        dim = parity_basis(11, "even").dim
        assert dim >= TWO_STAGE_MIN_DIM
        tracemalloc.start()
        try:
            _ising_sector_levels(11, 0.5, "even")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * dim**2

    def test_asymmetric_build_is_refused_before_the_solve(self, monkeypatch):
        monkeypatch.setattr(kchaos.hamiltonians, "_asymmetry", lambda matrix: 1.0)
        monkeypatch.setattr(kchaos.hamiltonians, "_eigvalsh", _must_not_run)
        monkeypatch.setattr(kchaos.hamiltonians, "_two_stage_solver", _must_not_run)
        monkeypatch.setattr(np.linalg, "eigvalsh", _must_not_run)
        with pytest.raises(ValueError, match="not symmetric"):
            _ising_sector_levels(11, 0.5, "even")
