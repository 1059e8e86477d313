import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kchaos import (
    DegenerateSpectrumError,
    GaussianProfile,
    NumericalError,
    OrthogonalityLossError,
    UniformComplement,
    build_goe,
    build_ising_sector,
    complexity_values,
    default_time_grid,
    eigendecompose,
    krylov_amplitudes,
    lanczos_full_orth,
    parity_basis,
    saturation,
    state_all_up,
    select_center_states,
    state_eigenstate,
    state_random,
    state_uniform_eigenbasis,
)
from kchaos.hamiltonians import ALIGN_BYTES
from kchaos.krylov import PRO_MIN_DIM, _eigen_overlaps, _gram_residual, perturbed_chain
from kchaos.perturbation import _complement_chain
from kchaos.states import perturbed_coefficients
from kchaos.sweeps import banded_hamiltonian
from oracles import (
    assert_lanczos_structure,
    chain_coefficients,
    complexity_curve,
    gram_residual_reference,
    hamiltonian_from_matrix,
    lanczos_reference,
    perturbed_reference,
    site_occupation,
    state_perturbed,
    tight_binding_propagate,
    time_average_complexity,
    tridiagonal,
)


def two_level():
    ham = hamiltonian_from_matrix(np.diag([0.0, 1.0]))
    spec = eigendecompose(ham)
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    return ham, spec, psi


class TestLanczos:
    def test_two_level_hand_recursion(self):
        # a_0 = 1/2, candidate (H-1/2)psi has norm 1/2, K_1 = (-1,1)/sqrt2
        ham, spec, psi = two_level()
        lan = lanczos_full_orth(ham, psi, spec=spec)
        assert np.allclose(lan.a, [0.5, 0.5], atol=1e-15)
        assert np.allclose(lan.b, [0.5], atol=1e-15)
        assert np.allclose(lan.basis[:, 1], [-1, 1] / np.sqrt(2))
        assert lan.krylov_dim == 2 and not lan.halted_early

    def test_eigenstate_halts_immediately(self):
        ham = hamiltonian_from_matrix(np.diag([0.0, 1.0]))
        spec = eigendecompose(ham)
        psi = np.array([1.0, 0.0])
        lan = lanczos_full_orth(ham, psi, spec=spec)
        assert lan.krylov_dim == 1
        assert lan.a.shape == (1,) and lan.b.shape == (0,)
        assert lan.halted_early

    def test_structure_on_random_matrices(self):
        for seed in (0, 1, 2):
            ham = build_goe(48, seed)
            spec = eigendecompose(ham)
            psi = state_random(48, 100 + seed)
            lan = lanczos_full_orth(ham, psi, spec=spec)
            assert_lanczos_structure(ham, spec, lan)

    def test_structure_on_halted_run(self):
        # state supported on four eigenvectors spans a 4-dim invariant
        # subspace; roundoff leakage stays below the halt tolerance only for
        # small supports, so this probes genuine early breakdown
        ham = build_goe(24, 5)
        spec = eigendecompose(ham)
        coeffs = np.zeros(24)
        coeffs[:4] = np.random.default_rng(8).standard_normal(4)
        psi = spec.eigenvectors @ (coeffs / np.linalg.norm(coeffs))
        lan = lanczos_full_orth(ham, psi, spec=spec)
        assert lan.krylov_dim == 4 and lan.halted_early
        assert_lanczos_structure(ham, spec, lan, expect_full=False)

    def test_rejects_unnormalized(self):
        ham, spec, _ = two_level()
        with pytest.raises(ValueError, match="normalized"):
            lanczos_full_orth(ham, np.array([1.0, 1.0]), spec=spec)

    def test_rejects_mismatched_dimensions(self):
        ham, spec, psi = two_level()
        with pytest.raises(ValueError, match="match matrix dimension"):
            lanczos_full_orth(ham, np.array([1.0, 0.0, 0.0]), spec=spec)
        other = eigendecompose(hamiltonian_from_matrix(np.diag([0.0, 1.0, 2.0])))
        with pytest.raises(ValueError, match="match matrix dimension"):
            lanczos_full_orth(ham, psi, spec=other)

    def test_degeneracy_gate(self):
        ham = hamiltonian_from_matrix(np.diag([1.0, 1.0, 2.0]))
        spec = eigendecompose(ham)
        psi = state_random(3, 0)
        with pytest.raises(DegenerateSpectrumError):
            lanczos_full_orth(ham, psi, spec=spec)
        lan = lanczos_full_orth(ham, psi, spec=spec, allow_degenerate=True)
        assert lan.krylov_dim == 2  # two distinct eigenvalues reachable

    def test_orthogonality_check_enforced(self, monkeypatch):
        # any finite-precision run carries ~1e-15 Gram residual, so an
        # absurdly tight tolerance must trip the post-run check
        from kchaos import OrthogonalityLossError

        monkeypatch.setattr("kchaos.krylov.ORTHO_TOL", 1e-17)
        ham = build_goe(32, 3)
        spec = eigendecompose(ham)
        psi = state_random(32, 2)
        with pytest.raises(OrthogonalityLossError):
            lanczos_full_orth(ham, psi, spec=spec)

    def test_complex_seed_supported(self):
        ham = build_goe(16, 9)
        spec = eigendecompose(ham)
        rng = np.random.default_rng(10)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi = v / np.linalg.norm(v)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        assert lan.krylov_dim == 16
        assert_lanczos_structure(ham, spec, lan)


def _ising_case(n_spins, seed_kind):
    ham = build_ising_sector(n_spins, 0.5, "even")
    if seed_kind == "all_up":
        psi = state_all_up(parity_basis(n_spins, "even"))
    elif seed_kind == "eig_ref":
        ref = eigendecompose(build_ising_sector(n_spins, 4.0, "even"))
        psi = state_eigenstate(ref, select_center_states(ref, 1)[0])
    else:
        psi = state_random(ham.dim, 21)
    return ham, psi


def _banded_case(k, seed_kind):
    ref = eigendecompose(banded_hamiltonian(64, 0.2, 0.0, 3))
    index = 0 if seed_kind == "border" else select_center_states(ref, 1)[0]
    return banded_hamiltonian(64, 0.2, k, 3), state_eigenstate(ref, index)


def _complex_seed(dim):
    rng = np.random.default_rng(10)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _complex_goe_case():
    return build_goe(48, 9), _complex_seed(48)


def _complex_ising_case():
    ham = build_ising_sector(9, 0.5, "even")
    return ham, _complex_seed(ham.dim)


def _halted_case():
    ham = build_goe(24, 5)
    coeffs = np.zeros(24)
    coeffs[:4] = np.random.default_rng(8).standard_normal(4)
    vecs = eigendecompose(ham).eigenvectors
    return ham, vecs @ (coeffs / np.linalg.norm(coeffs))


def _perturbed_case(dim=64, delta=1e-3):
    ham = banded_hamiltonian(dim, 0.2, 0.125, 4)
    return ham, state_perturbed(eigendecompose(ham), 10, UniformComplement(), delta)


def _eigenstate_case():
    ham = build_goe(32, 6)
    return ham, state_eigenstate(eigendecompose(ham), 7)


# (builder, the layout Hamiltonian.matvec picks for H)
REFERENCE_CASES = {
    "ising9-all_up": (lambda: _ising_case(9, "all_up"), "sparse"),
    "ising9-eig_ref": (lambda: _ising_case(9, "eig_ref"), "sparse"),
    "ising9-random": (lambda: _ising_case(9, "random"), "sparse"),
    "ising8-all_up": (lambda: _ising_case(8, "all_up"), "dense"),
    "ising8-eig_ref": (lambda: _ising_case(8, "eig_ref"), "dense"),
    "ising8-random": (lambda: _ising_case(8, "random"), "dense"),
    "banded-k5e-4-border": (lambda: _banded_case(5e-4, "border"), "dense"),
    "banded-k5e-4-eig0": (lambda: _banded_case(5e-4, "eig0"), "dense"),
    "banded-k1-border": (lambda: _banded_case(1.0, "border"), "dense"),
    "goe-complex": (_complex_goe_case, "dense"),
    "ising9-complex": (_complex_ising_case, "sparse"),
    "goe-halted-4": (_halted_case, "dense"),
    "banded-perturbed-1e-3": (_perturbed_case, "dense"),
    "goe-eigenstate": (_eigenstate_case, "dense"),
}


# cases at or above PRO_MIN_DIM, where most steps skip the Gram-Schmidt pass
PARTIAL_CASES = {
    "ising10-all_up": (lambda: _ising_case(10, "all_up"), "sparse"),
    "ising10-random": (lambda: _ising_case(10, "random"), "sparse"),
    "ising10-eig_ref": (lambda: _ising_case(10, "eig_ref"), "sparse"),
    "banded512-random": (
        lambda: (banded_hamiltonian(512, 0.2, 0.125, 7), state_random(512, 21)),
        "band",
    ),
    "ising11-all_up": (lambda: _ising_case(11, "all_up"), "sparse"),
    "ising11-random": (lambda: _ising_case(11, "random"), "sparse"),
    "ising11-eig_ref": (lambda: _ising_case(11, "eig_ref"), "sparse"),
    "banded1024-perturbed-1e-2": (lambda: _perturbed_case(1024, 1e-2), "band"),
}


@pytest.mark.parametrize("dtype", [float, complex])
def test_banded_matrix_and_krylov_rows_are_aligned(dtype):
    # a dense Lanczos run at D=256 took up to 40% longer with H and the Krylov
    # rows 16 bytes past a 64-byte boundary than with both on one; the GOE and
    # Ising builds hand over their H aligned too
    for ham in (
        banded_hamiltonian(256, 0.2, 0.1, 3),
        build_goe(255, 3),
        build_ising_sector(9, 0.5, "odd"),
    ):
        psi = state_random(ham.dim, 1).astype(dtype)
        lan = lanczos_full_orth(ham, psi, eigendecompose(ham, vectors=False))
        assert lan.basis.dtype == dtype
        assert ham.matrix.ctypes.data % ALIGN_BYTES == 0
        assert lan.basis.ctypes.data % ALIGN_BYTES == 0


def _match_reference(build, layout):
    """Run the production kernel and the oracle on one case and compare them."""
    ham, psi = build()
    assert ham.layout == layout
    spec = eigendecompose(ham)
    lan = lanczos_full_orth(ham, psi, spec=spec)
    ref = lanczos_reference(ham, psi, spec)
    tol = 1e-8 * spec.spectral_range
    assert lan.krylov_dim == ref.krylov_dim
    assert lan.halted_early == ref.halted_early
    assert np.array_equal(lan.basis[:, 0], psi)
    assert np.max(np.abs(lan.a - ref.a)) <= tol
    assert np.max(np.abs(lan.b - ref.b), initial=0.0) <= tol
    c_bar = saturation(lan).c_bar
    c_ref = saturation(ref).c_bar
    assert abs(c_bar - c_ref) <= 1e-10 * abs(c_ref)
    assert lan.ortho_residual <= 1e-13
    return ham, lan


class TestAgainstReference:
    """The production kernel against the two-pass dense oracle."""

    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_matches_reference(self, case):
        ham, lan = _match_reference(*REFERENCE_CASES[case])
        # below the switch every step reorthogonalizes, the halting one included
        assert ham.dim < PRO_MIN_DIM
        assert lan.reorth_passes >= lan.krylov_dim - 1 + lan.halted_early

    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_matches_reference_with_partial_reorth(self, case, monkeypatch):
        # the omega estimate on the small cases: halting, complex, near-halting
        monkeypatch.setattr("kchaos.krylov.PRO_MIN_DIM", 0)
        _match_reference(*REFERENCE_CASES[case])

    @pytest.mark.parametrize("case", list(PARTIAL_CASES))
    def test_matches_reference_above_switch(self, case):
        ham, lan = _match_reference(*PARTIAL_CASES[case])
        assert ham.dim >= PRO_MIN_DIM
        assert lan.reorth_passes < lan.krylov_dim - 1

    def test_sparse_path_with_empty_row(self):
        # row 0 of diag(0, ..., 1) has no nonzero entry
        ham = hamiltonian_from_matrix(np.diag(np.linspace(0.0, 1.0, 64)))
        assert ham.layout == "sparse"
        spec = eigendecompose(ham)
        lan = lanczos_full_orth(ham, state_random(64, 4), spec=spec)
        assert lan.krylov_dim == 64
        projected = lan.basis.T @ ham.matrix @ lan.basis
        assert np.max(np.abs(projected - tridiagonal(lan))) <= 1e-12


# admixture profiles for the chain of a perturbed eigenstate; at D=32 the
# last one underflows to exact zeros from level 22 on, and the admixture's
# own chain halts after a few steps
CHASE_PROFILES = {
    "uniform": lambda dim: UniformComplement(),
    "gaussian": lambda dim: GaussianProfile(dim / 3, dim / 8 + 0.5),
    "gaussian-underflow": lambda dim: GaussianProfile(0.0, 0.4),
}


def _chase(levels, j, profile, delta):
    """perturbed_chain of one delta from the admixture chain the experiments run."""
    spec = eigendecompose(hamiltonian_from_matrix(np.diag(levels)), vectors=False)
    tail = _complement_chain(spec, j, profile, allow_degenerate=False)
    return tail, perturbed_chain(*tail, spec.eigenvalues, j, delta)


class TestPerturbedChain:
    """The bulge chase against the two-pass oracle on diag(E), seeded with
    the perturbed state's exact eigenbasis coefficients."""

    @pytest.mark.parametrize("profile", list(CHASE_PROFILES))
    @pytest.mark.parametrize("dim", [2, 3, 32])
    def test_matches_reference(self, dim, profile):
        levels = np.sort(np.random.default_rng(dim).standard_normal(dim))
        tol = 1e-8 * (levels[-1] - levels[0])
        for j in sorted({0, dim // 2, dim - 1}):
            for delta in (0.0, 1e-3, 0.05, 0.5):
                prof = CHASE_PROFILES[profile](dim)
                tail, rows = _chase(levels, j, prof, delta)
                a, b = chain_coefficients(rows, levels)
                ref = perturbed_reference(levels, j, prof, delta)
                assert a.size == ref.krylov_dim == (1 if delta == 0.0 else tail[0].size + 1)
                assert np.max(np.abs(a - ref.a)) <= tol
                assert np.max(np.abs(b - ref.b), initial=0.0) <= tol
                assert np.max(np.abs(rows - ref.basis.T)) <= 1e-8
                weights = perturbed_coefficients(dim, j, prof, delta) ** 2
                c_bar = np.arange(a.size) @ (rows**2 @ weights)
                c_ref = saturation(ref).c_bar
                assert abs(c_bar - c_ref) <= 1e-10 * abs(c_ref)

    def test_underflowing_profile_halts_the_admixture_chain(self):
        levels = np.sort(np.random.default_rng(32).standard_normal(32))
        profile = CHASE_PROFILES["gaussian-underflow"](32)
        assert np.count_nonzero(perturbed_coefficients(32, 5, profile, 1.0) == 0.0) > 0
        tail, rows = _chase(levels, 5, profile, 0.05)
        assert tail[0].size < 10
        assert rows.shape[0] == tail[0].size + 1

    def test_gram_check(self):
        levels = np.sort(np.random.default_rng(32).standard_normal(32))
        tail, _ = _chase(levels, 16, UniformComplement(), 0.05)
        a, b, rows = tail
        skewed = rows.copy()
        skewed[3] += 1e-8 * skewed[2]
        with pytest.raises(OrthogonalityLossError):
            perturbed_chain(a, b, skewed, levels, 16, 0.05)


# a Gram slice budget of 16 x 16 real entries: 16 real or 11 complex rows per block
SMALL_GRAM_BYTES = 16 * 16 * 8


def _near_orthonormal(k, dim, dtype, seed, noise=1e-6):
    """k orthonormal rows of length dim, each entry perturbed by about ``noise``."""
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal((dim, dim))
    shift = rng.standard_normal((k, dim))
    if dtype is complex:
        draw = draw + 1j * rng.standard_normal((dim, dim))
        shift = shift + 1j * rng.standard_normal((k, dim))
    q = np.linalg.qr(draw)[0].T[:k]
    return np.ascontiguousarray(q + noise * shift)


class TestGramResidual:
    """The row-blocked Gram check against the whole K x K Gram matrix."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_whole_matrix(self, dtype, monkeypatch):
        monkeypatch.setattr("kchaos.krylov.GRAM_BLOCK_BYTES", SMALL_GRAM_BYTES)
        itemsize = np.dtype(dtype).itemsize
        one = math.isqrt(SMALL_GRAM_BYTES // itemsize)  # the most rows one block holds
        assert SMALL_GRAM_BYTES // (itemsize * one) >= one
        assert SMALL_GRAM_BYTES // (itemsize * (one + 1)) < one + 1
        for k in (1, one - 1, one, one + 1, 4 * one + 3):
            rows = _near_orthonormal(k, 4 * one + 5, dtype, k)
            ref = gram_residual_reference(rows)
            assert ref > 1e-8  # far above roundoff, so 1e-15 is a real test
            assert abs(_gram_residual(rows) - ref) <= 1e-15

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_defect_between_first_and_last_block(self, dtype, monkeypatch):
        monkeypatch.setattr("kchaos.krylov.GRAM_BLOCK_BYTES", SMALL_GRAM_BYTES)
        rows = _near_orthonormal(50, 64, dtype, 5, noise=0.0)
        assert _gram_residual(rows) < 1e-13
        rows[-1] += 1e-8 * rows[0]
        assert _gram_residual(rows) == pytest.approx(1e-8, rel=1e-6)

    def test_lanczos_raises_on_a_defect_across_blocks(self, monkeypatch):
        # 32 rows in blocks of 10: the last Krylov row, skewed in place by
        # 1e-8 of the seed after its last projection, meets row 0 only in
        # the first block's slice
        monkeypatch.setattr("kchaos.krylov.GRAM_BLOCK_BYTES", 8 * 32 * 10)
        ham = build_goe(32, 3)
        spec = eigendecompose(ham)
        psi = state_random(32, 2)
        assert lanczos_full_orth(ham, psi, spec).ortho_residual < 1e-13
        calls = []

        def skewing(x):
            calls.append(None)
            if len(calls) == 32:  # x is the last Krylov row itself
                x += 1e-8 * psi
            return ham.matrix @ x

        skewed = SimpleNamespace(dim=32, matvec=skewing)
        with pytest.raises(OrthogonalityLossError):
            lanczos_full_orth(skewed, psi, spec)
        assert len(calls) == 32

    def test_perturbed_chain_raises_on_a_defect_across_blocks(self, monkeypatch):
        # the admixture's last row, skewed by 1e-8 of its first, is rotated
        # into the last rows of the chain, in another block than row 0
        monkeypatch.setattr("kchaos.krylov.GRAM_BLOCK_BYTES", 8 * 32 * 10)
        levels = np.sort(np.random.default_rng(32).standard_normal(32))
        tail, _ = _chase(levels, 16, UniformComplement(), 0.05)
        a, b, rows = tail
        assert perturbed_chain(a, b, rows, levels, 16, 0.5).shape[0] == 32
        skewed = rows.copy()
        skewed[-1] += 1e-8 * skewed[0]
        with pytest.raises(OrthogonalityLossError):
            perturbed_chain(a, b, skewed, levels, 16, 0.5)


class TestAmplitudes:
    def test_localized_at_time_zero(self):
        ham, spec, psi = two_level()
        lan = lanczos_full_orth(ham, psi, spec=spec)
        amps = krylov_amplitudes(lan, np.array([0.0]))
        assert np.allclose(amps[:, 0], [1.0, 0.0], atol=1e-14)

    def test_two_level_closed_form(self):
        ham, spec, psi = two_level()
        lan = lanczos_full_orth(ham, psi, spec=spec)
        ts = np.linspace(0.0, 12.0, 97)
        amps = krylov_amplitudes(lan, ts)
        assert np.allclose(amps[0], (1 + np.exp(-1j * ts)) / 2, atol=1e-14)
        assert np.allclose(amps[1], (-1 + np.exp(-1j * ts)) / 2, atol=1e-14)

    def test_unitarity_ising(self):
        basis = parity_basis(6, "even")
        ham = build_ising_sector(6, 1.02, "even")
        spec = eigendecompose(ham)
        psi = state_all_up(basis)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        ts = np.random.default_rng(3).uniform(0.0, 50.0, 100)
        amps = krylov_amplitudes(lan, ts)
        norms = np.sum(np.abs(amps) ** 2, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10



class TestTightBinding:
    def test_two_level_closed_form(self):
        ham, spec, psi = two_level()
        lan = lanczos_full_orth(ham, psi, spec=spec)
        times, out = tight_binding_propagate(lan, 10.0, 1e-3)
        assert np.max(np.abs(out[0] - (1 + np.exp(-1j * times)) / 2)) < 1e-6
        assert np.max(np.abs(out[1] - (-1 + np.exp(-1j * times)) / 2)) < 1e-6

    def test_norm_conserved(self):
        ham, spec, psi = two_level()
        lan = lanczos_full_orth(ham, psi, spec=spec)
        _, out = tight_binding_propagate(lan, 10.0, 1e-3)
        assert np.max(np.abs(np.sum(np.abs(out) ** 2, axis=0) - 1.0)) < 1e-6

    def test_oversized_step_suggests_dt(self):
        ham = build_goe(24, 2)
        spec = eigendecompose(ham)
        psi = state_random(24, 1)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        with pytest.raises(NumericalError, match="dt"):
            tight_binding_propagate(lan, 20.0, 0.5)

    @pytest.mark.parametrize("dim,seed", [(16, 0), (40, 1), (64, 2)])
    def test_matches_spectral_method(self, dim, seed):
        ham = build_goe(dim, seed)
        spec = eigendecompose(ham)
        psi = state_random(dim, 10 + seed)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        dt = min(1e-3, 0.05 / spec.spectral_range)
        times, ode = tight_binding_propagate(lan, 5.0, dt)
        spectral = krylov_amplitudes(lan, times)
        assert np.max(np.abs(ode - spectral)) < 1e-6


class TestComplexity:
    def test_two_level_curve(self):
        ham, spec, psi = two_level()
        lan = lanczos_full_orth(ham, psi, spec=spec)
        ts = np.linspace(0.0, 2 * np.pi, 65)
        values = complexity_curve(krylov_amplitudes(lan, ts))
        assert np.allclose(values, (1 - np.cos(ts)) / 2, atol=1e-14)
        at_pi = complexity_curve(krylov_amplitudes(lan, np.array([np.pi])))
        assert at_pi[0] == pytest.approx(1.0, abs=1e-14)

    def test_zero_at_time_zero_and_bounded(self):
        ham = build_goe(20, 4)
        spec = eigendecompose(ham)
        psi = state_random(20, 5)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        ts = np.linspace(0.0, 30.0, 300)
        values = complexity_curve(krylov_amplitudes(lan, ts))
        assert values[0] == pytest.approx(0.0, abs=1e-20)
        assert np.all(values <= lan.krylov_dim - 1)
        assert np.all(values >= 0)

    @pytest.mark.parametrize("seed", ["real", "complex", "eigenstate"])
    def test_exactly_zero_at_time_zero(self, seed):
        # the evolution starts on the first chain site, so C(0) is 0, not roundoff
        ham = build_goe(40, 6)
        spec = eigendecompose(ham)
        psi = {
            "real": state_random(40, 7),
            "complex": state_random(40, 7) * np.exp(0.4j),
            "eigenstate": state_eigenstate(spec, 13),
        }[seed]
        lan = lanczos_full_orth(ham, psi, spec=spec)
        ts = np.array([0.0, 0.5, 0.0, 2.0])
        values = complexity_values(lan, ts)
        assert isinstance(values, np.ndarray)
        assert values[0] == 0.0 and values[2] == 0.0
        later = complexity_curve(krylov_amplitudes(lan, ts[[1, 3]]))
        assert np.allclose(values[[1, 3]], later, rtol=0, atol=1e-12)

    # 16 * D * 100 bytes hold 100 times per block; 1 byte is less than one
    # column, which still gives blocks of one time
    @pytest.mark.parametrize(
        "budget",
        [
            pytest.param(16 * 20 * 100, id="100-per-block"),
            pytest.param(1, id="below-one-column"),
        ],
    )
    def test_chunked_matches_direct(self, monkeypatch, budget):
        ham = build_goe(20, 4)
        spec = eigendecompose(ham)
        psi = state_random(20, 5)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        ts = np.linspace(0.0, 30.0, 1001)
        direct = complexity_curve(krylov_amplitudes(lan, ts))
        direct[0] = 0.0
        monkeypatch.setattr("kchaos.krylov.BLOCK_BYTES", budget)
        chunked = complexity_values(lan, ts)
        # chunk width changes BLAS summation order, so exact equality is not
        # guaranteed, only agreement at rounding level
        assert np.allclose(direct, chunked, rtol=0, atol=1e-12)

    def test_one_overlap_product_per_call(self, monkeypatch):
        ham = build_goe(20, 4)
        spec = eigendecompose(ham)
        lan = lanczos_full_orth(ham, state_random(20, 5), spec=spec)
        calls = []

        def counted(run):
            calls.append(run)
            return _eigen_overlaps(run)

        monkeypatch.setattr("kchaos.krylov._eigen_overlaps", counted)
        # 7 times per block: 1001 times take 143 blocks
        monkeypatch.setattr("kchaos.krylov.BLOCK_BYTES", 16 * 20 * 7)
        complexity_values(lan, np.linspace(0.0, 30.0, 1001))
        assert len(calls) == 1


class TestSaturation:
    def test_eigenstate_zero(self, goe32):
        ham, spec = goe32
        psi = state_eigenstate(spec, 11)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        rep = saturation(lan)
        assert rep.c_bar == 0.0
        assert site_occupation(lan)[0] == pytest.approx(1.0, abs=1e-12)

    def test_uniform_exact(self, goe32):
        ham, spec = goe32
        psi = state_uniform_eigenbasis(spec)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        rep = saturation(lan)
        assert rep.c_bar == pytest.approx(15.5, rel=1e-12)
        assert rep.c_bar_normalized == pytest.approx(1.0, rel=1e-12)

    def test_matches_time_average_small(self):
        # brute-force oracle: trapezoidal average of the actual curve
        for seed in range(3):
            ham = build_goe(3, 60 + seed)
            spec = eigendecompose(ham)
            psi = state_random(3, 70 + seed)
            lan = lanczos_full_orth(ham, psi, spec=spec)
            rep = saturation(lan)
            mean_spacing = spec.spectral_range / (spec.dim - 1)
            horizon = 1e4 / mean_spacing
            ts = np.arange(0.0, horizon, 0.2 / spec.spectral_range)
            avg = time_average_complexity(ts, complexity_values(lan, ts), horizon)
            assert abs(avg - rep.c_bar) / rep.c_bar < 0.01

    def test_q0n_marginals(self, goe32):
        ham, spec = goe32
        psi = state_random(32, 8)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        q0n = site_occupation(lan)
        assert np.sum(q0n) == pytest.approx(1.0, abs=1e-10)
        assert np.all(q0n >= 0)
        assert np.arange(32) @ q0n == pytest.approx(saturation(lan).c_bar, rel=1e-12)
        overlaps = lan.basis.T @ spec.eigenvectors
        assert np.allclose(np.sum(overlaps**2, axis=0), 1.0, atol=1e-10)

    def test_phase_invariance(self, goe32):
        # re-phasing eigenvectors and a global phase on psi0 change nothing
        ham, spec = goe32
        psi = state_random(32, 9)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        base = saturation(lan).c_bar
        signs = np.random.default_rng(5).choice([-1.0, 1.0], size=32)
        flipped = type(spec)(
            eigenvalues=spec.eigenvalues,
            eigenvectors=spec.eigenvectors * signs[None, :],
            min_spacing=spec.min_spacing,
            near_degenerate=spec.near_degenerate,
            degeneracy_tol=spec.degeneracy_tol,
        )
        assert saturation(replace(lan, spec=flipped)).c_bar == pytest.approx(base, rel=1e-12)
        rephased = psi * np.exp(1j * 0.73)
        lan2 = lanczos_full_orth(ham, rephased, spec=spec)
        assert saturation(lan2).c_bar == pytest.approx(base, rel=1e-10)

    def test_degenerate_gate(self):
        # the gate is lanczos_full_orth's (TestLanczos::test_degeneracy_gate);
        # saturation trusts the spectrum the run was allowed on
        ham = hamiltonian_from_matrix(np.diag([1.0, 1.0, 2.0]))
        spec = eigendecompose(ham)
        psi = state_random(3, 0)
        lan = lanczos_full_orth(ham, psi, spec=spec, allow_degenerate=True)
        assert np.isfinite(saturation(lan).c_bar)


@pytest.mark.parametrize(
    "read",
    [
        saturation,
        lambda lan: complexity_values(lan, np.linspace(0.0, 10.0, 5)),
        lambda lan: krylov_amplitudes(lan, np.linspace(0.0, 10.0, 5)),
    ],
    ids=["saturation", "complexity_values", "krylov_amplitudes"],
)
def test_eigenvalue_only_spectrum_is_refused(read):
    # the run itself needs only the levels, but its readers need the eigenvectors:
    # without them saturation read c_bar = 0 and complexity_values failed to broadcast
    ham = build_goe(64, 5)
    lan = lanczos_full_orth(ham, state_random(64, 6), eigendecompose(ham, vectors=False))
    assert lan.krylov_dim == 64
    with pytest.raises(ValueError, match=r"solve it with eigendecompose\(ham\)"):
        read(lan)


class TestTimeAverage:
    def test_cosine_oracle(self):
        ts = np.arange(0.0, 2 * np.pi * 1000 + 1e-3, 1e-3)
        values = (1 - np.cos(ts)) / 2
        assert time_average_complexity(ts, values, ts[-1]) == pytest.approx(0.5, abs=1e-3)

    def test_constant_curve(self):
        ts = np.linspace(0.0, 10.0, 11)
        values = np.full(11, 3.25)
        assert time_average_complexity(ts, values, 10.0) == pytest.approx(3.25, rel=1e-14)

    def test_converges_to_saturation_ising(self):
        basis = parity_basis(6, "even")
        ham = build_ising_sector(6, 1.02, "even")
        spec = eigendecompose(ham)
        psi = state_all_up(basis)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        rep = saturation(lan)
        horizon = 1e3 * spec.dim / spec.spectral_range
        ts = np.arange(0.0, horizon, 0.2 / spec.spectral_range)
        values = complexity_values(lan, ts)
        avg = time_average_complexity(ts, values, horizon, fastest_phase=spec.spectral_range)
        assert abs(avg - rep.c_bar) / rep.c_bar < 0.01

    def test_undersampled_warning(self):
        ts = np.linspace(0.0, 100.0, 11)
        with pytest.warns(UserWarning, match="undersample"):
            time_average_complexity(ts, np.ones(11), 100.0, fastest_phase=50.0)


def test_default_time_grid_shape():
    grid = default_time_grid(10.0, 64, n_points=100)
    assert grid[0] == 0.0
    assert np.all(np.diff(grid) > 0)
    heisenberg = 2 * np.pi * 63 / 10.0
    assert grid[-1] == pytest.approx(10 * heisenberg)


@pytest.mark.parametrize(
    "spectral_range, dim", [(0.0, 64), (10.0, 1)], ids=["zero-range", "dim-1"]
)
def test_default_time_grid_needs_a_range_and_two_levels(spectral_range, dim):
    with pytest.raises(ValueError, match="need spectral_range > 0 and dim >= 2"):
        default_time_grid(spectral_range, dim)
