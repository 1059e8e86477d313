import dataclasses

import numpy as np
import pytest

from kchaos import (
    GaussianProfile,
    UniformComplement,
    build_goe,
    eigendecompose,
    lanczos_full_orth,
    parity_basis,
    saturation,
    select_center_states,
    state_all_up,
    state_eigenstate,
    state_random,
    state_uniform_eigenbasis,
)
from kchaos.states import perturbed_coefficients
from oracles import embed, energy_coefficients, hamiltonian_from_matrix, state_perturbed


class TestAllUp:
    def test_two_spin(self):
        psi = state_all_up(parity_basis(2, "even"))
        assert np.array_equal(psi, [1.0, 0.0, 0.0])

    def test_unit_norm(self):
        psi = state_all_up(parity_basis(10, "even"))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_embeds_to_full_all_up(self):
        basis = parity_basis(5, "even")
        full = embed(basis, state_all_up(basis))
        expected = np.zeros(32)
        expected[0] = 1.0
        assert np.allclose(full, expected, atol=1e-14)

    def test_odd_sector_rejected(self):
        with pytest.raises(ValueError, match="even"):
            state_all_up(parity_basis(3, "odd"))

    @pytest.mark.parametrize("keep", [slice(1, None), slice(0, 0)], ids=["without-0", "empty"])
    def test_basis_without_the_all_up_representative(self, keep):
        basis = parity_basis(3, "even")
        basis = dataclasses.replace(
            basis, representatives=basis.representatives[keep], palindrome=basis.palindrome[keep]
        )
        with pytest.raises(ValueError, match="does not contain the all-up representative"):
            state_all_up(basis)


class TestUniform:
    def test_two_level_coefficients(self):
        spec = eigendecompose(hamiltonian_from_matrix(np.diag([0.0, 1.0])))
        psi = state_uniform_eigenbasis(spec)
        assert np.allclose(energy_coefficients(psi, spec), [1 / np.sqrt(2)] * 2)

    def test_flat_weights(self, goe32):
        ham, spec = goe32
        psi = state_uniform_eigenbasis(spec)
        weights = np.abs(energy_coefficients(psi, spec)) ** 2
        assert np.allclose(weights, 1 / 32, atol=1e-14)

    def test_exact_saturation(self, goe32):
        ham, spec = goe32
        psi = state_uniform_eigenbasis(spec)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        rep = saturation(lan)
        assert rep.c_bar == pytest.approx((32 - 1) / 2, rel=1e-12)

    def test_phases_immaterial(self, goe32):
        # saturation depends on coefficient moduli only: random sign patterns
        # on the uniform state reproduce the same value
        ham, spec = goe32
        rng = np.random.default_rng(77)
        for _ in range(2):
            signs = rng.choice([-1.0, 1.0], size=32)
            flipped = spec.eigenvectors @ (signs / np.sqrt(32))
            lan = lanczos_full_orth(ham, flipped, spec=spec)
            rep = saturation(lan)
            assert rep.c_bar == pytest.approx((32 - 1) / 2, rel=1e-10)


class TestRandom:
    def test_norm_and_determinism(self):
        a = state_random(200, 4)
        b = state_random(200, 4)
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
        assert np.array_equal(a, b)
        assert np.isrealobj(a)

    def test_pair_overlaps_concentrate(self):
        # overlap of independent random unit vectors is O(D^-1/2)
        dim = 1024
        bound = 5.0 / np.sqrt(dim)
        states = [state_random(dim, 1000 + i) for i in range(101)]
        overlaps = [abs(states[i] @ states[i + 1]) for i in range(100)]
        assert max(overlaps) < bound

    def test_mean_eigenweight(self, goe32):
        _, spec = goe32
        psi = state_random(32, 3)
        weights = np.abs(energy_coefficients(psi, spec)) ** 2
        assert np.mean(weights) == pytest.approx(1 / 32, rel=1e-12)


class TestEigenstate:
    def test_diagonal_reference(self):
        spec = eigendecompose(hamiltonian_from_matrix(np.diag([1.0, 2.0, 3.0])))
        psi = state_eigenstate(spec, 0)
        assert np.allclose(np.abs(psi), [1.0, 0.0, 0.0])

    def test_out_of_range(self, goe32):
        _, spec = goe32
        with pytest.raises(ValueError, match="range"):
            state_eigenstate(spec, 32)

    def test_unit_norm(self, goe32):
        _, spec = goe32
        assert np.linalg.norm(state_eigenstate(spec, 7)) == pytest.approx(1.0)


class TestPerturbed:
    def test_delta_zero_is_eigenstate(self, goe32):
        _, spec = goe32
        psi0 = state_perturbed(spec, 5, UniformComplement(), 0.0)
        assert np.array_equal(psi0, state_eigenstate(spec, 5))

    def test_anchor_weight_closed_form(self, goe32):
        _, spec = goe32
        for delta in (0.05, 0.3, 1.0):
            psi = state_perturbed(spec, 9, UniformComplement(), delta)
            coeffs = energy_coefficients(psi, spec)
            assert coeffs[9] ** 2 == pytest.approx(1 / (1 + delta**2), abs=1e-12)
            rest = np.sum(coeffs**2) - coeffs[9] ** 2
            assert rest == pytest.approx(delta**2 / (1 + delta**2), abs=1e-12)

    def test_gaussian_profile_moduli(self):
        # Fig-style setup: anchored at j=10, envelope centered at 61, sigma 10
        ham = build_goe(128, 40)
        spec = eigendecompose(ham)
        delta = 0.2
        psi = state_perturbed(spec, 10, GaussianProfile(61, 10.0), delta)
        coeffs = energy_coefficients(psi, spec)
        i = np.arange(128.0)
        envelope = np.exp(-((i - 61.0) ** 2) / (4 * 10.0**2))
        envelope[10] = 0.0
        envelope /= np.linalg.norm(envelope)
        expected = delta / np.sqrt(1 + delta**2) * envelope
        expected[10] = 1 / np.sqrt(1 + delta**2)
        assert np.allclose(np.abs(coeffs), np.abs(expected), atol=1e-12)

    def test_continuity_in_delta(self, goe32):
        _, spec = goe32
        grid = np.linspace(0.0, 0.5, 11)
        states = [state_perturbed(spec, 4, UniformComplement(), d) for d in grid]
        for a, b, da, db in zip(states, states[1:], grid, grid[1:]):
            assert np.linalg.norm(b - a) <= 2.0 * (db - da)

    def test_validation(self, goe32):
        _, spec = goe32
        with pytest.raises(ValueError):
            state_perturbed(spec, 3, UniformComplement(), -0.1)
        spec1 = eigendecompose(hamiltonian_from_matrix(np.array([[1.0]])))
        with pytest.raises(ValueError, match="vanishes"):
            state_perturbed(spec1, 0, UniformComplement(), 0.1)

    def test_unsupported_profile_type(self):
        with pytest.raises(TypeError, match="unsupported tilde profile: 'uniform'"):
            perturbed_coefficients(8, 0, "uniform", 0.1)


class TestSelectCenter:
    def test_median_of_five(self):
        spec = eigendecompose(hamiltonian_from_matrix(np.diag([0.0, 1.0, 2.0, 3.0, 4.0])))
        assert select_center_states(spec, 1) == [2]

    def test_symmetric_spectrum_window(self):
        spec = eigendecompose(hamiltonian_from_matrix(np.diag(np.linspace(-1, 1, 528))))
        assert select_center_states(spec, 40) == list(range(244, 284))

    def test_against_bruteforce_oracle(self, goe32):
        _, spec = goe32
        for m in (1, 7, 32):
            picks = select_center_states(spec, m)
            median = np.median(spec.eigenvalues)
            order = sorted(range(32), key=lambda i: (abs(spec.eigenvalues[i] - median), i))
            assert picks == sorted(order[:m])

    def test_all_and_too_many(self, goe32):
        _, spec = goe32
        assert select_center_states(spec, 32) == list(range(32))
        with pytest.raises(ValueError):
            select_center_states(spec, 33)
