import weakref

import numpy as np
import pytest

from kchaos import (
    GaussianProfile,
    UniformComplement,
    bound_rhs,
    build_goe,
    build_ising_sector,
    eigendecompose,
    lanczos_full_orth,
    overlap_scaling_check,
    run_bound_sweep,
    saturation,
)
from kchaos.krylov import perturbed_chain
from kchaos.perturbation import _complement_chain
from kchaos.states import perturbed_coefficients
from kchaos.sweeps import banded_hamiltonian
from oracles import perturbed_reference, state_perturbed


class TestBoundRhs:
    def test_zero_delta(self):
        assert bound_rhs(512, 0.0) == 0.0

    def test_closed_form_value(self):
        assert bound_rhs(256, 0.1) == pytest.approx(3.83, abs=1e-12)

    def test_exact_quadratic_scaling(self):
        for dim in (16, 301):
            for delta in (0.01, 0.2):
                assert bound_rhs(dim, 2 * delta) == pytest.approx(
                    4 * bound_rhs(dim, delta), rel=1e-15
                )

    def test_negative_delta(self):
        with pytest.raises(ValueError):
            bound_rhs(16, -0.1)


class TestBoundSweep:
    def test_delta_zero_entry(self, goe32):
        ham, _ = goe32
        sweep = run_bound_sweep(ham, 16, UniformComplement(), np.array([0.0, 0.05]))
        assert sweep.c_bar[0] == 0.0
        assert sweep.bound[0] == 0.0

    def test_bound_holds_small_delta(self, goe32):
        ham, _ = goe32
        deltas = np.array([0.01, 0.02, 0.05, 0.1])
        for profile in (UniformComplement(), GaussianProfile(24, 5.0)):
            sweep = run_bound_sweep(ham, 16, profile, deltas)
            assert np.all(sweep.c_bar <= sweep.bound)
            assert sweep.delta_ok_up_to == 0.1

    def test_saturation_monotone_for_uniform_complement(self):
        # empirical behavior on this seeded instance; not a theorem, but a
        # regression guard for the uniform-complement profile
        ham = build_goe(64, 17)
        deltas = np.linspace(0.02, 0.3, 8)
        sweep = run_bound_sweep(ham, 32, UniformComplement(), deltas)
        assert np.all(np.diff(sweep.c_bar) >= 0)

    def test_grid_validation(self, goe32):
        ham, _ = goe32
        with pytest.raises(ValueError):
            run_bound_sweep(ham, 3, UniformComplement(), np.array([0.2, 0.1]))
        with pytest.raises(ValueError):
            run_bound_sweep(ham, 3, UniformComplement(), np.array([]))


class TestOverlapScaling:
    def test_quadratic_exponents_and_sum_rule(self, goe32):
        ham, _ = goe32
        report = overlap_scaling_check(
            ham, 16, UniformComplement(), np.geomspace(0.005, 0.05, 6)
        )
        assert abs(report.median_slope - 2.0) <= 0.1
        assert abs(report.f_sum - 1.0) <= 0.05

    def test_anchor_site_slope_is_flat(self, goe32):
        # |<K_0|e_j>|^2 = 1/(1+delta^2) barely moves over the fit window
        ham, spec = goe32
        deltas = np.geomspace(0.005, 0.05, 6)
        o0 = []
        for d in deltas:
            psi = state_perturbed(spec, 16, UniformComplement(), d)
            lan = lanczos_full_orth(ham, psi, spec=spec)
            o0.append(float(np.abs(lan.basis[:, 0] @ spec.eigenvectors[:, 16]) ** 2))
        slope = np.polyfit(np.log(deltas), np.log(o0), 1)[0]
        assert abs(slope) < 1e-2

    def test_q0n_expansion_consistency(self):
        # Q_0n = (f_n + 1/(D-1)) delta^2 to leading order for a
        # uniform-complement admixture
        dim = 48
        ham = build_goe(dim, 21)
        spec = eigendecompose(ham)
        j = 24
        report = overlap_scaling_check(
            ham, j, UniformComplement(), np.geomspace(0.005, 0.05, 6)
        )
        delta = 0.02
        psi = state_perturbed(spec, j, UniformComplement(), delta)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        q0n = saturation(lan).q0n
        predicted = report.f_intercepts + 1.0 / (dim - 1)
        relative = np.abs(q0n[1:] / delta**2 - predicted) / predicted
        assert np.max(relative) <= 0.10

    def test_grid_validation(self, goe32):
        ham, _ = goe32
        with pytest.raises(ValueError):
            overlap_scaling_check(ham, 3, UniformComplement(), np.array([0.01, 0.02]))
        with pytest.raises(ValueError):
            overlap_scaling_check(
                ham, 3, UniformComplement(), np.array([0.01, 0.02, 0.05, 0.2])
            )


class TestAgainstMatrixBasis:
    def test_uniform_banded_chain(self):
        # the chain the experiments derive, against a Lanczos run on H itself
        ham = banded_hamiltonian(256, 0.2, 0.125, 4)
        spec = eigendecompose(ham)
        j = 10
        levels, tail = _complement_chain(ham, j, UniformComplement(), allow_degenerate=False)
        tol = 1e-8 * spec.spectral_range
        for delta in (1e-3, 0.05, 0.5):
            a, b, rows = perturbed_chain(*tail, levels, j, delta)
            psi = state_perturbed(spec, j, UniformComplement(), delta)
            lan = lanczos_full_orth(ham, psi, spec)
            assert a.size == lan.krylov_dim == 256
            assert np.max(np.abs(a - lan.a)) <= tol
            assert np.max(np.abs(b - lan.b)) <= tol
            assert np.max(np.abs(spec.eigenvectors @ rows.T - lan.basis)) <= 1e-8
            weights = perturbed_coefficients(256, j, UniformComplement(), delta) ** 2
            c_bar = np.arange(a.size) @ (rows**2 @ weights)
            assert c_bar == pytest.approx(saturation(lan).c_bar, rel=1e-10)


def test_gaussian_ising_bound_sweep_matches_oracle():
    # the README bound-sweep: its Gaussian coefficients fall to 2.6e-51, far
    # below the error of the eigenvectors, so c_bar has to come from the exact
    # eigenbasis coefficients; the matrix-basis chain read it up to 9.5% high
    ham = build_ising_sector(9, 4.0, "even")
    profile = GaussianProfile(61, 10.0)
    deltas = np.geomspace(0.01, 0.5, 12)[[0, 5, 11]]
    sweep = run_bound_sweep(ham, 10, profile, deltas)
    levels = eigendecompose(ham).eigenvalues
    for delta, c_bar in zip(deltas, sweep.c_bar):
        c_ref = saturation(perturbed_reference(levels, 10, profile, delta)).c_bar
        assert c_bar == pytest.approx(c_ref, rel=1e-10)


def test_previous_krylov_basis_released(goe32, monkeypatch):
    # one admixture chain per experiment, released before the first delta;
    # each delta's Krylov rows are released before the next delta's are formed
    chains, rows_alive = [], []

    def run(*args, **kwargs):
        lan = lanczos_full_orth(*args, **kwargs)
        chains.append((weakref.ref(lan), weakref.ref(lan.basis.base)))
        return lan

    def chase(*args, **kwargs):
        refs = [ref for pair in chains + rows_alive for ref in pair]
        assert all(ref() is None for ref in refs), "an earlier chain or delta's rows are alive"
        result = perturbed_chain(*args, **kwargs)
        rows_alive.append((weakref.ref(result[2]), weakref.ref(result[2].base)))
        return result

    monkeypatch.setattr("kchaos.perturbation.lanczos_full_orth", run)
    monkeypatch.setattr("kchaos.perturbation.perturbed_chain", chase)
    ham, _ = goe32
    run_bound_sweep(ham, 16, UniformComplement(), np.array([0.01, 0.02, 0.05]))
    assert (len(chains), len(rows_alive)) == (1, 3)
    overlap_scaling_check(ham, 16, UniformComplement(), np.geomspace(1e-3, 1e-2, 4))
    assert (len(chains), len(rows_alive)) == (2, 7)
