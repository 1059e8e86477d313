import weakref

import numpy as np
import pytest

from kchaos import (
    GaussianProfile,
    UniformComplement,
    bound_rhs,
    build_goe,
    eigendecompose,
    lanczos_full_orth,
    overlap_scaling_check,
    run_bound_sweep,
    saturation,
    state_perturbed,
)


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


def test_previous_krylov_basis_released(goe32, monkeypatch):
    # each run allocates a D x D Krylov array; the previous run's must be gone
    alive = []

    def run(*args, **kwargs):
        assert all(ref() is None for ref in alive), "an earlier LanczosResult is still alive"
        lan = lanczos_full_orth(*args, **kwargs)
        alive.append(weakref.ref(lan))
        return lan

    monkeypatch.setattr("kchaos.perturbation.lanczos_full_orth", run)
    ham, _ = goe32
    run_bound_sweep(ham, 16, UniformComplement(), np.array([0.01, 0.02, 0.05]))
    alive.clear()
    overlap_scaling_check(ham, 16, UniformComplement(), np.geomspace(1e-3, 1e-2, 4))
    assert len(alive) == 4
