import tracemalloc
import weakref

import numpy as np
import pytest

import kchaos.hamiltonians
import kchaos.perturbation
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
from kchaos.cli import main
from kchaos.krylov import perturbed_chain
from kchaos.perturbation import OVERLAP_FLOOR, _complement_chain, _fit_sites
from kchaos.states import perturbed_coefficients
from kchaos.sweeps import banded_hamiltonian
from oracles import (
    chain_coefficients,
    fit_sites_reference,
    insert_route_chain,
    perturbed_reference,
    site_occupation,
    state_perturbed,
)


@pytest.fixture(scope="module")
def levels32(goe32):
    """The eigenvalue-only spectrum of the GOE D=32 draw, as the CLI solves it."""
    return eigendecompose(goe32[0], vectors=False)


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
    def test_delta_zero_entry(self, levels32):
        sweep = run_bound_sweep(levels32, 16, UniformComplement(), np.array([0.0, 0.05]))
        assert sweep.c_bar[0] == 0.0
        assert sweep.bound[0] == 0.0

    def test_bound_holds_small_delta(self, levels32):
        deltas = np.array([0.01, 0.02, 0.05, 0.1])
        for profile in (UniformComplement(), GaussianProfile(24, 5.0)):
            sweep = run_bound_sweep(levels32, 16, profile, deltas)
            assert np.all(sweep.c_bar <= sweep.bound)
            assert sweep.delta_ok_up_to == 0.1

    @pytest.mark.parametrize("fails_from", [0, 2], ids=["first-delta", "third-delta"])
    def test_delta_ok_up_to_when_the_bound_fails(self, levels32, monkeypatch, fails_from):
        # c_bar > 0 at every delta > 0, so a zero bound fails from fails_from on
        deltas = np.array([0.01, 0.02, 0.05, 0.1])
        real = kchaos.perturbation.bound_rhs
        monkeypatch.setattr(
            kchaos.perturbation,
            "bound_rhs",
            lambda dim, delta: 0.0 if delta >= deltas[fails_from] else real(dim, delta),
        )
        sweep = run_bound_sweep(levels32, 16, UniformComplement(), deltas)
        holds = sweep.c_bar <= sweep.bound
        assert list(holds) == [i < fails_from for i in range(4)]
        if fails_from == 0:
            assert np.isnan(sweep.delta_ok_up_to)
        else:
            assert sweep.delta_ok_up_to == deltas[fails_from - 1]

    def test_cli_reports_a_bound_that_never_holds(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(kchaos.perturbation, "bound_rhs", lambda dim, delta: 0.0)
        argv = ["bound-sweep", "--model", "banded", "--dim", "32", "--delta-points", "3"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith("bound holds up to delta = nan\n")

    def test_saturation_monotone_for_uniform_complement(self):
        # empirical behavior on this seeded instance; not a theorem, but a
        # regression guard for the uniform-complement profile
        spec = eigendecompose(build_goe(64, 17), vectors=False)
        deltas = np.linspace(0.02, 0.3, 8)
        sweep = run_bound_sweep(spec, 32, UniformComplement(), deltas)
        assert np.all(np.diff(sweep.c_bar) >= 0)

    def test_grid_validation(self, levels32):
        with pytest.raises(ValueError):
            run_bound_sweep(levels32, 3, UniformComplement(), np.array([0.2, 0.1]))
        with pytest.raises(ValueError):
            run_bound_sweep(levels32, 3, UniformComplement(), np.array([]))


class TestOverlapScaling:
    def test_quadratic_exponents_and_sum_rule(self, levels32):
        report = overlap_scaling_check(
            levels32, 16, UniformComplement(), np.geomspace(0.005, 0.05, 6)
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
        levels = eigendecompose(ham, vectors=False)
        report = overlap_scaling_check(
            levels, j, UniformComplement(), np.geomspace(0.005, 0.05, 6)
        )
        delta = 0.02
        psi = state_perturbed(spec, j, UniformComplement(), delta)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        q0n = site_occupation(lan)
        predicted = report.f_intercepts + 1.0 / (dim - 1)
        relative = np.abs(q0n[1:] / delta**2 - predicted) / predicted
        assert np.max(relative) <= 0.10

    def test_grid_validation(self, levels32):
        with pytest.raises(ValueError):
            overlap_scaling_check(levels32, 3, UniformComplement(), np.array([0.01, 0.02]))
        with pytest.raises(ValueError):
            overlap_scaling_check(
                levels32, 3, UniformComplement(), np.array([0.01, 0.02, 0.05, 0.2])
            )
        for grid in (np.full(6, 0.01), np.array([0.01, 0.02, 0.02, 0.03, 0.04])):
            with pytest.raises(ValueError, match=r"without repeated values, got \[0.01 "):
                overlap_scaling_check(levels32, 3, UniformComplement(), grid)
        with pytest.raises(ValueError, match="1-D"):
            overlap_scaling_check(levels32, 3, UniformComplement(), np.full((2, 3), 0.01))

    def test_decreasing_grid_fits_like_increasing(self, levels32):
        grid = np.geomspace(0.005, 0.05, 6)
        up = overlap_scaling_check(levels32, 16, UniformComplement(), grid)
        down = overlap_scaling_check(levels32, 16, UniformComplement(), grid[::-1])
        assert np.allclose(down.slopes, up.slopes, rtol=1e-12, atol=0.0, equal_nan=True)
        assert np.allclose(down.f_intercepts, up.f_intercepts, rtol=1e-12, atol=0.0)


def test_fit_sites_matches_polyfit_oracle():
    # every site fitted at once against one np.polyfit per site: sites with
    # overlaps below the floor, sites left with one or no kept point (nan),
    # and sites whose overlaps end before the last delta (nan rows)
    rng = np.random.default_rng(4)
    deltas = np.geomspace(0.005, 0.05, 6)
    f = rng.uniform(0.1, 3.0, 200)
    overlaps = f * deltas[:, None] ** rng.uniform(1.5, 2.5, 200) * rng.uniform(0.8, 1.2, (6, 200))
    overlaps[:3, 0:20] = 1e-18  # three points kept
    overlaps[:5, 20:30] = 1e-16  # one point kept
    overlaps[:, 30:35] = 5e-15  # none kept
    overlaps[2:, 35:45] = np.nan  # two points kept
    overlaps[1:, 45:50] = np.nan  # one point kept
    overlaps[:, 50] = OVERLAP_FLOOR  # on the floor: not kept
    slopes, f_n = _fit_sites(deltas, overlaps)
    ref_slopes, ref_f = fit_sites_reference(deltas, overlaps, OVERLAP_FLOOR)
    unfitted = np.r_[20:35, 45:51]
    assert np.all(np.isnan(slopes[unfitted])) and np.all(np.isnan(f_n[unfitted]))
    assert np.array_equal(np.isnan(slopes), np.isnan(ref_slopes))
    assert np.array_equal(np.isnan(f_n), np.isnan(ref_f))
    fitted = ~np.isnan(ref_slopes)
    assert np.max(np.abs(slopes[fitted] - ref_slopes[fitted])) <= 1e-12
    assert np.max(np.abs(f_n[fitted] - ref_f[fitted]) / ref_f[fitted]) <= 1e-12


def test_experiments_solve_for_eigenvalues_only(tmp_path, monkeypatch):
    # the chains read only the levels, so the commands solve for no eigenvectors
    def eigh_must_not_run(*args, **kwargs):
        raise AssertionError("an eigenvector solve ran")

    scaling = ["scaling-check", "--dim", "32", "--seed", "12"]
    assert main(scaling + ["--out", str(tmp_path / "expected")]) == 0
    monkeypatch.setattr(np.linalg, "eigh", eigh_must_not_run)
    monkeypatch.setattr(kchaos.hamiltonians, "_vectors_solver", lambda: eigh_must_not_run)
    bound = ["bound-sweep", "--model", "banded", "--dim", "32", "--deltas", "0.01,0.05"]
    assert main(bound + ["--out", str(tmp_path)]) == 0
    sweep = np.loadtxt(tmp_path / "bound_sweep.csv", delimiter=",", skiprows=1)
    assert np.all(sweep[:, 1] <= sweep[:, 2])
    assert main(scaling + ["--out", str(tmp_path)]) == 0
    expected = (tmp_path / "expected" / "scaling_check.csv").read_bytes()
    assert (tmp_path / "scaling_check.csv").read_bytes() == expected


class TestAgainstMatrixBasis:
    def test_uniform_banded_chain(self):
        # the chain the experiments derive, against a Lanczos run on H itself
        ham = banded_hamiltonian(256, 0.2, 0.125, 4)
        spec = eigendecompose(ham)
        j = 10
        tail = _complement_chain(spec, j, UniformComplement(), allow_degenerate=False)
        tol = 1e-8 * spec.spectral_range
        for delta in (1e-3, 0.05, 0.5):
            rows = perturbed_chain(*tail, spec.eigenvalues, j, delta)
            a, b = chain_coefficients(rows, spec.eigenvalues)
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
    sweep = run_bound_sweep(eigendecompose(ham, vectors=False), 10, profile, deltas)
    levels = eigendecompose(ham).eigenvalues
    for delta, c_bar in zip(deltas, sweep.c_bar):
        c_ref = saturation(perturbed_reference(levels, 10, profile, delta)).c_bar
        assert c_bar == pytest.approx(c_ref, rel=1e-10)


@pytest.mark.parametrize("dim", [16, 64])
@pytest.mark.parametrize("profile", ["uniform", "gaussian"])
def test_complement_rows_match_the_insert_route(dim, profile):
    # the chase reads the admixture's rows in complement coordinates; the
    # route that re-inserted a zero column j first, on a dense diag(E) chain
    # (a dense product at D=16, the sparse layout at D=64), gives the same
    # bits, at both edge anchors and in the middle
    spec = eigendecompose(build_goe(dim, dim), vectors=False)
    prof = UniformComplement() if profile == "uniform" else GaussianProfile(dim / 3, dim / 8)
    for j in (0, dim // 2, dim - 1):
        tail = _complement_chain(spec, j, prof, allow_degenerate=False)
        assert tail[2].shape == (dim - 1, dim - 1)
        for delta in (0.0, 1e-3, 0.05, 0.5):
            rows = perturbed_chain(*tail, spec.eigenvalues, j, delta)
            reference = insert_route_chain(spec, j, prof, delta)
            assert rows.shape == reference.shape
            assert rows.tobytes() == reference.tobytes()


def test_previous_krylov_basis_released(levels32, monkeypatch):
    # one admixture chain per experiment, whose own Krylov basis the chase
    # reads, with no copy; each delta's rows are released before the next
    # delta's are formed, and the chain's basis when the experiment returns
    chains, rows_alive = [], []

    def run(*args, **kwargs):
        lan = lanczos_full_orth(*args, **kwargs)
        chains.append(weakref.ref(lan.basis.base))
        return lan

    def chase(a, b, rows, *args, **kwargs):
        assert all(ref() is None for ref in rows_alive), "an earlier delta's rows are alive"
        assert rows.base is chains[-1]() and np.shares_memory(rows, chains[-1]())
        result = perturbed_chain(a, b, rows, *args, **kwargs)
        rows_alive.append(weakref.ref(result[2].base))
        return result

    monkeypatch.setattr("kchaos.perturbation.lanczos_full_orth", run)
    monkeypatch.setattr("kchaos.perturbation.perturbed_chain", chase)
    run_bound_sweep(levels32, 16, UniformComplement(), np.array([0.01, 0.02, 0.05]))
    assert (len(chains), len(rows_alive)) == (1, 3)
    assert chains[0]() is None
    overlap_scaling_check(levels32, 16, UniformComplement(), np.geomspace(1e-3, 1e-2, 4))
    assert (len(chains), len(rows_alive)) == (2, 7)
    assert chains[1]() is None


# banded D=1024, anchored at j=10, as the bound-banded-d1024 benchmark runs it
PEAK_DIM = 1024


@pytest.fixture(scope="module")
def levels1024():
    return eigendecompose(banded_hamiltonian(PEAK_DIM, 0.2, 0.125, 0), vectors=False)


def _traced_peak(run) -> int:
    """Peak bytes ``tracemalloc`` traces over ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_complement_chain_holds_one_krylov_array(levels1024):
    # the chain of the admixture on diag(E) holds its own (D-1) x (D-1) basis
    # and one Gram row block, no dense diag(E) and no re-inserted copy of
    # its rows: 2.13 x 8 D^2 with both
    peak = _traced_peak(
        lambda: _complement_chain(levels1024, 10, UniformComplement(), allow_degenerate=False)
    )
    assert peak <= 1.25 * 8 * PEAK_DIM**2


@pytest.mark.parametrize(
    "experiment, deltas",
    [
        (run_bound_sweep, np.geomspace(0.01, 0.5, 3)),
        (overlap_scaling_check, np.geomspace(0.005, 0.05, 4)),
    ],
    ids=["bound-sweep", "scaling-check"],
)
def test_peak_memory_without_a_gram_matrix(experiment, deltas, levels1024):
    # the admixture's Krylov basis and one delta's rows, plus one Gram row
    # block; a whole K x K Gram matrix would add 8 D^2 bytes at either stage
    peak = _traced_peak(lambda: experiment(levels1024, 10, UniformComplement(), deltas))
    assert peak < 2.6 * 8 * PEAK_DIM**2


def test_bound_sweep_command_drops_h_before_the_chain(tmp_path):
    # H, then H beside the levels; then the admixture's basis and one delta's
    # rows with a Gram row block. Holding H through the chain and the chase
    # traced 3.25 x 8 D^2.
    argv = ["bound-sweep", "--model", "banded", "--dim", str(PEAK_DIM), "--k", "0.125"]
    argv += ["--j", "10", "--delta-points", "3", "--out", str(tmp_path)]
    assert _traced_peak(lambda: main(argv)) <= 2.5 * 8 * PEAK_DIM**2
