"""Acceptance gate: one test per criterion, each printed as a pass/fail line.

Heavy artifacts (the N=10 spin-chain sweep, the D=48 time-average runs) are
shared across criteria through module-scoped fixtures.
"""

import numpy as np
import pytest

from kchaos import (
    Family,
    GaussianProfile,
    SweepConfig,
    UniformComplement,
    build_banded_random,
    build_goe,
    build_ising_sector,
    complexity_values,
    eigendecompose,
    eta,
    krylov_amplitudes,
    lanczos_full_orth,
    normalize_to_eta,
    overlap_scaling_check,
    parity_basis,
    r_ratio_mean,
    run_banded_sweep,
    run_bound_sweep,
    run_ising_sweep,
    saturation,
    sigma_moving,
    state_all_up,
    state_eigenstate,
    state_random,
    state_uniform_eigenbasis,
)
from kchaos.cli import main
from oracles import (
    assert_lanczos_structure,
    sigma_log,
    spearman_rank_correlation,
    tight_binding_propagate,
    time_average_complexity,
)

# linear coverage of the transition window, containing 1.0 and 4.0 exactly;
# a log grid would pile points onto the small-field chaotic plateau where
# single-spectrum eta rank noise swamps the comparison
HZ_GRID = np.linspace(0.25, 4.0, 16)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number:02d} [{name}]: {status}{suffix}")


def ising_sector(n_spins, h_z):
    return build_ising_sector(n_spins, h_z, "even")


@pytest.fixture(scope="module")
def uniform_runs():
    """Criterion 1 runs, retained for the structural checks of criterion 4."""
    runs = []
    for ham in (ising_sector(8, 1.02), build_goe(64, 7)):
        spec = eigendecompose(ham)
        psi = state_uniform_eigenbasis(spec)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        runs.append((ham, spec, lan, psi))
    return runs


@pytest.fixture(scope="module")
def eigenstate_runs():
    """Criterion 2 runs: eigenstates of the evolving Hamiltonian."""
    runs = []
    for ham, j in ((ising_sector(8, 0.71), 40), (build_goe(64, 8), 20)):
        spec = eigendecompose(ham)
        psi = state_eigenstate(spec, j)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        runs.append((ham, spec, lan, psi))
    return runs


@pytest.fixture(scope="module")
def time_average_runs():
    """Criterion 3: ten 48x48 draws with the finite-horizon trapezoid average."""
    runs = []
    for i in range(10):
        ham = build_goe(48, 300 + i)
        spec = eigendecompose(ham)
        psi = state_random(48, 400 + i)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        rep = saturation(lan)
        horizon = 1e3 * 48 / spec.spectral_range
        dt = 0.2 / spec.spectral_range
        times = np.arange(0.0, horizon + dt / 2, dt)
        values = complexity_values(lan, times)
        average = time_average_complexity(
            times, values, horizon, fastest_phase=spec.spectral_range
        )
        runs.append((ham, spec, lan, psi, rep.c_bar, average))
    return runs


@pytest.fixture(scope="module")
def allup_sweep_n10():
    """N=10 all-up runs across the field grid, kept whole for criteria 4 and 11."""
    basis = parity_basis(10, "even")
    psi = state_all_up(basis)
    points = []
    for h_z in HZ_GRID:
        ham = ising_sector(10, h_z)
        spec = eigendecompose(ham)
        lan = lanczos_full_orth(ham, psi, spec=spec)
        points.append(
            {
                "h_z": h_z,
                "ham": ham,
                "spec": spec,
                "lan": lan,
                "psi": psi,
                "eta": eta(r_ratio_mean(spec.eigenvalues)),
            }
        )
    return points


@pytest.fixture(scope="module")
def ising_transition_records():
    """Criterion 7: harness sweep at N=10 with the eta chain pinned to N=10."""
    cfg = SweepConfig(
        model="ising",
        n_spins=10,
        n_eta=10,
        param_grid=HZ_GRID,
        families=(Family("all_up"), Family("uniform")),
        seed=20,
    )
    return run_ising_sweep(cfg)


def test_c01_exact_delocalized_saturation(uniform_runs):
    worst = 0.0
    for ham, spec, lan, psi in uniform_runs:
        rep = saturation(lan)
        target = (spec.dim - 1) / 2.0
        worst = max(worst, abs(rep.c_bar - target) / target)
    ok = worst <= 1e-8
    report(1, "exact delocalized saturation", ok, f"max rel err {worst:.2e}")
    assert ok


def test_c02_eigenstate_suppression(eigenstate_runs):
    ok = True
    for ham, spec, lan, psi in eigenstate_runs:
        times = np.linspace(0.0, 50.0, 257)
        values = complexity_values(lan, times)
        rep = saturation(lan)
        ok &= lan.krylov_dim == 1
        ok &= bool(np.all(values == 0.0))
        ok &= rep.c_bar == 0.0
    report(2, "eigenstate suppression", ok)
    assert ok


def test_c03_saturation_formula_vs_time_average(time_average_runs):
    errors = [abs(avg - c_bar) / c_bar for _, _, _, _, c_bar, avg in time_average_runs]
    ok = max(errors) <= 0.01
    report(3, "saturation formula vs time average", ok, f"max rel err {max(errors):.2e}")
    assert ok


def test_c04_lanczos_structural_invariants(
    uniform_runs, eigenstate_runs, time_average_runs, allup_sweep_n10
):
    # full-dimension runs must satisfy every structural invariant with K = D;
    # the eigenstate runs of criterion 2 halt at K = 1 by design, so for them
    # the invariants are checked inside the reached Krylov subspace
    for ham, spec, lan, psi in uniform_runs:
        assert_lanczos_structure(ham, spec, lan)
    for run in time_average_runs:
        assert_lanczos_structure(run[0], run[1], run[2])
    for point in allup_sweep_n10:
        assert_lanczos_structure(point["ham"], point["spec"], point["lan"])
    for ham, spec, lan, psi in eigenstate_runs:
        assert lan.krylov_dim == 1
        assert_lanczos_structure(ham, spec, lan, expect_full=False)
    report(4, "Lanczos structural invariants", True)


def test_c05_propagator_cross_check():
    basis = parity_basis(6, "even")
    ham = build_ising_sector(6, 1.02, "even")
    spec = eigendecompose(ham)
    psi = state_all_up(basis)
    lan = lanczos_full_orth(ham, psi, spec=spec)
    times, ode = tight_binding_propagate(lan, 10.0, 1e-3)
    spectral = krylov_amplitudes(lan, times)
    worst = float(np.max(np.abs(ode - spectral)))
    ok = worst < 1e-6
    report(5, "propagator cross-check", ok, f"max entrywise dev {worst:.2e}")
    assert ok


def test_c06_r_ratio_constants():
    goe_means = [
        r_ratio_mean(eigendecompose(build_goe(512, s)).eigenvalues) for s in range(20)
    ]
    poisson_means = [
        r_ratio_mean(np.sort(np.random.default_rng(1000 + s).uniform(0.0, 1.0, 512)))
        for s in range(20)
    ]
    goe_r = float(np.mean(goe_means))
    poisson_r = float(np.mean(poisson_means))
    parts = {
        "goe r": abs(goe_r - 0.53590) <= 0.01,
        "poisson r": abs(poisson_r - 0.38629) <= 0.01,
        "eta(goe) near 1": abs(eta(goe_r) - 1.0) <= 0.07,
        "eta(poisson) near 0": abs(eta(poisson_r)) <= 0.07,
    }
    ok = all(parts.values())
    report(6, "r-ratio constants", ok, f"goe {goe_r:.5f}, poisson {poisson_r:.5f}")
    assert ok, parts


def test_c07_ising_transition_shape(ising_transition_records):
    records = ising_transition_records
    params = np.array([r.param for r in records])
    eta_col = np.array([r.eta for r in records])
    i10 = int(np.argmin(np.abs(params - 1.0)))
    i40 = int(np.argmin(np.abs(params - 4.0)))
    assert params[i10] == 1.0 and params[i40] == 4.0

    allup_cbar = np.array([r.families["all_up"].c_bar_norm for r in records])
    uniform_cbar = np.array([r.families["uniform"].c_bar_norm for r in records])
    allup_isbn = np.array([r.families["all_up"].inv_sigma_b_norm for r in records])

    parts = {
        "eta chaotic point": eta_col[i10] >= 0.8,
        "eta drop to integrable": eta_col[i10] - eta_col[i40] >= 0.3,
        "all_up saturation drop": allup_cbar[i10] - allup_cbar[i40] >= 0.2,
        "uniform flat at 1": bool(np.all(np.abs(uniform_cbar - 1.0) <= 1e-6)),
        "dispersion drop": allup_isbn[i10] - allup_isbn[i40] >= 0.2,
        "dispersion tracks eta": spearman_rank_correlation(allup_isbn, eta_col) >= 0.8,
    }
    ok = all(parts.values())
    report(
        7,
        "ising transition shape",
        ok,
        f"eta(1)={eta_col[i10]:.3f}, cbar drop={allup_cbar[i10] - allup_cbar[i40]:.3f}, "
        f"spearman={spearman_rank_correlation(allup_isbn, eta_col):.3f}",
    )
    assert ok, parts


def test_c08_banded_transition_shape():
    cfg = SweepConfig(
        model="banded",
        dim=256,
        bandwidth_frac=0.2,
        realizations=5,
        param_grid=np.geomspace(5e-4, 1.0, 10),
        families=(
            Family("eig_ref", count=20, ref_param=0.0),
            Family("random", count=10),
            Family("uniform"),
        ),
        seed=30,
    )
    records = run_banded_sweep(cfg)
    eta_col = np.array([r.eta for r in records])
    uniform = np.array([r.families["uniform"].c_bar_norm for r in records])
    random_fam = np.array([r.families["random"].c_bar_norm for r in records])
    eig0 = np.array([r.families["eig0"].c_bar_norm for r in records])

    # real Gaussian states carry Porter-Thomas eigenbasis weights, not the flat
    # weights that give exactly (D-1)/2 (c01), so they sit on a plateau below 1
    # that the transition barely moves; in the GOE limit an H0 eigenstate has
    # the same Porter-Thomas weights in H's eigenbasis and joins that plateau.
    # The 0.06 GOE-end tolerance is three standard errors of the family-mean
    # difference (per-member spread ~0.04 random, 0.05-0.08 eig0 at k=1).
    spread = random_fam.max() - random_fam.min()
    goe_gap = abs(eig0[-1] - random_fam[-1])
    parts = {
        "eta poisson end": eta_col[0] <= 0.15,
        "eta goe end": eta_col[-1] >= 0.85,
        "uniform flat at 1": bool(np.all(np.abs(uniform - 1.0) <= 1e-6)),
        "random plateau flat": spread <= 0.15,
        "random below delocalized": 0.55 <= random_fam.min() and random_fam.max() < uniform.min(),
        "eigenstate family joins random plateau": goe_gap <= 0.06,
        "eigenstate family rise": eig0[-1] - eig0[0] >= 0.3,
    }
    ok = all(parts.values())
    detail = (
        f"random {random_fam.min():.3f}-{random_fam.max():.3f}, spread {spread:.3f}, "
        f"GOE-end gap {goe_gap:.3f}"
    )
    report(
        8,
        "banded transition shape",
        ok,
        f"eta ends ({eta_col[0]:.3f}, {eta_col[-1]:.3f}), {detail}, "
        f"eig rise {eig0[-1] - eig0[0]:.3f}",
    )
    assert ok, f"failed parts: {[k for k, v in parts.items() if not v]}; {detail}"


def test_c09_saturation_bound(tmp_path):
    deltas = np.array([0.01, 0.02, 0.05, 0.1])
    configurations = []
    for h_z in (0.5, 4.0):
        configurations.append((ising_sector(9, h_z), f"ising hz={h_z}"))
    for k in (0.000625, 0.125):
        configurations.append((build_banded_random(256, 51, k, 5), f"banded k={k}"))
    profiles = [
        (10, GaussianProfile(61, 10.0), "j=10 gaussian"),
        (60, GaussianProfile(61, 10.0), "j=60 gaussian"),
        (10, UniformComplement(), "j=10 uniform"),
    ]
    ok = True
    worst = 0.0
    for ham, tag in configurations:
        for j, profile, ptag in profiles:
            sweep = run_bound_sweep(ham, j, profile, deltas)
            ok &= bool(np.all(sweep.c_bar <= sweep.bound))
            worst = max(worst, float(np.max(sweep.c_bar / sweep.bound)))
    report(9, "perturbative saturation bound", ok, f"max c_bar/bound {worst:.3f}")
    assert ok


def test_c10_overlap_scaling():
    ham = build_goe(32, 12)
    rep = overlap_scaling_check(ham, 16, UniformComplement(), np.geomspace(0.005, 0.05, 6))
    parts = {
        "median slope": abs(rep.median_slope - 2.0) <= 0.1,
        "f_n sum rule": abs(rep.f_sum - 1.0) <= 0.05,
    }
    ok = all(parts.values())
    report(
        10, "quadratic overlap scaling", ok, f"slope {rep.median_slope:.4f}, sum {rep.f_sum:.4f}"
    )
    assert ok, parts


def test_c11_dispersion_measure_agreement(allup_sweep_n10):
    eta_col = np.array([p["eta"] for p in allup_sweep_n10])
    sig_log = np.array([sigma_log(p["lan"].b) for p in allup_sweep_n10])
    sig_mov_b = np.array([sigma_moving(p["lan"].b) for p in allup_sweep_n10])
    sig_mov_a = np.array([sigma_moving(p["lan"].a) for p in allup_sweep_n10])

    rho = spearman_rank_correlation(sig_log, sig_mov_b)
    norm_a = normalize_to_eta(1.0 / sig_mov_a, eta_col)
    norm_b = normalize_to_eta(1.0 / sig_mov_b, eta_col)
    gap = float(np.max(np.abs(norm_a - norm_b)))
    parts = {"spearman": rho >= 0.8, "a-b agreement": gap <= 0.15}
    ok = all(parts.values())
    report(11, "dispersion measure agreement", ok, f"spearman {rho:.3f}, max gap {gap:.3f}")
    assert ok, parts


def test_c12_determinism(tmp_path):
    invocations = {
        "ising_sweep.csv": [
            "ising-sweep",
            "--n-spins",
            "6",
            "--hz-min",
            "0.3",
            "--hz-max",
            "2.0",
            "--hz-points",
            "3",
            "--families",
            "all_up,uniform",
            "--seed",
            "5",
        ],
        "banded_sweep.csv": [
            "banded-sweep",
            "--dim",
            "48",
            "--k-min",
            "0.001",
            "--k-max",
            "1.0",
            "--k-points",
            "3",
            "--realizations",
            "2",
            "--seed",
            "6",
        ],
        "bound_sweep.csv": [
            "bound-sweep",
            "--model",
            "banded",
            "--dim",
            "48",
            "--k",
            "0.125",
            "--j",
            "5",
            "--deltas",
            "0.01,0.05",
            "--seed",
            "2",
        ],
        "scaling_check.csv": ["scaling-check", "--dim", "32", "--seed", "12"],
        "single_run.csv": [
            "single-run",
            "--model",
            "goe",
            "--dim",
            "32",
            "--state",
            "random",
            "--seed",
            "3",
            "--t-points",
            "50",
        ],
    }
    ok = True
    for csv_name, argv in invocations.items():
        dirs = [tmp_path / f"{csv_name}.{i}" for i in (0, 1)]
        for d in dirs:
            assert main(argv + ["--out", str(d)]) == 0
        ok &= (dirs[0] / csv_name).read_bytes() == (dirs[1] / csv_name).read_bytes()
    report(12, "byte-identical reruns", ok)
    assert ok
