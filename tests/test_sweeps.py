import dataclasses
import logging
import tracemalloc
import weakref

import numpy as np
import pytest

import kchaos.sweeps
from kchaos import (
    ConfigError,
    DispersionConfig,
    Family,
    SweepConfig,
    build_banded_random,
    build_goe,
    build_ising_sector,
    derive_seed,
    eigendecompose,
    eta,
    r_ratio_mean,
    run_banded_sweep,
    run_ising_sweep,
    sigma_moving,
    state_uniform_eigenbasis,
)

HZ_GRID = np.array([0.3, 1.0, 3.0])


def small_ising_cfg(**overrides):
    kwargs = dict(
        model="ising",
        n_spins=6,
        param_grid=HZ_GRID,
        families=(Family("all_up"), Family("uniform")),
        seed=42,
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


def small_banded_cfg(**overrides):
    kwargs = dict(
        model="banded",
        dim=64,
        realizations=2,
        param_grid=np.geomspace(1e-3, 1.0, 3),
        families=(
            Family("border"),
            Family("eig_ref", count=6, ref_param=0.0),
            Family("random", count=4),
            Family("uniform"),
        ),
        seed=9,
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


class TestConfigValidation:
    def test_bad_model(self):
        with pytest.raises(ConfigError):
            SweepConfig(model="sparse")

    def test_ising_grid_must_avoid_zero(self):
        with pytest.raises(ConfigError, match="h_z = 0"):
            SweepConfig(model="ising", param_grid=np.array([0.0, 1.0]))

    def test_family_model_compatibility(self):
        with pytest.raises(ConfigError, match="all_up"):
            SweepConfig(model="banded", families=(Family("all_up"),))
        with pytest.raises(ConfigError, match="border"):
            SweepConfig(model="ising", families=(Family("border"),))

    @pytest.mark.parametrize("count", [2.5, 2.0, True])
    def test_family_count_must_be_integer(self, count):
        with pytest.raises(ConfigError, match="needs an integer count"):
            Family("random", count=count)

    @pytest.mark.parametrize(
        "kind, fields, match",
        [
            ("uniform", {"count": 2}, "the uniform family needs count = 1, got 2"),
            ("random", {"ref_param": 1.0}, "the random family takes no ref_param, got 1"),
        ],
        ids=["uniform-count-2", "random-ref-param"],
    )
    def test_family_field_its_kind_does_not_take(self, kind, fields, match):
        with pytest.raises(ConfigError, match=match):
            Family(kind, **fields)

    def test_duplicate_labels(self):
        with pytest.raises(ConfigError, match="duplicate"):
            SweepConfig(model="ising", families=(Family("all_up"), Family("all_up")))

    def test_default_families_filled(self):
        cfg = SweepConfig(model="banded")
        assert [f.label for f in cfg.families] == ["border", "eig0", "random", "uniform"]

    def test_model_mismatch_at_run(self):
        with pytest.raises(ConfigError):
            run_banded_sweep(small_ising_cfg())
        with pytest.raises(ConfigError):
            run_ising_sweep(small_banded_cfg())


class TestModelTable:
    def test_model_is_its_table_entry(self, monkeypatch):
        # a third model, GOE draws seeded by the grid point, added as one MODELS entry
        goe = kchaos.sweeps._Model(
            "s", "s", "GOE test sweep", np.array([1.0, 2.0]), "uniform,random", 4,
            lambda cfg, s: [build_goe(cfg.dim, derive_seed(cfg.seed, "goe", int(s)))],
            lambda cfg: cfg.dim, None, None,
        )
        monkeypatch.setitem(kchaos.sweeps.MODELS, "goe", goe)
        families = kchaos.sweeps.parse_families("goe", random_count=3)
        cfg = SweepConfig(model="goe", dim=48, families=families, seed=5)
        sweep = kchaos.sweeps._sweep(cfg, "goe")
        assert list(sweep.column("param")) == [1.0, 2.0]
        assert np.all(np.isfinite(sweep.column("eta")))
        for label in ("uniform", "random"):
            for stat in ("cbar_norm", "inv_sigma_a", "inv_sigma_b"):
                assert np.all(np.isfinite(sweep.column(f"{label}_{stat}")))
        assert np.allclose(sweep.column("uniform_cbar_norm"), 1.0, rtol=0.0, atol=1e-9)
        with pytest.raises(ConfigError, match="the all_up family applies to the ising model only"):
            SweepConfig(model="goe", dim=48, families=(Family("all_up"),))
        with pytest.raises(ConfigError, match="the border family applies to the banded model only"):
            SweepConfig(model="goe", dim=48, families=(Family("border"),))


class TestSeedDerivation:
    def test_deterministic_and_keyed(self):
        assert derive_seed(3, "matrix", 0) == derive_seed(3, "matrix", 0)
        assert derive_seed(3, "matrix", 0) != derive_seed(3, "matrix", 1)
        assert derive_seed(3, "matrix", 0) != derive_seed(4, "matrix", 0)
        assert derive_seed(3, "matrix", 0) != derive_seed(3, "random-state", 0)


class TestRunMember:
    def test_sigma_a_survives_a_too_short_b(self):
        # a 21-site chain holds a 1-wide window for its 21 a's, none for its 20 b's
        ham = build_goe(21, 0)
        spec = eigendecompose(ham)
        psi = state_uniform_eigenbasis(spec)
        lan, _, sigma_a, sigma_b = kchaos.sweeps._run_member(
            ham, spec, psi, DispersionConfig(), allow_degenerate=False
        )
        assert lan.krylov_dim == 21
        assert np.isfinite(sigma_a) and sigma_a == sigma_moving(lan.a)
        assert np.isnan(sigma_b)


class TestIsingSweep:
    def test_record_fields_and_uniform_exactness(self):
        sweep = run_ising_sweep(small_ising_cfg())
        assert list(sweep.column("param")) == list(HZ_GRID)
        assert np.all(np.isfinite(sweep.column("eta")))
        assert np.allclose(sweep.column("uniform_cbar_norm"), 1.0, rtol=0.0, atol=1e-8)
        for label in ("all_up", "uniform"):
            cbar = sweep.column(f"{label}_cbar_norm")
            assert np.all((0.0 <= cbar) & (cbar <= 1.0 + 1e-6))
            assert np.all(np.isfinite(sweep.column(f"{label}_inv_sigma_a")))
            assert np.all(np.isfinite(sweep.column(f"{label}_inv_sigma_b")))

    def test_single_point_grid(self):
        sweep = run_ising_sweep(small_ising_cfg(param_grid=np.array([1.3])))
        assert len(sweep.rows) == 1
        assert np.isfinite(sweep.column("all_up_cbar_norm")[0])

    def test_threads_do_not_change_results(self):
        serial = run_ising_sweep(small_ising_cfg())
        threaded = run_ising_sweep(small_ising_cfg(threads=2))
        assert serial.header == threaded.header
        assert np.array_equal(serial.rows, threaded.rows, equal_nan=True)

    def test_degenerate_point_skipped_with_warning(self, monkeypatch, caplog):
        real_build = kchaos.sweeps.build_ising_sector
        real_eigendecompose = kchaos.sweeps.eigendecompose
        # the Hamiltonians built at h_z = 1, by the argument the builder got
        at_one = []

        def build(n_spins, h_z, sector):
            ham = real_build(n_spins, h_z, sector)
            if h_z == 1.0:
                at_one.append(ham)
            return ham

        def flag_at_one(ham, *args, **kwargs):
            spec = real_eigendecompose(ham, *args, **kwargs)
            if any(ham is h for h in at_one):
                spec = dataclasses.replace(spec, near_degenerate=True)
            return spec

        monkeypatch.setattr(kchaos.sweeps, "build_ising_sector", build)
        monkeypatch.setattr(kchaos.sweeps, "eigendecompose", flag_at_one)
        with caplog.at_level(logging.WARNING, logger="kchaos.sweeps"):
            sweep = run_ising_sweep(small_ising_cfg())
        assert list(sweep.column("param")) == [0.3, 3.0]
        assert any("skipping h_z=1" in m for m in caplog.messages)

    def test_eigenstate_family_vanishes_at_reference(self):
        cfg = small_ising_cfg(
            families=(Family("eig_ref", count=4, ref_param=3.0),),
            param_grid=np.array([1.0, 3.0]),
        )
        sweep = run_ising_sweep(cfg)
        away, at_ref = sweep.column("eig3_cbar_norm")
        assert at_ref == pytest.approx(0.0, abs=1e-12)
        assert away > 0.1
        inv_b = sweep.column("eig3_inv_sigma_b")
        assert np.isfinite(inv_b[0]) and np.isnan(inv_b[1])

    def test_n_invariance_of_all_up_curves(self):
        # the all-up saturation and dispersion curves barely move with N once
        # both sweeps share one eta reference (the measurement protocol pins
        # eta at a fixed larger chain; at N=8 its own eta column is too noisy
        # to normalize against)
        grid = np.array([0.2, 0.5, 1.0, 2.0, 4.0])
        curves = {}
        for n in (8, 10):
            cfg = small_ising_cfg(n_spins=n, n_eta=10, param_grid=grid)
            sweep = run_ising_sweep(cfg)
            curves[n] = np.array(
                [sweep.column("all_up_cbar_norm"), sweep.column("all_up_inv_sigma_b_norm")]
            )
        assert np.max(np.abs(curves[8] - curves[10])) < 0.1

    def test_eta_levels_build_no_hamiltonian(self, monkeypatch):
        # the longer chain's levels are solved in the storage of their build,
        # so neither the Hamiltonian builder nor eigendecompose runs
        def must_not_run(*args, **kwargs):
            raise AssertionError("the eta levels went through a Hamiltonian")

        cfg = small_ising_cfg(n_eta=8)
        expected = eigendecompose(build_ising_sector(8, 0.5, "even"), vectors=False).eigenvalues
        monkeypatch.setattr(kchaos.sweeps, "build_ising_sector", must_not_run)
        monkeypatch.setattr(kchaos.sweeps, "eigendecompose", must_not_run)
        (levels,) = kchaos.sweeps._ising_eta_levels(cfg, 0.5)
        assert np.array_equal(levels, expected)


class TestBandedSweep:
    def test_records_and_families(self):
        sweep = run_banded_sweep(small_banded_cfg())
        assert len(sweep.rows) == 3
        assert np.allclose(sweep.column("uniform_cbar_norm"), 1.0, rtol=0.0, atol=1e-8)
        border = sweep.column("border_cbar_norm")
        assert np.all((0.0 <= border) & (border <= 1.0 + 1e-6))

    def test_transition_visible_in_eigenstate_family(self):
        eig = run_banded_sweep(small_banded_cfg()).column("eig0_cbar_norm")
        assert eig[-1] - eig[0] > 0.3

    def test_random_family_plateau(self):
        # saturation of real random states sits on a flat plateau well below
        # the delocalized value 1 (the Krylov chain retains residual
        # localization even deep in the chaotic phase)
        rand = run_banded_sweep(small_banded_cfg()).column("random_cbar_norm")
        assert np.all((rand > 0.55) & (rand < 0.9))
        assert rand.max() - rand.min() < 0.15

    def test_eta_endpoints_of_transition(self):
        # zero coupling leaves the uncorrelated diagonal: Poisson statistics;
        # the per-realization spread of eta at D=256 is ~0.13, so the mean is
        # taken over 40 draws
        etas = []
        for r in range(40):
            seed = derive_seed(30, "matrix", r)
            spec = kchaos.sweeps.eigendecompose(build_banded_random(256, 51, 0.0, seed))
            etas.append(eta(r_ratio_mean(spec.eigenvalues)))
        assert abs(np.mean(etas)) <= 0.05
        strong = []
        for r in range(40):
            seed = derive_seed(30, "matrix", r)
            spec = kchaos.sweeps.eigendecompose(build_banded_random(256, 51, 1.0, seed))
            strong.append(eta(r_ratio_mean(spec.eigenvalues)))
        assert abs(np.mean(strong) - 1.0) <= 0.05

    def test_nonzero_eigen_reference_rejected(self):
        with pytest.raises(ConfigError, match="k=0"):
            small_banded_cfg(families=(Family("eig_ref", count=4, ref_param=0.5),))

    def test_threads_do_not_change_results(self):
        serial = run_banded_sweep(small_banded_cfg())
        threaded = run_banded_sweep(small_banded_cfg(threads=2))
        assert serial.header == threaded.header
        assert np.array_equal(serial.rows, threaded.rows, equal_nan=True)

    def test_point_memory_does_not_grow_with_realizations(self):
        # a point holds one realization's H and eigenvectors at a time; holding
        # all of them adds 2 x 8 D^2 per realization
        families = kchaos.sweeps.parse_families("banded", "border,eig_ref@0,random,uniform", 2, 2)

        def peak(realizations):
            cfg = small_banded_cfg(
                dim=256, realizations=realizations, param_grid=np.array([0.1]), families=families
            )
            tracemalloc.start()
            try:
                run_banded_sweep(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the first sweep's lazy allocations would inflate a cold R = 1 peak
        peak(1)
        assert peak(8) < 1.25 * peak(1)

    def test_flag_on_a_later_realization_skips_the_point(self, monkeypatch, caplog):
        real_eigendecompose = kchaos.sweeps.eigendecompose
        real_run_member = kchaos.sweeps._run_member
        # the point's Hamiltonians in solve order, whether each solve asked for
        # eigenvectors, and the realization of every member run
        solved, asked, ran_on = [], [], []

        def flag_third(ham, vectors=True):
            spec = real_eigendecompose(ham, vectors=vectors)
            solved.append(ham)
            asked.append(vectors)
            if len(solved) == 3:
                spec = dataclasses.replace(spec, near_degenerate=True)
            if len(solved) == 4:
                spec = dataclasses.replace(spec, min_spacing=1e-30)
            return spec

        def run_member(ham, *args, **kwargs):
            ran_on.append(next(r for r, h in enumerate(solved) if h is ham))
            return real_run_member(ham, *args, **kwargs)

        monkeypatch.setattr(kchaos.sweeps, "eigendecompose", flag_third)
        monkeypatch.setattr(kchaos.sweeps, "_run_member", run_member)
        # neither family solves a reference spectrum, so every solve is one of the point's
        cfg = small_banded_cfg(
            realizations=4,
            param_grid=np.array([0.1]),
            families=(Family("random", count=2), Family("uniform")),
        )
        with caplog.at_level(logging.WARNING, logger="kchaos.sweeps"):
            sweep = run_banded_sweep(cfg)
        assert len(sweep.rows) == 0
        assert len(solved) == 4
        assert "skipping k=0.1: near-degenerate spectrum (min spacing 1.000e-30)" in caplog.messages
        # two random members and one uniform on realization 0, one uniform on 1
        assert ran_on == [0, 0, 0, 1]
        # the realization after the flagged one is solved for its levels alone
        assert asked == [True, True, True, False]

    @pytest.mark.parametrize(
        "cfg, solves",
        [
            (small_banded_cfg(realizations=3), 3),
            (
                small_ising_cfg(
                    families=kchaos.sweeps.parse_families("ising", "eig_ref@4,all_up,eig_ref@0", 4, 3)
                ),
                2,
            ),
        ],
        ids=["banded-border-eig-ref", "ising-two-references"],
    )
    def test_reference_spectra_die_before_the_next_solve(self, cfg, solves, monkeypatch):
        # border and eig_ref@0 share realization 0's k = 0 solve; every other
        # reference is solved once, with no earlier reference spectrum alive
        real_eigendecompose = kchaos.sweeps.eigendecompose
        earlier = []

        def tracked(ham, *args, **kwargs):
            assert all(ref() is None for ref in earlier)
            spec = real_eigendecompose(ham, *args, **kwargs)
            earlier.append(weakref.ref(spec))
            return spec

        monkeypatch.setattr(kchaos.sweeps, "eigendecompose", tracked)
        kchaos.sweeps._fixed_members(cfg)
        assert len(earlier) == solves


class TestPostprocess:
    def test_normalized_columns_filled(self):
        sweep = run_ising_sweep(small_ising_cfg())
        for label in ("all_up", "uniform"):
            col = sweep.column(f"{label}_inv_sigma_b_norm")
            assert np.all(np.isfinite(col))
            assert np.mean(col - sweep.column("eta")) == pytest.approx(0.0, abs=1e-12)

    def test_affine_eta_column_recovers_eta(self):
        sweep = run_ising_sweep(small_ising_cfg())
        doctored = kchaos.sweeps.SweepTable(sweep.header, sweep.rows.copy())
        doctored.column("all_up_inv_sigma_a")[:] = 2.0 * sweep.column("eta") + 3.0
        kchaos.sweeps._normalize(doctored)
        got = doctored.column("all_up_inv_sigma_a_norm")
        assert np.allclose(got, sweep.column("eta"), atol=1e-12)
        assert not doctored.rows.flags.writeable

    def test_saturation_column_untouched(self):
        sweep = run_ising_sweep(small_ising_cfg())
        again = kchaos.sweeps.SweepTable(sweep.header, sweep.rows.copy())
        kchaos.sweeps._normalize(again)
        for label in ("all_up", "uniform"):
            name = f"{label}_cbar_norm"
            assert np.array_equal(again.column(name), sweep.column(name))

    def test_one_point_sweep_gives_nan_columns(self):
        sweep = run_ising_sweep(small_ising_cfg(param_grid=np.array([1.0])))
        assert len(sweep.rows) == 1
        for label in ("all_up", "uniform"):
            assert np.isfinite(sweep.column(f"{label}_inv_sigma_a")[0])
            assert np.isfinite(sweep.column(f"{label}_inv_sigma_b")[0])
            assert np.isnan(sweep.column(f"{label}_inv_sigma_a_norm")[0])
            assert np.isnan(sweep.column(f"{label}_inv_sigma_b_norm")[0])

    def test_partial_normalization_keeps_nan(self):
        cfg = small_ising_cfg(
            families=(Family("eig_ref", count=4, ref_param=3.0), Family("all_up")),
            param_grid=np.array([0.5, 1.0, 3.0]),
        )
        col = run_ising_sweep(cfg).column("eig3_inv_sigma_b_norm")
        assert np.isnan(col[-1]) and np.all(np.isfinite(col[:-1]))


class TestAveragingStability:
    def test_doubling_eigenstate_count(self):
        # family averages move by < 0.05 per point when the member count of
        # the eigenstate family is doubled
        grid = np.array([0.5, 1.0, 3.0])
        values = {}
        for count in (40, 80):
            cfg = SweepConfig(
                model="ising",
                n_spins=9,
                param_grid=grid,
                families=(Family("eig_ref", count=count, ref_param=4.0),),
                seed=1,
            )
            values[count] = run_ising_sweep(cfg).column("eig4_cbar_norm")
        assert np.max(np.abs(values[40] - values[80])) < 0.05
