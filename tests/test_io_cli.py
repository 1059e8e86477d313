import dataclasses
import shlex
from pathlib import Path

import numpy as np
import pytest

import kchaos.cli
import kchaos.hamiltonians
import kchaos.sweeps
from kchaos import ConfigError, Family, SweepConfig, parity_basis, run_ising_sweep
from kchaos.cli import _build_parser, main
from kchaos.io import (
    CONFIG_KEYS,
    build_sweep_config,
    config_summary,
    render_line_chart,
    write_table,
)
from oracles import parse_config, read_csv


# the tiny sweep as a config file, for the CLI
TINY_CONFIG = (
    "model = ising\nn_spins = 6\nparam_values = 0.5,1,2\nfamilies = all_up,uniform\nseed = 1\n"
)


@pytest.fixture(scope="module")
def tiny_sweep():
    cfg = SweepConfig(
        model="ising",
        n_spins=6,
        param_grid=np.array([0.5, 1.0, 2.0]),
        families=(Family("all_up"), Family("uniform")),
        seed=1,
    )
    return run_ising_sweep(cfg)


def _eigh_must_not_run(*args, **kwargs):
    raise AssertionError("eigendecomposition ran before the input was checked")


# config files the rejection cases name, written to their working directory
REJECTED_CONFIGS = {
    "odd-all-up.cfg": "model = ising\nsector = odd\nn_spins = 12\nfamilies = eig_ref@4,all_up\n",
    "values-and-bounds.cfg": "model = ising\nn_spins = 6\nparam_values = 0.5,1\nparam_min = 0.1\n",
    "negative-k.cfg": "model = banded\ndim = 64\nrealizations = 2\nparam_values = 0.5,-0.1\n",
    "bogus-scale-values.cfg": "model = ising\nparam_values = 0.5,1\nparam_scale = bogus\n",
    "bogus-scale.cfg": "model = ising\nparam_scale = bogus\n",
    "scale-values.cfg": "model = ising\nparam_values = 0.5,1\nparam_scale = linear\n",
    "scale.cfg": "model = ising\nparam_scale = linear\n",
    "nan-grid.cfg": "model = ising\nn_spins = 4\neigen_count = 4\nparam_values = nan\n",
    "maybe-degenerate.cfg": "model = ising\nallow_degenerate = maybe\n",
    "ten-spins.cfg": "model = ising\nn_spins = ten\n",
}


class TestCsv:
    def test_header_layout(self, tiny_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_table(path, tiny_sweep.header, tiny_sweep.rows)
        header = path.read_text().split("\n")[0].split(",")
        assert header[:2] == ["param", "eta"]
        assert header[2:7] == [
            "all_up_cbar_norm",
            "all_up_inv_sigma_a",
            "all_up_inv_sigma_b",
            "all_up_inv_sigma_a_norm",
            "all_up_inv_sigma_b_norm",
        ]
        assert header[7].startswith("uniform_")
        assert path.read_text().endswith("\n")
        assert "\r" not in path.read_text()

    def test_round_trip(self, tiny_sweep, tmp_path, capsys):
        # the CLI's CSV is the library's table, written once
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text(TINY_CONFIG)
        assert main(["ising-sweep", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        back = read_csv(tmp_path / "ising_sweep.csv")
        assert back.header == tiny_sweep.header
        assert np.allclose(back.rows, tiny_sweep.rows, rtol=0.0, atol=1e-10, equal_nan=True)
        assert not tiny_sweep.rows.flags.writeable

    def test_empty_records_header_only(self, tiny_sweep, tmp_path):
        path = tmp_path / "empty.csv"
        write_table(path, tiny_sweep.header, tiny_sweep.rows[:0])
        assert path.read_text() == ",".join(tiny_sweep.header) + "\n"


class TestSvg:
    def test_renders_series_and_is_deterministic(self, tiny_sweep, tmp_path):
        cols = ["eta", "all_up_cbar_norm", "uniform_cbar_norm"]
        series = [(c, tiny_sweep.column(c)) for c in cols]
        paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for path in paths:
            render_line_chart(tiny_sweep.column("param"), series, path, x_label="param")
        body = paths[0].read_text()
        assert body.count("<polyline") == 3
        assert body == paths[1].read_text()

    @pytest.mark.parametrize(
        "x, title",
        [([0.1, 1.0, 10.0, 100.0], "param (log scale)"), ([1.0, 2.0, 3.0, 4.0], "param")],
        ids=["log", "linear"],
    )
    def test_x_axis_title(self, x, title, tmp_path):
        path = tmp_path / "x.svg"
        render_line_chart(np.array(x), [("y", np.arange(4.0))], path, x_label="param")
        # the axis title is the one 12-point text; ticks are 11, the chart title 14
        lines = [ln for ln in path.read_text().splitlines() if 'font-size="12"' in ln]
        assert [ln.split(">")[1].removesuffix("</text") for ln in lines] == [title]

    def test_nan_points_skipped(self, tmp_path):
        # a halted family leaves nan points; the others keep a finite y range
        path = tmp_path / "x.svg"
        x = np.array([0.5, 1.0, 2.0])
        series = [("eta", np.array([0.1, 0.5, 0.9])), ("eig", np.array([1.0, 2.0, np.nan]))]
        render_line_chart(x, series, path)
        body = path.read_text()
        assert "nan" not in body
        polylines = [ln for ln in body.splitlines() if ln.startswith("<polyline")]
        assert [ln.count(",") for ln in polylines] == [3, 2]


class TestConfigParsing:
    def test_full_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            """
            # transition sweep
            model = ising
            n_spins = 8
            seed = 17
            param_min = 0.1
            param_max = 2.0   # endpoints inclusive
            param_points = 4
            param_scale = log
            families = all_up, uniform, random, eig_ref@4
            random_count = 5
            eigen_count = 12
            w_frac = 0.03
            allow_degenerate = yes
            threads = 2
            """
        )
        cfg = parse_config(path)
        assert cfg.model == "ising" and cfg.n_spins == 8 and cfg.seed == 17
        assert cfg.param_grid.shape == (4,)
        assert cfg.param_grid[0] == pytest.approx(0.1)
        assert [f.label for f in cfg.families] == ["all_up", "uniform", "random", "eig4"]
        assert cfg.families[2].count == 5
        assert cfg.families[3].count == 12
        assert cfg.dispersion.w_frac == 0.03
        assert cfg.allow_degenerate and cfg.threads == 2

    def test_allow_degenerate_no(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model = ising\nallow_degenerate = no\n")
        assert parse_config(path).allow_degenerate is False

    def test_explicit_param_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model = banded\nparam_values = 0.001, 0.1, 1\n")
        cfg = parse_config(path)
        assert np.allclose(cfg.param_grid, [0.001, 0.1, 1.0])

    def test_unknown_key_lists_valid(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model = ising\nbogus = 3\n")
        with pytest.raises(ConfigError, match="unknown key 'bogus'") as err:
            parse_config(path)
        for key in CONFIG_KEYS:
            assert key in str(err.value)

    @pytest.mark.parametrize(
        "model, counts",
        [
            ("ising", {"all_up": 1, "eig4": 3, "eig0": 3, "random": 2, "uniform": 1}),
            ("banded", {"border": 1, "eig0": 3, "random": 2, "uniform": 1}),
        ],
    )
    def test_counts_apply_to_default_families(self, model, counts):
        cfg = build_sweep_config({"model": model, "random_count": "2", "eigen_count": "3"})
        assert {f.label: getattr(f, "count", 1) for f in cfg.families} == counts

    def test_meta_records_family_counts(self):
        cfg = build_sweep_config(
            {"model": "banded", "families": "border,eig_ref@0,random,uniform", "random_count": "2"}
        )
        lines = config_summary(cfg).splitlines()
        assert lines[3:5] == ["families = border,eig0,random,uniform", "family_counts = 1,20,2,1"]

    @pytest.mark.parametrize(
        "model, key, value",
        [
            ("banded", "n_spins", "12"),
            ("banded", "sector", "odd"),
            ("banded", "n_eta", "3"),
            ("ising", "dim", "16"),
            ("ising", "bandwidth_frac", "0.3"),
            ("ising", "realizations", "2"),
        ],
    )
    def test_other_model_key_rejected(self, model, key, value):
        owner = CONFIG_KEYS[key].model
        match = f"key {key} applies to the {owner} model, not {model}"
        with pytest.raises(ConfigError, match=match):
            build_sweep_config({"model": model, key: value})

    def test_missing_model_named(self):
        with pytest.raises(ConfigError, match="model"):
            build_sweep_config({"seed": "3"})

    def test_incomplete_grid_names_missing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model = ising\nparam_min = 0.1\n")
        with pytest.raises(ConfigError, match="param_max, param_points"):
            parse_config(path)

    @pytest.mark.parametrize("token", ["warp", "eig_ref", "all_up@2", "random@3"])
    def test_bad_family_token(self, token, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"model = ising\nfamilies = all_up, {token}\n")
        with pytest.raises(ConfigError, match="unknown family"):
            parse_config(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model ising\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path)


class TestCli:
    def test_ising_sweep_end_to_end(self, tmp_path, capsys):
        code = main(
            [
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
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "ising_sweep.csv").exists()
        assert (tmp_path / "ising_sweep.meta.txt").exists()
        assert (tmp_path / "ising_sweep_saturation.svg").exists()
        assert len(read_csv(tmp_path / "ising_sweep.csv").rows) == 3

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "model = ising\nn_spins = 6\nparam_values = 0.5, 1.5\nfamilies = all_up\nseed = 1\n"
        )
        code = main(
            ["ising-sweep", "--config", str(cfgfile), "--seed", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        meta = (tmp_path / "ising_sweep.meta.txt").read_text()
        assert "seed = 2" in meta  # CLI flag wins over the file
        grid = ["--hz-min", "0.1", "--hz-max", "2", "--hz-points", "3", "--out", str(tmp_path)]
        assert main(["ising-sweep", "--config", str(cfgfile)] + grid) == 0
        meta = (tmp_path / "ising_sweep.meta.txt").read_text()
        assert "param_grid = 0.1,0.4472135955,2" in meta  # grid flags replace param_values

    def test_usage_error_exit_one(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main(["ising-sweep", "--hz-min", "0", "--hz-max", "2", "--hz-points", "3"]) == 1

    def test_os_error_exit_one(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cfg")
        assert main(["ising-sweep", "--config", missing, "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["single-run", "--model", "goe", "--dim", "16", "--out", str(taken)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config, match",
        [
            (["--random-count", "0"], None, "random family needs count >= 1"),
            (["--eigen-count", "0"], None, "eig4 family needs count >= 1"),
            (["--eigen-count", "-1"], None, "eig4 family needs count >= 1"),
            (["--hz-min", "1", "--hz-max", "2", "--hz-points", "0"], None, "param_grid is empty"),
            ([], "model = ising\nparam_values =\n", "param_grid is empty"),
            # rejected before any 2^N array is allocated
            (["--n-spins", "40"], None, "exceeds the cap of 14 spins"),
        ],
        ids=[
            "random-count-0", "eigen-count-0", "eigen-count-minus-1", "hz-points-0", "no-values",
            "n-spins-40",
        ],
    )
    def test_rejected_sweep_input_exit_one(self, argv, config, match, tmp_path, capsys):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = argv + ["--config", str(tmp_path / "run.cfg")]
        base = ["ising-sweep", "--n-spins", "4", "--families", "random,eig_ref@4"]
        assert main(base + argv + ["--out", str(tmp_path)]) == 1
        assert match in capsys.readouterr().err
        assert not (tmp_path / "ising_sweep.csv").exists()

    def test_default_eigen_family_larger_than_small_chain(self, tmp_path, capsys):
        # the N=6 even sector has dimension 36, below the default 40 members
        argv = ["ising-sweep", "--n-spins", "6", "--hz-min", "1", "--hz-max", "2"]
        argv += ["--hz-points", "2", "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "eig4 family needs 40 eigenstates" in err and "--eigen-count" in err
        assert not (tmp_path / "ising_sweep.csv").exists()
        assert main(argv + ["--eigen-count", "36"]) == 0

    def test_repeated_grid_gives_nan_normalization(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("model = ising\nn_spins = 6\nparam_values = 1, 1\nfamilies = all_up\n")
        assert main(["ising-sweep", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        for suffix in (".csv", ".meta.txt", "_saturation.svg", "_dispersion.svg"):
            assert (tmp_path / f"ising_sweep{suffix}").exists(), suffix
        sweep = read_csv(tmp_path / "ising_sweep.csv")
        assert len(sweep.rows) == 2
        assert np.all(np.isfinite(sweep.column("all_up_inv_sigma_b")))
        assert np.all(np.isnan(sweep.column("all_up_inv_sigma_a_norm")))
        assert np.all(np.isnan(sweep.column("all_up_inv_sigma_b_norm")))

    def test_every_point_skipped_writes_header_only(
        self, tiny_sweep, tmp_path, capsys, monkeypatch
    ):
        real_eigendecompose = kchaos.sweeps.eigendecompose

        def always_degenerate(ham, *args, **kwargs):
            spec = real_eigendecompose(ham, *args, **kwargs)
            return dataclasses.replace(spec, near_degenerate=True)

        monkeypatch.setattr(kchaos.sweeps, "eigendecompose", always_degenerate)
        argv = ["ising-sweep", "--n-spins", "6", "--hz-min", "1", "--hz-max", "2"]
        argv += ["--hz-points", "2", "--families", "all_up,uniform", "--out", str(tmp_path)]
        assert main(argv) == 0
        # tiny_sweep runs the same two families
        assert (tmp_path / "ising_sweep.csv").read_text() == ",".join(tiny_sweep.header) + "\n"
        assert "families = all_up,uniform" in (tmp_path / "ising_sweep.meta.txt").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ising_sweep.csv",
            "ising_sweep.meta.txt",
        ]
        assert "ising_sweep: 0 grid points" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound-sweep", "--model", "banded", "--dim", "16"],
            ["scaling-check", "--dim", "16"],
            ["single-run", "--model", "goe", "--dim", "16"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_config_only_on_sweeps(self, argv, tmp_path, capsys):
        assert main(argv + ["--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path)]) == 1
        assert "--config" in capsys.readouterr().err

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("model = ising\nbogus = 1\n")
        assert main(["ising-sweep", "--config", str(cfgfile)]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, csv",
        [
            (["single-run", "--state", "all_up"], "single_run.csv"),
            (["bound-sweep", "--delta-points", "3"], "bound_sweep.csv"),
        ],
        ids=["single-run", "bound-sweep"],
    )
    def test_numerical_error_exit_two(self, argv, csv, tmp_path, capsys):
        # deep paramagnetic multiplets are near-degenerate relative to the
        # Zeeman-dominated spectral range
        argv = argv + ["--model", "ising", "--n-spins", "6", "--hz", "1000"]
        assert main(argv + ["--out", str(tmp_path / "refused")]) == 2
        err = capsys.readouterr().err
        assert "degenerate" in err.lower()
        assert "pass --allow-degenerate to proceed" in err
        assert not (tmp_path / "refused" / csv).exists()
        assert main(argv + ["--allow-degenerate", "--out", str(tmp_path / "allowed")]) == 0
        assert (tmp_path / "allowed" / csv).exists()

    ETA_ARGV = ["ising-sweep", "--n-spins", "4", "--n-eta", "6", "--hz-min", "0.5"]
    ETA_ARGV += ["--hz-max", "2", "--hz-points", "2", "--families", "all_up,uniform"]

    def test_eta_solver_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        # the --n-eta levels come from eigendecompose, which turns a solver
        # failure into a NumericalError; the sweep's own spectra use eigh.  The
        # N=6 sector is below the two-stage route, so eigvalsh solves it.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        assert parity_basis(6, "even").dim < kchaos.hamiltonians.TWO_STAGE_MIN_DIM
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert main(self.ETA_ARGV + ["--out", str(tmp_path)]) == 2
        assert "eigensolver failed to converge" in capsys.readouterr().err
        assert not (tmp_path / "ising_sweep.csv").exists()

    def test_eta_two_stage_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        # with the route's constant at 0 the N=6 levels take the two-stage
        # solve, whose routine here reports a failure (info != 0)
        def routine(*args):
            return 1

        monkeypatch.setattr(kchaos.hamiltonians, "TWO_STAGE_MIN_DIM", 0)
        monkeypatch.setattr(kchaos.hamiltonians, "_two_stage_solver", lambda: routine)
        monkeypatch.setattr(np.linalg, "eigvalsh", _eigh_must_not_run)
        assert main(self.ETA_ARGV + ["--out", str(tmp_path)]) == 2
        assert "dsyevd_2stage returned info = 1" in capsys.readouterr().err
        assert not (tmp_path / "ising_sweep.csv").exists()

    def test_eigenvector_solver_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        # the sweep's own spectra take the eigenvector route, whose routine
        # here reports a failure (info != 0)
        def routine(*args):
            return 1

        monkeypatch.setattr(kchaos.hamiltonians, "_vectors_solver", lambda: routine)
        monkeypatch.setattr(np.linalg, "eigh", _eigh_must_not_run)
        argv = ["ising-sweep", "--n-spins", "4", "--hz-min", "0.5", "--hz-max", "2"]
        argv += ["--hz-points", "2", "--families", "all_up,uniform", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "dsyevd returned info = 1" in capsys.readouterr().err
        assert not (tmp_path / "ising_sweep.csv").exists()

    def test_scaling_check_degeneracy_keeps_library_text(self, tmp_path, capsys, monkeypatch):
        # scaling-check has no --allow-degenerate, so the message names no flag
        real_eigendecompose = kchaos.cli.eigendecompose

        def always_degenerate(ham, **kwargs):
            return dataclasses.replace(real_eigendecompose(ham, **kwargs), near_degenerate=True)

        monkeypatch.setattr(kchaos.cli, "eigendecompose", always_degenerate)
        assert main(["scaling-check", "--dim", "16", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "pass allow_degenerate=True to proceed" in err
        assert "--allow-degenerate" not in err

    def test_bound_sweep_and_scaling_check(self, tmp_path, capsys):
        assert (
            main(
                [
                    "bound-sweep",
                    "--model",
                    "banded",
                    "--dim",
                    "64",
                    "--k",
                    "0.125",
                    "--j",
                    "5",
                    "--deltas",
                    "0.01,0.05,0.1",
                    "--seed",
                    "2",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        text = (tmp_path / "bound_sweep.csv").read_text()
        assert text.splitlines()[0] == "delta,c_bar,bound"
        assert (
            main(["scaling-check", "--dim", "32", "--seed", "12", "--out", str(tmp_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "median slope" in out

    def test_scaling_check_index_out_of_range(self, tmp_path, capsys):
        argv = ["scaling-check", "--dim", "16", "--j", "99", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "eigenstate index 99 out of range [0, 16)" in capsys.readouterr().err

    def test_bound_sweep_ising_model(self, tmp_path, capsys):
        code = main(
            [
                "bound-sweep",
                "--model",
                "ising",
                "--n-spins",
                "6",
                "--hz",
                "1.02",
                "--j",
                "2",
                "--profile",
                "gaussian",
                "--center",
                "10",
                "--sigma",
                "3",
                "--deltas",
                "0.01,0.05",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "bound holds" in capsys.readouterr().out

    def test_gaussian_profile_requires_center(self, capsys):
        code = main(["scaling-check", "--dim", "32", "--profile", "gaussian"])
        assert code == 1
        assert "--center" in capsys.readouterr().err

    @pytest.mark.parametrize("t_points", ["0", "-5"])
    def test_single_run_t_points_below_one(self, t_points, tmp_path, capsys, monkeypatch):
        def no_eigh(ham):
            raise AssertionError("eigendecomposition ran before --t-points was checked")

        monkeypatch.setattr("kchaos.cli.eigendecompose", no_eigh)
        argv = ["single-run", "--model", "goe", "--dim", "16", "--t-points", t_points]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert "--t-points must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "single_run.csv").exists()

    def test_config_model_must_match_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("kchaos.sweeps.eigendecompose", _eigh_must_not_run)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("model = ising\nn_spins = 4\n")
        assert main(["banded-sweep", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert "is for the ising model, not banded" in capsys.readouterr().err
        assert not (tmp_path / "banded_sweep.csv").exists()

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["single-run", "--model", "goe", "--w-frac", "0.7"], "w_frac must be in (0, 0.5)"),
            (["single-run", "--model", "goe", "--n0-frac", "1"], "n0_frac must be in [0, 1)"),
            (["ising-sweep", "--n-spins", "4", "--n-eta", "15"], "exceeds the cap of 14 spins"),
            (
                ["single-run", "--model", "ising", "--n-spins", "6", "--sector", "odd"],
                "the all-up state is palindromic and lives in the even sector",
            ),
            (
                ["single-run", "--model", "banded", "--dim", "64", "--state", "all_up"],
                "--state all_up requires --model ising",
            ),
            (
                ["bound-sweep", "--model", "banded", "--dim", "64", "--j", "64"],
                "eigenstate index 64 out of range [0, 64)",
            ),
            (
                ["banded-sweep", "--dim", "16", "--bandwidth-frac", "-3"],
                "bandwidth_frac must be in (0, 1], got -3",
            ),
            (
                ["single-run", "--model", "banded", "--dim", "16", "--bandwidth-frac", "7"],
                "bandwidth_frac must be in (0, 1], got 7",
            ),
            (
                ["banded-sweep", "--dim", "2000", "--families", "eig_ref@0"]
                + ["--eigen-count", "2500"],
                "the eig0 family needs 2500 eigenstates but the spectrum has dimension 2000",
            ),
            (
                ["ising-sweep", "--n-spins", "12", "--families", "eig_ref@4"]
                + ["--eigen-count", "3000"],
                "the eig4 family needs 3000 eigenstates but the spectrum has dimension 2080",
            ),
            (
                ["banded-sweep", "--dim", "64", "--realizations", "3", "--k-points", "2"]
                + ["--k-min", "0.1", "--k-max", "1", "--families", "border,eig_ref@0.5"],
                "banded eigenstate families reference the k=0 spectrum",
            ),
            (
                ["ising-sweep", "--n-spins", "4", "--hz-min", "1", "--hz-max", "2"]
                + ["--hz-points", "2", "--families", "uniform@2"],
                "unknown family 'uniform@2'",
            ),
            (
                ["single-run", "--model", "ising", "--n-spins", "6", "--hz", "nan"],
                "h_z must be finite, got nan",
            ),
            (
                ["single-run", "--model", "banded", "--dim", "32", "--k", "inf"],
                "k must be finite, got inf",
            ),
            (
                ["ising-sweep", "--n-spins", "6", "--hz-min", "1", "--hz-max", "2"]
                + ["--hz-points", "2", "--families", "eig_ref@nan", "--eigen-count", "4"],
                "the eignan family needs a finite reference parameter, got nan",
            ),
            (
                ["ising-sweep", "--n-spins", "6", "--hz-min", "1", "--hz-max", "2"]
                + ["--hz-points", "2", "--families", "eig_ref@inf", "--eigen-count", "4"],
                "the eiginf family needs a finite reference parameter, got inf",
            ),
            (
                ["ising-sweep", "--n-spins", "6", "--families", "eig_ref@", "--eigen-count", "4"],
                "families: 'eig_ref@' needs a number after '@'",
            ),
            (
                ["ising-sweep", "--n-spins", "6", "--families", "all_up,eig_ref@abc"],
                "families: 'eig_ref@abc' needs a number after '@'",
            ),
            (
                ["bound-sweep", "--model", "ising", "--n-spins", "6", "--j", "2"]
                + ["--profile", "gaussian", "--center", "nan"],
                "gaussian profile center must be finite, got nan",
            ),
            (
                ["bound-sweep", "--model", "ising", "--n-spins", "6", "--j", "2"]
                + ["--profile", "gaussian", "--center", "10", "--sigma", "0"],
                "gaussian profile sigma must be finite and > 0, got 0",
            ),
            (
                ["bound-sweep", "--model", "ising", "--n-spins", "6", "--j", "2"]
                + ["--deltas", "0.01,nan"],
                "deltas must be finite",
            ),
            # every weight but level 0's underflows, so no admixture is left
            (
                ["bound-sweep", "--model", "banded", "--dim", "32", "--j", "0"]
                + ["--profile", "gaussian", "--center", "0", "--sigma", "0.01"],
                "tilde profile vanishes after zeroing the anchored coefficient",
            ),
            (
                ["scaling-check", "--dim", "16", "--delta-min", "nan"],
                "delta grid must lie in (0, 0.05]",
            ),
            # a repeated grid would give each site no slope to fit
            (
                ["scaling-check", "--dim", "32", "--delta-min", "0.01", "--delta-max", "0.01"],
                "delta grid must be 1-D without repeated values, got [0.01 0.01",
            ),
            (
                ["ising-sweep", "--config", "odd-all-up.cfg"],
                "the all_up family needs sector = even",
            ),
            (
                ["ising-sweep", "--config", "values-and-bounds.cfg"],
                "param_values cannot be combined with param_min",
            ),
            (["banded-sweep", "--config", "negative-k.cfg"], "k must be >= 0 on the grid, got -0.1"),
            (
                ["ising-sweep", "--config", "bogus-scale-values.cfg"],
                "param_scale must be 'log' or 'linear', got 'bogus'",
            ),
            (
                ["ising-sweep", "--config", "bogus-scale.cfg"],
                "param_scale must be 'log' or 'linear', got 'bogus'",
            ),
            (
                ["ising-sweep", "--config", "scale-values.cfg"],
                "param_values cannot be combined with param_scale",
            ),
            (
                ["ising-sweep", "--config", "scale.cfg"],
                "incomplete grid settings; missing: param_max, param_min, param_points",
            ),
            (["ising-sweep", "--config", "nan-grid.cfg"], "param_grid must be finite"),
            (
                ["ising-sweep", "--config", "maybe-degenerate.cfg"],
                "key allow_degenerate: expected a boolean",
            ),
            (["ising-sweep", "--config", "ten-spins.cfg"], "key n_spins: invalid literal"),
            # --eigen-count 4: without it the default eigenstate count stops both first
            (
                ["banded-sweep", "--dim", "16", "--eigen-count", "4", "--realizations", "0"],
                "realizations must be >= 1",
            ),
            (
                ["ising-sweep", "--n-spins", "4", "--eigen-count", "4", "--threads", "0"],
                "threads must be >= 1",
            ),
            (
                ["ising-sweep", "--n-spins", "1", "--hz-min", "1", "--hz-max", "2"]
                + ["--hz-points", "2", "--families", "uniform"],
                "the even sector of N=1 has 2 levels; eta needs at least 3",
            ),
            (
                ["ising-sweep", "--n-spins", "4", "--n-eta", "1", "--hz-min", "1"]
                + ["--hz-max", "2", "--hz-points", "2", "--families", "uniform"],
                "the even sector of N=1 has 2 levels; eta needs at least 3",
            ),
            (
                ["banded-sweep", "--dim", "2", "--k-min", "0.1", "--k-max", "1"]
                + ["--k-points", "2", "--families", "uniform"],
                "a dim = 2 matrix has 2 levels; eta needs at least 3",
            ),
            (["single-run", "--model", "goe", "--dim", "2"], "goe D=2 has 2 levels"),
            (["single-run", "--model", "banded", "--dim", "2"], "banded D=2 b=1 k=1 has 2 levels"),
            (
                ["single-run", "--model", "ising", "--n-spins", "2", "--sector", "odd"]
                + ["--state", "random"],
                "ising N=2 odd hz=1.02 has 1 levels; eta needs at least 3",
            ),
            # the eig_ref references are built before anything reads the seed
            (
                ["ising-sweep", "--n-spins", "6", "--eigen-count", "4", "--random-count", "2"]
                + ["--hz-min", "0.5", "--hz-max", "1", "--hz-points", "2", "--seed", "-1"],
                "seed must be >= 0, got -1",
            ),
            (
                ["banded-sweep", "--dim", "16", "--realizations", "1", "--eigen-count", "2"]
                + ["--k-min", "0.1", "--k-max", "1", "--k-points", "2", "--seed", "-2"],
                "seed must be >= 0, got -2",
            ),
            (
                ["single-run", "--model", "goe", "--dim", "16", "--seed", "-3"],
                "argument --seed: must be >= 0, got -3",
            ),
            (
                ["single-run", "--model", "goe", "--dim", "16", "--state", "random"]
                + ["--state-seed", "-1"],
                "argument --state-seed: must be >= 0, got -1",
            ),
            (
                ["bound-sweep", "--model", "banded", "--dim", "16", "--seed", "-3"],
                "argument --seed: must be >= 0, got -3",
            ),
            (
                ["scaling-check", "--dim", "16", "--seed", "-3"],
                "argument --seed: must be >= 0, got -3",
            ),
        ],
        ids=[
            "w-frac",
            "n0-frac",
            "n-eta",
            "all-up-odd-sector",
            "all-up-banded",
            "bound-j",
            "bandwidth-frac-minus-3",
            "bandwidth-frac-7",
            "eigen-count-banded",
            "eigen-count-ising",
            "banded-eig-ref-nonzero",
            "uniform-at-removed",
            "hz-nan",
            "k-inf",
            "eig-ref-nan",
            "eig-ref-inf",
            "eig-ref-empty",
            "eig-ref-abc",
            "center-nan",
            "sigma-0",
            "deltas-nan",
            "profile-vanishes",
            "scaling-delta-nan",
            "scaling-delta-repeated",
            "all-up-odd-sector-config",
            "values-and-bounds-config",
            "negative-k-config",
            "bogus-scale-with-values-config",
            "bogus-scale-config",
            "scale-with-values-config",
            "scale-without-bounds-config",
            "nan-grid-config",
            "allow-degenerate-maybe-config",
            "n-spins-ten-config",
            "realizations-0",
            "threads-0",
            "n-spins-1",
            "n-eta-1",
            "banded-dim-2",
            "single-run-goe-dim-2",
            "single-run-banded-dim-2",
            "single-run-ising-dim-1",
            "ising-sweep-seed-minus-1",
            "banded-sweep-seed-minus-2",
            "single-run-seed-minus-3",
            "single-run-state-seed-minus-1",
            "bound-sweep-seed-minus-3",
            "scaling-check-seed-minus-3",
        ],
    )
    def test_rejected_before_eigensolve(
        self, argv, match, tmp_path, tmp_path_factory, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path_factory.mktemp("configs"))
        for name, text in REJECTED_CONFIGS.items():
            Path(name).write_text(text)
        monkeypatch.setattr("kchaos.cli.eigendecompose", _eigh_must_not_run)
        monkeypatch.setattr("kchaos.sweeps.eigendecompose", _eigh_must_not_run)
        monkeypatch.setattr("kchaos.sweeps._ising_sector_levels", _eigh_must_not_run)
        # and any solver call that bypasses those names
        monkeypatch.setattr(np.linalg, "eigh", _eigh_must_not_run)
        monkeypatch.setattr(np.linalg, "eigvalsh", _eigh_must_not_run)
        monkeypatch.setattr("kchaos.hamiltonians._two_stage_solver", _eigh_must_not_run)
        monkeypatch.setattr("kchaos.hamiltonians._vectors_solver", _eigh_must_not_run)
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert match in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_single_run_goe(self, tmp_path, capsys, monkeypatch):
        # single-run runs the sweep's member function, whose Lanczos call is
        # looked up in kchaos.sweeps
        calls = []
        lanczos = kchaos.sweeps.lanczos_full_orth

        def counted(*args, **kwargs):
            calls.append(None)
            return lanczos(*args, **kwargs)

        monkeypatch.setattr("kchaos.sweeps.lanczos_full_orth", counted)
        code = main(
            [
                "single-run",
                "--model",
                "goe",
                "--dim",
                "48",
                "--state",
                "random",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert len(calls) == 1
        assert (tmp_path / "single_run.csv").exists()
        out = capsys.readouterr().out
        assert "c_bar" in out
        assert "  sigma(a) = " in out.splitlines()[-1]

    def test_single_run_short_chain_prints_no_sigma(self, tmp_path, capsys):
        # at D=16 the dispersion window of the default w_frac is empty
        assert main(["single-run", "--model", "goe", "--dim", "16", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "c_bar" in out
        assert "sigma(" not in out

    def test_single_run_prints_sigma_a_when_only_b_is_too_short(self, tmp_path, capsys):
        # at D=21 the 21 a's hold a 1-wide window, the 20 b's none
        assert main(["single-run", "--model", "goe", "--dim", "21", "--out", str(tmp_path)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("  sigma(a) = ")
        assert last.endswith("   sigma(b) = nan")


# every sweep flag, set away from its default, and the .meta.txt line it gives
SHARED_FLAGS = [
    ("--seed 3", "seed = 3"),
    ("--w-frac 0.1", "w_frac = 0.1"),
    ("--n0-frac 0.2", "n0_frac = 0.2"),
    ("--allow-degenerate", "allow_degenerate = true"),
    ("--threads 2", "threads = 2"),
]
SWEEP_FLAGS = {
    "ising-sweep": [
        ("--n-spins 4", "n_spins = 4"),
        ("--n-eta 5", "n_eta = 5"),
        ("--hz-min 0.5 --hz-max 2 --hz-points 2", "param_grid = 0.5,2"),
        ("--families all_up,random,eig_ref@1", "families = all_up,random,eig1"),
        ("--random-count 2 --eigen-count 3", "family_counts = 1,2,3"),
    ],
    "banded-sweep": [
        ("--dim 16", "dim = 16"),
        ("--bandwidth-frac 0.25", "bandwidth_frac = 0.25"),
        ("--realizations 2", "realizations = 2"),
        ("--k-min 0.01 --k-max 1 --k-points 2", "param_grid = 0.01,1"),
        ("--families border,eig_ref@0,random,uniform", "families = border,eig0,random,uniform"),
        ("--random-count 2 --eigen-count 3", "family_counts = 1,3,2,1"),
    ],
}


@pytest.mark.parametrize("command", sorted(SWEEP_FLAGS))
def test_every_sweep_flag_reaches_meta(command, tmp_path, capsys):
    flags = SWEEP_FLAGS[command] + SHARED_FLAGS
    argv = [command, "--out", str(tmp_path)]
    for args, _ in flags:
        argv += args.split()
    assert main(argv) == 0
    stem = command.replace("-", "_")
    meta = (tmp_path / f"{stem}.meta.txt").read_text().splitlines()
    for args, line in flags:
        assert line in meta, args
    assert len(read_csv(tmp_path / f"{stem}.csv").rows) == 2


def test_readme_commands_parse():
    """Every ``kchaos`` command of the README's command-line block parses."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("kchaos ")]
    assert len(commands) == 5
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_config_example_parses(tmp_path):
    """The README's ``run.cfg`` example is a valid config with a linear grid."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n# run.cfg\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "run.cfg"
    path.write_text(block)
    cfg = parse_config(path)
    assert np.array_equal(cfg.param_grid, np.linspace(0.25, 4.0, 16))
    assert [f.label for f in cfg.families] == ["all_up", "uniform", "random", "eig4", "eig0"]


def test_readme_library_sketch_runs():
    """The README's library sketch names only what ``kchaos`` exports."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md (library sketch)", "exec"), {})
