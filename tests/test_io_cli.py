import numpy as np
import pytest

from kchaos import AllUpFamily, ConfigError, SweepConfig, UniformFamily, run_ising_sweep
from kchaos.cli import main
from kchaos.io import (
    CONFIG_KEYS,
    build_sweep_config,
    config_summary,
    parse_config,
    read_csv,
    render_line_chart,
    render_svg,
    sweep_header,
    write_csv,
)


@pytest.fixture(scope="module")
def tiny_records():
    cfg = SweepConfig(
        model="ising",
        n_spins=6,
        param_grid=np.array([0.5, 1.0, 2.0]),
        families=(AllUpFamily(), UniformFamily()),
        seed=1,
    )
    from kchaos import postprocess_normalize

    return postprocess_normalize(run_ising_sweep(cfg))


def _eigh_must_not_run(ham):
    raise AssertionError("eigendecomposition ran before the input was checked")


class TestCsv:
    def test_header_layout(self, tiny_records, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(tiny_records, path)
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

    def test_round_trip(self, tiny_records, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(tiny_records, path)
        back = read_csv(path)
        assert len(back) == len(tiny_records)
        for a, b in zip(tiny_records, back):
            assert b.param == pytest.approx(a.param, abs=1e-10)
            assert b.eta == pytest.approx(a.eta, abs=1e-10)
            for label in a.families:
                for col in (
                    "c_bar_norm",
                    "inv_sigma_a",
                    "inv_sigma_b",
                    "inv_sigma_a_norm",
                    "inv_sigma_b_norm",
                ):
                    assert getattr(b.families[label], col) == pytest.approx(
                        getattr(a.families[label], col), abs=1e-10
                    )

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path, family_labels=["all_up"])
        assert path.read_text() == ",".join(sweep_header(["all_up"])) + "\n"


class TestSvg:
    def test_renders_series_and_is_deterministic(self, tiny_records, tmp_path):
        p1 = tmp_path / "a.svg"
        p2 = tmp_path / "b.svg"
        cols = ["eta", "all_up_cbar_norm", "uniform_cbar_norm"]
        render_svg(tiny_records, cols, p1)
        render_svg(tiny_records, cols, p2)
        body = p1.read_text()
        assert body.count("<polyline") == 3
        assert body == p2.read_text()

    def test_unknown_column(self, tiny_records, tmp_path):
        with pytest.raises(ValueError, match="unknown columns"):
            render_svg(tiny_records, ["nope"], tmp_path / "x.svg")

    def test_empty_records(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            render_svg([], ["eta"], tmp_path / "x.svg")

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

    def test_bad_family_token(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model = ising\nfamilies = all_up, warp\n")
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
        records = read_csv(tmp_path / "ising_sweep.csv")
        assert len(records) == 3

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

    def test_usage_error_exit_one(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main(["ising-sweep", "--hz-min", "0", "--hz-max", "2", "--hz-points", "3"]) == 1

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
        records = read_csv(tmp_path / "ising_sweep.csv")
        assert len(records) == 2
        for rec in records:
            st = rec.families["all_up"]
            assert np.isfinite(st.inv_sigma_b)
            assert np.isnan(st.inv_sigma_a_norm) and np.isnan(st.inv_sigma_b_norm)

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

    def test_numerical_error_exit_two(self, tmp_path, capsys):
        # deep paramagnetic multiplets are near-degenerate relative to the
        # Zeeman-dominated spectral range
        code = main(
            [
                "single-run",
                "--model",
                "ising",
                "--n-spins",
                "6",
                "--hz",
                "1000",
                "--state",
                "all_up",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "degenerate" in capsys.readouterr().err.lower()

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
        ],
        ids=["w-frac", "n0-frac", "n-eta"],
    )
    def test_rejected_before_eigensolve(self, argv, match, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("kchaos.cli.eigendecompose", _eigh_must_not_run)
        monkeypatch.setattr("kchaos.sweeps.eigendecompose", _eigh_must_not_run)
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert match in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_single_run_goe(self, tmp_path, capsys):
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
        assert (tmp_path / "single_run.csv").exists()
        assert "c_bar" in capsys.readouterr().out


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
    assert len(read_csv(tmp_path / f"{stem}.csv")) == 2
