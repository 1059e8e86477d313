"""Command-line front end.

Subcommands: ``ising-sweep``, ``banded-sweep``, ``bound-sweep``,
``scaling-check`` and ``single-run``.  Exit codes: 0 on success, 1 for
usage/config problems, 2 for numerical failures (degeneracy, orthogonality
loss, eigensolver failure).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError, NumericalError
from .hamiltonians import build_goe, build_ising_sector, eigendecompose, parity_basis
from .io import (
    CONFIG_KEYS,
    build_sweep_config,
    config_summary,
    parse_bool,
    parse_floats,
    read_config_pairs,
    render_line_chart,
    write_table,
)
from .krylov import complexity_values, default_time_grid
from .measures import DispersionConfig, eta, r_ratio_mean
from .perturbation import (
    check_bound_sweep,
    check_overlap_scaling,
    overlap_scaling_check,
    run_bound_sweep,
)
from .states import (
    GaussianProfile,
    UniformComplement,
    state_all_up,
    state_random,
    state_uniform_eigenbasis,
)
from .sweeps import (
    MODELS,
    SweepConfig,
    _bandwidth,
    _check_levels,
    _run_member,
    banded_hamiltonian,
    run_banded_sweep,
    run_ising_sweep,
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors surface as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    def seed(text: str) -> int:
        """The type of every seed flag: an integer >= 0, checked before any build."""
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    parser = _Parser(prog="kchaos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    out = _Parser(add_help=False)
    out.add_argument("--out", type=Path, default=Path("."), help="output directory")
    common = _Parser(add_help=False, parents=[out])
    common.add_argument("--seed", type=seed, default=0, help="master seed")

    for model, entry in MODELS.items():
        p = sub.add_parser(f"{model}-sweep", parents=[out], help=entry.help)
        p.add_argument("--config", type=Path, help="flat key=value config file")
        for key, spec in CONFIG_KEYS.items():
            flag = spec.flag_for(model)
            if flag is None:
                continue
            kind = {"action": "store_true"} if spec.parse is parse_bool else {"type": spec.parse}
            p.add_argument(flag, dest=key, default=None, help=spec.help, **kind)
        p.set_defaults(func=_cmd_sweep, sweep_model=model)

    p = sub.add_parser(
        "bound-sweep", parents=[common], help="saturation of perturbed eigenstates vs the bound"
    )
    _add_model_flags(p, ("ising", "banded"), n_spins=9, hz=4.0, k=0.125)
    p.add_argument("--j", type=int, default=10, help="anchored eigenstate index")
    _add_profile_flags(p, center=61.0, deltas=(0.01, 0.5, 12))
    p.add_argument("--deltas", help="explicit comma-separated delta grid")
    p.set_defaults(func=_cmd_bound_sweep)

    p = sub.add_parser(
        "scaling-check", parents=[common], help="delta^2 scaling of Krylov overlaps (GOE)"
    )
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--j", type=int, help="anchored eigenstate index (default dim//2)")
    _add_profile_flags(p, center=None, deltas=(0.005, 0.05, 6))
    p.set_defaults(func=_cmd_scaling_check)

    p = sub.add_parser(
        "single-run", parents=[common], help="one (model, state) complexity curve"
    )
    _add_model_flags(p, ("ising", "banded", "goe"), n_spins=10, hz=1.02, k=1.0)
    p.add_argument("--state", choices=("all_up", "uniform", "random"), default=None)
    p.add_argument("--state-seed", type=seed, default=1)
    p.add_argument("--t-points", type=int, default=400)
    p.add_argument("--w-frac", type=float, default=DispersionConfig.w_frac)
    p.add_argument("--n0-frac", type=float, default=DispersionConfig.n0_frac)
    p.set_defaults(func=_cmd_single_run)

    return parser


def _add_model_flags(p, models: tuple[str, ...], n_spins: int, hz: float, k: float) -> None:
    """The flags ``_model_from_args`` reads."""
    p.add_argument("--model", choices=models, required=True)
    p.add_argument("--n-spins", type=int, default=n_spins)
    p.add_argument("--sector", choices=("even", "odd"), default="even")
    p.add_argument("--hz", type=float, default=hz)
    p.add_argument("--dim", type=int, default=256)
    p.add_argument("--bandwidth-frac", type=float, default=SweepConfig.bandwidth_frac)
    p.add_argument("--k", type=float, default=k)
    p.add_argument("--allow-degenerate", action="store_true")


def _add_profile_flags(p, center: float | None, deltas: tuple[float, float, int]) -> None:
    """The flags ``_profile_from_args`` reads, and the delta grid."""
    p.add_argument("--profile", choices=("gaussian", "uniform"), default="uniform")
    p.add_argument("--center", type=float, default=center, help="gaussian profile center")
    p.add_argument("--sigma", type=float, default=10.0, help="gaussian profile width")
    p.add_argument("--delta-min", type=float, default=deltas[0])
    p.add_argument("--delta-max", type=float, default=deltas[1])
    p.add_argument("--delta-points", type=int, default=deltas[2])


_SWEEP_CHARTS = (
    ("saturation", "cbar_norm", "complexity saturation vs chaos parameter"),
    ("dispersion", "inv_sigma_b_norm", "normalized inverse dispersion of b vs chaos parameter"),
)


def _cmd_sweep(args) -> None:
    """Config-file pairs overlaid with the flags given, swept and written out."""
    model = args.sweep_model
    pairs = read_config_pairs(args.config) if args.config else {}
    if pairs.setdefault("model", model) != model:
        raise ConfigError(f"{args.config} is for the {pairs['model']} model, not {model}")
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            pairs[key] = str(value).lower() if isinstance(value, bool) else str(value)
            if CONFIG_KEYS[key].into == "param_grid":
                pairs.pop("param_values", None)  # grid flags replace the file's grid
    cfg = build_sweep_config(pairs)
    sweep = (run_ising_sweep if model == "ising" else run_banded_sweep)(cfg)
    stem = f"{model}_sweep"
    csv_path = args.out / f"{stem}.csv"
    write_table(csv_path, sweep.header, sweep.rows)
    (args.out / f"{stem}.meta.txt").write_text(config_summary(cfg), newline="\n")
    for chart, stat, title in _SWEEP_CHARTS if len(sweep.rows) else ():
        columns = ["eta"] + [f"{f.label}_{stat}" for f in cfg.families]
        render_line_chart(
            sweep.column("param"),
            [(c, sweep.column(c)) for c in columns],
            args.out / f"{stem}_{chart}.svg",
            title=title,
            x_label="param",
        )
    print(f"{stem}: {len(sweep.rows)} grid points -> {csv_path}")


def _profile_from_args(args):
    if args.profile == "gaussian":
        if args.center is None:
            raise ConfigError("--profile gaussian requires --center")
        return GaussianProfile(center=args.center, sigma=args.sigma)
    return UniformComplement()


def _model_from_args(args):
    """The Hamiltonian named by the model flags, and its tag for titles."""
    if args.model == "ising":
        ham = build_ising_sector(args.n_spins, args.hz, args.sector)
        return ham, f"ising N={args.n_spins} {args.sector} hz={args.hz:g}"
    if args.model == "banded":
        ham = banded_hamiltonian(args.dim, args.bandwidth_frac, args.k, args.seed)
        bandwidth = _bandwidth(args.dim, args.bandwidth_frac)
        return ham, f"banded D={args.dim} b={bandwidth} k={args.k:g}"
    return build_goe(args.dim, args.seed), f"goe D={args.dim}"


def _cmd_bound_sweep(args) -> None:
    ham, tag = _model_from_args(args)
    if args.deltas:
        deltas = parse_floats(args.deltas)
    else:
        deltas = np.geomspace(args.delta_min, args.delta_max, args.delta_points)
    profile = _profile_from_args(args)
    deltas = check_bound_sweep(ham.dim, args.j, profile, deltas)
    # the sweep reads the eigenvalues alone, so H goes before its chain starts
    spec = eigendecompose(ham, vectors=False)
    del ham
    sweep = run_bound_sweep(
        spec, args.j, profile, deltas, allow_degenerate=args.allow_degenerate
    )
    table = np.column_stack([deltas, sweep.c_bar, sweep.bound])
    write_table(args.out / "bound_sweep.csv", ["delta", "c_bar", "bound"], table)
    render_line_chart(
        deltas,
        [("c_bar", sweep.c_bar), ("bound", sweep.bound)],
        args.out / "bound_sweep.svg",
        title=f"saturation vs bound ({tag})",
        x_label="delta",
    )
    print(f"bound-sweep [{tag}] j={args.j}: bound holds up to delta = {sweep.delta_ok_up_to:g}")


def _cmd_scaling_check(args) -> None:
    ham = build_goe(args.dim, args.seed)
    j = args.j if args.j is not None else args.dim // 2
    deltas = np.geomspace(args.delta_min, args.delta_max, args.delta_points)
    profile = _profile_from_args(args)
    deltas = check_overlap_scaling(ham.dim, j, profile, deltas)
    # the check reads the eigenvalues alone, so H goes before its chain starts
    spec = eigendecompose(ham, vectors=False)
    del ham
    report = overlap_scaling_check(spec, j, profile, deltas)
    table = np.column_stack([report.n_values, report.slopes, report.f_intercepts])
    write_table(args.out / "scaling_check.csv", ["n", "slope", "f_n"], table)
    print(
        f"scaling-check GOE D={args.dim} j={j}: median slope = {report.median_slope:.4f}, "
        f"sum f_n = {report.f_sum:.4f}"
    )


def _cmd_single_run(args) -> None:
    if args.t_points < 1:
        raise ConfigError(f"--t-points must be at least 1, got {args.t_points}")
    disp = DispersionConfig(w_frac=args.w_frac, n0_frac=args.n0_frac)
    # only the uniform state needs the spectrum, so the others are built, or
    # rejected, before the eigensolve
    state_kind = args.state or ("all_up" if args.model == "ising" else "uniform")
    if state_kind == "all_up":
        if args.model != "ising":
            raise ConfigError("--state all_up requires --model ising")
        psi = state_all_up(parity_basis(args.n_spins, args.sector))
    ham, tag = _model_from_args(args)
    _check_levels(ham.dim, tag)
    if state_kind == "random":
        psi = state_random(ham.dim, args.state_seed)
    spec = eigendecompose(ham)
    if state_kind == "uniform":
        psi = state_uniform_eigenbasis(spec)
    lan, rep, sigma_a, sigma_b = _run_member(ham, spec, psi, disp, args.allow_degenerate)
    times = default_time_grid(spec.spectral_range, ham.dim, n_points=args.t_points)
    values = complexity_values(lan, times)
    write_table(args.out / "single_run.csv", ["t", "c_k"], np.column_stack([times, values]))
    render_line_chart(
        times[1:],
        [("c_k", values[1:])],
        args.out / "single_run.svg",
        title=f"complexity growth ({tag}, {state_kind})",
        x_label="t",
        log_x=True,
    )
    eta_val = eta(r_ratio_mean(spec.eigenvalues))
    print(f"single-run [{tag}] state={state_kind}")
    print(f"  K = {lan.krylov_dim} / D = {ham.dim}   eta = {eta_val:.4f}")
    print(f"  c_bar = {rep.c_bar:.6g}   c_bar_norm = {rep.c_bar_normalized:.6g}")
    if np.isfinite(sigma_a):  # each sigma is nan when its sequence is too short for the window
        print(f"  sigma(a) = {sigma_a:.6g}   sigma(b) = {sigma_b:.6g}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.out.mkdir(parents=True, exist_ok=True)
        args.func(args)
    except NumericalError as exc:
        message = str(exc)
        if isinstance(exc, DegenerateSpectrumError) and "allow_degenerate" in vars(args):
            # the command's own opt-in, not the library keyword
            message = message.replace("allow_degenerate=True", "--allow-degenerate")
        print(f"numerical error: {message}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
