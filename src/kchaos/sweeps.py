"""Seeded transition sweeps with state-family averaging.

A sweep walks a control-parameter grid (magnetic field for the spin chain,
coupling strength for the banded model), measures the spectral chaos value
eta at every point, and for each configured family of initial states records
the normalized complexity saturation and the inverse dispersions of both
Lanczos sequences, also mapped onto the eta scale of the same sweep.  All randomness is derived from one master seed with
counter-based keys, so results are independent of execution order and thread
count.
"""

from __future__ import annotations

import logging
import numbers
import zlib
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .hamiltonians import (
    Hamiltonian,
    SpectralData,
    _ising_sector_levels,
    build_banded_random,
    build_ising_sector,
    eigendecompose,
    parity_basis,
)
from .krylov import LanczosResult, SaturationReport, lanczos_full_orth, saturation
from .measures import DispersionConfig, eta, r_ratio_mean, sigma_moving
from .states import (
    select_center_states,
    state_all_up,
    state_eigenstate,
    state_random,
    state_uniform_eigenbasis,
)

log = logging.getLogger(__name__)


def derive_seed(master_seed: int, *key: int | str) -> int:
    """Deterministic child seed from a master seed and a mixed key."""
    parts = [int(master_seed)] + [
        zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in key
    ]
    return int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# state families


def _fmt_param(p: float) -> str:
    return f"{p:g}".replace(".", "p").replace("-", "m")


@dataclass(frozen=True)
class Family:
    """A family of initial states, averaged at every grid point.

    ``all_up`` is the all-spins-up state (spin chain, even sector).
    ``uniform`` is spread uniformly over the current grid point's own
    eigenbasis, rebuilt at every point, which makes its saturation exactly
    (D-1)/2.  ``border`` is the lowest eigenstate of the uncoupled (k=0)
    reference (banded model).  These three have one state per realization
    and count 1.  ``random`` averages over ``count`` states from
    :func:`state_random`: real Gaussian amplitudes with Porter-Thomas
    eigenbasis weights, so the family's normalized saturation sits below 1
    even in the GOE limit.  ``eig_ref`` averages over ``count`` eigenstates
    of the reference Hamiltonian at ``ref_param`` near the spectrum center.
    """

    kind: str
    count: int = 1
    ref_param: float = 0.0

    def __post_init__(self):
        if self.kind not in ("all_up", "uniform", "random", "border", "eig_ref"):
            raise ConfigError(
                f"unknown family {self.kind!r}; valid: all_up, uniform, random, border, eig_ref@<p>"
            )
        if isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral):
            raise ConfigError(f"the {self.label} family needs an integer count, got {self.count!r}")
        if self.count < 1:
            raise ConfigError(f"the {self.label} family needs count >= 1, got {self.count}")
        if self.kind not in ("random", "eig_ref") and self.count != 1:
            raise ConfigError(f"the {self.label} family needs count = 1, got {self.count}")
        if self.kind != "eig_ref" and self.ref_param != 0.0:
            raise ConfigError(f"the {self.label} family takes no ref_param, got {self.ref_param:g}")
        if not np.isfinite(self.ref_param):
            raise ConfigError(
                f"the {self.label} family needs a finite reference parameter, "
                f"got {self.ref_param:g}"
            )

    @property
    def label(self) -> str:
        return f"eig{_fmt_param(self.ref_param)}" if self.kind == "eig_ref" else self.kind


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; validated on construction.

    ``param_grid`` None selects the model's default grid; an empty grid is
    an error.  ``n_eta`` is the chain length of the ising eta curve and
    resolves to ``n_spins`` when not given.
    """

    model: str
    param_grid: np.ndarray | None = None
    families: tuple[Family, ...] = ()
    seed: int = 0
    n_spins: int = 10
    sector: str = "even"
    n_eta: int | None = None
    dim: int = 1024
    bandwidth_frac: float = 0.2
    realizations: int = 10
    dispersion: DispersionConfig = DispersionConfig()
    allow_degenerate: bool = False
    threads: int = 1

    def __post_init__(self):
        model = _lookup_model(self.model)
        grid = np.array(model.grid if self.param_grid is None else self.param_grid, dtype=float)
        if grid.size == 0:
            raise ConfigError("param_grid is empty; give at least one grid point")
        if not np.all(np.isfinite(grid)):
            raise ConfigError("param_grid must be finite")
        grid.setflags(write=False)
        object.__setattr__(self, "param_grid", grid)
        families = tuple(self.families) or parse_families(self.model)
        object.__setattr__(self, "families", families)
        labels = [f.label for f in families]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate family labels: {labels}")
        # a family some model owns runs on that model only
        owners = {entry.own_family: name for name, entry in MODELS.items()}
        for fam in families:
            owner = owners.get(fam.kind, self.model)
            if owner != self.model:
                raise ConfigError(f"the {fam.label} family applies to the {owner} model only")
        if self.n_eta is None:
            object.__setattr__(self, "n_eta", self.n_spins)
        dim = model.check(self)
        for fam in families:
            if fam.kind == "eig_ref" and fam.count > dim:
                raise ConfigError(
                    f"the {fam.label} family needs {fam.count} eigenstates but the spectrum "
                    f"has dimension {dim}; set --eigen-count (eigen_count) to at most {dim}"
                )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")


def parse_families(
    model: str,
    families: str = "",
    random_count: int = 10,
    eigen_count: int | None = None,
) -> tuple[Family, ...]:
    """State families from a comma list; an empty list gives the model's
    default families, and ``eigen_count`` the model's default size."""
    defaults = _lookup_model(model)
    if eigen_count is None:
        eigen_count = defaults.eigen_count
    fams: list[Family] = []
    for token in filter(None, (t.strip() for t in (families or defaults.families).split(","))):
        kind, at, ref = token.partition("@")
        # eig_ref takes its reference parameter after "@"; no other kind takes one
        if (kind == "eig_ref") != bool(at):
            raise ConfigError(
                f"unknown family {token!r}; valid: all_up, uniform, random, border, eig_ref@<p>"
            )
        try:
            ref_param = float(ref) if at else 0.0
        except ValueError:
            raise ConfigError(f"families: {token!r} needs a number after '@'") from None
        count = {"random": random_count, "eig_ref": eigen_count}.get(kind, 1)
        fams.append(Family(kind, count, ref_param))
    return tuple(fams)


# per family, in column order: the member means, then the two inverse
# dispersions on the eta scale of the sweep
STAT_COLUMNS = ("cbar_norm", "inv_sigma_a", "inv_sigma_b", "inv_sigma_a_norm", "inv_sigma_b_norm")


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A finished sweep: one read-only float row per kept grid point.

    ``header`` is ``("param", "eta")`` followed by ``f"{label}_{stat}"`` for
    every family, in config order, and every entry of STAT_COLUMNS.
    """

    header: tuple[str, ...]
    rows: np.ndarray

    def column(self, name: str) -> np.ndarray:
        """The column headed ``name``, as a view of ``rows``."""
        return self.rows[:, self.header.index(name)]


# ---------------------------------------------------------------------------
# models


def _check_bandwidth_frac(bandwidth_frac: float) -> None:
    """Reject a bandwidth fraction outside (0, 1], which ``banded_hamiltonian``
    would otherwise clamp silently."""
    if not 0.0 < bandwidth_frac <= 1.0:
        raise ConfigError(f"bandwidth_frac must be in (0, 1], got {bandwidth_frac:g}")


def _bandwidth(dim: int, bandwidth_frac: float) -> int:
    """``bandwidth_frac * dim`` rounded, clipped to [1, dim - 1]."""
    return max(1, min(dim - 1, round(bandwidth_frac * dim)))


def banded_hamiltonian(dim: int, bandwidth_frac: float, k: float, seed: int) -> Hamiltonian:
    """Banded model at coupling ``k`` with bandwidth ``_bandwidth(dim, bandwidth_frac)``."""
    _check_bandwidth_frac(bandwidth_frac)
    return build_banded_random(dim, _bandwidth(dim, bandwidth_frac), k, seed)


def _check_levels(dim: int, spectrum: str) -> int:
    """Reject a spectrum too small for eta, whose spacing ratio needs two spacings."""
    if dim < 3:
        raise ConfigError(f"{spectrum} has {dim} levels; eta needs at least 3")
    return dim


def _check_ising(cfg: SweepConfig) -> int:
    """The ising fields of ``cfg``; returns the dimension of the sweep spectrum."""
    if np.any(cfg.param_grid == 0.0):
        raise ConfigError("h_z = 0 is a symmetry point and must not be on the grid")
    # the n_eta chain is first built inside the point loop; the sweep chain,
    # checked last, gives the returned dimension
    for n in (cfg.n_eta, cfg.n_spins):
        dim = _check_levels(parity_basis(n, cfg.sector).dim, f"the {cfg.sector} sector of N={n}")
    if cfg.sector != "even" and any(f.kind == "all_up" for f in cfg.families):
        raise ConfigError(
            "the all_up family needs sector = even, where the palindromic all-up state lives"
        )
    return dim


def _check_banded(cfg: SweepConfig) -> int:
    """The banded fields of ``cfg``; returns the dimension of the sweep spectrum."""
    if any(fam.ref_param for fam in cfg.families):
        raise ConfigError("banded eigenstate families reference the k=0 spectrum")
    if np.any(cfg.param_grid < 0):
        raise ConfigError(f"k must be >= 0 on the grid, got {cfg.param_grid.min():g}")
    _check_bandwidth_frac(cfg.bandwidth_frac)
    return _check_levels(cfg.dim, f"a dim = {cfg.dim} matrix")


def _banded_realizations(cfg: SweepConfig, k: float, first: int = 0) -> Iterator[Hamiltonian]:
    """Realizations ``first`` to ``cfg.realizations - 1`` at coupling ``k``,
    each built only when asked for.  Realization r draws one (H0, V) pair
    traced through the whole grid."""
    for r in range(first, cfg.realizations):
        yield banded_hamiltonian(cfg.dim, cfg.bandwidth_frac, k, derive_seed(cfg.seed, "matrix", r))


def _ising_eta_levels(cfg: SweepConfig, h_z: float) -> list[np.ndarray] | None:
    """Levels of the n_eta chain at ``h_z``; None when it is the sweep's own chain."""
    if cfg.n_eta == cfg.n_spins:
        return None
    # eta reads the levels alone; the degeneracy verdict never gates or skips the point
    return [_ising_sector_levels(cfg.n_eta, h_z, cfg.sector)]


@dataclass(frozen=True)
class _Model:
    """A sweep model as ``sweeps``, ``io`` and ``cli`` read it; one entry of MODELS.

    ``hamiltonians`` gives the realizations at one grid point, in order;
    the sweep solves and runs each one before it asks for the next.
    ``check`` validates the model's own SweepConfig fields and returns the
    dimension of the sweep spectrum.  ``own_family`` is the family kind only
    this model runs, if any.  ``eta_levels`` gives the levels of the eta curve
    at one grid point; where it is None, or returns None, eta comes from the
    sweep spectra.
    """

    param_name: str
    flag: str
    help: str
    grid: np.ndarray
    families: str
    eigen_count: int
    hamiltonians: Callable[[SweepConfig, float], Iterable[Hamiltonian]]
    check: Callable[[SweepConfig], int]
    own_family: str | None
    eta_levels: Callable[[SweepConfig, float], list[np.ndarray] | None] | None


# The field grid covers both integrable ends; the coupling grid brackets the
# Poisson-to-GOE transition.  Builders are looked up by name at call time.
MODELS = {
    "ising": _Model(
        "h_z", "hz", "spin-chain h_z sweep", np.geomspace(0.05, 4.0, 30),
        "all_up,eig_ref@4,eig_ref@0,random,uniform", 40,
        lambda cfg, h_z: [build_ising_sector(cfg.n_spins, h_z, cfg.sector)],
        _check_ising, "all_up", _ising_eta_levels,
    ),
    "banded": _Model(
        "k", "k", "banded-model k sweep", np.geomspace(5e-4, 2.0, 20),
        "border,eig_ref@0,random,uniform", 20,
        _banded_realizations, _check_banded, "border", None,
    ),
}


def _lookup_model(name: str) -> _Model:
    if name not in MODELS:
        raise ConfigError(f"model must be {' or '.join(map(repr, MODELS))}, got {name!r}")
    return MODELS[name]


# ---------------------------------------------------------------------------
# the sweep


def _fixed_members(cfg: SweepConfig) -> dict[str, list[tuple[int, np.ndarray]] | None]:
    """The (realization, state) pairs each family runs at every grid point;
    None for the current-basis uniform family, rebuilt at each point.

    The reference spectra are solved one at a time, and each is released
    once its states are taken, before the next is solved.  Realization 0's
    spectrum at one reference parameter gives the states of every family
    that references it, so ``border`` and an ``eig_ref`` at the same
    parameter share one solve.
    """
    model = MODELS[cfg.model]
    members = dict.fromkeys(fam.label for fam in cfg.families)
    # the families that take states from realization 0, by reference parameter
    by_ref: dict[float, list[Family]] = {}
    for fam in cfg.families:
        if fam.kind == "all_up":
            members[fam.label] = [(0, state_all_up(parity_basis(cfg.n_spins, cfg.sector)))]
        elif fam.kind == "random":
            dim = model.check(cfg)
            members[fam.label] = [
                (0, state_random(dim, derive_seed(cfg.seed, "random-state", i)))
                for i in range(fam.count)
            ]
        elif fam.kind in ("border", "eig_ref"):
            by_ref.setdefault(fam.ref_param, []).append(fam)
    for p, fams in by_ref.items():
        spec = eigendecompose(next(iter(model.hamiltonians(cfg, p))))
        for fam in fams:
            picks = [0] if fam.kind == "border" else select_center_states(spec, fam.count)
            members[fam.label] = [(0, state_eigenstate(spec, j)) for j in picks]
        # released before the next reference is solved
        del spec
    for fam in cfg.families:
        if fam.kind == "border":
            # each later realization keeps its ground state only; map binds no
            # H while the next one is built
            rest = _banded_realizations(cfg, 0.0, first=1)
            ground = map(lambda h: state_eigenstate(eigendecompose(h), 0), rest)
            members[fam.label] += enumerate(ground, 1)
    return members


def _run_member(
    ham: Hamiltonian,
    spec: SpectralData,
    psi: np.ndarray,
    dispersion: DispersionConfig,
    allow_degenerate: bool,
) -> tuple[LanczosResult, SaturationReport, float, float]:
    """One Krylov member: its Lanczos run, its saturation, and sigma(a) and
    sigma(b), each nan when its sequence is too short for the dispersion
    window (b is one entry shorter than a)."""
    lan = lanczos_full_orth(ham, psi, spec=spec, allow_degenerate=allow_degenerate)
    return lan, saturation(lan), sigma_moving(lan.a, dispersion), sigma_moving(lan.b, dispersion)


def _stats_from_rows(rows: list[tuple[float, float, float]]) -> list[float]:
    """One family's STAT_COLUMNS cells at a point; the normalized two are nan."""
    arr = np.array(rows)
    inv_a = arr[:, 1][np.isfinite(arr[:, 1])]
    inv_b = arr[:, 2][np.isfinite(arr[:, 2])]
    return [
        float(arr[:, 0].mean()),
        float(inv_a.mean()) if inv_a.size else float("nan"),
        float(inv_b.mean()) if inv_b.size else float("nan"),
        float("nan"),
        float("nan"),
    ]


def _sweep(cfg: SweepConfig, model_name: str) -> SweepTable:
    """The one point loop, threaded over points when asked, in grid order,
    with the normalized columns filled.

    A point builds, solves and runs one realization at a time and releases
    its H and eigenvectors before the next is built, so its memory does not
    grow with ``realizations``.  Each family's rows stay in realization order.
    Points where any realization is flagged near-degenerate are skipped with
    a logged warning; no member runs from the flagged realization on, and
    the later realizations are solved without eigenvectors.
    """
    if cfg.model != model_name:
        raise ConfigError(f"run_{model_name}_sweep requires model = {model_name}")
    model = MODELS[model_name]
    fixed = _fixed_members(cfg)

    def run_members(r: int, ham: Hamiltonian, spec: SpectralData, rows: dict) -> None:
        """Append the cells of every member on realization ``r`` to its family's rows."""
        for fam in cfg.families:
            members = fixed[fam.label] or [(r, state_uniform_eigenbasis(spec))]
            for psi in [psi for m, psi in members if m == r]:
                # the slice drops the run, so no Krylov basis outlives its member
                rep, sigma_a, sigma_b = _run_member(
                    ham, spec, psi, cfg.dispersion, cfg.allow_degenerate
                )[1:]
                rows[fam.label].append((rep.c_bar_normalized, 1.0 / sigma_a, 1.0 / sigma_b))

    def point(i: int) -> list[float] | None:
        param = float(cfg.param_grid[i])
        levels, spacings, skip = [], [], False
        rows = {fam.label: [] for fam in cfg.families}
        for r, ham in enumerate(model.hamiltonians(cfg, param)):
            # a flagged realization stops the members; the later ones are still
            # solved, without eigenvectors, for the minimum spacing the warning prints
            spec = eigendecompose(ham, vectors=not skip)
            levels.append(spec.eigenvalues)
            spacings.append(spec.min_spacing)
            skip = skip or (spec.near_degenerate and not cfg.allow_degenerate)
            if not skip:
                run_members(r, ham, spec, rows)
            # release H and its eigenvectors before the next realization is built
            del ham, spec
        if skip:
            log.warning(
                "skipping %s=%g: near-degenerate spectrum (min spacing %.3e)",
                model.param_name,
                param,
                min(spacings),
            )
            return None
        eta_levels = model.eta_levels(cfg, param) if model.eta_levels else None
        eta_val = float(np.mean([eta(r_ratio_mean(e)) for e in eta_levels or levels]))
        row = [param, eta_val]
        for fam in cfg.families:
            row += _stats_from_rows(rows[fam.label])
        return row

    indices = range(cfg.param_grid.shape[0])
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(point, indices))
    else:
        results = [point(i) for i in indices]
    header = ("param", "eta") + tuple(
        f"{fam.label}_{stat}" for fam in cfg.families for stat in STAT_COLUMNS
    )
    rows = [r for r in results if r is not None]
    table = SweepTable(header, np.array(rows, dtype=float).reshape(len(rows), len(header)))
    _normalize(table)
    return table


def run_ising_sweep(cfg: SweepConfig) -> SweepTable:
    """Spin-chain transition sweep over the magnetic-field grid.

    ``cfg.n_eta`` selects the chain length used for the eta curve; by
    default the sweep spectrum itself is reused.
    """
    return _sweep(cfg, "ising")


def run_banded_sweep(cfg: SweepConfig) -> SweepTable:
    """Banded random-matrix sweep over the coupling grid.

    Each realization draws one (H0, V) pair that is traced through the whole
    grid.  Border and uniform families, one state per realization, are
    averaged over realizations; random and reference-eigenstate families use
    realization 0 only, averaging over their member states.  A point holds
    one realization's H and eigenvectors at a time, so ``realizations``
    multiplies its time, not its memory.
    """
    return _sweep(cfg, "banded")


# ---------------------------------------------------------------------------
# postprocessing


def _normalize_partial(col: np.ndarray, eta_col: np.ndarray) -> np.ndarray:
    """normalize_to_eta extended to columns with nan gaps (halted members);
    all nan unless at least two finite values differ."""
    from .measures import normalize_to_eta

    finite = np.isfinite(col)
    out = np.full(col.shape, np.nan)
    if finite.sum() >= 2 and col[finite].max() > col[finite].min():
        out[finite] = normalize_to_eta(col[finite], eta_col[finite])
    return out


def _normalize(table: SweepTable) -> None:
    """Fill the normalized inverse-dispersion columns of a sweep in place,
    then make its rows read-only.

    A column ``{name}_norm`` whose ``{name}`` is also a column holds that
    column mapped onto the eta scale of the same sweep; the saturation column
    keeps its natural normalization and is left untouched.  With fewer than
    two rows every normalized value is nan.
    """
    eta_col = table.column("eta")
    for name in table.header:
        if f"{name}_norm" in table.header:
            table.column(f"{name}_norm")[:] = _normalize_partial(table.column(name), eta_col)
    table.rows.setflags(write=False)
