"""Seeded transition sweeps with state-family averaging.

A sweep walks a control-parameter grid (magnetic field for the spin chain,
coupling strength for the banded model), measures the spectral chaos value
eta at every point, and for each configured family of initial states records
the normalized complexity saturation and the inverse dispersions of both
Lanczos sequences.  All randomness is derived from one master seed with
counter-based keys, so results are independent of execution order and thread
count.
"""

from __future__ import annotations

import logging
import zlib
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .hamiltonians import (
    Hamiltonian,
    SpectralData,
    build_banded_random,
    build_ising_sector,
    check_chain,
    eigendecompose,
    parity_basis,
)
from .krylov import lanczos_full_orth, saturation
from .measures import DispersionConfig, eta, r_ratio_mean, sigma_moving
from .states import (
    StateVector,
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
class AllUpFamily:
    """Single member: the all-spins-up state (spin chain, even sector)."""

    @property
    def label(self) -> str:
        return "all_up"


@dataclass(frozen=True)
class UniformFamily:
    """Uniformly spread over an energy eigenbasis.

    With ``ref_param`` None (the default) the state is rebuilt from the
    current grid point's own eigenbasis, which makes its saturation exactly
    (D-1)/2; a float selects a fixed reference Hamiltonian instead.
    """

    ref_param: float | None = None

    @property
    def label(self) -> str:
        if self.ref_param is None:
            return "uniform"
        return f"uniform_ref{_fmt_param(self.ref_param)}"


@dataclass(frozen=True)
class RandomFamily:
    """Average over ``count`` random initial states.

    The members come from :func:`state_random`: real Gaussian amplitudes with
    Porter-Thomas eigenbasis weights, so the family's normalized saturation
    sits below 1 even in the GOE limit.
    """

    count: int = 10

    @property
    def label(self) -> str:
        return "random"


@dataclass(frozen=True)
class EigenstatesFamily:
    """Average over eigenstates of a reference Hamiltonian near the spectrum center."""

    ref_param: float
    count: int = 40

    @property
    def label(self) -> str:
        return f"eig{_fmt_param(self.ref_param)}"


@dataclass(frozen=True)
class BorderFamily:
    """Lowest eigenstate of the uncoupled (k=0) reference (banded model)."""

    @property
    def label(self) -> str:
        return "border"


Family = AllUpFamily | UniformFamily | RandomFamily | EigenstatesFamily | BorderFamily


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
        default_grid = _lookup_model(self.model).grid
        grid = np.array(default_grid if self.param_grid is None else self.param_grid, dtype=float)
        if grid.size == 0:
            raise ConfigError("param_grid is empty; give at least one grid point")
        if not np.all(np.isfinite(grid)):
            raise ConfigError("param_grid must be finite")
        if self.model == "ising" and np.any(grid == 0.0):
            raise ConfigError("h_z = 0 is a symmetry point and must not be on the grid")
        grid.setflags(write=False)
        object.__setattr__(self, "param_grid", grid)
        families = tuple(self.families) or parse_families(self.model)
        object.__setattr__(self, "families", families)
        labels = [f.label for f in families]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate family labels: {labels}")
        for fam in families:
            if isinstance(fam, AllUpFamily) and self.model != "ising":
                raise ConfigError("the all_up family applies to the ising model only")
            if isinstance(fam, BorderFamily) and self.model != "banded":
                raise ConfigError("the border family applies to the banded model only")
            if getattr(fam, "count", 1) < 1:
                raise ConfigError(f"the {fam.label} family needs count >= 1, got {fam.count}")
        if self.n_eta is None:
            object.__setattr__(self, "n_eta", self.n_spins)
        if self.model == "ising":  # the n_eta chain is first built inside the point loop
            check_chain(self.n_eta, self.sector)
        if self.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")


def parse_families(
    model: str,
    families: str = "",
    random_count: int = RandomFamily.count,
    eigen_count: int | None = None,
) -> tuple[Family, ...]:
    """State families from a comma list; an empty list gives the model's
    default families, and ``eigen_count`` the model's default size."""
    defaults = _lookup_model(model)
    if eigen_count is None:
        eigen_count = defaults.eigen_count
    fams: list[Family] = []
    for token in filter(None, (t.strip() for t in (families or defaults.families).split(","))):
        name, at, ref = token.partition("@")
        if token == "all_up":
            fams.append(AllUpFamily())
        elif name == "uniform":
            fams.append(UniformFamily(ref_param=float(ref) if at else None))
        elif token == "random":
            fams.append(RandomFamily(count=random_count))
        elif token == "border":
            fams.append(BorderFamily())
        elif name == "eig_ref" and at:
            fams.append(EigenstatesFamily(ref_param=float(ref), count=eigen_count))
        else:
            raise ConfigError(
                f"unknown family {token!r}; valid: all_up, uniform, uniform@<p>, "
                "random, border, eig_ref@<p>"
            )
    return tuple(fams)


@dataclass(frozen=True)
class FamilyStats:
    """Family-averaged diagnostics at one grid point."""

    c_bar_norm: float
    inv_sigma_a: float
    inv_sigma_b: float
    inv_sigma_a_norm: float = float("nan")
    inv_sigma_b_norm: float = float("nan")


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: control parameter, eta and per-family statistics."""

    param: float
    eta: float
    families: dict[str, FamilyStats]


# ---------------------------------------------------------------------------
# models


def banded_hamiltonian(dim: int, bandwidth_frac: float, k: float, seed: int) -> Hamiltonian:
    """Banded model at coupling ``k`` with bandwidth ``bandwidth_frac * dim``, rounded."""
    bandwidth = max(1, min(dim - 1, round(bandwidth_frac * dim)))
    return build_banded_random(dim, bandwidth, k, seed)


@dataclass(frozen=True)
class _Model:
    """A sweep model as ``sweeps``, ``io`` and ``cli`` read it; one entry of MODELS."""

    param_name: str
    flag: str
    help: str
    grid: np.ndarray
    families: str
    eigen_count: int
    hamiltonians: Callable[[SweepConfig, float], list[Hamiltonian]]


# The field grid covers both integrable ends; the coupling grid brackets the
# Poisson-to-GOE transition.  Builders are looked up by name at call time.
MODELS = {
    "ising": _Model(
        "h_z", "hz", "spin-chain h_z sweep", np.geomspace(0.05, 4.0, 30),
        "all_up,eig_ref@4,eig_ref@0,random,uniform", 40,
        lambda cfg, h_z: [build_ising_sector(cfg.n_spins, h_z, cfg.sector)],
    ),
    "banded": _Model(
        "k", "k", "banded-model k sweep", np.geomspace(5e-4, 2.0, 20),
        "border,eig_ref@0,random,uniform", 20,
        # each realization draws one (H0, V) pair traced through the whole grid
        lambda cfg, k: [
            banded_hamiltonian(cfg.dim, cfg.bandwidth_frac, k, derive_seed(cfg.seed, "matrix", r))
            for r in range(cfg.realizations)
        ],
    ),
}


def _lookup_model(name: str) -> _Model:
    if name not in MODELS:
        raise ConfigError(f"model must be {' or '.join(map(repr, MODELS))}, got {name!r}")
    return MODELS[name]


# ---------------------------------------------------------------------------
# the sweep


def _fixed_members(cfg: SweepConfig) -> dict[str, list[tuple[int, StateVector]] | None]:
    """The (realization, state) pairs each family runs at every grid point;
    None for the current-basis uniform family, rebuilt at each point.  The
    reference spectra are released before the point loop."""
    basis = parity_basis(cfg.n_spins, cfg.sector) if cfg.model == "ising" else None
    # the spectra of every realization at one reference parameter at a time
    hamiltonians = MODELS[cfg.model].hamiltonians
    reference = lru_cache(maxsize=1)(lambda p: [eigendecompose(h) for h in hamiltonians(cfg, p)])
    members = {}
    for fam in cfg.families:
        if isinstance(fam, AllUpFamily):
            pairs = [(0, state_all_up(basis))]
        elif isinstance(fam, RandomFamily):
            dim = basis.dim if basis else cfg.dim
            pairs = [
                (0, state_random(dim, derive_seed(cfg.seed, "random-state", i)))
                for i in range(fam.count)
            ]
        elif isinstance(fam, BorderFamily):
            pairs = [(r, state_eigenstate(spec, 0)) for r, spec in enumerate(reference(0.0))]
        elif isinstance(fam, EigenstatesFamily):
            if cfg.model == "banded" and fam.ref_param != 0.0:
                raise ConfigError("banded eigenstate families reference the k=0 spectrum")
            spec = reference(fam.ref_param)[0]
            if fam.count > spec.dim:
                raise ConfigError(
                    f"the {fam.label} family needs {fam.count} eigenstates but the spectrum "
                    f"has dimension {spec.dim}; set --eigen-count (eigen_count) to at most "
                    f"{spec.dim}"
                )
            pairs = [(0, state_eigenstate(spec, j)) for j in select_center_states(spec, fam.count)]
        elif fam.ref_param is None:
            pairs = None
        elif cfg.model == "banded":
            raise ConfigError("banded uniform family uses the current eigenbasis")
        else:
            pairs = [(0, state_uniform_eigenbasis(reference(fam.ref_param)[0]))]
        members[fam.label] = pairs
    return members


def _member_stats(
    ham: Hamiltonian,
    spec: SpectralData,
    psi: StateVector,
    cfg: SweepConfig,
) -> tuple[float, float, float]:
    lan = lanczos_full_orth(ham, psi, spec=spec, allow_degenerate=cfg.allow_degenerate)
    rep = saturation(spec, lan, psi, allow_degenerate=cfg.allow_degenerate)
    try:
        inv_a = 1.0 / sigma_moving(lan.a, cfg.dispersion)
        inv_b = 1.0 / sigma_moving(lan.b, cfg.dispersion)
    except ValueError:
        # a halted run (eigenstate-like seed) has no usable Lanczos sequence;
        # it still contributes its saturation but not a dispersion value
        inv_a = inv_b = float("nan")
    return rep.c_bar_normalized, inv_a, inv_b


def _stats_from_rows(rows: list[tuple[float, float, float]]) -> FamilyStats:
    arr = np.array(rows)
    inv_a = arr[:, 1][np.isfinite(arr[:, 1])]
    inv_b = arr[:, 2][np.isfinite(arr[:, 2])]
    return FamilyStats(
        c_bar_norm=float(arr[:, 0].mean()),
        inv_sigma_a=float(inv_a.mean()) if inv_a.size else float("nan"),
        inv_sigma_b=float(inv_b.mean()) if inv_b.size else float("nan"),
    )


def _sweep(cfg: SweepConfig, model_name: str) -> list[SweepRecord]:
    """The one point loop, threaded over points when asked, in grid order.

    Points where any realization is flagged near-degenerate are skipped with
    a logged warning.
    """
    if cfg.model != model_name:
        raise ConfigError(f"run_{model_name}_sweep requires model = {model_name}")
    model = MODELS[model_name]
    fixed = _fixed_members(cfg)

    def point(i: int) -> SweepRecord | None:
        param = float(cfg.param_grid[i])
        hams = model.hamiltonians(cfg, param)
        specs = [eigendecompose(h) for h in hams]
        if any(s.near_degenerate for s in specs) and not cfg.allow_degenerate:
            log.warning(
                "skipping %s=%g: near-degenerate spectrum (min spacing %.3e)",
                model.param_name,
                param,
                min(s.min_spacing for s in specs),
            )
            return None
        if cfg.model == "ising" and cfg.n_eta != cfg.n_spins:
            levels = [np.linalg.eigvalsh(build_ising_sector(cfg.n_eta, param, cfg.sector).matrix)]
        else:
            levels = [s.eigenvalues for s in specs]
        eta_val = float(np.mean([eta(r_ratio_mean(e)) for e in levels]))
        stats: dict[str, FamilyStats] = {}
        for fam in cfg.families:
            members = fixed[fam.label]
            if members is None:
                members = [(r, state_uniform_eigenbasis(s)) for r, s in enumerate(specs)]
            rows = [_member_stats(hams[r], specs[r], psi, cfg) for r, psi in members]
            stats[fam.label] = _stats_from_rows(rows)
        return SweepRecord(param=param, eta=eta_val, families=stats)

    indices = range(cfg.param_grid.shape[0])
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(point, indices))
    else:
        results = [point(i) for i in indices]
    return [r for r in results if r is not None]


def run_ising_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Spin-chain transition sweep over the magnetic-field grid.

    ``cfg.n_eta`` selects the chain length used for the eta curve; by
    default the sweep spectrum itself is reused.
    """
    return _sweep(cfg, "ising")


def run_banded_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Banded random-matrix sweep over the coupling grid.

    Each realization draws one (H0, V) pair that is traced through the whole
    grid.  Families attached to the reference basis (border, uniform) are
    averaged over realizations; random and reference-eigenstate families use
    realization 0 only, averaging over their member states.
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


def postprocess_normalize(
    records: list[SweepRecord], eta_column: np.ndarray | None = None
) -> list[SweepRecord]:
    """Fill the normalized inverse-dispersion columns of a sweep.

    Each family's 1/sigma curves are mapped onto the eta scale of the same
    sweep; the saturation column keeps its natural normalization and is left
    untouched.  Returns new records.
    """
    if len(records) < 2:
        raise ValueError("need at least 2 records to normalize a sweep")
    eta_col = (
        np.asarray(eta_column, dtype=float)
        if eta_column is not None
        else np.array([r.eta for r in records])
    )
    labels = list(records[0].families.keys())
    normalized: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for label in labels:
        a_col = np.array([r.families[label].inv_sigma_a for r in records])
        b_col = np.array([r.families[label].inv_sigma_b for r in records])
        normalized[label] = (
            _normalize_partial(a_col, eta_col),
            _normalize_partial(b_col, eta_col),
        )
    out = []
    for i, rec in enumerate(records):
        fams = {
            label: replace(
                rec.families[label],
                inv_sigma_a_norm=float(normalized[label][0][i]),
                inv_sigma_b_norm=float(normalized[label][1][i]),
            )
            for label in labels
        }
        out.append(SweepRecord(param=rec.param, eta=rec.eta, families=fams))
    return out
