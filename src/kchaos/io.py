"""Sweep serialization: CSV tables, line-chart SVGs and flat config files.

Output is fully deterministic: fixed column order, 12 significant digits,
``\n`` line endings and no timestamps, so identical configs reproduce
byte-identical files.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError
from .measures import DispersionConfig
from .sweeps import MODELS, FamilyStats, SweepConfig, SweepRecord, parse_families

_STAT_COLUMNS = ("cbar_norm", "inv_sigma_a", "inv_sigma_b", "inv_sigma_a_norm", "inv_sigma_b_norm")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def sweep_header(family_labels: list[str]) -> list[str]:
    cols = ["param", "eta"]
    for fam in family_labels:
        cols.extend(f"{fam}_{stat}" for stat in _STAT_COLUMNS)
    return cols


def records_to_table(records: list[SweepRecord]) -> tuple[list[str], np.ndarray]:
    """Flatten sweep records into a header plus a float table."""
    labels = list(records[0].families.keys()) if records else []
    header = sweep_header(labels)
    rows = []
    for rec in records:
        row = [rec.param, rec.eta]
        for label in labels:
            st = rec.families[label]
            row.extend(
                (st.c_bar_norm, st.inv_sigma_a, st.inv_sigma_b, st.inv_sigma_a_norm, st.inv_sigma_b_norm)
            )
        rows.append(row)
    return header, np.array(rows) if rows else np.empty((0, len(header)))


def write_table(path: str | Path, header: list[str], rows: np.ndarray) -> None:
    """Plain CSV with 12-significant-digit values and \\n endings."""
    lines = [",".join(header)]
    if np.asarray(rows).size:
        for row in np.atleast_2d(rows):
            lines.append(",".join(_fmt(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def write_csv(
    records: list[SweepRecord], path: str | Path, family_labels: list[str] | None = None
) -> None:
    """Serialize sweep records; an empty list yields a header-only file."""
    if records:
        header, table = records_to_table(records)
    else:
        header = sweep_header(family_labels or [])
        table = np.empty((0, len(header)))
    write_table(path, header, table)


def read_csv(path: str | Path) -> list[SweepRecord]:
    """Inverse of ``write_csv`` for round-tripping and downstream analysis."""
    text = Path(path).read_text(encoding="ascii")
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    if header[:2] != ["param", "eta"] or (len(header) - 2) % len(_STAT_COLUMNS) != 0:
        raise ValueError(f"{path}: not a sweep CSV (header {header[:3]}...)")
    labels = [
        header[2 + i * len(_STAT_COLUMNS)].removesuffix("_cbar_norm")
        for i in range((len(header) - 2) // len(_STAT_COLUMNS))
    ]
    records = []
    for line in lines[1:]:
        vals = [float(tok) for tok in line.split(",")]
        fams = {}
        for i, label in enumerate(labels):
            base = 2 + i * len(_STAT_COLUMNS)
            fams[label] = FamilyStats(*vals[base : base + len(_STAT_COLUMNS)])
        records.append(SweepRecord(param=vals[0], eta=vals[1], families=fams))
    return records


# ---------------------------------------------------------------------------
# SVG rendering

_PALETTE = ("#000000", "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf", "#8c564b")
_WIDTH, _HEIGHT = 840, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 170, 30, 50


def render_svg(
    records: list[SweepRecord],
    columns: list[str],
    path: str | Path,
    title: str = "",
) -> None:
    """Simple multi-series line chart of selected sweep columns vs param.

    The x axis switches to log scale when the parameter grid spans more than
    a decade.  Purely deterministic output.
    """
    header, table = records_to_table(records)
    if table.shape[0] == 0:
        raise ValueError("cannot render an empty sweep")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"unknown columns {missing}; available: {header}")
    series = [(c, table[:, header.index(c)]) for c in columns]
    render_line_chart(table[:, 0], series, path, title=title, x_label="param")


def render_line_chart(
    x: np.ndarray,
    series: list[tuple[str, np.ndarray]],
    path: str | Path,
    title: str = "",
    x_label: str = "x",
    log_x: bool | None = None,
) -> None:
    """Deterministic polyline SVG of named series against a common x grid."""
    x = np.asarray(x, dtype=float)
    if log_x is None:
        log_x = bool(np.all(x > 0) and x.max() / x.min() > 10.0)
    xs = np.log10(x) if log_x else x
    all_y = np.concatenate([s[1] for s in series])
    # halted members leave nan points; they are skipped, not plotted
    all_y = all_y[np.isfinite(all_y)]
    y_lo, y_hi = (float(np.min(all_y)), float(np.max(all_y))) if all_y.size else (0.0, 0.0)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        x_label = f"{10 ** xv:.3g}" if log_x else f"{xv:.3g}"
        parts.append(
            f'<text x="{px(xv):.2f}" y="{_HEIGHT - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-size="11">{x_label}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py(yv):.2f}" text-anchor="end" '
            f'font-size="11">{yv:.3g}</text>'
        )
        parts.append(
            f'<line x1="{px(xv):.2f}" y1="{_MARGIN_T + plot_h}" x2="{px(xv):.2f}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="#888"/>'
        )
    x_axis_label = f"{x_label} (log scale)" if log_x else x_label
    parts.append(
        f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-size="12">{x_axis_label}</text>'
    )
    for i, (name, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(xs, ys) if np.isfinite(yv)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 16 + 16 * i
        lx = _WIDTH - _MARGIN_R + 10
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 27}" y="{ly}" font-size="11">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="ascii", newline="\n")


# ---------------------------------------------------------------------------
# config files


def parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def parse_floats(value: str) -> np.ndarray:
    return np.array([float(tok) for tok in value.split(",") if tok.strip()])


@dataclass(frozen=True)
class ConfigKey:
    """One config-file key: its value parser (also the argparse type of its
    sweep-command ``flag``), the one ``model`` it applies to, if any, and the
    SweepConfig field several keys fold ``into`` (None: the key is a field)."""

    parse: Callable[[str], Any]
    help: str = ""
    flag: str | None = None
    model: str | None = None
    into: str | None = None

    def flag_for(self, model: str) -> str | None:
        if self.flag is None or self.model not in (None, model):
            return None
        return self.flag.format(param=MODELS[model].flag)


# In .meta.txt order.  The defaults live with SweepConfig in kchaos.sweeps.
CONFIG_KEYS = {
    "model": ConfigKey(str),
    "seed": ConfigKey(int, "master seed", "--seed"),
    "param_min": ConfigKey(float, "grid start", "--{param}-min", into="param_grid"),
    "param_max": ConfigKey(float, "grid end", "--{param}-max", into="param_grid"),
    "param_points": ConfigKey(int, "number of grid points", "--{param}-points", into="param_grid"),
    "param_scale": ConfigKey(str, into="param_grid"),
    "param_values": ConfigKey(parse_floats, into="param_grid"),
    "families": ConfigKey(str, "comma list of state families", "--families", into="families"),
    "random_count": ConfigKey(int, "random-family members", "--random-count", into="families"),
    "eigen_count": ConfigKey(
        int,
        "eigenstate-family members; chains with N <= 6 need fewer than the default",
        "--eigen-count",
        into="families",
    ),
    "n_spins": ConfigKey(int, "chain length", "--n-spins", model="ising"),
    "sector": ConfigKey(str, model="ising"),
    "n_eta": ConfigKey(int, "chain length of the eta curve", "--n-eta", model="ising"),
    "dim": ConfigKey(int, "matrix dimension", "--dim", model="banded"),
    "bandwidth_frac": ConfigKey(float, "bandwidth / dim", "--bandwidth-frac", model="banded"),
    "realizations": ConfigKey(int, "matrix draws to average", "--realizations", model="banded"),
    "w_frac": ConfigKey(float, "dispersion window fraction", "--w-frac", into="dispersion"),
    "n0_frac": ConfigKey(float, "dispersion start fraction", "--n0-frac", into="dispersion"),
    "allow_degenerate": ConfigKey(parse_bool, "run despite degeneracy", "--allow-degenerate"),
    "threads": ConfigKey(int, "worker threads over grid points", "--threads"),
}


def read_config_pairs(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` file with # comments; unknown keys rejected."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            valid = ", ".join(sorted(CONFIG_KEYS))
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; valid keys: {valid}")
        pairs[key] = value
    return pairs


def _param_grid(param_values=None, param_scale: str = "log", **bounds) -> np.ndarray | None:
    """The sweep grid from explicit values or from min/max/points and a scale;
    None when no grid key is given."""
    if param_values is not None:
        return param_values
    if not bounds:
        return None
    missing = sorted({"param_min", "param_max", "param_points"} - set(bounds))
    if missing:
        raise ConfigError(f"incomplete grid settings; missing: {', '.join(missing)}")
    lo, hi, n = bounds["param_min"], bounds["param_max"], bounds["param_points"]
    if param_scale == "log":
        if lo <= 0:
            raise ConfigError("log grids need param_min > 0")
        return np.geomspace(lo, hi, n)
    if param_scale == "linear":
        return np.linspace(lo, hi, n)
    raise ConfigError(f"param_scale must be 'log' or 'linear', got {param_scale!r}")


def build_sweep_config(pairs: dict[str, str]) -> SweepConfig:
    """Construct and validate a SweepConfig from parsed key/value pairs."""
    if "model" not in pairs:
        raise ConfigError("config is missing required key: model")
    parts: dict[str | None, dict[str, Any]] = defaultdict(dict)
    for key, text in pairs.items():
        spec = CONFIG_KEYS[key]
        if spec.model not in (None, pairs["model"]):
            raise ConfigError(f"key {key} applies to the {spec.model} model, not {pairs['model']}")
        try:
            parts[spec.into][key] = spec.parse(text)
        except ValueError as exc:
            raise ConfigError(f"key {key}: {exc}") from exc
    fields = parts[None]
    try:
        return SweepConfig(
            **fields,
            param_grid=_param_grid(**parts["param_grid"]),
            families=parse_families(fields["model"], **parts["families"]),
            dispersion=DispersionConfig(**parts["dispersion"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path: str | Path) -> SweepConfig:
    """Read a flat config file into a validated SweepConfig."""
    return build_sweep_config(read_config_pairs(path))


def _meta_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _group_lines(group: str, cfg: SweepConfig) -> list[str]:
    if group == "param_grid":
        return [f"param_grid = {','.join(_fmt(p) for p in cfg.param_grid)}"]
    return [
        f"families = {','.join(f.label for f in cfg.families)}",
        f"family_counts = {','.join(str(getattr(f, 'count', 1)) for f in cfg.families)}",
    ]


def config_summary(cfg: SweepConfig) -> str:
    """Deterministic textual record of every resolved configuration value.

    ``family_counts`` gives each family's member count; families with one
    state per realization count 1.
    """
    lines: list[str] = []
    groups_done = set()
    for key, spec in CONFIG_KEYS.items():
        if spec.model not in (None, cfg.model):
            continue
        if spec.into in (None, "dispersion"):
            holder = cfg if spec.into is None else cfg.dispersion
            lines.append(f"{key} = {_meta_value(getattr(holder, key))}")
        elif spec.into not in groups_done:
            groups_done.add(spec.into)
            lines += _group_lines(spec.into, cfg)
    return "\n".join(lines) + "\n"
