"""Correctness gate for one workload call.

Every seed is checked against invariants that hold whatever the seed:
expected grid points present, saturation of the uniform state exactly 1,
values finite (NaN allowed only in the inverse-dispersion columns, which the
program fills with NaN for halted Krylov members), the saturation bound
holding at the smallest delta, and a scaling-check median slope of 2 +- 0.05.
For ``REFERENCE_SEED`` the CSV values are also compared with the outputs
committed under ``reference/``.  The tolerance admits a different but correct
Lanczos path, which changes the last digits of the Lanczos coefficients.

Each grid point, delta and the scaling fit is one checked output; a call
that did not finish fails all of its outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import REFERENCE_SEED, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# value vs reference: |x - ref| <= RTOL * |ref| + ATOL
RTOL = 1e-6
ATOL = 1e-10
UNIFORM_TOL = 1e-9
SLOPE_TOL = 0.05


@dataclass
class CheckResult:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    points: int = 0  # sweep grid points present in the output


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="ascii").splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:] if ln])
    return header, rows.reshape(-1, len(header))


def _close(values: np.ndarray, ref: np.ndarray) -> bool:
    same_nan = np.array_equal(np.isnan(values), np.isnan(ref))
    ok = np.isnan(ref) | (np.abs(values - ref) <= RTOL * np.abs(ref) + ATOL)
    return bool(same_nan and ok.all())


def _find_row(rows: np.ndarray, x: float) -> int | None:
    hits = np.nonzero(np.abs(rows[:, 0] - x) <= 1e-9 * abs(x))[0] if rows.size else []
    return int(hits[0]) if len(hits) else None


def _reference(workload: Workload, filename: str) -> tuple[list[str], np.ndarray]:
    return read_table(REFERENCE_DIR / workload.name / filename)


def _check_sweep(wl: Workload, cli_dir: Path, use_ref: bool, res: CheckResult) -> None:
    filename = wl.commands[0][0].replace("-", "_") + ".csv"
    header, rows = read_table(cli_dir / filename)
    nan_ok = np.array(["_inv_sigma_" in col for col in header])
    uniform = header.index("uniform_cbar_norm")
    if use_ref:
        ref_header, ref_rows = _reference(wl, filename)
        if ref_header != header:
            raise ValueError("header differs from the reference")
    for param in wl.sweep_grid:
        i = _find_row(rows, param)
        if i is None:
            res.failures.append(f"{filename}: grid point {param:g} missing")
            continue
        res.points += 1
        row = rows[i]
        reasons = []
        if np.isinf(row).any() or np.isnan(row[~nan_ok]).any():
            reasons.append("non-finite value outside the dispersion columns")
        if abs(row[uniform] - 1.0) > UNIFORM_TOL:
            reasons.append(f"uniform_cbar_norm = {row[uniform]!r}")
        if use_ref:
            j = _find_row(ref_rows, param)
            if j is None or not _close(row, ref_rows[j]):
                reasons.append("differs from the reference")
        if reasons:
            res.failures.append(f"{filename} at {param:g}: " + "; ".join(reasons))


def _check_bound(wl: Workload, cli_dir: Path, use_ref: bool, res: CheckResult) -> None:
    header, rows = read_table(cli_dir / "bound_sweep.csv")
    if use_ref:
        ref_rows = _reference(wl, "bound_sweep.csv")[1]
    c_bar, bound = header.index("c_bar"), header.index("bound")
    for n, delta in enumerate(wl.bound_deltas):
        i = _find_row(rows, delta)
        if i is None:
            res.failures.append(f"bound_sweep.csv: delta {delta:g} missing")
            continue
        row = rows[i]
        reasons = []
        if not np.isfinite(row).all():
            reasons.append("non-finite value")
        if n == 0 and not row[c_bar] <= row[bound]:
            reasons.append(f"bound fails at the smallest delta: {row[c_bar]!r} > {row[bound]!r}")
        if use_ref:
            j = _find_row(ref_rows, delta)
            if j is None or not _close(row, ref_rows[j]):
                reasons.append("differs from the reference")
        if reasons:
            res.failures.append(f"bound_sweep.csv at delta {delta:g}: " + "; ".join(reasons))


def _fit_summary(header: list[str], rows: np.ndarray) -> np.ndarray:
    """Median slope and sum of f_n over the sites that were fitted."""
    slopes = rows[:, header.index("slope")]
    f_n = rows[:, header.index("f_n")]
    good = np.isfinite(slopes)
    return np.array([np.median(slopes[good]) if good.any() else np.nan, f_n[good].sum()])


def _check_scaling(wl: Workload, cli_dir: Path, use_ref: bool, res: CheckResult) -> None:
    summary = _fit_summary(*read_table(cli_dir / "scaling_check.csv"))
    reasons = []
    if not abs(summary[0] - 2.0) <= SLOPE_TOL:
        reasons.append(f"median slope {summary[0]!r} outside 2 +- {SLOPE_TOL}")
    if use_ref and not _close(summary, _fit_summary(*_reference(wl, "scaling_check.csv"))):
        reasons.append("median slope or sum f_n differs from the reference")
    if reasons:
        res.failures.append("scaling_check.csv: " + "; ".join(reasons))


def check_call(wl: Workload, cli_dir: Path, seed: int, finished: bool) -> CheckResult:
    """Check the outputs one call wrote to ``cli_dir``."""
    res = CheckResult(attempted=wl.outputs)
    if not finished:
        res.failures = [f"call did not finish; {wl.outputs} outputs lost"] * wl.outputs
        return res
    use_ref = seed == REFERENCE_SEED
    checks = (
        (_check_sweep, len(wl.sweep_grid)),
        (_check_bound, len(wl.bound_deltas)),
        (_check_scaling, int(wl.scaling_check)),
    )
    for check, n_outputs in checks:
        if not n_outputs:
            continue
        try:
            check(wl, cli_dir, use_ref, res)
        except (OSError, ValueError, IndexError) as exc:
            # an unreadable file fails every output it should hold
            res.failures += [f"{check.__name__}: {exc}"] * n_outputs
    return res
