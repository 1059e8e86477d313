"""kchaos benchmark: end-to-end and per-layer timings of the CLI workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ising-sweep-n10 --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

Each call of a workload runs ``kchaos.cli.main`` in a fresh child process,
one child at a time, with BLAS pinned to one thread.  A run starts with
set-up-only children (the first is a discarded warm-up), then makes calls
until ``--seconds`` have passed.  Every call's outputs go through the
correctness gate in check.py.

``--trace 0`` reports the end-to-end metrics, each the median over the run's
calls.  ``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics of the traced ones (see tracing.py), plus the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result, with
the machine and library versions, is written under ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from check import CheckResult, check_call
from tracing import layer_summary
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_CHILDREN = 5
# a run launches nothing after this and kills a child that is still running
# then, so it ends inside 180 s even when the program hangs
DEADLINE_S = 150
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# per-layer metric names for each layer's self time and call count
LAYER_TIME_METRIC = {
    "hamiltonians.build": "hamiltonians.build_s",
    "hamiltonians.project": "hamiltonians.project_s",
    "hamiltonians.eigh": "hamiltonians.eigh_s",
    "states": "states.s",
    "krylov.lanczos": "krylov.lanczos_s",
    "krylov.saturation": "krylov.saturation_s",
    "measures": "measures.s",
    "perturbation": "perturbation.self_s",
    "sweeps": "sweeps.self_s",
    "io": "io.write_s",
    "cli": "cli.self_s",
}
LAYER_CALLS_METRIC = {
    "hamiltonians.build": "hamiltonians.build_calls",
    "hamiltonians.project": "hamiltonians.project_calls",
    "hamiltonians.eigh": "hamiltonians.eigh_calls",
    "states": "states.calls",
    "krylov.lanczos": "krylov.lanczos_calls",
    "krylov.saturation": "krylov.saturation_calls",
    "measures": "measures.calls",
}


@dataclass
class Call:
    """One child process: its mode, timings, result file and gate verdict."""

    mode: str
    setup_s: float | None
    result: dict
    check: CheckResult | None
    error: str | None


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(wl: Workload, seed: int, mode: str, index: int, deadline: float) -> Call:
    out = OUT / "tmp" / f"{os.getpid()}-{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [
        sys.executable, str(ROOT / "bench" / "child.py"), "--workload", wl.name,
        "--seed", str(seed), "--out", str(out), "--mode", mode,
    ]
    error = None
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=_child_env(), capture_output=True, text=True, timeout=deadline - t_spawn
        )
        if proc.returncode != 0:
            error = f"child exited with {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        error = f"child killed at the run's {DEADLINE_S} s deadline"
    try:
        result = json.loads((out / "result.json").read_text())
    except (OSError, ValueError):
        result = {}
    setup_s = result["t_ready"] - t_spawn if "t_ready" in result else None
    check = None
    if mode != "setup":
        codes = result.get("exit_codes")
        if error is None and codes != [0] * len(wl.commands):
            error = f"kchaos exit codes {codes}"
        check = check_call(wl, out / "cli", seed, finished=error is None)
    shutil.rmtree(out, ignore_errors=True)
    return Call(mode=mode, setup_s=setup_s, result=result, check=check, error=error)


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> list[Call]:
    """Set-up-only children, then calls while the next one fits in ``seconds``.

    The next call is assumed to take as long as the last one; every mode
    gets at least one call unless the deadline has passed.
    """
    deadline = time.monotonic() + DEADLINE_S
    index = itertools.count()
    calls = [
        run_child(wl, seed, "setup", next(index), deadline) for _ in range(SETUP_CHILDREN + 1)
    ][1:]
    modes = ("run", "trace") if trace else ("run",)
    start = last = time.monotonic()
    for n in itertools.count():
        now = time.monotonic()
        if now >= deadline or (n >= len(modes) and now + (now - last) - start > seconds):
            break
        last = now
        calls.append(run_child(wl, seed, modes[n % len(modes)], next(index), deadline))
    return calls


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(wl: Workload, calls: list[Call], attempted: int, failed: int) -> dict:
    runs = [c.result for c in calls if c.mode == "run" and "run_s" in c.result]
    run_s = [r["run_s"] for r in runs]
    return {
        "run_s": (_median(run_s), "s"),
        "members_per_s": (_median([wl.members / t for t in run_s]), "1/s"),
        "setup_s": (_median([c.setup_s for c in calls if c.setup_s is not None]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mib"] for r in runs]), "MiB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }


def per_layer(wl: Workload, calls: list[Call]) -> dict:
    untraced = [c.result["run_s"] for c in calls if c.mode == "run" and "run_s" in c.result]
    traced = [c for c in calls if c.mode == "trace" and "spans" in c.result]
    summaries = [layer_summary(c.result["spans"]) for c in traced]
    run_s = [c.result["run_s"] for c in traced]

    def med(get) -> float:
        return _median([get(s) for s in summaries])

    metrics = {}
    for layer, name in LAYER_TIME_METRIC.items():
        metrics[name] = (med(lambda s: s["self_s"][layer]), "s")
    for layer, name in LAYER_CALLS_METRIC.items():
        metrics[name] = (med(lambda s: s["calls"][layer]), "count")
    lanczos_ms = [ms for s in summaries for ms in s["lanczos_ms"]]
    deciles = statistics.quantiles(lanczos_ms, n=10) if len(lanczos_ms) >= 2 else [0.0] * 9
    points = _median([c.check.points for c in traced])
    metrics.update(
        {
            "hamiltonians.build_bytes": (med(lambda s: s["build_bytes"]), "bytes"),
            "krylov.lanczos_steps": (med(lambda s: s["lanczos_steps"]), "count"),
            "krylov.lanczos_halted": (med(lambda s: s["lanczos_halted"]), "count"),
            "krylov.lanczos_gflop": (med(lambda s: s["lanczos_gflop"]), "GFLOP"),
            "krylov.lanczos_ms_p50": (_median(lanczos_ms) if lanczos_ms else 0.0, "ms"),
            "krylov.lanczos_ms_p90": (deciles[8], "ms"),
            "krylov.lanczos_ms_samples": (len(lanczos_ms), "count"),
            "krylov.lanczos_pct": (
                _median([100 * s["self_s"]["krylov.lanczos"] / t for s, t in zip(summaries, run_s)]),
                "%",
            ),
            "sweeps.points": (points, "count"),
            "sweeps.points_skipped": (len(wl.sweep_grid) - points, "count"),
            "sweeps.members": (med(lambda s: s["sweep_members"]), "count"),
            "io.bytes_written": (_median([c.result["bytes_written"] for c in traced]), "bytes"),
            "trace.run_s": (_median(run_s), "s"),
            "trace.calls": (len(traced), "count"),
            "trace.overhead_pct": (100 * (_median(run_s) / _median(untraced) - 1), "%"),
            "trace.accounted_pct": (
                _median([100 * s["accounted_s"] / t for s, t in zip(summaries, run_s)]),
                "%",
            ),
        }
    )
    return metrics


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(calls: list[Call]) -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": sorted({c.result["blas_threads"] for c in calls if c.result.get("blas_threads")}),
        "blas_pin": BLAS_PIN,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int, bool]:
    """Measure one workload, print its metrics and write its result file.

    Returns the metrics, the outputs attempted and failed, and whether every
    child process, set-up-only ones included, ended cleanly.
    """
    calls = measure(wl, seed, seconds, trace)
    measured = [c for c in calls if c.mode != "setup"]
    attempted = sum(c.check.attempted for c in measured)
    failures = [f for c in measured for f in c.check.failures]
    errors = [c.error for c in calls if c.error]
    untraced_ok = any(c.mode == "run" and "run_s" in c.result for c in calls)
    traced_ok = not trace or any("spans" in c.result for c in calls)
    if not (untraced_ok and traced_ok and any(c.setup_s is not None for c in calls)):
        raise RuntimeError(f"{wl.name}: no call finished; first error: {errors[:1]}")
    # an absent layer has no spans, so its metrics read 0
    absent = sorted({a for c in measured for a in c.result.get("absent_layers", ())})
    metrics = per_layer(wl, calls) if trace else end_to_end(wl, calls, attempted, len(failures))

    counts = {mode: sum(c.mode == mode for c in calls) for mode in ("setup", "run", "trace")}
    print(
        f"{wl.name} seed={seed} trace={int(trace)}: {counts['run']} untraced, "
        f"{counts['trace']} traced and {counts['setup']} set-up-only calls; "
        f"medians over calls, set-up over all {sum(c.setup_s is not None for c in calls)} children"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':28s} {len(failures) / attempted:14.6g} ({len(failures)}/{attempted} outputs)")
    for message in (failures + errors)[:10]:
        print(f"  FAIL {message}")
    if absent:
        print(f"  absent layers (reported as 0): {', '.join(absent)}")

    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(calls),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failures": failures,
        "errors": errors,
        "absent_layers": absent,
        "calls": [
            {"mode": c.mode, "setup_s": c.setup_s, **{k: v for k, v in c.result.items() if k != "spans"}}
            for c in calls
        ],
        "spans": [c.result["spans"] for c in calls if "spans" in c.result],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{wl.name}_seed{seed}_trace{int(trace)}_{stamp}_{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    return metrics, attempted, len(failures), not errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kchaos" / "__init__.py").is_file():
        print(f"no kchaos package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_metrics, attempted, failed, clean = {}, 0, 0, True
    try:
        for name in names:
            metrics, n_attempted, n_failed, n_clean = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
            )
            clean = clean and n_clean
            prefix = f"{name}." if len(names) > 1 else ""
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
            attempted += n_attempted
            failed += n_failed
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    summary = {
        "correct": failed == 0 and clean,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in all_metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
