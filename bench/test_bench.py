"""Self-test of the benchmark.

    python3 -m pytest -q bench/test_bench.py

Runs every workload for its shortest run (about two minutes in all): the
work counts of the traced run repeat exactly at one seed, a second seed
passes the correctness gate, the gate rejects tampered outputs, and the
benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from check import REFERENCE_DIR, check_call, read_table
from workloads import REFERENCE_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
COUNTS = (
    "krylov.lanczos_steps",
    "krylov.lanczos_gflop",
    "hamiltonians.build_bytes",
    "sweeps.points",
    "sweeps.members",
)


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_exactly(name):
    first = _result(_run(name, REFERENCE_SEED, 1))
    second = _result(_run(name, REFERENCE_SEED, 1))
    assert first["correct"] and second["correct"]
    for key in COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["krylov.lanczos_calls"]["value"] == WORKLOADS[name].members
    if WORKLOADS[name].sweep_grid:
        assert first["metrics"]["sweeps.members"]["value"] == WORKLOADS[name].members


@pytest.mark.parametrize("name", WORKLOADS)
def test_second_seed_passes_gate(name):
    result = _result(_run(name, REFERENCE_SEED + 1, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def _write_outputs(wl, out: Path, edit=lambda name, header, rows: rows) -> Path:
    """The reference CSVs of ``wl``, passed through ``edit``, written to ``out``."""
    out.mkdir()
    for csv in (REFERENCE_DIR / wl.name).glob("*.csv"):
        header, rows = read_table(csv)
        rows = edit(csv.name, header, rows.copy())
        lines = [",".join(header)] + [",".join(f"{x:.12g}" for x in row) for row in rows]
        (out / csv.name).write_text("\n".join(lines) + "\n")
    return out


def test_gate_accepts_reference_and_rejects_tampering(tmp_path):
    wl = WORKLOADS["ising-sweep-n10"]
    keep = _write_outputs(wl, tmp_path / "keep")
    assert check_call(wl, keep, REFERENCE_SEED, finished=True).failures == []

    def nudge(name, header, rows):
        rows[0, header.index("random_cbar_norm")] *= 1 + 1e-4
        return rows

    res = check_call(wl, _write_outputs(wl, tmp_path / "nudge", nudge), REFERENCE_SEED, True)
    assert len(res.failures) == 1 and "reference" in res.failures[0]

    def break_invariants(name, header, rows):
        rows[0, header.index("uniform_cbar_norm")] = 0.99
        rows[1, header.index("eta")] = np.nan
        return rows

    res = check_call(wl, _write_outputs(wl, tmp_path / "broken", break_invariants), 1, True)
    assert len(res.failures) == 2

    res = check_call(wl, _write_outputs(wl, tmp_path / "skip", lambda n, h, r: r[1:]), 1, True)
    assert res.points == 1 and len(res.failures) == 1

    res = check_call(wl, tmp_path / "missing", 1, finished=True)
    assert len(res.failures) == wl.outputs
    res = check_call(wl, keep, 1, finished=False)
    assert len(res.failures) == wl.outputs


def test_gate_checks_bound_and_slope(tmp_path):
    wl = WORKLOADS["bound-banded-d1024"]

    def violate(name, header, rows):
        if name == "bound_sweep.csv":
            rows[0, header.index("c_bar")] = 2 * rows[0, header.index("bound")]
        else:
            rows[:, header.index("slope")] = 1.9
        return rows

    res = check_call(wl, _write_outputs(wl, tmp_path / "out", violate), 1, True)
    assert len(res.failures) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("ising-eta-n12", REFERENCE_SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
