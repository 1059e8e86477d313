"""The benchmark's workloads: CLI invocations, expected outputs, Krylov-run counts.

Every workload is one or more ``kchaos.cli.main`` calls, run with
``--threads 1`` and the benchmark's seed as the program's master seed.  The
sizes are cut down from the README commands so that one call takes a few
seconds and a measured run holds several calls; README.md in this directory
gives the reason for each choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Seed whose outputs are committed under reference/.
REFERENCE_SEED = 0

ISING_FAMILIES = "all_up,eig_ref@4,eig_ref@0,random,uniform"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``commands`` are CLI argv lists without ``--seed``/``--out``; they run in
    order inside one child process and together form one call.  ``members``
    is the number of Krylov runs one call makes, ``outputs`` the number of
    checked outputs (grid points, deltas, fits) it produces.
    """

    name: str
    commands: tuple[tuple[str, ...], ...]
    members: int
    sweep_grid: tuple[float, ...] = ()
    bound_deltas: tuple[float, ...] = ()
    scaling_check: bool = False

    @property
    def outputs(self) -> int:
        return len(self.sweep_grid) + len(self.bound_deltas) + int(self.scaling_check)

    def argvs(self, seed: int, out_dir: str) -> list[list[str]]:
        return [[*cmd, "--seed", str(seed), "--out", out_dir] for cmd in self.commands]


def _grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    # the CLI's log grid, np.geomspace over [lo, hi]
    return tuple(float(x) for x in np.geomspace(lo, hi, n))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ising-sweep-n10",
            commands=(
                (
                    "ising-sweep", "--n-spins", "10", "--families", ISING_FAMILIES,
                    "--eigen-count", "4", "--random-count", "4",
                    "--hz-min", "0.5", "--hz-max", "2", "--hz-points", "2",
                    "--threads", "1",
                ),
            ),
            # per point: all_up 1 + eig4 4 + eig0 4 + random 4 + uniform 1
            members=2 * 14,
            sweep_grid=_grid(0.5, 2.0, 2),
        ),
        Workload(
            name="ising-eta-n12",
            commands=(
                (
                    "ising-sweep", "--n-spins", "8", "--n-eta", "12",
                    "--families", "all_up,uniform",
                    "--hz-min", "0.5", "--hz-max", "2", "--hz-points", "2",
                    "--threads", "1",
                ),
            ),
            members=2 * 2,
            sweep_grid=_grid(0.5, 2.0, 2),
        ),
        Workload(
            name="banded-sweep-d256",
            commands=(
                (
                    "banded-sweep", "--dim", "256", "--bandwidth-frac", "0.2",
                    "--realizations", "5",
                    "--k-min", "5e-4", "--k-max", "1", "--k-points", "6",
                    "--threads", "1",
                ),
            ),
            # per point: border 5 (one per realization) + eig 20 + random 10 + uniform 5
            members=6 * 40,
            sweep_grid=_grid(5e-4, 1.0, 6),
        ),
        Workload(
            name="bound-banded-d1024",
            commands=(
                (
                    "bound-sweep", "--model", "banded", "--dim", "1024",
                    "--k", "0.125", "--j", "10", "--delta-points", "3",
                ),
                ("scaling-check", "--dim", "256"),
            ),
            # 3 bound-sweep deltas + the scaling check's 6 deltas
            members=3 + 6,
            bound_deltas=_grid(0.01, 0.5, 3),
            scaling_check=True,
        ),
    )
}
