"""Regenerate the committed reference outputs for ``REFERENCE_SEED``.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py

Runs each workload once through ``kchaos.cli.main`` and keeps its CSV files
under ``bench/reference/<workload>/``.  Only rerun it when a change to the
program is meant to change its results, and say so in CHANGES.md.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import kchaos.cli

from check import REFERENCE_DIR
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    for wl in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp:
            for argv in wl.argvs(REFERENCE_SEED, tmp):
                if kchaos.cli.main(argv) != 0:
                    return 1
            target = REFERENCE_DIR / wl.name
            target.mkdir(parents=True, exist_ok=True)
            for csv in sorted(Path(tmp).glob("*.csv")):
                shutil.copy(csv, target / csv.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
