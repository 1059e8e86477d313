"""One benchmark call in a fresh process.

Run by ``run.py``, never by hand:

    python3 bench/child.py --workload NAME --seed N --out DIR --mode setup|run|trace

The process imports ``kchaos`` from the checkout's ``src/``, builds the
workload's argv and notes the moment it is ready (``t_ready``, on the
system-wide monotonic clock, so the parent can subtract its spawn time).  In
``setup`` mode it stops there.  Otherwise it times the workload's
``kchaos.cli.main`` calls, under span tracing in ``trace`` mode, and writes
``DIR/result.json``; the CLI's own files go to ``DIR/cli``.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import kchaos.cli

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    if not Path(kchaos.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"kchaos imported from {kchaos.cli.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload]
    cli_dir = args.out / "cli"
    argvs = workload.argvs(args.seed, str(cli_dir))
    t_ready = time.monotonic()
    result = {"t_ready": t_ready}

    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        result["exit_codes"] = [kchaos.cli.main(argv) for argv in argvs]
        result["run_s"] = time.perf_counter() - t0
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["bytes_written"] = sum(p.stat().st_size for p in cli_dir.rglob("*") if p.is_file())
        result["blas_threads"] = _blas_threads()
        if tracer is not None:
            result["spans"] = tracer.as_records()
            result["absent_layers"] = tracer.absent_layers

    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
