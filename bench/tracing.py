"""Span tracing around the calls into each kchaos module.

The program itself is not instrumented.  ``Tracer.install`` replaces public
functions at the places where they are imported (``kchaos.cli``,
``kchaos.sweeps``, ``kchaos.perturbation``) with wrappers that record one span
per call: layer, function, start, end, parent span and a few counts taken
from the arguments or the result.  Spans stay in memory until the child
writes them out.  A layer none of whose functions can be found is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time

# layer -> public functions that belong to it
LAYERS = {
    "hamiltonians.build": ("build_ising_full", "build_banded_random", "build_goe"),
    "hamiltonians.project": ("project_to_sector", "parity_basis"),
    "hamiltonians.eigh": ("eigendecompose",),
    "states": (
        "state_all_up", "state_random", "state_eigenstate", "state_uniform_eigenbasis",
        "state_perturbed", "select_center_states",
    ),
    "krylov.lanczos": ("lanczos_full_orth",),
    "krylov.saturation": ("saturation",),
    "measures": ("eta", "r_ratio_mean", "sigma_moving", "normalize_to_eta"),
    "perturbation": ("run_bound_sweep", "overlap_scaling_check"),
    "sweeps": ("run_ising_sweep", "run_banded_sweep", "postprocess_normalize"),
    "io": ("write_csv", "write_table", "render_svg", "render_line_chart"),
    "cli": ("main",),
}

# Import sites.  ``kchaos.measures`` is wrapped for ``normalize_to_eta`` only:
# the sweeps module imports it inside a function body, from that module.
SITES = {
    "kchaos.cli": None,
    "kchaos.sweeps": None,
    "kchaos.perturbation": None,
    "kchaos.measures": ("normalize_to_eta",),
}


def _dense_dim(args, kwargs, result) -> dict:
    return {"dim": int(result.dim)}


def _krylov_dims(args, kwargs, result) -> dict:
    return {"dim": int(args[0].dim), "k": int(result.krylov_dim)}


# function -> counts recorded on its span
ATTRS = {
    "build_ising_full": _dense_dim,
    "build_banded_random": _dense_dim,
    "build_goe": _dense_dim,
    "lanczos_full_orth": _krylov_dims,
}


class Tracer:
    """In-memory span recorder; one instance per traced child process."""

    def __init__(self) -> None:
        # each span: [layer, function, start, end, parent index or None, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.absent_layers: list[str] = []

    def install(self) -> None:
        """Wrap every layer function found at the import sites."""
        found = set()
        for module_name, only in SITES.items():
            module = importlib.import_module(module_name)
            for layer, names in LAYERS.items():
                for name in names:
                    if only is not None and name not in only:
                        continue
                    fn = getattr(module, name, None)
                    if callable(fn):
                        setattr(module, name, self._wrap(layer, name, fn))
                        found.add(layer)
        self.absent_layers = [layer for layer in LAYERS if layer not in found]

    def _wrap(self, layer: str, name: str, fn):
        attrs_fn = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [layer, name, time.perf_counter(), None, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if attrs_fn is not None:
                span[5] = attrs_fn(args, kwargs, result)
            return result

        return traced

    def as_records(self) -> list[dict]:
        return [
            {"layer": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "attrs": s[5]}
            for s in self.spans
        ]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _has_ancestor(spans: list[dict], index: int, layer: str) -> bool:
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["layer"] == layer:
            return True
        parent = spans[parent]["parent"]
    return False


def lanczos_gflop(dim: int, k: int) -> float:
    """Flops of one full-orthogonalization Lanczos run, in GFLOP.

    K dense matvecs cost 2 D^2 K.  The two classical Gram-Schmidt passes
    over n previous vectors cost 2 x (2 D n + 2 D n) at step n, about
    4 D K^2 over the run, and the final Gram-matrix check adds 2 D K^2.
    Lower-order terms are dropped.
    """
    return (2.0 * dim * dim * k + 6.0 * dim * k * k) / 1e9


def layer_summary(spans: list[dict]) -> dict:
    """Per-layer self time, call counts and work counts of one traced call."""
    own = self_times(spans)
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for s, t in zip(spans, own):
        self_s[s["layer"]] += t
        calls[s["layer"]] += 1
    lanczos = [
        (i, s) for i, s in enumerate(spans) if s["layer"] == "krylov.lanczos" and s["attrs"]
    ]
    builds = [s for s in spans if s["layer"] == "hamiltonians.build" and s["attrs"]]
    return {
        "self_s": self_s,
        "calls": calls,
        "build_bytes": sum(8 * s["attrs"]["dim"] ** 2 for s in builds),
        "lanczos_steps": sum(s["attrs"]["k"] for _, s in lanczos),
        "lanczos_halted": sum(s["attrs"]["k"] < s["attrs"]["dim"] for _, s in lanczos),
        "lanczos_gflop": sum(lanczos_gflop(s["attrs"]["dim"], s["attrs"]["k"]) for _, s in lanczos),
        "lanczos_ms": [1e3 * (s["end"] - s["start"]) for _, s in lanczos],
        "sweep_members": sum(_has_ancestor(spans, i, "sweeps") for i, _ in lanczos),
        "accounted_s": sum(own),
    }
