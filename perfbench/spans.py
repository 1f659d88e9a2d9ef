"""Span recorder for the traced benchmark run.

The package has no tracing of its own yet, so the traced run wraps the
public functions of each timed module (``interp``, ``assembly``,
``solver``, ``update``, ``pipeline``, ``ifu``, ``ca``, ``recovery``) at
run time.  Every ``mkfree`` module's reference to a wrapped function is
replaced, so calls between modules are timed too.  Spans are recorded only
while a root span (one set-up or one timed operation) is open; spans of one
root share its id.  Nothing is recorded when no tracer is installed, and
the untraced run never installs one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, function) pairs the traced run wraps: the public entry points of
# each timed layer.  ``model``, ``cli``, ``demos``, ``config`` and
# ``errors`` are not timed.
TRACED = {
    "interp": ("select_support", "build_system", "shape_functions"),
    "assembly": ("assemble_stiffness", "assemble_load", "apply_bcs"),
    "solver": ("factorize", "solve"),
    "update": ("build_influence_domain", "compute_delta", "local_delta",
               "global_update"),
    "pipeline": ("full_analysis", "prepare_modified", "run_ca", "run_ifu",
                 "run_full_modified"),
    "ifu": ("residual", "measurement", "unbalanced_set", "constrain_factor",
            "constraint_rhs", "fundamental_solutions", "reduce_unbalanced",
            "ifu_solve"),
    "ca": ("build_basis", "reduce_and_solve", "combine", "ca_solve"),
    "recovery": ("recover_fields",),
}

# functions whose tracemalloc peak is recorded (as "<span>:mb")
MEMORY = {"solver.factorize", "ifu.constrain_factor"}


class Tracer:
    """In-memory spans: (name, root id, parent index, start, end)."""

    def __init__(self):
        self.spans: list[list] = []
        self.values: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._root: int | None = None
        self._n_roots = 0

    @property
    def active(self) -> bool:
        return self._root is not None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._root, parent, time.perf_counter(),
                           None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int):
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """One set-up or one timed operation; all spans inside share its id."""
        self._root = self._n_roots
        self._n_roots += 1
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self._root = None

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, inside the current root."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def record(self, name: str, value: float):
        self.values[name].append(float(value))

    # -- analysis ----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover (children
        never overlap: the benchmark runs one caller on one thread)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[2] >= 0:
                child[s[2]] += s[4] - s[3]
        return [s[4] - s[3] - c for s, c in zip(self.spans, child)]

    def descendant_total(self, name: str, inner: set[str]) -> list[float]:
        """For each span ``name``: its duration minus the durations of the
        ``inner`` spans nested anywhere below it."""
        below = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s[0] in inner:
                p = s[2]
                while p >= 0:
                    if self.spans[p][0] == name:
                        below[p] += s[4] - s[3]
                        break
                    p = self.spans[p][2]
        return [s[4] - s[3] - below[i] for i, s in enumerate(self.spans)
                if s[0] == name]

    def dump(self, path):
        """Write every span with its self time as JSON."""
        selfs = self.self_times()
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [[s[0], s[1], s[2], round(s[3] - t0, 9), round(s[4] - t0, 9),
                 round(st, 9)] for s, st in zip(self.spans, selfs)]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "root", "parent", "start_s",
                                   "end_s", "self_s"],
                       "spans": rows,
                       "values": dict(self.values)}, fh)


def half_bandwidth(K) -> int:
    """Largest |row - col| over the stored entries of a sparse matrix."""
    coo = K.tocoo()
    return int(np.max(np.abs(coo.row - coo.col), initial=0))


def _record_result(tracer: Tracer, name: str, args, out):
    """Counters taken from a traced call's arguments and result."""
    if name == "interp.select_support":
        tracer.record("interp.support_nodes", out.n)
    elif name == "assembly.assemble_stiffness":
        grid = args[1]
        tracer.record("assembly.gauss_points",
                      int(np.prod(grid.counts)) * 2 ** grid.dim)
        tracer.record("assembly.nnz", out.K.nnz)
    elif name == "solver.factorize":
        tracer.record("solver.dofs", out.n)
        tracer.record("solver.half_bandwidth", half_bandwidth(args[0].K))
    elif name == "update.build_influence_domain":
        tracer.record("update.gauss_screened", out.n_gauss_total)
        tracer.record("update.gauss_affected", len(out.affected_gauss))
        tracer.record("update.affected_ratio",
                      len(out.affected_gauss) / out.n_gauss_total)
    elif name == "recovery.recover_fields":
        tracer.record("recovery.nodes", len(out.node_ids))


def _wrap(tracer: Tracer, fn, name: str):
    memory = name in MEMORY

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        if memory:
            tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
        finally:
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            tracer.close(idx)
        if memory:
            tracer.record(name + ":mb", peak / 2 ** 20)
        _record_result(tracer, name, args, out)
        return out

    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every function in TRACED for the duration of the block, in every
    loaded ``mkfree`` module that references it; restore them afterwards."""
    import mkfree  # noqa: F401  (loads every submodule)

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "mkfree" or n.startswith("mkfree."))]
    wrappers = {}
    for short, names in TRACED.items():
        mod = sys.modules[f"mkfree.{short}"]
        for fname in names:
            fn = getattr(mod, fname)
            wrappers[id(fn)] = (fn, _wrap(tracer, fn, f"{short}.{fname}"))
    patched = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))
    try:
        yield tracer
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


# Per-layer metric -> how it is taken from the traced run.  "span": median
# duration of the named spans, times the scale; "value": median of the
# recorded figure; "rest": median of prepare_modified's duration minus the
# screen and re-integration nested in it.  A layer that does not run in a
# workload reports 0.
LAYER_METRICS = {
    "interp.select_support_us": ("span", "interp.select_support", 1e6),
    "interp.build_system_us": ("span", "interp.build_system", 1e6),
    "interp.shape_functions_us": ("span", "interp.shape_functions", 1e6),
    "interp.support_nodes": ("value", "interp.support_nodes", 1),
    "assembly.stiffness_s": ("span", "assembly.assemble_stiffness", 1),
    "assembly.load_s": ("span", "assembly.assemble_load", 1),
    "assembly.bcs_s": ("span", "assembly.apply_bcs", 1),
    "assembly.gauss_points": ("value", "assembly.gauss_points", 1),
    "assembly.nnz": ("value", "assembly.nnz", 1),
    "solver.factorize_s": ("span", "solver.factorize", 1),
    "solver.solve_s": ("span", "solver.solve", 1),
    "solver.factor_mb": ("value", "solver.factorize:mb", 1),
    "solver.dofs": ("value", "solver.dofs", 1),
    "solver.half_bandwidth": ("value", "solver.half_bandwidth", 1),
    "update.screen_s": ("span", "update.build_influence_domain", 1),
    "update.delta_s": ("span", "update.compute_delta", 1),
    "update.gauss_screened": ("value", "update.gauss_screened", 1),
    "update.gauss_affected": ("value", "update.gauss_affected", 1),
    "update.affected_ratio": ("value", "update.affected_ratio", 1),
    "pipeline.full_analysis_s": ("span", "pipeline.full_analysis", 1),
    "pipeline.prepare_s": ("span", "pipeline.prepare_modified", 1),
    "pipeline.prepare_rest_s": ("rest", "pipeline.prepare_modified", 1),
    "ifu.measure_s": ("span", "ifu.measure", 1),
    "ifu.constrain_s": ("span", "ifu.constrain", 1),
    "ifu.constrain_mb": ("value", "ifu.constrain_factor:mb", 1),
    "ifu.rhs_s": ("span", "ifu.rhs", 1),
    "ifu.smw_s": ("span", "ifu.smw", 1),
    "ifu.reduce_s": ("span", "ifu.reduce", 1),
    "ifu.verify_s": ("span", "ifu.verify", 1),
    "ifu.n_d": ("value", "ifu.n_d", 1),
    "ifu.fund_residual": ("value", "ifu.fund_residual", 1),
    "ifu.solve_residual": ("value", "ifu.solve_residual", 1),
    "ca.basis_s": ("span", "ca.build_basis", 1),
    "ca.reduce_s": ("span", "ca.reduce_and_solve", 1),
    "ca.rank": ("value", "ca.rank", 1),
    "ca.residual": ("value", "ca.residual", 1),
    "ca.E_u_pct": ("value", "ca.E_u_pct", 1),
    "recovery.fields_s": ("span", "recovery.recover_fields", 1),
    "recovery.nodes": ("value", "recovery.nodes", 1),
}

_PREPARE_INNER = {"update.build_influence_domain", "update.compute_delta"}


def layer_metrics(tracer: Tracer, values: dict) -> dict:
    """Every LAYER_METRICS entry from the tracer's spans and values plus the
    benchmark's own recorded ``values``."""
    merged = {**tracer.values, **values}
    out = {}
    for metric, (how, key, scale) in LAYER_METRICS.items():
        if how == "span":
            xs = tracer.durations(key)
        elif how == "rest":
            xs = tracer.descendant_total(key, _PREPARE_INNER)
        else:
            xs = merged.get(key, [])
        out[metric] = float(np.median(xs)) * scale if len(xs) else 0.0
    return out
