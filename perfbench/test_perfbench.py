"""Self-test of the benchmark: seeded inputs repeat exactly, failures are
counted without stopping the run, and the traced run's composed IFU phases
reproduce ``ifu_solve``.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mkfree import pipeline  # noqa: E402
from mkfree.errors import NumericalError  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402
from spans import (LAYER_METRICS, Tracer, instrumented,  # noqa: E402
                   layer_metrics)


def _stream(seed):
    """Inputs of one cycle of each workload, as plain lists."""
    out = []
    for w in (workloads.LocalEdits(), workloads.LargeRedesign()):
        state = workloads.Baselined(gen.plate(*w.size), base=None)
        rng = np.random.default_rng([seed, 1])
        out.append([(op.label, sorted(op.payload.removed_ids),
                     op.payload.added_ids, op.payload.added_coords.tolist())
                    for op in w.cycle(state, rng)])
    clouds = workloads.ColdSolve().setup(seed).models
    out.append({k: (m.cloud.ids.tolist(), m.cloud.coords.tolist())
                for k, m in clouds.items()})
    return out


def test_same_seed_gives_identical_inputs():
    assert _stream(7) == _stream(7)
    assert _stream(7) != _stream(8)


def test_edits_respect_the_workload_definition():
    w = workloads.LocalEdits()
    state = workloads.Baselined(gen.plate(*w.size), base=None)
    cloud = state.model.cloud
    rng = np.random.default_rng(3)
    for _ in range(2):
        for op, (kind, size) in zip(w.cycle(state, rng), w.schedule):
            mod = op.payload
            if kind == "remove":
                assert len(mod.removed_ids) == size and not mod.added_ids
                coords = cloud.coords[np.isin(cloud.ids,
                                              list(mod.removed_ids))]
            else:
                assert len(mod.added_ids) == size and not mod.removed_ids
                assert min(mod.added_ids) > cloud.ids.max()
                coords = mod.added_coords
            assert np.all(coords[:, 0] >= gen.EDGE_CLEARANCE)
            assert np.all(coords[:, 0] <= 47 - gen.EDGE_CLEARANCE)
    w = workloads.LargeRedesign()
    state = workloads.Baselined(gen.plate(*w.size), base=None)
    n = state.model.cloud.n_nodes
    for op, f in zip(w.cycle(state, rng), w.fractions):
        assert abs(len(op.payload.removed_ids) / n - f) < 0.02


def test_forced_failures_are_counted_and_the_run_continues(monkeypatch):
    real = pipeline.run_ifu
    calls = []

    def flaky(case, tol=None):
        calls.append(1)
        if len(calls) == 1:
            raise NumericalError("forced failure")
        return real(case, tol)

    monkeypatch.setattr(pipeline, "run_ifu", flaky)
    out = workloads.run(workloads.LocalEdits(16, 10), seed=1, seconds=0.0,
                        setups=1)
    assert out.attempted == len(workloads.LocalEdits.schedule)
    assert out.failed == 1
    assert "forced failure" in out.failures[0]
    assert len(out.descriptors) == out.attempted - 1

    monkeypatch.setattr(pipeline, "run_ifu", real)
    monkeypatch.setattr(workloads, "IFU_E_U_MAX_PCT", -1.0)
    out = workloads.run(workloads.LocalEdits(16, 10), seed=1, seconds=0.0,
                        setups=1)
    assert out.failed == out.attempted
    assert all("CheckFailed" in f for f in out.failures)


def test_traced_run_composes_ifu_and_reports_every_layer():
    tracer = Tracer()
    with instrumented(tracer):
        out = workloads.run(workloads.LargeRedesign(28, 16), seed=2,
                            seconds=0.0, setups=1, tracer=tracer)
    assert out.failed == 0, out.failures     # includes the composition check
    assert pipeline.run_ifu.__name__ == "run_ifu"
    assert not hasattr(pipeline.run_ifu, "__wrapped__")
    layers = layer_metrics(tracer, out.values)
    assert set(layers) == set(LAYER_METRICS)
    for name in ("ifu.smw_s", "ifu.n_d", "ca.basis_s", "update.screen_s",
                 "pipeline.prepare_rest_s", "solver.factor_mb",
                 "interp.select_support_us", "recovery.fields_s"):
        assert layers[name] > 0.0, name
    roots = {s[1] for s in tracer.spans}
    assert len(roots) == 1 + out.attempted
    assert all(s >= -1e-9 for s in tracer.self_times())
