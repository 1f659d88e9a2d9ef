"""Benchmark entry point; run it from the repository root:

    python3 perfbench/run.py --workload local-edits --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing.  ``--trace 1`` is the separate traced run: it wraps the public
functions of each timed module and reports the per-layer metrics.  Both
print every metric by name and unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full record
of a run (environment, per-operation descriptors, failures, spans) is
written under ``.bench_out/``.  See ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

OUT_DIR = Path(".bench_out")


def _pin_threads() -> tuple[int, int]:
    """Cap the BLAS/OpenMP pools at MESHLESS_THREADS <= nproc; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("MESHLESS_THREADS", "")
    threads = min(nproc, int(asked)) if asked.isdigit() and int(asked) > 0 \
        else nproc
    os.environ["MESHLESS_THREADS"] = str(threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def _warm_up():
    """The first large LAPACK call of a process is bimodal in time (thread
    pool and buffer start-up), so run a few before anything is timed."""
    import numpy as np
    from scipy.linalg import cholesky, solve_triangular

    rng = np.random.default_rng(0)
    A = rng.standard_normal((1500, 1500))
    K = A @ A.T + 1500.0 * np.eye(1500)
    for _ in range(3):
        L = cholesky(K, lower=True)
        solve_triangular(L, A[:, :300], lower=True)


def _environment(nproc: int, threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": nproc, "MESHLESS_THREADS": threads,
            "machine": platform.machine()}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _summary(descriptors: list) -> dict:
    """min / median / max of each numeric per-operation descriptor."""
    keys = sorted({k for d in descriptors for k, v in d.items()
                   if isinstance(v, (int, float))})
    out = {}
    for k in keys:
        xs = [d[k] for d in descriptors if isinstance(d.get(k), (int, float))]
        out[k] = [min(xs), statistics.median(xs), max(xs)]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = Path("BENCHMARK.json")
    if not (Path("src") / "mkfree" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("perfbench: run from the repository root (needs src/mkfree and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    nproc, threads = _pin_threads()
    sys.path.insert(0, str(Path("src").resolve()))
    from spans import Tracer, instrumented, layer_metrics
    from workloads import WORKLOADS, median, run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    env = _environment(nproc, threads)
    _warm_up()

    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    with instrumented(tracer) if tracer else nullcontext():
        out = run(workload, args.seed, args.seconds, tracer)
    wall = time.perf_counter() - t0

    name_a, name_b = workload.metrics
    missing = [m for m in workload.metrics if not out.times.get(m)]
    if missing:
        print(f"perfbench: no successful operation for {missing}; "
              f"failures: {out.failures}", file=sys.stderr)
        return 1
    end_to_end = {
        "setup_s": median(out.setup_s),
        "op_a_s": median(out.times[name_a]),
        "op_b_s": median(out.times[name_b]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    # the same figures under the workload's own names
    named = {"setup_s": (end_to_end["setup_s"], "s", len(out.setup_s)),
             name_a: (end_to_end["op_a_s"], "s", len(out.times[name_a])),
             name_b: (end_to_end["op_b_s"], "s", len(out.times[name_b]))}
    for extra in sorted(set(out.times) - {name_a, name_b}):
        xs = out.times[extra]
        named[extra] = (median(xs), "s", len(xs))
    if out.values.get("ca.E_u_pct"):
        xs = out.values["ca.E_u_pct"]
        named["ca_E_u_pct"] = (median(xs), "%", len(xs))
    named["peak_rss_mb"] = (end_to_end["peak_rss_mb"], "MB", 1)
    named["failed_ratio"] = (out.failed / out.attempted, "ratio",
                             out.attempted)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "wall_s": wall,
              "attempted": out.attempted, "failed": out.failed,
              "failures": out.failures, "setup_samples_s": out.setup_s,
              "op_samples_s": out.times, "end_to_end": end_to_end,
              "named": {k: v[0] for k, v in named.items()},
              "descriptors": out.descriptors,
              "descriptor_summary": _summary(out.descriptors)}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  wall {wall:.1f} s")
    print("environment " + json.dumps(env))
    for name, (value, unit, n) in named.items():
        print(f"  {name:24s} {value:14.6g} {unit:6s} (n={n})")
    for key, (lo, mid, hi) in record["descriptor_summary"].items():
        print(f"  desc {key:19s} min {lo:.6g}  median {mid:.6g}  "
              f"max {hi:.6g}")
    for failure in out.failures:
        print(f"  FAILED {failure}")

    if tracer is None:
        metrics = {m["name"]: {"value": end_to_end[m["name"]],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        layers = layer_metrics(tracer, out.values)
        record["per_layer"] = layers
        untraced = OUT_DIR / f"{stem}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]
            record["tracing_overhead"] = {
                k: end_to_end[k] - base[k] for k in end_to_end}
            for k, v in record["tracing_overhead"].items():
                print(f"  overhead {k:15s} {v:+.6g} (traced - untraced)")
        else:
            print(f"  overhead: no untraced record {untraced} to compare")
        for name, value in layers.items():
            print(f"  layer {name:26s} {value:.6g}")
        tracer.dump(OUT_DIR / f"{stem}-spans.json")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}

    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": out.failed == 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
