"""The benchmark workloads.

Each workload is a closed loop: one caller in one process, each operation
starting after the previous one (and its output check) has finished.  A run
sets the workload up several times, then runs whole cycles of a fixed
operation schedule; only the inputs inside a cycle come from the seed.
Whole cycles keep every run's mix of operation kinds the same, so a run's
median does not depend on where the clock happened to stop.

Operations go through the same public functions the CLI's ``solve`` and
``reanalyze`` commands call (``pipeline.full_analysis``,
``prepare_modified``, ``run_ifu``, ``run_ca``, ``run_full_modified`` and
``recovery.recover_fields``).  ``cli.bench_one`` is deliberately not used:
it re-implements the pipeline instead of calling it.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from mkfree import ifu, pipeline, recovery
from mkfree.errors import MkfreeError

import gen
from spans import Tracer, half_bandwidth

IFU_E_U_MAX_PCT = 1e-7      # acceptance criterion 05: IFU is exact
IFU_RESIDUAL_MAX = 1e-9     # IFU's own fundamental-solution guard
SOLVE_RESIDUAL_MAX = 1e-10  # ||K U - F|| / ||F|| of a full solve
ROUNDOFF_RTOL = 1e-12       # composed IFU vs ifu_solve; repeated set-ups
CA_BASIS = 10
SETUPS = 3                  # set-ups per run; setup_s is their median


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    setup_s: list = field(default_factory=list)
    times: dict = field(default_factory=dict)      # metric -> [seconds]
    values: dict = field(default_factory=dict)     # figure -> [value]
    descriptors: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add_time(self, metric: str, seconds: float):
        self.times.setdefault(metric, []).append(seconds)

    def add_value(self, name: str, value: float):
        self.values.setdefault(name, []).append(float(value))

    def fail(self, label: str, exc: Exception):
        self.failed += 1
        self.failures.append(f"{label}: {type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class Op:
    label: str
    kind: str
    payload: object


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def solve_residual(K, U, F) -> float:
    return _rel(K @ U, F)


# ---------------------------------------------------------------------------
# IFU as its phase functions, in ifu_solve's order (traced run only)


def _default_tol(K_m, F, U_star) -> float:
    """ifu_solve's default unbalanced-set tolerance, restated here because
    ifu_solve computes it inline.  The traced run checks that the composed
    phases still reproduce ifu_solve, so a change to either shows."""
    k_scale = float(abs(K_m).max()) if K_m.nnz else 0.0
    u_scale = float(np.abs(U_star).max(initial=0.0))
    f_scale = float(np.abs(F).max(initial=0.0))
    return 1e-9 * (k_scale * max(1.0, u_scale) + f_scale)


def composed_ifu(case, tracer: Tracer, out: Outcome):
    """IFU through its phase functions, one span per phase."""
    K_m, F, U_star = case.K_m, case.F, case.U_star
    with tracer.span("ifu.measure"):
        delta = ifu.residual(K_m, F, U_star)
        meas = ifu.measurement(K_m, case.star.K, delta)
        S_d = ifu.unbalanced_set(meas, _default_tol(K_m, F, U_star))
    if len(S_d) == 0:
        return U_star.copy(), 0.0, 0
    with tracer.span("ifu.constrain"):
        L0_mod, V = ifu.constrain_factor(case.factor, S_d)
    with tracer.span("ifu.rhs"):
        R = ifu.constraint_rhs(K_m, S_d)
    with tracer.span("ifu.smw"):
        B, fund_rel = ifu.fundamental_solutions(L0_mod, V, R)
    with tracer.span("ifu.reduce"):
        _, _, y = ifu.reduce_unbalanced(K_m, S_d, B, delta)
    with tracer.span("ifu.verify"):
        U = U_star + B @ y
        solve_rel = solve_residual(K_m, U, F)
    out.add_value("ifu.fund_residual", fund_rel)
    return U, solve_rel, len(S_d)


@dataclass(frozen=True)
class IfuResult:
    U: np.ndarray
    fields: object
    solve_residual: float
    n_d: int


def _ifu_fields(case, tracer: Tracer | None, out: Outcome):
    """Timed IFU reanalysis with field recovery: ``run_ifu``, or in the
    traced run the composed phases plus the same recovery call."""
    if tracer is None:
        U, fields, diag = pipeline.run_ifu(case)
        return IfuResult(U, fields, diag["solve_residual"], diag["n_d"])
    U, solve_rel, n_d = composed_ifu(case, tracer, out)
    fields = recovery.recover_fields(U, case.cloud_mod, case.material,
                                     case.baseline.cfg, dof_map=case.dof_map)
    return IfuResult(U, fields, solve_rel, n_d)


def _check_ifu(case, res: IfuResult, ref_fields, traced: bool,
               out: Outcome) -> dict:
    U, solve_rel = res.U, res.solve_residual
    E_u = recovery.error_metrics(res.fields, ref_fields)[0]
    out.add_value("ifu.n_d", res.n_d)
    out.add_value("ifu.solve_residual", solve_rel)
    if traced:
        U_ifu = pipeline.run_ifu(case)[0]
        if not _rel(U, U_ifu) <= ROUNDOFF_RTOL:
            raise CheckFailed(f"composed IFU phases differ from ifu_solve by "
                              f"{_rel(U, U_ifu):.2e}")
    if not E_u <= IFU_E_U_MAX_PCT:
        raise CheckFailed(f"IFU E_u {E_u:.3e} % > {IFU_E_U_MAX_PCT:.0e} %")
    if not solve_rel <= IFU_RESIDUAL_MAX:
        raise CheckFailed(f"IFU solve residual {solve_rel:.2e}")
    dom = case.influence
    return {"dofs": case.dof_map.n_dofs,
            "half_bandwidth": half_bandwidth(case.K_m),
            "removed": len(case.mod.removed_ids),
            "added": len(case.mod.added_ids),
            "n_d": res.n_d,
            "affected_ratio": len(dom.affected_gauss) / dom.n_gauss_total,
            "gauss_affected": len(dom.affected_gauss),
            "ifu_E_u_pct": E_u,
            "ifu_solve_residual": solve_rel}


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Baselined:
    model: gen.Model
    base: object                # pipeline.Baseline


def _baseline_setup(model: gen.Model) -> Baselined:
    return Baselined(model, pipeline.full_analysis(
        model.cloud, model.grid, model.material, model.bc))


def _check_baseline(state: Baselined, previous: Baselined | None):
    sysm = state.base.system
    res = solve_residual(sysm.K, state.base.U, sysm.F)
    if not res <= SOLVE_RESIDUAL_MAX:
        raise CheckFailed(f"baseline residual {res:.2e}")
    if previous is not None and not _rel(state.base.U,
                                         previous.base.U) <= ROUNDOFF_RTOL:
        raise CheckFailed("repeated set-ups gave different baselines")


class LocalEdits:
    """Independent small edits against one 48x30 plate (2880 DOFs)."""

    name = "local-edits"
    metrics = ("ifu_edit_s", "ifu_edit_insertion_s")
    # One cycle: 1- and 9-node removals alternating with insertions of
    # 1, 2, 3 and 2 nodes.  ifu_edit_s pools all eight edits.
    schedule = (("remove", 1), ("insert", 1), ("remove", 9), ("insert", 2),
                ("remove", 1), ("insert", 3), ("remove", 9), ("insert", 2))

    def __init__(self, nx: int = 48, ny: int = 30):
        self.size = (nx, ny)

    def setup(self, seed: int) -> Baselined:
        return _baseline_setup(gen.plate(*self.size))

    check_setup = staticmethod(_check_baseline)

    def cycle(self, state: Baselined, rng):
        for kind, n in self.schedule:
            if kind == "remove":
                mod = gen.block_removal(state.model, rng, n)
            else:
                mod = gen.insertion(state.model, rng, n)
            yield Op(f"{kind}-{n}", kind, mod)

    def operate(self, state: Baselined, op: Op, tracer, out: Outcome):
        t0 = time.perf_counter()
        case = pipeline.prepare_modified(state.base, op.payload)
        res = _ifu_fields(case, tracer, out)
        t1 = time.perf_counter()
        out.add_time(self.metrics[0], t1 - t0)
        out.add_time("ifu_edit_removal_s" if op.kind == "remove"
                     else "ifu_edit_insertion_s", t1 - t0)
        return case, res

    def check(self, state: Baselined, op: Op, result, traced: bool,
              out: Outcome) -> dict:
        case, res = result
        _, ref_fields, _ = pipeline.run_full_modified(case)
        return _check_ifu(case, res, ref_fields, traced, out)


class LargeRedesign:
    """Elliptical cut-outs of 20-30 % of a 40x24 plate (1920 DOFs), each
    solved with both IFU and CA."""

    name = "large-redesign"
    metrics = ("ifu_edit_s", "ca_edit_s")
    fractions = (0.20, 0.25, 0.30)      # removed-node share, one cycle

    def __init__(self, nx: int = 40, ny: int = 24):
        self.size = (nx, ny)

    def setup(self, seed: int) -> Baselined:
        return _baseline_setup(gen.plate(*self.size))

    check_setup = staticmethod(_check_baseline)

    def cycle(self, state: Baselined, rng):
        for fraction in self.fractions:
            mod = gen.elliptical_cutout(state.model, rng, fraction)
            yield Op(f"cutout-{round(100 * fraction)}", "cutout", mod)

    def operate(self, state: Baselined, op: Op, tracer, out: Outcome):
        t0 = time.perf_counter()
        case = pipeline.prepare_modified(state.base, op.payload)
        t1 = time.perf_counter()
        res = _ifu_fields(case, tracer, out)
        t2 = time.perf_counter()
        U_ca, fields_ca, diag_ca = pipeline.run_ca(case, s=CA_BASIS)
        t3 = time.perf_counter()
        # both methods start from the same prepared case
        out.add_time(self.metrics[0], (t1 - t0) + (t2 - t1))
        out.add_time(self.metrics[1], (t1 - t0) + (t3 - t2))
        return case, res, U_ca, fields_ca, diag_ca

    def check(self, state: Baselined, op: Op, result, traced: bool,
              out: Outcome) -> dict:
        case, res, U_ca, fields_ca, diag_ca = result
        _, ref_fields, _ = pipeline.run_full_modified(case)
        desc = _check_ifu(case, res, ref_fields, traced, out)
        E_u_ca = recovery.error_metrics(fields_ca, ref_fields)[0]
        ca_res = solve_residual(case.K_m, U_ca, case.F)
        if not (np.isfinite(E_u_ca) and np.isfinite(ca_res)
                and diag_ca["rank"] >= 1):
            raise CheckFailed(f"CA result unusable: rank {diag_ca['rank']}, "
                              f"E_u {E_u_ca}, residual {ca_res}")
        out.add_value("ca.rank", diag_ca["rank"])
        out.add_value("ca.residual", ca_res)
        out.add_value("ca.E_u_pct", E_u_ca)
        desc.update(ca_rank=diag_ca["rank"], ca_residual=ca_res,
                    ca_E_u_pct=E_u_ca)
        return desc


@dataclass
class Clouds:
    models: dict     # "2d" / "3d" -> gen.Model


class ColdSolve:
    """Full analyses of scattered clouds with shuffled ids, alternating a
    2D plate (1920 DOFs) and a 3D block (576 DOFs)."""

    name = "cold-solve"
    metrics = ("solve_2d_s", "solve_3d_s")

    def setup(self, seed: int) -> Clouds:
        rng = np.random.default_rng([seed, 0])
        return Clouds({"2d": gen.scattered_plate(rng),
                       "3d": gen.scattered_block(rng)})

    @staticmethod
    def check_setup(state: Clouds, previous: Clouds | None):
        if previous is None:
            return
        for key, m in state.models.items():
            p = previous.models[key]
            if not (np.array_equal(m.cloud.ids, p.cloud.ids)
                    and np.array_equal(m.cloud.coords, p.cloud.coords)):
                raise CheckFailed("repeated set-ups gave different clouds")

    def cycle(self, state: Clouds, rng):
        for key in ("2d", "3d"):
            yield Op(f"solve-{key}", key, state.models[key])

    def operate(self, state: Clouds, op: Op, tracer, out: Outcome):
        m = op.payload
        t0 = time.perf_counter()
        base = pipeline.full_analysis(m.cloud, m.grid, m.material, m.bc)
        fields = base.fields()
        t1 = time.perf_counter()
        out.add_time(self.metrics[0] if op.kind == "2d" else self.metrics[1],
                     t1 - t0)
        return base, fields

    def check(self, state: Clouds, op: Op, result, traced: bool,
              out: Outcome) -> dict:
        base, fields = result
        res = solve_residual(base.system.K, base.U, base.system.F)
        if not res <= SOLVE_RESIDUAL_MAX:
            raise CheckFailed(f"solve residual {res:.2e}")
        for name in ("displacements", "strain", "stress", "vm_strain",
                     "vm_stress"):
            if not np.all(np.isfinite(getattr(fields, name))):
                raise CheckFailed(f"non-finite {name}")
        return {"dim": base.cloud.dim, "dofs": base.system.n_dofs,
                "nodes": base.cloud.n_nodes,
                "half_bandwidth": half_bandwidth(base.system.K),
                "solve_residual": res}


WORKLOADS = {w.name: w for w in (LocalEdits, LargeRedesign, ColdSolve)}


# ---------------------------------------------------------------------------
# the run loop


def run(workload, seed: int, seconds: float, tracer: Tracer | None = None,
        setups: int = SETUPS) -> Outcome:
    """Set up, then run whole operation cycles while the next one is
    expected to end within ``seconds`` (at least one cycle).

    The set-up is repeated between cycles and after the last one until
    there are ``setups`` of them.  Spreading them over the run keeps them
    from sharing one stretch of machine speed.  Operations always use the
    first set-up; the repeats are only timed and checked against it.

    An ``MkfreeError`` or a failed check counts the operation as failed and
    the run goes on.  A failed set-up leaves nothing to measure and raises."""
    out = Outcome()
    traced = tracer is not None
    root = tracer.root if traced else (lambda name: nullcontext())

    def set_up(first):
        t0 = time.perf_counter()
        with root("setup"):
            new = workload.setup(seed)
        out.setup_s.append(time.perf_counter() - t0)
        workload.check_setup(new, first)
        return new

    state = set_up(None)
    rng = np.random.default_rng([seed, 1])
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        for op in workload.cycle(state, rng):
            out.attempted += 1
            try:
                with root(op.label):
                    result = workload.operate(state, op, tracer, out)
                desc = workload.check(state, op, result, traced, out)
            except (MkfreeError, CheckFailed) as exc:
                out.fail(op.label, exc)
                continue
            out.descriptors.append({"op": op.label, **desc})
        now = time.perf_counter()
        if now - start + (now - c0) > seconds:
            break
        if len(out.setup_s) < setups:
            set_up(state)
    while len(out.setup_s) < setups:
        set_up(state)
    return out


def median(xs) -> float:
    return float(statistics.median(xs))
