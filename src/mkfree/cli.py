"""Command-line front end.

Commands::

    mkfree solve <model.json> -o <dir>
    mkfree reanalyze <model.json> <mod.json> --method {ca,ifu}
           [--basis N] [--compare] -o <dir>
    mkfree sweep <model.json> <mod.json> --basis-range A..B -o <csv>
    mkfree bench <family.json> -o <csv>

Exit codes: 0 ok, 2 validation error, 3 numerical error, 4 I/O or parse
error.  The environment variable MESHLESS_THREADS caps the BLAS/OpenMP
worker count of the libraries loaded after the package (applied at
package import; numpy imported first keeps its own pool).

CSV schemas (each file starts with a ``# mkfree-csv <name> v1`` line, then
a header row):

* displacements: node_id, axis, value
* fields (2D):   node_id, eps_xx, eps_yy, gamma_xy, sig_xx, sig_yy,
  tau_xy, vm_strain, vm_stress
* fields (3D):   node_id, the six strain then six stress components in
  (xx, yy, zz, yz, zx, xy) order, vm_strain, vm_stress
* sweep:         s, E_u, E_eps, E_sigma
* bench:         dofs, method, phase, seconds, E_u  (E_u empty for
  phases without a reference comparison)
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import demos
from .assembly import StiffnessSystem
from .errors import NumericalError, ParseError, ValidationError
from .model import _integer, _read_json, load_model, load_modification
from .pipeline import (ca_sweep, full_analysis, prepare_modified, run_ca,
                       run_full_modified, run_ifu)
from .recovery import FieldSolution, error_metrics
from .solver import factorize, solve
from .update import global_update, local_delta

_STRAIN_COLS_2D = ["eps_xx", "eps_yy", "gamma_xy"]
_STRESS_COLS_2D = ["sig_xx", "sig_yy", "tau_xy"]
_STRAIN_COLS_3D = ["eps_xx", "eps_yy", "eps_zz", "gamma_yz", "gamma_zx",
                   "gamma_xy"]
_STRESS_COLS_3D = ["sig_xx", "sig_yy", "sig_zz", "tau_yz", "tau_zx", "tau_xy"]


def _open_csv(path: Path, name: str, header: list):
    fh = open(path, "w", newline="")
    fh.write(f"# mkfree-csv {name} v1\n")
    writer = csv.writer(fh)
    writer.writerow(header)
    return fh, writer


def _write_outputs(out_dir: Path, fields: FieldSolution, dim: int):
    out_dir.mkdir(parents=True, exist_ok=True)
    fh, w = _open_csv(out_dir / "displacements.csv", "displacements",
                      ["node_id", "axis", "value"])
    with fh:
        for nid, u in zip(fields.node_ids, fields.displacements):
            for axis in range(dim):
                w.writerow([int(nid), axis, repr(float(u[axis]))])
    strain_cols = _STRAIN_COLS_2D if dim == 2 else _STRAIN_COLS_3D
    stress_cols = _STRESS_COLS_2D if dim == 2 else _STRESS_COLS_3D
    fh, w = _open_csv(out_dir / "fields.csv", "fields",
                      ["node_id"] + strain_cols + stress_cols
                      + ["vm_strain", "vm_stress"])
    with fh:
        for k, nid in enumerate(fields.node_ids):
            w.writerow([int(nid)]
                       + [repr(float(v)) for v in fields.strain[k]]
                       + [repr(float(v)) for v in fields.stress[k]]
                       + [repr(float(fields.vm_strain[k])),
                          repr(float(fields.vm_stress[k]))])


def cmd_solve(args) -> int:
    cloud, grid, mat, bc = load_model(args.model)
    base = full_analysis(cloud, grid, mat, bc)
    res = np.linalg.norm(base.system.K @ base.U - base.system.F)
    rel = res / max(np.linalg.norm(base.system.F), 1e-300)
    _write_outputs(Path(args.out), base.fields(), cloud.dim)
    print(f"solved {cloud.n_nodes} nodes / {base.system.n_dofs} DOFs")
    print(f"residual norm {res:.3e} (relative {rel:.3e})")
    print(f"outputs in {args.out}")
    return 0


def cmd_reanalyze(args) -> int:
    cloud, grid, mat, bc = load_model(args.model)
    mod = load_modification(args.mod, cloud.dim)
    base = full_analysis(cloud, grid, mat, bc)
    case = prepare_modified(base, mod)
    if args.method == "ca":
        U, fields, diag = run_ca(case, s=args.basis)
    else:
        U, fields, diag = run_ifu(case)
    _write_outputs(Path(args.out), fields, cloud.dim)
    print(f"method {args.method}")
    for key in ("s", "rank", "residual", "n_d", "n_coupled",
                "capacitance_cond", "fund_residual", "solve_residual",
                "short_circuit"):
        if key in diag:
            print(f"{key} = {diag[key]}")
    if args.compare:
        _, ref_fields, _ = run_full_modified(case)
        E_u, E_eps, E_sig = error_metrics(fields, ref_fields)
        print(f"E_u = {E_u:.3e} %  E_eps = {E_eps:.3e} %  "
              f"E_sigma = {E_sig:.3e} %")
    print(f"outputs in {args.out}")
    return 0


def _parse_range(text: str):
    try:
        a, b = text.split("..")
        a, b = int(a), int(b)
    except ValueError as exc:
        raise ValidationError(
            f"basis range must look like A..B, got {text!r}") from exc
    if a < 1 or b < a:
        raise ValidationError(f"invalid basis range {text!r}")
    return a, b


def cmd_sweep(args) -> int:
    cloud, grid, mat, bc = load_model(args.model)
    mod = load_modification(args.mod, cloud.dim)
    lo, hi = _parse_range(args.basis_range)
    base = full_analysis(cloud, grid, mat, bc)
    case = prepare_modified(base, mod)
    _, ref_fields, _ = run_full_modified(case)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fh, w = _open_csv(out, "sweep", ["s", "E_u", "E_eps", "E_sigma"])
    with fh:
        for _, fields, diag in ca_sweep(case, range(lo, hi + 1)):
            s = diag["s"]
            E_u, E_eps, E_sig = error_metrics(fields, ref_fields)
            w.writerow([s, repr(E_u), repr(E_eps), repr(E_sig)])
            print(f"s={s:3d}  E_u={E_u:.4e} %  E_eps={E_eps:.4e} %  "
                  f"E_sigma={E_sig:.4e} %")
    print(f"sweep written to {args.out}")
    return 0


def _timed(fn, repeats: int):
    """Median-of-``repeats`` wall clock after one warmup call."""
    fn()
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def bench_one(entry: dict, repeats: int = 3):
    """Benchmark one family entry; returns rows of
    (dofs, method, phase, seconds, E_u-or-None).

    Every phase times the pipeline's own calls on the prepared case.  The
    global reassembly is timed once and fills both the full/assemble and
    the update/global rows; update/local is the local delta as
    ``prepare_modified`` runs it, on the baseline's Gauss-point state; the
    ca/ifu rows are ``run_ca``/``run_ifu`` and so include field recovery.
    """
    cloud, grid, mat, bc, mod = demos.bench_case(entry)
    s = _integer(entry.get("basis", 6), "bench entry basis")
    base = full_analysis(cloud, grid, mat, bc)
    case = prepare_modified(base, mod)
    dofs = case.dof_map.n_dofs

    t_asm, _ = _timed(
        lambda: global_update(case.cloud_mod, grid, case.material,
                              case.dof_map, base.cfg), repeats)
    sys_m = StiffnessSystem(K=case.K_m, F=case.F, dof_map=case.dof_map)
    t_fac, factor_m = _timed(lambda: factorize(sys_m), repeats)
    t_slv, U_ref = _timed(lambda: solve(factor_m, case.F), repeats)
    t_loc, _ = _timed(
        lambda: local_delta(mod, base.cloud, case.cloud_mod, grid,
                            case.material, case.dof_map, base.cfg,
                            base.raw.state), repeats)
    t_ca, (U_ca, _, _) = _timed(lambda: run_ca(case, s=s), repeats)
    t_ifu, (U_ifu, _, _) = _timed(lambda: run_ifu(case), repeats)

    def rel_err(U):
        return float(np.linalg.norm(U - U_ref) / np.linalg.norm(U_ref) * 100.0)

    return [(dofs, "full", "assemble", t_asm, None),
            (dofs, "full", "factorize", t_fac, None),
            (dofs, "full", "solve", t_slv, None),
            (dofs, "update", "local", t_loc, None),
            (dofs, "update", "global", t_asm, None),
            (dofs, "ca", "reanalyze", t_ca, rel_err(U_ca)),
            (dofs, "ifu", "reanalyze", t_ifu, rel_err(U_ifu))]


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ValidationError(f"--repeats must be >= 1, got {args.repeats}")
    family = _read_json(args.family)
    cases = family.get("cases") if isinstance(family, dict) else None
    if not isinstance(cases, list) or not cases:
        raise ValidationError("family file needs a non-empty 'cases' list")
    if not all(isinstance(entry, dict) for entry in cases):
        raise ValidationError("every family case must be a JSON object")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fh, w = _open_csv(out, "bench",
                      ["dofs", "method", "phase", "seconds", "E_u"])
    with fh:
        for entry in cases:
            name = entry.get("name", "?")
            print(f"benchmarking {name} ...")
            for dofs, method, phase, sec, err in bench_one(
                    entry, repeats=args.repeats):
                w.writerow([dofs, method, phase, repr(sec),
                            "" if err is None else repr(err)])
                err_s = "" if err is None else f"  E_u={err:.3e} %"
                print(f"  {method:>6s}/{phase:<9s} {sec:10.4f} s{err_s}")
    print(f"bench written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mkfree",
        description="Meshless elastostatics with fast reanalysis.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="full analysis of a model")
    sp.add_argument("model")
    sp.add_argument("-o", "--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_solve)

    rp = sub.add_parser("reanalyze", help="reanalysis of a modified model")
    rp.add_argument("model")
    rp.add_argument("mod")
    rp.add_argument("--method", choices=("ca", "ifu"), required=True)
    rp.add_argument("--basis", type=int, default=10,
                    help="number of basis vectors for --method ca")
    rp.add_argument("--compare", action="store_true",
                    help="also run a full re-solve and report errors")
    rp.add_argument("-o", "--out", required=True, help="output directory")
    rp.set_defaults(func=cmd_reanalyze)

    wp = sub.add_parser("sweep", help="basis-vector error sweep")
    wp.add_argument("model")
    wp.add_argument("mod")
    wp.add_argument("--basis-range", required=True, metavar="A..B")
    wp.add_argument("-o", "--out", required=True, help="output CSV")
    wp.set_defaults(func=cmd_sweep)

    bp = sub.add_parser("bench", help="timing benchmark over a model family")
    bp.add_argument("family")
    bp.add_argument("--repeats", type=int, default=3)
    bp.add_argument("-o", "--out", required=True, help="output CSV")
    bp.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
