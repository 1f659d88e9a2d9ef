"""End-to-end analysis and reanalysis pipelines shared by the CLI and the
test suite.

A baseline full analysis produces the initial stiffness, factor, and
displacement.  For a modification, everything is lifted onto the union DOF
space (initial U modified nodes); the modified stiffness comes from the
local updating strategy, or from a global reassembly when a material
change rules the local strategy out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (StiffnessSystem, apply_bcs, assemble_load,
                       assemble_stiffness)
from .config import DEFAULT_CONFIG, MeshlessConfig
from .model import (BackgroundGrid, BoundaryConditions, DofMap, MaterialModel,
                    Modification, NodeCloud, apply_modification)
from .recovery import FieldSolution, recover_fields
from .solver import CholeskyFactor, factorize, solve
from .update import LocalUpdateUnavailableError, global_update, local_delta
from . import ca as _ca
from . import ifu as _ifu

__all__ = ["Baseline", "ModifiedCase", "full_analysis", "prepare_modified",
           "run_ca", "run_ifu", "run_full_modified"]


@dataclass(frozen=True)
class Baseline:
    """Artifacts of the initial full analysis."""

    cloud: NodeCloud
    grid: BackgroundGrid
    material: MaterialModel
    bc: BoundaryConditions
    cfg: MeshlessConfig
    raw: StiffnessSystem        # before BC elimination
    system: StiffnessSystem     # after BC elimination
    factor: CholeskyFactor
    U: np.ndarray

    def fields(self) -> FieldSolution:
        return recover_fields(self.U, self.cloud, self.material, self.cfg)


def full_analysis(cloud: NodeCloud, grid: BackgroundGrid, mat: MaterialModel,
                  bc: BoundaryConditions, cfg: MeshlessConfig = DEFAULT_CONFIG
                  ) -> Baseline:
    """Assemble, constrain, factorize and solve the initial model."""
    bc.validate_against(cloud)
    raw = assemble_stiffness(cloud, grid, mat, cfg)
    raw = raw.with_load(assemble_load(cloud, bc, raw.dof_map, cfg))
    system = apply_bcs(raw, bc)
    factor = factorize(system)
    U = solve(factor, system.F)
    return Baseline(cloud=cloud, grid=grid, material=mat, bc=bc, cfg=cfg,
                    raw=raw, system=system, factor=factor, U=U)


def _expand_to_union(system: StiffnessSystem, dof_map: DofMap
                     ) -> StiffnessSystem:
    """Lift an initial-space system onto the union DOF space; union DOFs of
    nodes absent initially get a unit diagonal and zero load."""
    n_init = system.n_dofs
    N = dof_map.n_dofs
    if N == n_init:
        return StiffnessSystem(K=system.K, F=system.F, dof_map=dof_map,
                               constrained=system.constrained)
    perm = dof_map.dofs_of(system.dof_map.node_ids)
    P = sp.coo_matrix((np.ones(n_init), (perm, np.arange(n_init))),
                      shape=(N, n_init)).tocsr()
    K = (P @ system.K @ P.T).tocsr()
    absent = np.setdiff1d(np.arange(N), perm)
    K = K + sp.coo_matrix((np.ones(len(absent)), (absent, absent)),
                          shape=(N, N))
    F = np.zeros(N)
    F[perm] = system.F
    constrained = frozenset(int(perm[c]) for c in system.constrained)
    return StiffnessSystem(K=K.tocsr(), F=F, dof_map=dof_map,
                           constrained=constrained)


def _expand_factor(baseline: Baseline, system_u: StiffnessSystem,
                   dof_map: DofMap) -> CholeskyFactor:
    """Reuse the baseline factor on the union space.

    When added node ids sort after every initial id, the union stiffness is
    block diagonal [[K*, 0], [0, I]] and the factor extends for free;
    otherwise the (permuted) union stiffness is re-factorized.
    """
    n_init = baseline.system.n_dofs
    N = dof_map.n_dofs
    if N == n_init:
        return baseline.factor
    perm = dof_map.dofs_of(baseline.system.dof_map.node_ids)
    if np.array_equal(perm, np.arange(n_init)):
        L0 = np.eye(N)
        L0[:n_init, :n_init] = baseline.factor.L0
        return CholeskyFactor(L0=L0)
    return factorize(system_u)


@dataclass(frozen=True)
class ModifiedCase:
    """Everything needed to reanalyze one modification."""

    baseline: Baseline
    mod: Modification
    cloud_mod: NodeCloud
    dof_map: DofMap
    material: MaterialModel
    bc: BoundaryConditions
    star: StiffnessSystem        # initial K on union space, BC-applied
    factor: CholeskyFactor       # factor of star.K
    U_star: np.ndarray           # initial displacement on union space
    dK: sp.csr_matrix            # BC-applied stiffness delta, K_m - star.K
    K_m: sp.csr_matrix           # BC-applied modified stiffness
    F: np.ndarray                # modified load, constrained entries zeroed
    update_path: str             # "local" | "global"
    influence: object = None     # InfluenceDomain for the local path
    fallback_reason: str | None = None


def prepare_modified(baseline: Baseline, mod: Modification) -> ModifiedCase:
    """Build the union-space systems and the stiffness delta for ``mod``.

    The modified pre-BC stiffness is the initial one plus the local delta,
    or a global reassembly when the local strategy refuses the modification
    (a material change; the reason is kept in ``fallback_reason``).  The
    modified boundary conditions are then applied to it, and the delta is
    taken between the two BC-applied matrices, so CA and IFU see one
    consistent pair whatever changed.
    """
    cfg = baseline.cfg
    cloud_mod, dof_map = apply_modification(baseline.cloud, mod, baseline.bc)
    mat_new = mod.material_change or baseline.material
    bc_new = mod.bc_change or baseline.bc
    bc_new.validate_against(cloud_mod)

    star = _expand_to_union(baseline.system, dof_map)
    factor = _expand_factor(baseline, star, dof_map)
    U_star = np.zeros(dof_map.n_dofs)
    U_star[dof_map.dofs_of(baseline.system.dof_map.node_ids)] = baseline.U

    influence = fallback = None
    try:
        influence, delta_raw = local_delta(
            mod, baseline.cloud, cloud_mod, baseline.grid, mat_new, dof_map,
            cfg)
    except LocalUpdateUnavailableError as exc:
        fallback = str(exc)
        K_m_raw = global_update(cloud_mod, baseline.grid, mat_new, dof_map,
                                cfg).K
    else:
        K_m_raw = (_expand_to_union(baseline.raw, dof_map).K
                   + delta_raw.dK).tocsr()

    F_mod = assemble_load(cloud_mod, bc_new, dof_map, cfg)
    modified = apply_bcs(StiffnessSystem(K=K_m_raw, F=F_mod, dof_map=dof_map),
                         bc_new)
    dK = (modified.K - star.K).tocsr()
    dK.eliminate_zeros()

    return ModifiedCase(
        baseline=baseline, mod=mod, cloud_mod=cloud_mod, dof_map=dof_map,
        material=mat_new, bc=bc_new, star=star, factor=factor, U_star=U_star,
        dK=dK, K_m=modified.K, F=modified.F,
        update_path="local" if fallback is None else "global",
        influence=influence, fallback_reason=fallback)


def _restrict(case: ModifiedCase, U: np.ndarray) -> FieldSolution:
    return recover_fields(U, case.cloud_mod, case.material,
                          case.baseline.cfg, dof_map=case.dof_map)


def run_ca(case: ModifiedCase, s: int = 10):
    """CA reanalysis; returns (U, FieldSolution, diagnostics dict)."""
    U, basis, reduced = _ca.ca_solve(case.factor, case.dK, case.K_m, case.F,
                                     s, mask=case.dof_map.active_modified)
    diag = {"method": "ca", "s": s, "rank": reduced.rank,
            "update_path": case.update_path}
    return U, _restrict(case, U), diag


def run_ifu(case: ModifiedCase, tol: float | None = None):
    """IFU reanalysis; returns (U, FieldSolution, diagnostics dict)."""
    U, d = _ifu.ifu_solve(case.factor, case.star.K, case.K_m, case.F,
                          case.U_star, tol)
    diag = {"method": "ifu", "n_d": d.n_d, "fund_residual": d.fund_residual,
            "solve_residual": d.solve_residual,
            "short_circuit": d.short_circuit,
            "update_path": case.update_path}
    return U, _restrict(case, U), diag


def run_full_modified(case: ModifiedCase):
    """From-scratch factorize+solve of the modified system (the reference)."""
    sys_m = StiffnessSystem(K=case.K_m, F=case.F, dof_map=case.dof_map)
    factor = factorize(sys_m)
    U = solve(factor, case.F)
    diag = {"method": "full", "update_path": case.update_path}
    return U, _restrict(case, U), diag
