"""End-to-end analysis and reanalysis pipelines shared by the CLI and the
test suite.

A baseline full analysis produces the initial stiffness, factor, and
displacement.  For a modification, one lift carries them and the initial
factor onto the union DOF space (initial U modified nodes), so reanalysis
never refactorizes; the modified stiffness is the initial one, for the
modified material, plus the local delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (StiffnessSystem, apply_bcs, assemble_load,
                       assemble_stiffness, isotropic_stiffness)
from .config import DEFAULT_CONFIG, MeshlessConfig
from .model import (BackgroundGrid, BoundaryConditions, DofMap, MaterialModel,
                    Modification, NodeCloud, apply_modification)
from .recovery import FieldSolution, recover_fields
from .solver import CholeskyFactor, factorize, solve
from .update import local_delta
from . import ca as _ca
from . import ifu as _ifu

__all__ = ["Baseline", "ModifiedCase", "full_analysis", "prepare_modified",
           "run_ca", "run_ifu", "run_full_modified"]


@dataclass(frozen=True)
class Baseline:
    """Artifacts of the initial full analysis.  ``raw.state`` is the
    initial cloud's Gauss-point state from the assembly's kernel pass,
    which every local update reads instead of evaluating the initial
    cloud again, and ``raw.products`` recombine its stiffness for a new
    material (``raw`` is on the cloud's own DOFs)."""

    cloud: NodeCloud
    grid: BackgroundGrid
    material: MaterialModel
    bc: BoundaryConditions
    cfg: MeshlessConfig
    raw: StiffnessSystem        # before BC elimination, with its state
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


def _lift(baseline: Baseline, dof_map: DofMap, mat: MaterialModel):
    """Lift the baseline, with its raw K for material ``mat``, onto the
    union DOF space of ``dof_map``.

    With ``perm`` the union positions of the initial DOFs, ``P`` the N x n
    embedding ``P[perm[k], k] = 1`` and ``I_a = I - P P^T`` the unit
    diagonal on the DOFs the initial cloud does not carry, a matrix A lifts
    to ``P A P^T + I_a`` and a vector v to ``P v``.  The factor lifts the
    same way for every id order, ``L = P L0 P^T + I_a``, which is
    :meth:`CholeskyFactor.reindex` of L0 with union DOF ``perm[k]`` taken
    from initial DOF k and the others unit.  As ``perm`` increases (both
    id lists are sorted), L is the Cholesky factor of the lifted K*, and a
    CSR matrix lifts by scattering its arrays: row k moves to row perm[k]
    with columns perm[indices], in the same order, and each absent DOF
    gets a row holding its unit diagonal.

    Returns the lifted BC-applied system, raw K, factor and displacement;
    with no added node the matrices and the factor are returned uncopied.
    """
    system, K_raw = baseline.system, baseline.raw.K
    if mat != baseline.material:
        K_raw = isotropic_stiffness(baseline.raw.products, mat)
    perm = dof_map.dofs_of(system.dof_map.node_ids)
    N = dof_map.n_dofs
    U_star = np.zeros(N)
    U_star[perm] = baseline.U
    if len(perm) == N:
        return system, K_raw, baseline.factor, U_star

    absent = np.setdiff1d(np.arange(N), perm)
    before = absent - np.arange(len(absent))    # initial DOFs before each

    def lift(A):
        A = sp.csr_matrix(A)
        at = A.indptr[before]
        counts = np.ones(N, dtype=A.indptr.dtype)
        counts[perm] = np.diff(A.indptr)
        indptr = np.zeros(N + 1, dtype=A.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        out = sp.csr_matrix(
            (np.insert(A.data, at, 1.0),
             np.insert(perm.astype(A.indices.dtype)[A.indices], at, absent),
             indptr), shape=(N, N))
        out.sum_duplicates()        # canonical and without stored zeros,
        out.eliminate_zeros()       # whatever form A has
        return out

    F_star = np.zeros(N)
    F_star[perm] = system.F
    src = np.full(N, -1)
    src[perm] = np.arange(len(perm))
    return (StiffnessSystem(K=lift(system.K), F=F_star, dof_map=dof_map),
            lift(K_raw), baseline.factor.reindex(src), U_star)


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
    influence: object = None     # InfluenceDomain of a node change


def prepare_modified(baseline: Baseline, mod: Modification) -> ModifiedCase:
    """Build the union-space systems and the stiffness delta for ``mod``.

    The modified load is validated first, so a refused edit costs no
    update.  The initial systems and factor reach the union space through
    :func:`_lift`, whatever ids the added nodes have; nothing is factorized
    here.  The modified pre-BC stiffness is the initial one (recombined
    from the baseline's gradient products for a new material) plus the
    local delta with the modified material, which reads the initial side
    from the baseline's Gauss-point state, so only the modified cloud is
    searched and evaluated.  The modified boundary conditions are then
    applied to it, and the delta is taken between the two BC-applied
    matrices, so CA and IFU see one consistent pair whatever changed.
    """
    cfg = baseline.cfg
    cloud_mod, dof_map = apply_modification(baseline.cloud, mod, baseline.bc)
    mat_new = mod.material_change or baseline.material
    bc_new = mod.bc_change or baseline.bc
    bc_new.validate_against(cloud_mod)
    F_mod = assemble_load(cloud_mod, bc_new, dof_map, cfg)

    star, K_raw, factor, U_star = _lift(baseline, dof_map, mat_new)
    influence, delta_raw = local_delta(
        mod, baseline.cloud, cloud_mod, baseline.grid, mat_new, dof_map, cfg,
        baseline.raw.state)
    modified = apply_bcs(StiffnessSystem(K=(K_raw + delta_raw.dK).tocsr(),
                                         F=F_mod, dof_map=dof_map), bc_new)
    dK = (modified.K - star.K).tocsr()
    dK.eliminate_zeros()

    return ModifiedCase(
        baseline=baseline, mod=mod, cloud_mod=cloud_mod, dof_map=dof_map,
        material=mat_new, bc=bc_new, star=star, factor=factor, U_star=U_star,
        dK=dK, K_m=modified.K, F=modified.F, influence=influence)


def _restrict(case: ModifiedCase, U: np.ndarray) -> FieldSolution:
    return recover_fields(U, case.cloud_mod, case.material,
                          case.baseline.cfg, dof_map=case.dof_map)


def run_ca(case: ModifiedCase, s: int = 10):
    """CA reanalysis; returns (U, FieldSolution, diagnostics dict)."""
    mask = case.dof_map.carries(case.cloud_mod)
    U, _, reduced = _ca.ca_solve(case.factor, case.dK, case.K_m, case.F, s,
                                 mask=mask)
    residual = float(np.linalg.norm(case.K_m @ U - case.F)
                     / max(np.linalg.norm(case.F), 1e-300))
    diag = {"method": "ca", "s": s, "rank": reduced.rank,
            "residual": residual}
    return U, _restrict(case, U), diag


def run_ifu(case: ModifiedCase, tol: float | None = None):
    """IFU reanalysis; returns (U, FieldSolution, diagnostics dict)."""
    U, d = _ifu.ifu_solve(case.factor, case.star.K, case.K_m, case.F,
                          case.U_star, tol)
    diag = {"method": "ifu", "n_d": d.n_d, "fund_residual": d.fund_residual,
            "solve_residual": d.solve_residual, "n_coupled": d.n_coupled,
            "capacitance_cond": d.capacitance_cond,
            "short_circuit": d.short_circuit}
    return U, _restrict(case, U), diag


def run_full_modified(case: ModifiedCase):
    """From-scratch factorize+solve of the modified system (the reference)."""
    sys_m = StiffnessSystem(K=case.K_m, F=case.F, dof_map=case.dof_map)
    factor = factorize(sys_m)
    U = solve(factor, case.F)
    diag = {"method": "full"}
    return U, _restrict(case, U), diag
