"""End-to-end analysis and reanalysis pipelines shared by the CLI and the
test suite.

A baseline full analysis produces the initial stiffness, factor, and
displacement.  For a modification, one lift carries them, BC-applied,
onto the union DOF space (initial U modified nodes), so reanalysis never
refactorizes and applies BCs only to the modified model, whose stiffness
is the initial one, for the modified material, plus the local delta.

An edit does work only near the changed nodes.  Every point the baseline
evaluates carries a reach (:func:`mkfree.interp.reach`), and a point is
searched and evaluated again only when a changed node lies within it:
the Gauss points of the local update's screen, the quadrature points of
the tractions (a load none of whose points is reached is the baseline's,
lifted) and the nodes of field recovery (the modified cloud's node-point
state copies every other node's row from the baseline's).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .assembly import (GaussState, StiffnessSystem, apply_bcs, assemble_load,
                       assemble_stiffness, isotropic_stiffness,
                       traction_points)
from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import ValidationError
from .interp import reach, spacing, within_reach
from .model import (BackgroundGrid, BoundaryConditions, DofMap, MaterialModel,
                    Modification, NodeCloud, _integer, apply_modification,
                    validate_model)
from .recovery import (FieldSolution, edited_node_state, fields_at_nodes,
                       node_state)
from .solver import CholeskyFactor, factorize, solve
from .update import changed_coords, changed_nodes, local_delta
from . import ca as _ca
from . import ifu as _ifu

__all__ = ["Baseline", "ModifiedCase", "full_analysis", "prepare_modified",
           "ca_sweep", "run_ca", "run_ifu", "run_full_modified"]


@dataclass(frozen=True)
class Baseline:
    """Artifacts of the initial full analysis.  ``raw.state`` is the
    initial cloud's Gauss-point state from the assembly's kernel pass,
    which every local update reads instead of evaluating the initial
    cloud again, and ``raw.products`` recombine its stiffness for a new
    material (``raw`` is on the cloud's own DOFs).  The node-point state
    of field recovery and the reach of the traction quadrature points are
    built on first use, not by :func:`full_analysis`."""

    cloud: NodeCloud
    grid: BackgroundGrid
    material: MaterialModel
    bc: BoundaryConditions
    cfg: MeshlessConfig
    raw: StiffnessSystem        # before BC elimination, with its state
    system: StiffnessSystem     # after BC elimination
    factor: CholeskyFactor
    U: np.ndarray

    @cached_property
    def nodes(self) -> GaussState:
        """The cloud's node-point state (:func:`recovery.node_state`)."""
        return node_state(self.cloud, self.cfg)

    @cached_property
    def load_reach(self) -> np.ndarray:
        """Reach of each traction quadrature point of ``bc`` in the cloud."""
        return reach(*spacing(traction_points(self.bc, self.cloud.dim),
                              self.cloud), self.cfg)

    def fields(self) -> FieldSolution:
        return fields_at_nodes(self.U, self.cloud, self.nodes, self.material)


def full_analysis(cloud: NodeCloud, grid: BackgroundGrid, mat: MaterialModel,
                  bc: BoundaryConditions, cfg: MeshlessConfig = DEFAULT_CONFIG
                  ) -> Baseline:
    """Assemble, constrain, factorize and solve the initial model."""
    validate_model(cloud, grid, mat, bc)
    raw = assemble_stiffness(cloud, grid, mat, cfg)
    raw = raw.with_load(assemble_load(cloud, bc, raw.dof_map, cfg))
    system = apply_bcs(raw, bc, cloud)
    factor = factorize(system)
    U = solve(factor, system.F)
    return Baseline(cloud=cloud, grid=grid, material=mat, bc=bc, cfg=cfg,
                    raw=raw, system=system, factor=factor, U=U)


def _lift(baseline: Baseline, dof_map: DofMap, mat: MaterialModel):
    """Lift the baseline, with its raw K for material ``mat``, onto the
    union DOF space of ``dof_map``.

    With ``perm`` the union positions of the initial DOFs and ``P`` the
    N x n embedding ``P[perm[k], k] = 1``, a matrix A lifts to ``P A P^T``
    and a vector v to ``P v``: the DOFs the initial cloud does not carry
    stay empty.  As ``perm`` increases (both id lists are sorted), a CSR
    matrix lifts by renumbering its arrays: row k moves to row perm[k]
    with columns perm[indices], in the same order.  K* is the lifted
    BC-applied K plus a unit diagonal on the uncarried DOFs, so BCs are
    not applied again, and its factor is ``P L0 P^T`` plus that diagonal:
    :meth:`CholeskyFactor.reindex` of L0 with union DOF ``perm[k]`` taken
    from initial DOF k and the others unit.

    Returns the lifted BC-applied system, raw K, factor and displacement;
    with no added node the matrices and the factor are returned uncopied,
    and a lifted raw K shares its data array with the unlifted one.
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

    def lift(A):
        indptr = np.zeros(N + 1, dtype=A.indptr.dtype)
        indptr[perm + 1] = np.diff(A.indptr)
        return sp.csr_matrix((A.data, perm.astype(A.indices.dtype)[A.indices],
                              np.cumsum(indptr, out=indptr)), shape=(N, N))

    F_star = np.zeros(N)
    F_star[perm] = system.F
    src = np.full(N, -1)
    src[perm] = np.arange(len(perm))
    star = StiffnessSystem(
        K=lift(system.K) + sp.diags((src < 0) * 1.0, format="csr"),
        F=F_star, dof_map=dof_map)
    return star, lift(K_raw), baseline.factor.reindex(src), U_star


@dataclass(frozen=True)
class ModifiedCase:
    """Everything needed to reanalyze one modification; the stiffness
    delta ``K_m - star.K`` is formed by CA and IFU, not stored."""

    baseline: Baseline
    mod: Modification
    cloud_mod: NodeCloud
    dof_map: DofMap
    material: MaterialModel
    bc: BoundaryConditions
    star: StiffnessSystem        # initial K on union space, BC-applied
    factor: CholeskyFactor       # factor of star.K
    U_star: np.ndarray           # initial displacement on union space
    K_m: sp.csr_matrix           # BC-applied modified stiffness
    F: np.ndarray                # modified load, decoupled entries zeroed
    nodes: GaussState            # node-point state of cloud_mod
    influence: object = None     # InfluenceDomain of a node change


def _modified_load(baseline: Baseline, mod: Modification,
                   cloud_mod: NodeCloud, dof_map: DofMap,
                   moved: np.ndarray) -> np.ndarray:
    """The modified pre-BC load on ``dof_map``.

    With the baseline's boundary conditions and no changed node within the
    reach of any traction quadrature point, every such point keeps its
    activity and shape functions (:func:`mkfree.interp.reach`), and the
    point loads sit on kept nodes, so :func:`assemble_load` would give the
    baseline's load entry for entry: it is lifted instead.  Otherwise the
    load is assembled, which refuses a traction off the material.
    """
    bc = mod.bc_change or baseline.bc
    if mod.bc_change is None and not within_reach(
            traction_points(bc, cloud_mod.dim), baseline.load_reach,
            moved).any():
        F = np.zeros(dof_map.n_dofs)
        F[dof_map.dofs_of(baseline.raw.dof_map.node_ids)] = baseline.raw.F
        return F
    return assemble_load(cloud_mod, bc, dof_map, baseline.cfg)


def prepare_modified(baseline: Baseline, mod: Modification) -> ModifiedCase:
    """Build the union-space systems and the node-point state of recovery
    for ``mod``.

    The modified load is validated first, so a refused edit costs no
    update; it is the baseline's, lifted, when the edit is out of reach
    of the loads (:func:`_modified_load`).  The initial systems and factor
    reach the union space through :func:`_lift`, whatever ids the added
    nodes have; nothing is factorized here.  The modified pre-BC stiffness
    is the initial one (recombined from the baseline's gradient products
    for a new material) plus the local delta with the modified material,
    which reads the initial side from the baseline's Gauss-point state, so
    only the modified cloud is searched and evaluated, and only within
    reach of the changed nodes.  :func:`apply_bcs` then decouples the DOFs
    the modified boundary conditions fix or the modified cloud does not
    carry, the edit's one elimination (K* is lifted BC-applied), so CA and
    IFU see one consistent BC-applied pair whatever changed.  The modified
    cloud's node-point state is derived from the baseline's
    (:func:`recovery.edited_node_state`) here, so every method's recovery
    reads it.
    """
    cfg = baseline.cfg
    cloud_mod, dof_map = apply_modification(baseline.cloud, mod, baseline.bc)
    mat_new = mod.material_change or baseline.material
    bc_new = mod.bc_change or baseline.bc
    validate_model(cloud_mod, baseline.grid, mat_new, bc_new)
    moved = changed_coords(changed_nodes(mod), baseline.cloud, cloud_mod)
    F_mod = _modified_load(baseline, mod, cloud_mod, dof_map, moved)

    star, K_raw, factor, U_star = _lift(baseline, dof_map, mat_new)
    influence, delta_raw = local_delta(
        mod, baseline.cloud, cloud_mod, baseline.grid, mat_new, dof_map, cfg,
        baseline.raw.state)
    modified = apply_bcs(StiffnessSystem(K=K_raw + delta_raw.dK, F=F_mod,
                                         dof_map=dof_map), bc_new, cloud_mod)
    nodes = edited_node_state(baseline.nodes, baseline.cloud, cloud_mod,
                              moved, cfg)

    return ModifiedCase(
        baseline=baseline, mod=mod, cloud_mod=cloud_mod, dof_map=dof_map,
        material=mat_new, bc=bc_new, star=star, factor=factor, U_star=U_star,
        K_m=modified.K, F=modified.F, nodes=nodes, influence=influence)


def _restrict(case: ModifiedCase, U: np.ndarray) -> FieldSolution:
    return fields_at_nodes(U, case.cloud_mod, case.nodes, case.material,
                           case.dof_map)


def ca_sweep(case: ModifiedCase, counts):
    """:func:`run_ca`'s results for each basis count s of ``counts`` in
    turn, from one basis: the first s columns of :func:`ca.build_basis`
    do not depend on its column count.  Every count must be an integer
    >= 1 (ValidationError)."""
    counts = [_integer(s, "basis count") for s in counts]
    if not counts or min(counts) < 1:
        raise ValidationError(f"basis counts must be >= 1, got {counts}")
    basis = _ca.build_basis(case.factor, case.K_m - case.star.K, case.F,
                            max(counts), case.dof_map.carries(case.cloud_mod))
    for s in counts:
        U_B = basis[:, :s]
        U = _ca.combine(U_B, _ca.reduce_and_solve(U_B, case.K_m, case.F))
        residual = float(np.linalg.norm(case.K_m @ U - case.F)
                         / max(np.linalg.norm(case.F), 1e-300))
        yield U, _restrict(case, U), {"method": "ca", "s": s,
                                      "rank": U_B.shape[1],
                                      "residual": residual}


def run_ca(case: ModifiedCase, s: int = 10):
    """CA reanalysis; returns (U, FieldSolution, diagnostics dict)."""
    return next(ca_sweep(case, [s]))


def run_ifu(case: ModifiedCase, tol: float | None = None):
    """IFU reanalysis; returns (U, FieldSolution, diagnostics dict)."""
    U, d = _ifu.ifu_solve(case.factor, case.star.K, case.K_m, case.F,
                          case.U_star, tol)
    diag = {"method": "ifu", **asdict(d), "short_circuit": d.short_circuit}
    return U, _restrict(case, U), diag


def run_full_modified(case: ModifiedCase):
    """From-scratch factorize+solve of the modified system (the reference)."""
    sys_m = StiffnessSystem(K=case.K_m, F=case.F, dof_map=case.dof_map)
    factor = factorize(sys_m)
    U = solve(factor, case.F)
    diag = {"method": "full"}
    return U, _restrict(case, U), diag
