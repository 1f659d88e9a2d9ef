"""Stiffness update strategies for modified node clouds.

The local strategy finds the Gauss points whose integration actually changes
(support node set or material-domain activity differs between the initial
and modified clouds) and re-integrates only those, giving a stiffness delta
that matches a global reassembly difference exactly.  The screen locates
every point's support in both clouds with the batched kernel of
:mod:`mkfree.interp`, and the delta integrates the affected points through
:func:`mkfree.assembly.integrate_stiffness`, the global assembler's own
path.  A material change
alters every Gauss contribution, so the strategy refuses it and the global
reassembly is the only option; a modification that leaves the node set
unchanged otherwise (empty, or a BC-only change) has a zero delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (StiffnessSystem, active_supports, assemble_stiffness,
                       constitutive, integrate_stiffness)
from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import MkfreeError, ValidationError
from .model import (BackgroundGrid, DofMap, MaterialModel, Modification,
                    NodeCloud)

__all__ = [
    "LocalUpdateUnavailableError",
    "InfluenceDomain",
    "StiffnessDelta",
    "changed_nodes",
    "build_influence_domain",
    "compute_delta",
    "local_delta",
    "global_update",
]


class LocalUpdateUnavailableError(MkfreeError):
    """The local strategy does not apply (material change)."""


def changed_nodes(mod: Modification) -> list[int]:
    """Sorted union of added and removed node ids."""
    return sorted(set(mod.added_ids) | mod.removed_ids)


def _supports_of(points, cloud: NodeCloud, node_ids: np.ndarray,
                 cfg: MeshlessConfig):
    """Integration state of every point for ``cloud``: a code (G,) that is
    -1 for an inactive point, -2 for a support-deficient one and the
    support size otherwise, and the support incidence (G, len(node_ids))
    of the supported points."""
    active, sup = active_supports(points, cloud, cfg)
    state = np.full(len(points), -1, dtype=np.int64)
    state[active] = np.where(sup.deficient, -2, sup.sizes)
    counts = np.zeros(len(points), dtype=np.int64)
    counts[active] = np.where(sup.deficient, 0, sup.sizes)
    rows = sup.rows[np.repeat(~sup.deficient, sup.sizes)]
    cols = np.searchsorted(node_ids, cloud.ids[rows])
    ptr = np.concatenate([[0], np.cumsum(counts)])
    return state, sp.csr_matrix((np.ones(len(cols)), cols, ptr),
                                shape=(len(points), len(node_ids)))


@dataclass(frozen=True)
class InfluenceDomain:
    """Gauss points and nodes affected by a node-set modification."""

    grid: BackgroundGrid
    affected_gauss: np.ndarray       # indices into grid.gauss
    influence_node_ids: np.ndarray   # nodes supporting any affected point
    n_gauss_total: int


def build_influence_domain(changed: list[int], cloud_initial: NodeCloud,
                           cloud_modified: NodeCloud, grid: BackgroundGrid,
                           cfg: MeshlessConfig = DEFAULT_CONFIG
                           ) -> InfluenceDomain:
    """Locate every Gauss point whose contribution differs between the
    initial and modified clouds.

    Every Gauss point is screened by comparing its integration state in
    the two clouds -- inactive, support-deficient, or the exact support
    node-id set -- so the resulting delta is exact by construction.
    """
    if not changed:
        raise ValidationError("influence domain of an empty modification")
    for nid in changed:
        src = cloud_modified if cloud_modified.has_node(nid) else cloud_initial
        if not src.has_node(nid):
            raise ValidationError(f"changed node {nid} not found in either cloud")
        pos = src.coord_of(nid)
        if not grid.contains(pos):
            raise ValidationError(f"changed node at {pos.tolist()} outside grid")

    points = grid.gauss[0]
    node_ids = np.union1d(cloud_initial.ids, cloud_modified.ids)
    state_i, A_i = _supports_of(points, cloud_initial, node_ids, cfg)
    state_m, A_m = _supports_of(points, cloud_modified, node_ids, cfg)
    differs = (state_i != state_m) | (np.diff((A_i != A_m).indptr) > 0)
    affected = np.flatnonzero(differs)
    influence = np.concatenate([A_i[affected].indices, A_m[affected].indices])
    return InfluenceDomain(
        grid=grid,
        affected_gauss=affected,
        influence_node_ids=np.union1d(node_ids[influence], changed),
        n_gauss_total=len(points),
    )


@dataclass(frozen=True)
class StiffnessDelta:
    """Sparse symmetric stiffness change on the union DOF space."""

    dK: sp.csr_matrix

    @classmethod
    def zero(cls, n: int) -> "StiffnessDelta":
        return cls(dK=sp.csr_matrix((n, n)))


def compute_delta(dom: InfluenceDomain, cloud_initial: NodeCloud,
                  cloud_modified: NodeCloud, mat: MaterialModel,
                  dof_map: DofMap, cfg: MeshlessConfig = DEFAULT_CONFIG
                  ) -> StiffnessDelta:
    """Re-integrate only the affected Gauss points and difference them.

    Includes the union-space diagonal bookkeeping: a removed node's DOFs
    gain the unit diagonal (+1) and an added node's DOFs lose it (-1).
    """
    N = dof_map.n_dofs
    points, weights, cells = (a[dom.affected_gauss] for a in dom.grid.gauss)
    dK = integrate_stiffness(
        [(cloud_modified, 1.0), (cloud_initial, -1.0)], points, weights,
        cells, constitutive(mat), dof_map, cfg)

    in_initial = np.isin(dof_map.node_ids, cloud_initial.ids)
    in_modified = np.isin(dof_map.node_ids, cloud_modified.ids)
    diag = np.repeat(in_initial.astype(float) - in_modified, dof_map.dim)
    swap = np.flatnonzero(diag)
    return StiffnessDelta(dK=(dK + sp.coo_matrix(
        (diag[swap], (swap, swap)), shape=(N, N))).tocsr())


def local_delta(mod: Modification, cloud_initial: NodeCloud,
                cloud_modified: NodeCloud, grid: BackgroundGrid,
                mat: MaterialModel, dof_map: DofMap,
                cfg: MeshlessConfig = DEFAULT_CONFIG):
    """Full local path: influence domain + delta.  Refuses material
    changes; a modification that keeps the node set (empty or BC-only)
    gets no influence domain and a zero delta."""
    if mod.material_change is not None:
        raise LocalUpdateUnavailableError(
            "material change alters every Gauss contribution; "
            "use the global updating strategy")
    if not mod.changes_nodes:
        return None, StiffnessDelta.zero(dof_map.n_dofs)
    dom = build_influence_domain(changed_nodes(mod), cloud_initial,
                                 cloud_modified, grid, cfg)
    return dom, compute_delta(dom, cloud_initial, cloud_modified, mat,
                              dof_map, cfg)


def global_update(cloud_modified: NodeCloud, grid: BackgroundGrid,
                  mat: MaterialModel, dof_map: DofMap,
                  cfg: MeshlessConfig = DEFAULT_CONFIG) -> StiffnessSystem:
    """Fallback path: reassemble the modified stiffness on the union space."""
    return assemble_stiffness(cloud_modified, grid, mat, cfg, dof_map=dof_map)

