"""Stiffness update strategies for modified node clouds.

The local strategy finds the Gauss points whose integration actually changes
(support node set or material-domain activity differs between the initial
and modified clouds) and re-integrates only those, giving a stiffness delta
that matches a global reassembly difference exactly.  A material change
alters every Gauss contribution, so the strategy refuses it and the global
reassembly is the only option; a modification that leaves the node set
unchanged otherwise (empty, or a BC-only change) has a zero delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (StiffnessSystem, assemble_stiffness, constitutive,
                       gauss_contribution, gauss_point_active, gauss_points)
from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import MkfreeError, SupportDeficiencyError, ValidationError
from .interp import select_support
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


def _support_signature(point, cloud: NodeCloud, cfg: MeshlessConfig):
    """Cheap fingerprint of a Gauss point's integration state: inactive,
    support-deficient, or the exact support node-id tuple."""
    if not gauss_point_active(point, cloud, cfg):
        return ("inactive",)
    try:
        sel = select_support(point, cloud, cfg)
    except SupportDeficiencyError:
        return ("deficient",)
    return tuple(int(i) for i in sel.node_ids)


@dataclass(frozen=True)
class InfluenceDomain:
    """Gauss points and nodes affected by a node-set modification."""

    affected_gauss: tuple            # GaussPoint objects
    influence_node_ids: np.ndarray   # nodes supporting any affected point
    n_gauss_total: int


def build_influence_domain(changed: list[int], cloud_initial: NodeCloud,
                           cloud_modified: NodeCloud, grid: BackgroundGrid,
                           cfg: MeshlessConfig = DEFAULT_CONFIG
                           ) -> InfluenceDomain:
    """Locate every Gauss point whose contribution differs between the
    initial and modified clouds.

    Every Gauss point is screened with a cheap support-signature
    comparison (activity plus the exact support node set), so the
    resulting delta is exact by construction.
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

    affected = []
    influence_nodes: set[int] = set()
    n_total = 0
    for gp in gauss_points(grid):
        n_total += 1
        sig_i = _support_signature(gp.position, cloud_initial, cfg)
        sig_m = _support_signature(gp.position, cloud_modified, cfg)
        if sig_i == sig_m:
            continue
        affected.append(gp)
        for sig in (sig_i, sig_m):
            if sig and isinstance(sig[0], int):
                influence_nodes.update(sig)
    influence_nodes.update(changed)
    return InfluenceDomain(
        affected_gauss=tuple(affected),
        influence_node_ids=np.array(sorted(influence_nodes), dtype=np.int64),
        n_gauss_total=n_total,
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
    D = constitutive(mat)
    rows, cols, vals = [], [], []
    for gp in dom.affected_gauss:
        for cloud, sign in ((cloud_modified, 1.0), (cloud_initial, -1.0)):
            contrib = gauss_contribution(gp.position, gp.weight, cloud, D, cfg)
            if contrib is None:
                continue
            node_ids, k = contrib
            dofs = dof_map.dofs_of(node_ids)
            rr, cc = np.meshgrid(dofs, dofs, indexing="ij")
            rows.append(rr.ravel())
            cols.append(cc.ravel())
            vals.append(sign * k.ravel())

    in_initial = np.isin(dof_map.node_ids, cloud_initial.ids)
    in_modified = np.isin(dof_map.node_ids, cloud_modified.ids)
    removed_dofs = np.where(np.repeat(in_initial & ~in_modified, dof_map.dim))[0]
    added_dofs = np.where(np.repeat(~in_initial & in_modified, dof_map.dim))[0]
    for dofs, sign in ((removed_dofs, 1.0), (added_dofs, -1.0)):
        if len(dofs):
            rows.append(dofs)
            cols.append(dofs)
            vals.append(sign * np.ones(len(dofs)))

    if rows:
        dK = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(N, N)).tocsr()
    else:
        dK = sp.csr_matrix((N, N))
    return StiffnessDelta(dK=dK)


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

