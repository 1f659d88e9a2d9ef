"""Stiffness update strategies for modified node clouds.

The local strategy finds the Gauss points whose integration actually changes
(support node set or material-domain activity differs between the initial
and modified clouds) and re-integrates only those, giving a stiffness delta
that matches a global reassembly difference to roundoff.

The initial cloud's side comes from its :class:`~mkfree.assembly.GaussState`,
which the baseline assembly keeps: the screen reads the initial codes and
support incidence from it, and the delta takes the initial rows, signed -,
from it at the affected points.  Only the modified cloud is searched
(over the whole grid, for the screen) and evaluated (at the affected
points, on the supports the screen found).  :func:`local_delta` builds
the initial state itself when the caller has none.  The delta is the
global assembler's own sparse product
(:func:`mkfree.assembly.integrate_stiffness`).  A material change alters
every Gauss contribution, so the strategy refuses it and the global
reassembly is the only option; a modification that leaves the node set
unchanged otherwise (empty, or a BC-only change) has a zero delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (GaussState, StiffnessSystem, active_supports,
                       assemble_stiffness, constitutive, gauss_state,
                       integrate_stiffness)
from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import MkfreeError, ValidationError
from .interp import Supports
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


def _screen_side(active, sup: Supports, cloud: NodeCloud, G: int,
                 node_ids: np.ndarray):
    """Integration state of G points for ``cloud`` from its active points
    and their supports: a code (G,) that is -1 for an inactive point, -2
    for a support-deficient one and the support size otherwise, and the
    support incidence (G, len(node_ids)) of the supported points."""
    code = np.full(G, -1, dtype=np.int64)
    code[active] = np.where(sup.deficient, -2, sup.sizes)
    counts = np.zeros(G, dtype=np.int64)
    counts[active] = np.where(sup.deficient, 0, sup.sizes)
    rows = sup.rows[np.repeat(~sup.deficient, sup.sizes)]
    cols = np.searchsorted(node_ids, cloud.ids[rows])
    ptr = np.concatenate([[0], np.cumsum(counts)])
    return code, sp.csr_matrix((np.ones(len(cols)), cols, ptr),
                                shape=(G, len(node_ids)))


@dataclass(frozen=True)
class InfluenceDomain:
    """Gauss points and nodes affected by a node-set modification, and the
    modified cloud's (active, supports) at the affected points."""

    grid: BackgroundGrid
    affected_gauss: np.ndarray       # indices into grid.gauss
    influence_node_ids: np.ndarray   # nodes supporting any affected point
    n_gauss_total: int
    modified_supports: tuple         # (active indices into grid.gauss,
                                     #  their Supports in cloud_modified)


def build_influence_domain(changed: list[int], cloud_initial: NodeCloud,
                           cloud_modified: NodeCloud, grid: BackgroundGrid,
                           cfg: MeshlessConfig = DEFAULT_CONFIG,
                           initial: GaussState | None = None
                           ) -> InfluenceDomain:
    """Locate every Gauss point whose contribution differs between the
    initial and modified clouds.

    Every Gauss point is screened by comparing its integration state in
    the two clouds -- inactive, support-deficient, or the exact support
    node-id set -- so no point whose contribution changed is missed.  The
    initial side is read from ``initial``, the initial cloud's state over
    the whole grid, when given, and searched otherwise; the modified side
    is searched, and its supports at the affected points are kept for
    :func:`compute_delta`.
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
    G = len(points)
    node_ids = np.union1d(cloud_initial.ids, cloud_modified.ids)
    side_i = (active_supports(points, cloud_initial, cfg) if initial is None
              else (initial.active, initial.sup))
    active_m, sup_m = active_supports(points, cloud_modified, cfg)
    code_i, A_i = _screen_side(*side_i, cloud_initial, G, node_ids)
    code_m, A_m = _screen_side(active_m, sup_m, cloud_modified, G, node_ids)
    differs = (code_i != code_m) | (np.diff((A_i != A_m).indptr) > 0)
    affected = np.flatnonzero(differs)
    influence = np.concatenate([A_i[affected].indices, A_m[affected].indices])
    kept = np.flatnonzero(differs[active_m])
    return InfluenceDomain(
        grid=grid,
        affected_gauss=affected,
        influence_node_ids=np.union1d(node_ids[influence], changed),
        n_gauss_total=G,
        modified_supports=(active_m[kept], sup_m.take(kept)),
    )


@dataclass(frozen=True)
class StiffnessDelta:
    """Sparse symmetric stiffness change on the union DOF space."""

    dK: sp.csr_matrix


def compute_delta(dom: InfluenceDomain, cloud_initial: NodeCloud,
                  cloud_modified: NodeCloud, mat: MaterialModel,
                  dof_map: DofMap, cfg: MeshlessConfig = DEFAULT_CONFIG,
                  initial: GaussState | None = None) -> StiffnessDelta:
    """Re-integrate only the affected Gauss points and difference them.

    The modified cloud's term, signed +, is one kernel pass at the
    affected points on the supports the screen found.  The initial
    cloud's term, signed -, is ``initial`` (its state over the whole
    grid, built here when not given) taken at the affected points.

    The delta is taken between two stiffness matrices on the union space,
    so it also carries the difference of their decoupling diagonals
    (:meth:`DofMap.absent_unit` of the modified cloud minus that of the
    initial one): +1 on a removed node's DOFs and -1 on an added node's.
    """
    if initial is None:
        initial = gauss_state(cloud_initial, dom.grid, cfg)
    modified = gauss_state(cloud_modified, dom.grid, cfg,
                           dom.modified_supports)
    dK = integrate_stiffness(
        [(cloud_modified, modified, 1.0),
         (cloud_initial, initial.take(dom.affected_gauss), -1.0)],
        dom.grid.gauss[1], constitutive(mat), dof_map)
    unit = (dof_map.absent_unit(cloud_modified)
            - dof_map.absent_unit(cloud_initial))
    return StiffnessDelta(dK=(dK + unit).tocsr())


def local_delta(mod: Modification, cloud_initial: NodeCloud,
                cloud_modified: NodeCloud, grid: BackgroundGrid,
                mat: MaterialModel, dof_map: DofMap,
                cfg: MeshlessConfig = DEFAULT_CONFIG,
                initial: GaussState | None = None):
    """Full local path: influence domain + delta.  ``initial`` is the
    initial cloud's state over the whole grid (``StiffnessSystem.state``
    of its assembly), built here by :func:`gauss_state` when not given;
    neither step then searches or evaluates the initial cloud.  Refuses
    material changes; a modification that keeps the node set (empty or
    BC-only) gets no influence domain and a zero delta."""
    if mod.material_change is not None:
        raise LocalUpdateUnavailableError(
            "material change alters every Gauss contribution; "
            "use the global updating strategy")
    if not mod.changes_nodes:
        n = dof_map.n_dofs
        return None, StiffnessDelta(dK=sp.csr_matrix((n, n)))
    if initial is None:
        initial = gauss_state(cloud_initial, grid, cfg)
    dom = build_influence_domain(changed_nodes(mod), cloud_initial,
                                 cloud_modified, grid, cfg, initial)
    return dom, compute_delta(dom, cloud_initial, cloud_modified, mat,
                              dof_map, cfg, initial)


def global_update(cloud_modified: NodeCloud, grid: BackgroundGrid,
                  mat: MaterialModel, dof_map: DofMap,
                  cfg: MeshlessConfig = DEFAULT_CONFIG) -> StiffnessSystem:
    """Fallback path: reassemble the modified stiffness on the union space."""
    return assemble_stiffness(cloud_modified, grid, mat, cfg, dof_map=dof_map)

