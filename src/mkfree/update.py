"""Stiffness update strategies for modified node clouds.

The local strategy finds the Gauss points whose integration actually changes
(support node set or material-domain activity differs between the initial
and modified clouds) and re-integrates only those, giving a stiffness delta
that matches a global reassembly difference to roundoff.

The initial cloud's side has one source, its
:class:`~mkfree.assembly.GaussState`, which the baseline assembly keeps.
The screen is bounded by the state's reach (:func:`mkfree.interp.reach`):
only the Gauss points with a changed node within their reach can change,
so only those candidates are searched in the modified cloud, and their
support sizes and id lists are compared against the state's.  Every other
point provably keeps its support and activity.  The delta evaluates the
modified cloud at the affected points, on the supports the screen found,
and takes the initial rows, signed -, from the state.  The initial cloud
is never searched or evaluated; :func:`local_delta` builds its state
itself when the caller has none.  The delta is the global assembler's own
integration (:func:`mkfree.assembly.integrate_stiffness`), with the
modified material.  A modification that leaves the node set unchanged (a
material or BC change, or none) has a zero delta: a material change alone
is a recombination of the baseline's gradient products, which the
pipeline makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .assembly import (GaussState, StiffnessSystem, active_supports,
                       assemble_stiffness, at_gauss_point, gauss_state,
                       integrate_stiffness)
from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import ValidationError
from .interp import within_reach
from .model import (BackgroundGrid, DofMap, MaterialModel, Modification,
                    NodeCloud)

__all__ = [
    "InfluenceDomain",
    "StiffnessDelta",
    "changed_nodes",
    "changed_coords",
    "build_influence_domain",
    "compute_delta",
    "local_delta",
    "global_update",
]


def changed_nodes(mod: Modification) -> list[int]:
    """Sorted union of added and removed node ids."""
    return sorted(set(mod.added_ids) | mod.removed_ids)


def changed_coords(changed: list[int], cloud_initial: NodeCloud,
                   cloud_modified: NodeCloud) -> np.ndarray:
    """(len(changed), dim) positions of the changed nodes: an added node's
    in the modified cloud, a removed node's in the initial one."""
    out = np.empty((len(changed), cloud_initial.dim))
    for k, nid in enumerate(changed):
        src = cloud_modified if cloud_modified.has_node(nid) else cloud_initial
        if not src.has_node(nid):
            raise ValidationError(f"changed node {nid} not found in either cloud")
        out[k] = src.coord_of(nid)
    return out


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
                           initial: GaussState,
                           cfg: MeshlessConfig = DEFAULT_CONFIG
                           ) -> InfluenceDomain:
    """Locate every Gauss point whose contribution differs between the
    initial and modified clouds.

    ``initial`` is the initial cloud's state over the whole grid, with the
    reach of every Gauss point.  The candidates are the points with a
    changed node within their reach; every other point has the same
    activity and support in both clouds (:func:`mkfree.interp.reach`).
    Only the candidates are searched in the modified cloud, which raises
    SupportDeficiencyError naming the first deficient one, and that is
    the first deficient point of the grid.  A candidate differs when its
    two support sizes differ (0 where it does not integrate) or, at equal
    sizes, when its ascending id lists differ at any entry.  The modified
    supports at the affected points are kept for :func:`compute_delta`.
    """
    if not changed:
        raise ValidationError("influence domain of an empty modification")
    moved = changed_coords(changed, cloud_initial, cloud_modified)
    for pos in moved:
        if not grid.contains(pos):
            raise ValidationError(f"changed node at {pos.tolist()} outside grid")

    points = grid.gauss[0]
    cand = np.flatnonzero(within_reach(points, initial.reach, moved))
    active_c, sup_c, _ = active_supports(
        points[cand], cloud_modified, cfg,
        lambda p: at_gauss_point(grid, cand[p]))
    size_i = np.zeros(len(points), dtype=np.int64)
    size_i[initial.active] = initial.sup.sizes
    size_i = size_i[cand]
    size_m = np.zeros(len(cand), dtype=np.int64)
    size_m[active_c] = sup_c.sizes
    differs = size_i != size_m
    same = np.flatnonzero(~differs & (size_i > 0))
    at_i = np.searchsorted(initial.active, cand)
    ids_i = cloud_initial.ids[initial.sup.take(at_i[same]).rows]
    ids_m = cloud_modified.ids[
        sup_c.take(np.searchsorted(active_c, same)).rows]
    differs[np.repeat(same, size_i[same])[ids_i != ids_m]] = True
    kept_i = at_i[differs & (size_i > 0)]
    kept_m = np.flatnonzero(differs[active_c])
    affected_m = sup_c.take(kept_m)
    influence = np.concatenate([
        cloud_initial.ids[initial.sup.take(kept_i).rows],
        cloud_modified.ids[affected_m.rows]])
    return InfluenceDomain(
        grid=grid,
        affected_gauss=cand[differs],
        influence_node_ids=np.union1d(influence, changed),
        n_gauss_total=len(points),
        modified_supports=(cand[active_c[kept_m]], affected_m),
    )


@dataclass(frozen=True)
class StiffnessDelta:
    """Sparse symmetric stiffness change on the union DOF space."""

    dK: sp.csr_matrix


def compute_delta(dom: InfluenceDomain, cloud_initial: NodeCloud,
                  cloud_modified: NodeCloud, mat: MaterialModel,
                  dof_map: DofMap, initial: GaussState,
                  cfg: MeshlessConfig = DEFAULT_CONFIG) -> StiffnessDelta:
    """Re-integrate only the affected Gauss points and difference them.

    The modified cloud's term, signed +, is one kernel pass at the
    affected points on the supports the screen found.  The initial
    cloud's term, signed -, is ``initial``, its state over the whole grid,
    taken at the affected points; the initial cloud is not evaluated.

    The delta is taken between two stiffness matrices on the union space,
    so it also carries the difference of their decoupling diagonals
    (:meth:`DofMap.absent_unit` of the modified cloud minus that of the
    initial one): +1 on a removed node's DOFs and -1 on an added node's.
    """
    modified = gauss_state(cloud_modified, dom.grid, cfg,
                           dom.modified_supports)
    dK = integrate_stiffness(
        [(cloud_modified, modified, 1.0),
         (cloud_initial, initial.take(dom.affected_gauss), -1.0)],
        dom.grid.gauss[1], mat, dof_map)
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
    neither step then searches or evaluates the initial cloud.  Both sides
    are integrated with ``mat``, the modified material; a modification that
    keeps the node set gets no influence domain and a zero delta."""
    if not mod.changes_nodes:
        n = dof_map.n_dofs
        return None, StiffnessDelta(dK=sp.csr_matrix((n, n)))
    if initial is None:
        initial = gauss_state(cloud_initial, grid, cfg)
    dom = build_influence_domain(changed_nodes(mod), cloud_initial,
                                 cloud_modified, grid, initial, cfg)
    return dom, compute_delta(dom, cloud_initial, cloud_modified, mat,
                              dof_map, initial, cfg)


def global_update(cloud_modified: NodeCloud, grid: BackgroundGrid,
                  mat: MaterialModel, dof_map: DofMap,
                  cfg: MeshlessConfig = DEFAULT_CONFIG) -> StiffnessSystem:
    """Reference path: reassemble the modified stiffness on the union
    space, the oracle of the local update."""
    return assemble_stiffness(cloud_modified, grid, mat, cfg, dof_map=dof_map)

