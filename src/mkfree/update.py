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
modified cloud's gradients at the affected points, on the supports the
screen found (no second search), and takes the initial rows, signed -,
from the state.  The initial cloud is never searched or evaluated;
:func:`local_delta` builds its state with
:func:`~mkfree.assembly.gauss_state` when the caller has none.  The delta
is the global assembler's own integration
(:func:`~mkfree.assembly.gradient_products` and
:func:`~mkfree.assembly.isotropic_stiffness`), with the modified
material.  A modification that leaves the node set unchanged (a
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
                       gradient_products, isotropic_stiffness)
from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import ValidationError
from .interp import Supports, support_gradients, within_reach
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
    changed = np.asarray(changed, dtype=np.int64)
    out = np.empty((len(changed), cloud_initial.dim))
    found = np.zeros(len(changed), dtype=bool)
    for cloud in (cloud_initial, cloud_modified):
        held = np.isin(changed, cloud.ids)
        out[held] = cloud.coords[cloud.ids.searchsorted(changed[held])]
        found |= held
    if not found.all():
        raise ValidationError(
            f"changed node {changed[~found][0]} not found in either cloud")
    return out


@dataclass(frozen=True)
class InfluenceDomain:
    """Gauss points and nodes affected by a node-set modification, and the
    modified cloud's supports at the affected points."""

    grid: BackgroundGrid
    affected_gauss: np.ndarray       # indices into grid.gauss
    influence_node_ids: np.ndarray   # nodes supporting any affected point
    n_gauss_total: int
    modified_supports: Supports      # in cloud_modified, one per affected
                                     # point, empty where it does not
                                     # integrate


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
    The clouds are as :func:`~mkfree.model.validate_model` accepts them.
    """
    if not changed:
        raise ValidationError("influence domain of an empty modification")
    moved = changed_coords(changed, cloud_initial, cloud_modified)
    points = grid.gauss[0]
    cand = np.flatnonzero(within_reach(points, initial.reach, moved))
    sup_i = initial.sup.take(cand)
    sup_m, _ = active_supports(points[cand], cloud_modified, cfg,
                               lambda p: at_gauss_point(grid, cand[p]))
    differs = sup_i.sizes != sup_m.sizes
    same = np.flatnonzero(~differs)
    ids_i = cloud_initial.ids[sup_i.take(same).rows]
    ids_m = cloud_modified.ids[sup_m.take(same).rows]
    differs[np.repeat(same, sup_i.sizes[same])[ids_i != ids_m]] = True
    affected = np.flatnonzero(differs)
    sup_m = sup_m.take(affected)
    influence = np.concatenate([cloud_initial.ids[sup_i.take(affected).rows],
                                cloud_modified.ids[sup_m.rows]])
    return InfluenceDomain(
        grid=grid,
        affected_gauss=cand[affected],
        influence_node_ids=np.union1d(influence, changed),
        n_gauss_total=len(points),
        modified_supports=sup_m,
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

    The modified cloud's term, signed +, is the shape-function gradients
    at the affected points on the supports the screen found.  The initial
    cloud's term, signed -, is ``initial``, its state over the whole grid,
    taken at the affected points; the initial cloud is not evaluated.

    The delta is raw, the difference of the two physics matrices: every
    Gauss point a removed or added node supports is affected, so its row
    is exactly minus the initial matrix's row, or exactly the modified
    one's.  Decoupling those DOFs is :func:`~mkfree.assembly.apply_bcs`'s.
    """
    points, weights, _ = dom.grid.gauss
    affected, sup = dom.affected_gauss, dom.modified_supports
    modified = GaussState(sup=sup, grads=support_gradients(
        points[affected], cloud_modified, sup, cfg,
        lambda j: at_gauss_point(dom.grid, affected[j])))
    return StiffnessDelta(dK=isotropic_stiffness(gradient_products(
        [(cloud_modified, modified, 1.0),
         (cloud_initial, initial.take(affected), -1.0)],
        weights[affected], dof_map), mat))


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
        initial = gauss_state(cloud_initial, grid.gauss[0], cfg,
                              partial(at_gauss_point, grid))
    dom = build_influence_domain(changed_nodes(mod), cloud_initial,
                                 cloud_modified, grid, initial, cfg)
    return dom, compute_delta(dom, cloud_initial, cloud_modified, mat,
                              dof_map, initial, cfg)


def global_update(cloud_modified: NodeCloud, grid: BackgroundGrid,
                  mat: MaterialModel, dof_map: DofMap,
                  cfg: MeshlessConfig = DEFAULT_CONFIG) -> StiffnessSystem:
    """Reference path: reassemble the modified raw stiffness on the union
    space, the oracle of the local update."""
    return assemble_stiffness(cloud_modified, grid, mat, cfg, dof_map=dof_map)

