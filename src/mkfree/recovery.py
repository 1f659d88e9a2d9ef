"""Strain/stress recovery at nodes and the relative error metrics used to
compare reanalysis against full analysis.

Nodal strain comes from a node-point state of the cloud
(:func:`node_state`): a :class:`~mkfree.assembly.GaussState` whose points
are the nodes in id order, holding their supports, the shape-function
gradients at them and their reach.  Strain is then the sparse product
H = sum_n grad phi_n (x) u_n of the gradients with the nodal displacements
(:func:`fields_at_nodes`).  :func:`recover_fields` builds the state from
scratch; a reanalysis derives the modified cloud's state from the
baseline's (:func:`edited_node_state`), re-searching and re-evaluating
only the added nodes and the nodes with a changed node within their
reach, and copying every other node's row.  A refused support or system
names its node id."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import GaussState, constitutive
from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import ValidationError
from .interp import (Supports, find_supports, reach, spacing,
                     support_gradients, within_reach)
from .model import DofMap, MaterialModel, NodeCloud, identity_dof_map

__all__ = ["FieldSolution", "node_state", "edited_node_state",
           "fields_at_nodes", "recover_fields", "von_mises", "error_metrics"]

# strain component k is (H_ab + H_ba) / (2 if a == b else 1), in CSV order
_VOIGT = {2: ((0, 1, 0), (0, 1, 1)),
          3: ((0, 1, 2, 1, 2, 0), (0, 1, 2, 2, 0, 1))}


@dataclass(frozen=True)
class FieldSolution:
    """Displacement and recovered fields at the nodes of one cloud."""

    node_ids: np.ndarray
    displacements: np.ndarray   # (n_nodes, dim)
    strain: np.ndarray          # (n_nodes, 3) 2D / (n_nodes, 6) 3D
    stress: np.ndarray
    vm_strain: np.ndarray       # (n_nodes,)
    vm_stress: np.ndarray


def von_mises(components: np.ndarray, mode: str, kind: str = "stress"
              ) -> np.ndarray:
    """Von Mises equivalent of stress or strain vectors (rows or a single
    vector).

    Strain uses the incompressible deviatoric convention (effective Poisson
    ratio 0.5, engineering shear components).
    """
    v = np.atleast_2d(np.asarray(components, dtype=float))
    expected = 3 if mode == "plane_stress" else 6
    if v.shape[1] != expected:
        raise ValidationError(
            f"expected {expected} components for {mode}, got {v.shape[1]}")
    if kind == "stress":
        if mode == "plane_stress":
            sx, sy, t = v.T
            out = np.sqrt(sx ** 2 + sy ** 2 - sx * sy + 3.0 * t ** 2)
        else:
            sx, sy, sz, tyz, tzx, txy = v.T
            out = np.sqrt(0.5 * ((sx - sy) ** 2 + (sy - sz) ** 2
                                 + (sz - sx) ** 2)
                          + 3.0 * (tyz ** 2 + tzx ** 2 + txy ** 2))
    elif kind == "strain":
        if mode == "plane_stress":
            ex, ey, g = v.T
            # out-of-plane strain from incompressibility: ez = -(ex + ey)
            ee = ex ** 2 + ey ** 2 + (ex + ey) ** 2 + 0.5 * g ** 2
        else:
            ex, ey, ez, gyz, gzx, gxy = v.T
            tr3 = (ex + ey + ez) / 3.0
            ee = ((ex - tr3) ** 2 + (ey - tr3) ** 2 + (ez - tr3) ** 2
                  + 0.5 * (gyz ** 2 + gzx ** 2 + gxy ** 2))
        out = np.sqrt(2.0 / 3.0 * ee)
    else:
        raise ValidationError(f"unknown kind {kind!r}")
    return out[0] if np.asarray(components).ndim == 1 else out


def _nodes(cloud: NodeCloud, rows: np.ndarray, cfg: MeshlessConfig):
    """Supports (cloud rows), gradients and reach of the nodes at cloud
    rows ``rows``; a refused support or system names its node id."""
    X = cloud.coords[rows]
    dist, d_c, d_nb = spacing(X, cloud)
    where = lambda g: f" (at node {cloud.ids[rows[g]]})"
    sup = find_supports(X, cloud, d_c, cfg, where)
    return (sup, support_gradients(X, cloud, sup, cfg, where),
            reach(dist, d_c, d_nb, cfg))


def node_state(cloud: NodeCloud, cfg: MeshlessConfig = DEFAULT_CONFIG
               ) -> GaussState:
    """The node-point state of ``cloud``: its nodes in id order, every one
    of them a point, with its support, gradients and reach."""
    sup, grads, rho = _nodes(cloud, np.argsort(cloud.ids), cfg)
    return GaussState(active=np.arange(cloud.n_nodes), sup=sup, grads=grads,
                      reach=rho)


def edited_node_state(initial: GaussState, cloud_initial: NodeCloud,
                      cloud_modified: NodeCloud, moved: np.ndarray,
                      cfg: MeshlessConfig = DEFAULT_CONFIG) -> GaussState:
    """The node-point state of ``cloud_modified`` from ``initial``, that of
    ``cloud_initial``, for an edit whose changed nodes sit at ``moved``.

    A kept node with no changed node within its reach has the same
    support and gradients in both clouds (:func:`mkfree.interp.reach`), so
    its row is copied, support rows re-mapped to the modified cloud by id.
    The added nodes and the other kept nodes are searched and evaluated.
    The result equals :func:`node_state` of ``cloud_modified`` entry for
    entry, and a deficient node raises naming the same node.
    """
    order_i = np.argsort(cloud_initial.ids)
    order_m = np.argsort(cloud_modified.ids)
    ids_i, ids_m = cloud_initial.ids[order_i], cloud_modified.ids[order_m]
    src = np.minimum(np.searchsorted(ids_i, ids_m), len(ids_i) - 1)
    fresh = ids_i[src] != ids_m
    kept = np.flatnonzero(~fresh)
    fresh[kept] = within_reach(cloud_modified.coords[order_m[kept]],
                               initial.reach[src[kept]], moved)
    copy, new = np.flatnonzero(~fresh), np.flatnonzero(fresh)
    sup_n, grads_n, rho_n = _nodes(cloud_modified, order_m[new], cfg)
    row_m = np.empty(cloud_initial.n_nodes, dtype=np.int64)  # kept rows only
    row_m[order_i[src[kept]]] = order_m[kept]

    sizes = np.empty(len(ids_m), dtype=np.int64)
    sizes[copy] = initial.sup.sizes[src[copy]]
    sizes[new] = sup_n.sizes
    ptr = np.zeros(len(ids_m) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    sup = Supports(ptr=ptr, rows=np.empty(ptr[-1], dtype=np.int64))
    grads = np.empty((ptr[-1], cloud_modified.dim))
    rho = np.empty(len(ids_m))
    _, flat = initial.sup.entries(src[copy])
    _, at = sup.entries(copy)
    sup.rows[at] = row_m[initial.sup.rows[flat]]
    grads[at] = np.take(initial.grads, flat, axis=0)
    rho[copy] = initial.reach[src[copy]]
    _, at = sup.entries(new)
    sup.rows[at] = sup_n.rows
    grads[at] = grads_n
    rho[new] = rho_n
    return GaussState(active=np.arange(len(ids_m)), sup=sup, grads=grads,
                      reach=rho)


def fields_at_nodes(U: np.ndarray, cloud: NodeCloud, nodes: GaussState,
                    mat: MaterialModel, dof_map: DofMap | None = None
                    ) -> FieldSolution:
    """Strain, from H_ab = sum_I d_a phi_I(x_node) u_Ib, and stress =
    D strain at every node of ``cloud``, whose node-point state is
    ``nodes``.  H is one sparse product per axis a: the CSR matrix of the
    gradients d_a phi on the supports, a row per node, times the nodal
    displacements.

    ``U`` lives on ``dof_map`` (the cloud's own DOF ordering when omitted);
    union-space entries of absent nodes are simply never referenced.
    """
    if dof_map is None:
        dof_map = identity_dof_map(cloud)
    U = np.asarray(U, dtype=float)
    if U.shape[0] != dof_map.n_dofs:
        raise ValidationError("displacement length does not match DOF map")
    n, dim = cloud.n_nodes, cloud.dim
    U_rows = U.reshape(-1, dim)[dof_map.positions(cloud.ids)]
    H = np.empty((n, dim, dim))
    for a in range(dim):
        G_a = sp.csr_matrix((nodes.grads[:, a], nodes.sup.rows,
                             nodes.sup.ptr), shape=(n, n))
        H[:, a] = G_a @ U_rows
    a, b = _VOIGT[dim]
    strain = (H[:, a, b] + H[:, b, a]) * np.where(np.equal(a, b), 0.5, 1.0)
    stress = strain @ constitutive(mat).T
    order = np.argsort(cloud.ids)
    return FieldSolution(
        node_ids=cloud.ids[order],
        displacements=U_rows[order],
        strain=strain,
        stress=stress,
        vm_strain=von_mises(strain, mat.mode, kind="strain"),
        vm_stress=von_mises(stress, mat.mode, kind="stress"),
    )


def recover_fields(U: np.ndarray, cloud: NodeCloud, mat: MaterialModel,
                   cfg: MeshlessConfig = DEFAULT_CONFIG,
                   dof_map: DofMap | None = None) -> FieldSolution:
    """:func:`fields_at_nodes` on the node-point state of ``cloud`` built
    from scratch (:func:`node_state`)."""
    return fields_at_nodes(U, cloud, node_state(cloud, cfg), mat, dof_map)


def _rel_norm(cand: np.ndarray, ref: np.ndarray, label: str) -> float:
    ref_norm = np.linalg.norm(ref)
    if ref_norm == 0.0:
        raise ValidationError(f"reference {label} norm is zero; error undefined")
    return float(np.linalg.norm(cand - ref) / ref_norm * 100.0)


def error_metrics(candidate: FieldSolution, reference: FieldSolution):
    """Percent errors (E_u, E_eps, E_sigma): relative 2-norm of displacement
    and of the per-node von Mises strain/stress vectors."""
    if not np.array_equal(candidate.node_ids, reference.node_ids):
        raise ValidationError("error metrics require identical node sets")
    E_u = _rel_norm(candidate.displacements.ravel(),
                    reference.displacements.ravel(), "displacement")
    E_eps = _rel_norm(candidate.vm_strain, reference.vm_strain, "strain")
    E_sig = _rel_norm(candidate.vm_stress, reference.vm_stress, "stress")
    return E_u, E_eps, E_sig
