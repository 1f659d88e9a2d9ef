"""Strain/stress recovery at nodes and the relative error metrics used to
compare reanalysis against full analysis.

The strains at all nodes come from one pass of the batched Gauss-point
kernel (:func:`mkfree.interp.evaluate_batch`) with the nodes as
evaluation points, through the displacement gradient at each node; a
refused support or system names its node id."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import constitutive
from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import ValidationError
from .interp import evaluate_batch, find_supports, spacing
from .model import DofMap, MaterialModel, NodeCloud, identity_dof_map

__all__ = ["FieldSolution", "recover_fields", "von_mises", "error_metrics"]

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


def recover_fields(U: np.ndarray, cloud: NodeCloud, mat: MaterialModel,
                   cfg: MeshlessConfig = DEFAULT_CONFIG,
                   dof_map: DofMap | None = None) -> FieldSolution:
    """Evaluate strain, from H_ab = sum_I d_a phi_I(x_node) u_Ib, and
    stress = D strain at every node of ``cloud``.

    ``U`` lives on ``dof_map`` (the cloud's own DOF ordering when omitted);
    union-space entries of absent nodes are simply never referenced.
    """
    if dof_map is None:
        dof_map = identity_dof_map(cloud)
    U = np.asarray(U, dtype=float)
    if U.shape[0] != dof_map.n_dofs:
        raise ValidationError("displacement length does not match DOF map")
    D = constitutive(mat)
    order = np.argsort(cloud.ids)
    node_ids = cloud.ids[order]
    X = cloud.coords[order]
    _, d_c = spacing(X, cloud)
    where = lambda g: f" (at node {node_ids[g]})"
    sup = find_supports(X, cloud, d_c, cfg, where)
    U_nodes = U.reshape(-1, cloud.dim)[dof_map.positions(cloud.ids)]
    a, b = _VOIGT[cloud.dim]
    half = np.where(np.equal(a, b), 0.5, 1.0)
    strain = np.empty((cloud.n_nodes, len(a)))
    for idx, rows, _, grads in evaluate_batch(X, cloud, sup, cfg, where):
        H = np.einsum("cna,cnb->cab", grads, U_nodes[rows])
        strain[idx] = (H[:, a, b] + H[:, b, a]) * half
    disp = U_nodes[order]
    stress = strain @ D.T
    return FieldSolution(
        node_ids=node_ids,
        displacements=disp,
        strain=strain,
        stress=stress,
        vm_strain=von_mises(strain, mat.mode, kind="strain"),
        vm_stress=von_mises(stress, mat.mode, kind="stress"),
    )


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
