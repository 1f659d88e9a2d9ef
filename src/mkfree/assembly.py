"""Global stiffness and load assembly by Gauss quadrature over background
cells.

Each cell carries a 2x2 (2x2x2 in 3D) Gauss-Legendre rule.  A Gauss point
contributes only when it lies inside the material domain, which a node cloud
represents implicitly: the point must have a cloud node within
``activity_factor * d_c``.  Both the global assembler and the local
delta updater share :func:`gauss_contribution`, so their per-point
contributions are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import MkfreeError, ValidationError
from .interp import (ShapeEval, build_system, local_spacing, select_support,
                     shape_functions)
from .model import (BackgroundGrid, BoundaryConditions, DofMap, MaterialModel,
                    NodeCloud, identity_dof_map)

__all__ = [
    "GaussPoint",
    "StiffnessSystem",
    "gauss_points",
    "cell_gauss_points",
    "gauss_point_active",
    "constitutive",
    "strain_displacement",
    "gauss_contribution",
    "assemble_stiffness",
    "assemble_load",
    "apply_bcs",
]

_GL = 1.0 / np.sqrt(3.0)   # 2-point Gauss-Legendre abscissae on [-1, 1]


@dataclass(frozen=True)
class GaussPoint:
    position: np.ndarray
    weight: float           # quadrature weight x jacobian (area/volume scaled)
    cell: tuple


def cell_gauss_points(grid: BackgroundGrid, cell: tuple) -> list[GaussPoint]:
    """The 2^dim Gauss points of one cell; weights sum to the cell measure."""
    lo, hi = grid.cell_bounds(cell)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    d = grid.dim
    w = float(np.prod(hi - lo)) / (2 ** d)
    pts = []
    for signs in np.ndindex(*(2,) * d):
        offset = (2.0 * np.asarray(signs) - 1.0) * _GL * half
        pts.append(GaussPoint(position=center + offset, weight=w, cell=cell))
    return pts


def gauss_points(grid: BackgroundGrid) -> list[GaussPoint]:
    """All Gauss points of the grid's cells."""
    out = []
    for cell in grid.cells():
        out.extend(cell_gauss_points(grid, cell))
    return out


def gauss_point_active(point, cloud: NodeCloud,
                       cfg: MeshlessConfig = DEFAULT_CONFIG) -> bool:
    """A point integrates only if a cloud node lies within
    activity_factor * d_c of it (skips holes left by removed nodes)."""
    dist, _ = cloud.tree.query(np.asarray(point, dtype=float), k=1)
    d_c = local_spacing(point, cloud)
    return bool(dist <= cfg.activity_factor * d_c)


def constitutive(mat: MaterialModel) -> np.ndarray:
    """Plane-stress 3x3 or isotropic 3D 6x6 constitutive matrix."""
    E, nu = mat.young_modulus, mat.poisson_ratio
    if mat.mode == "plane_stress":
        return (E / (1.0 - nu ** 2)) * np.array([
            [1.0, nu, 0.0],
            [nu, 1.0, 0.0],
            [0.0, 0.0, (1.0 - nu) / 2.0],
        ])
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    D = np.zeros((6, 6))
    D[:3, :3] = lam
    D[np.arange(3), np.arange(3)] += 2.0 * mu
    D[np.arange(3, 6), np.arange(3, 6)] = mu
    return D


def strain_displacement(sf: ShapeEval) -> np.ndarray:
    """Per-node strain-displacement blocks.

    Returns (n, 3, 2) in 2D -- rows (eps_xx, eps_yy, gamma_xy) -- or
    (n, 6, 3) in 3D with rows (xx, yy, zz, yz, zx, xy).
    """
    g = sf.grads
    n, d = g.shape
    if d == 2:
        B = np.zeros((n, 3, 2))
        B[:, 0, 0] = g[:, 0]
        B[:, 1, 1] = g[:, 1]
        B[:, 2, 0] = g[:, 1]
        B[:, 2, 1] = g[:, 0]
    else:
        B = np.zeros((n, 6, 3))
        B[:, 0, 0] = g[:, 0]
        B[:, 1, 1] = g[:, 1]
        B[:, 2, 2] = g[:, 2]
        B[:, 3, 1] = g[:, 2]
        B[:, 3, 2] = g[:, 1]
        B[:, 4, 0] = g[:, 2]
        B[:, 4, 2] = g[:, 0]
        B[:, 5, 0] = g[:, 1]
        B[:, 5, 1] = g[:, 0]
    return B


def gauss_contribution(point, weight: float, cloud: NodeCloud, D: np.ndarray,
                       cfg: MeshlessConfig = DEFAULT_CONFIG):
    """Stiffness contribution w*J * B^T D B of a single Gauss point.

    Returns (node_ids, k_local) with k_local of shape (n*d, n*d), or None
    when the point is inactive for this cloud.
    """
    if not gauss_point_active(point, cloud, cfg):
        return None
    sel = select_support(point, cloud, cfg)
    sys = build_system(sel, cfg.theta, cfg)
    sf = shape_functions(sel, sys, point)
    Bblk = strain_displacement(sf)                 # (n, r, d)
    n, r, d = Bblk.shape
    Bmat = Bblk.transpose(1, 0, 2).reshape(r, n * d)
    k = weight * (Bmat.T @ D @ Bmat)
    k = 0.5 * (k + k.T)
    return sf.node_ids, k


@dataclass(frozen=True)
class StiffnessSystem:
    """Symmetric stiffness + load on the union DOF space."""

    K: sp.csr_matrix
    F: np.ndarray
    dof_map: DofMap
    constrained: frozenset = frozenset()

    @property
    def n_dofs(self) -> int:
        return self.K.shape[0]

    def with_load(self, F: np.ndarray) -> "StiffnessSystem":
        return replace(self, F=np.asarray(F, dtype=float))


def _absent_dofs(dof_map: DofMap, cloud: NodeCloud) -> np.ndarray:
    present = np.isin(dof_map.node_ids, cloud.ids)
    return np.where(~np.repeat(present, dof_map.dim))[0]


def assemble_stiffness(cloud: NodeCloud, grid: BackgroundGrid,
                       mat: MaterialModel, cfg: MeshlessConfig = DEFAULT_CONFIG,
                       dof_map: DofMap | None = None) -> StiffnessSystem:
    """Assemble the sparse global stiffness matrix for one configuration.

    Union DOFs whose node is absent from ``cloud`` receive a unit diagonal
    and zero coupling, so they decouple and solve to zero.
    """
    if dof_map is None:
        dof_map = identity_dof_map(cloud)
    N = dof_map.n_dofs
    D = constitutive(mat)
    rows, cols, vals = [], [], []
    for gp in gauss_points(grid):
        try:
            contrib = gauss_contribution(gp.position, gp.weight, cloud, D, cfg)
        except MkfreeError as exc:
            raise type(exc)(
                f"{exc} (at Gauss point {np.asarray(gp.position).tolist()} "
                f"in cell {gp.cell})") from exc
        if contrib is None:
            continue
        node_ids, k = contrib
        dofs = dof_map.dofs_of(node_ids)
        rr, cc = np.meshgrid(dofs, dofs, indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        vals.append(k.ravel())

    absent = _absent_dofs(dof_map, cloud)
    if len(absent):
        rows.append(absent)
        cols.append(absent)
        vals.append(np.ones(len(absent)))
    if rows:
        K = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(N, N)).tocsr()
    else:
        K = sp.csr_matrix((N, N))
    return StiffnessSystem(K=K, F=np.zeros(N), dof_map=dof_map)


def assemble_load(cloud: NodeCloud, bc: BoundaryConditions,
                  dof_map: DofMap | None = None,
                  cfg: MeshlessConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Load vector: point loads scatter directly; edge tractions integrate
    phi_I * q along each segment with 2-point Gauss quadrature."""
    if dof_map is None:
        dof_map = identity_dof_map(cloud)
    F = np.zeros(dof_map.n_dofs)
    for node_id, axis, value in bc.point_loads:
        if not cloud.has_node(node_id):
            raise ValidationError(f"point load on node {node_id} not in cloud")
        F[dof_map.dof(node_id, axis)] += value
    for tr in bc.tractions:
        seg = tr.end - tr.start
        half_len = 0.5 * float(np.linalg.norm(seg))
        mid = 0.5 * (tr.start + tr.end)
        for xi in (-_GL, _GL):
            x_g = mid + xi * 0.5 * seg
            sel = select_support(x_g, cloud, cfg)
            sys = build_system(sel, cfg.theta, cfg)
            sf = shape_functions(sel, sys, x_g)
            for axis, q_a in enumerate(tr.q):
                if q_a == 0.0:
                    continue
                dofs = dof_map.dofs_of(sf.node_ids).reshape(-1, dof_map.dim)
                F[dofs[:, axis]] += half_len * q_a * sf.values
    return F


def apply_bcs(system: StiffnessSystem, bc: BoundaryConditions
              ) -> StiffnessSystem:
    """Eliminate fixed DOFs: zero row/column, unit diagonal, zero load.

    Direct elimination is valid because the shape functions interpolate
    (Kronecker delta at nodes).
    """
    dm = system.dof_map
    fixed = sorted({dm.dof(n, a) for n, a in bc.fixed_dofs})
    if not fixed:
        return replace(system, constrained=frozenset())
    N = system.n_dofs
    free = np.ones(N)
    free[fixed] = 0.0
    M = sp.diags(free)
    K = (M @ system.K @ M).tocsr()
    K = K + sp.coo_matrix((np.ones(len(fixed)), (fixed, fixed)), shape=(N, N))
    F = system.F.copy()
    F[fixed] = 0.0
    return StiffnessSystem(K=K.tocsr(), F=F, dof_map=dm,
                           constrained=frozenset(fixed))
