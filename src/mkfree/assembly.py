"""Global stiffness and load assembly by Gauss quadrature over background
cells.

Each cell carries a 2x2 (2x2x2 in 3D) Gauss-Legendre rule, cached on the
grid as arrays (``BackgroundGrid.gauss``).  A Gauss point contributes only
when it lies inside the material domain, which a node cloud represents
implicitly: the point must have a cloud node within
``activity_factor * d_c``.  The global assembler and the local delta
updater both integrate through :func:`integrate_stiffness`, which runs the
batched kernel of :mod:`mkfree.interp` and :func:`gauss_stiffness`; a
point's contribution does not depend on the batch it is computed in, so
the local delta matches a global reassembly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import ValidationError
from .interp import evaluate_at, evaluate_batch, find_supports, spacing
from .model import (_GL, BackgroundGrid, BoundaryConditions, DofMap,
                    MaterialModel, NodeCloud, identity_dof_map)

__all__ = [
    "StiffnessSystem",
    "active_supports",
    "gauss_point_active",
    "constitutive",
    "strain_displacement",
    "gauss_stiffness",
    "integrate_stiffness",
    "assemble_stiffness",
    "assemble_load",
    "apply_bcs",
]

def active_supports(points, cloud: NodeCloud,
                    cfg: MeshlessConfig = DEFAULT_CONFIG):
    """Indices of the points that integrate for ``cloud`` and their
    supports (deficient ones flagged, not raised).

    A point integrates only if a cloud node lies within
    activity_factor * d_c of it (skips holes left by removed nodes).
    """
    points = np.asarray(points, dtype=float).reshape(-1, cloud.dim)
    dist, d_c = spacing(points, cloud)
    active = np.flatnonzero(dist <= cfg.activity_factor * d_c)
    return active, find_supports(points[active], cloud, d_c[active], cfg)


def gauss_point_active(point, cloud: NodeCloud,
                       cfg: MeshlessConfig = DEFAULT_CONFIG) -> bool:
    """Whether one point integrates for ``cloud`` (see
    :func:`active_supports`)."""
    dist, d_c = spacing(point, cloud)
    return bool(dist[0] <= cfg.activity_factor * d_c[0])


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


def strain_displacement(grads: np.ndarray) -> np.ndarray:
    """Per-node strain-displacement blocks of shape-function gradients
    (..., n, d).

    Returns (..., n, 3, 2) in 2D -- rows (eps_xx, eps_yy, gamma_xy) -- or
    (..., n, 6, 3) in 3D with rows (xx, yy, zz, yz, zx, xy).
    """
    g = np.asarray(grads)
    d = g.shape[-1]
    if d == 2:
        B = np.zeros(g.shape[:-1] + (3, 2))
        B[..., 0, 0] = g[..., 0]
        B[..., 1, 1] = g[..., 1]
        B[..., 2, 0] = g[..., 1]
        B[..., 2, 1] = g[..., 0]
    else:
        B = np.zeros(g.shape[:-1] + (6, 3))
        B[..., 0, 0] = g[..., 0]
        B[..., 1, 1] = g[..., 1]
        B[..., 2, 2] = g[..., 2]
        B[..., 3, 1] = g[..., 2]
        B[..., 3, 2] = g[..., 1]
        B[..., 4, 0] = g[..., 2]
        B[..., 4, 2] = g[..., 0]
        B[..., 5, 0] = g[..., 1]
        B[..., 5, 1] = g[..., 0]
    return B


def gauss_stiffness(points, weights, cloud: NodeCloud, sup, D: np.ndarray,
                    cfg: MeshlessConfig = DEFAULT_CONFIG, where=None):
    """Stiffness contributions w * B^T D B of a batch of Gauss points with
    supports ``sup`` (all non-deficient).

    Yields ``(idx, rows, k)`` per kernel chunk: indices into ``points``,
    support cloud rows (c, n) and k (c, n*d, n*d) in node-major DOF order,
    symmetrized.
    """
    weights = np.asarray(weights, dtype=float)
    for idx, rows, _, grads in evaluate_batch(points, cloud, sup, cfg, where):
        B = strain_displacement(grads)                 # (c, n, r, d)
        c, n, r, d = B.shape
        Bmat = B.transpose(0, 2, 1, 3).reshape(c, r, n * d)
        k = weights[idx][:, None, None] * (
            (Bmat.transpose(0, 2, 1) @ D) @ Bmat)
        yield idx, rows, 0.5 * (k + k.transpose(0, 2, 1))


class _BlockPattern:
    """Sum of d x d node-pair blocks on the pattern of every node pair that
    shares a support.  Only blocks on or above the diagonal are
    accumulated (the sum is symmetric); slots are found by binary search
    on pair keys."""

    def __init__(self, supports: list, n_nodes: int, d: int):
        """``supports``: (ptr, positions) pairs, the ascending DOF-map node
        positions of each point's support in CSR layout."""
        incidence = sp.vstack([
            sp.csr_matrix((np.ones(len(pos)), pos, ptr),
                          shape=(len(ptr) - 1, n_nodes))
            for ptr, pos in supports]).tocsr()
        upper = sp.triu(incidence.T @ incidence).tocsr()
        upper.sort_indices()
        self.indptr, self.indices = upper.indptr, upper.indices
        rows = np.repeat(np.arange(n_nodes, dtype=np.int64),
                         np.diff(self.indptr))
        self.keys = rows * n_nodes + self.indices
        self.diagonal = rows == self.indices
        self.n_nodes, self.d = n_nodes, d
        self.data = np.zeros((len(self.keys), d, d))

    def add(self, pos: np.ndarray, k: np.ndarray, sign: float = 1.0):
        """Accumulate sign * k (c, n*d, n*d), symmetric, of supports at
        ascending node positions ``pos`` (c, n)."""
        c, n = pos.shape
        d = self.d
        a, b = np.triu_indices(n)
        slot = np.searchsorted(
            self.keys, (pos[:, a] * self.n_nodes + pos[:, b]).ravel())
        blocks = k.reshape(c, n, d, n, d)
        for i in range(d):
            for j in range(d):
                self.data[:, i, j] += sign * np.bincount(
                    slot, weights=blocks[:, a, i, b, j].ravel(),
                    minlength=len(self.keys))

    def tocsr(self) -> sp.csr_matrix:
        """The full symmetric matrix; halving the (symmetric) diagonal
        blocks before adding the transpose is exact."""
        N = self.n_nodes * self.d
        self.data[self.diagonal] *= 0.5
        upper = sp.bsr_matrix((self.data, self.indices, self.indptr),
                              shape=(N, N)).tocsr()
        return (upper + upper.T).tocsr()


def integrate_stiffness(terms, points, weights, cells, D: np.ndarray,
                        dof_map: DofMap, cfg: MeshlessConfig = DEFAULT_CONFIG
                        ) -> sp.csr_matrix:
    """sum over ``terms`` (cloud, sign) of sign * sum_g w_g B_g^T D B_g,
    over the Gauss points active for each cloud, on ``dof_map``'s DOFs.

    ``cells`` (G, dim) locates each point in error messages.
    """
    points = np.asarray(points, dtype=float)

    def where(g):
        return (f" (at Gauss point {points[g].tolist()} in cell "
                f"{tuple(int(c) for c in cells[g])})")

    batches = []
    for cloud, sign in terms:
        active, sup = active_supports(points, cloud, cfg)
        sup.require(points[active], lambda g, a=active: where(a[g]))
        pos = dof_map.positions(cloud.ids)
        batches.append((cloud, sign, active, sup, pos))
    pattern = _BlockPattern([(sup.ptr, pos[sup.rows])
                             for _, _, _, sup, pos in batches],
                            len(dof_map.node_ids), dof_map.dim)
    for cloud, sign, active, sup, pos in batches:
        for _, rows, k in gauss_stiffness(
                points[active], weights[active], cloud, sup, D, cfg,
                lambda g, a=active: where(a[g])):
            pattern.add(pos[rows], k, sign)
    return pattern.tocsr()


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
    points, weights, cells = grid.gauss
    K = integrate_stiffness([(cloud, 1.0)], points, weights, cells,
                            constitutive(mat), dof_map, cfg)
    absent = _absent_dofs(dof_map, cloud)
    if len(absent):
        K = (K + sp.coo_matrix((np.ones(len(absent)), (absent, absent)),
                               shape=(N, N))).tocsr()
    return StiffnessSystem(K=K, F=np.zeros(N), dof_map=dof_map)


def assemble_load(cloud: NodeCloud, bc: BoundaryConditions,
                  dof_map: DofMap | None = None,
                  cfg: MeshlessConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Load vector: point loads scatter directly; edge tractions integrate
    phi_I * q along each segment with 2-point Gauss quadrature.

    Tractions have few quadrature points, so each goes through the
    kernel's one-point view :func:`evaluate_at`.
    """
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
            sf = evaluate_at(mid + xi * 0.5 * seg, cloud, cfg)
            dofs = dof_map.dofs_of(sf.node_ids).reshape(-1, dof_map.dim)
            for axis, q_a in enumerate(tr.q):
                if q_a != 0.0:
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
