"""Global stiffness and load assembly by Gauss quadrature over background
cells.

Each cell carries a 2x2 (2x2x2 in 3D) Gauss-Legendre rule, cached on the
grid as arrays (``BackgroundGrid.gauss``).  A Gauss point contributes only
when it lies inside the material domain, which a node cloud represents
implicitly: the point must have a cloud node within
``ACTIVITY_FACTOR * d_c``; so must a traction's quadrature points.

One pass of the batched kernel of :mod:`mkfree.interp` gives a
:class:`GaussState`: the points that integrate for a cloud, their
complete supports and their shape-function gradients.
:func:`assemble_stiffness` keeps the state it computed on the
:class:`StiffnessSystem` it returns, so the local update reads the
initial cloud's side from it instead of searching and evaluating it
again.  The global assembler and the local delta both
integrate states through :func:`integrate_stiffness`, which writes each
point's strain-displacement rows into one sparse B and forms
K = B^T (W D B) as a single sparse product; no per-point stiffness block
is built.  A point's gradients do not depend on the batch they are
computed in, and a state restricted to some points is a take of its
arrays, so the local delta matches a global reassembly to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.sparse as sp

from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import ValidationError
from .interp import (Supports, _nowhere, evaluate_at, evaluate_batch,
                     find_supports, spacing)
from .model import (_GL, BackgroundGrid, BoundaryConditions, DofMap,
                    MaterialModel, NodeCloud, identity_dof_map)

__all__ = [
    "GaussState",
    "StiffnessSystem",
    "active_supports",
    "at_gauss_point",
    "gauss_state",
    "constitutive",
    "strain_displacement",
    "integrate_stiffness",
    "assemble_stiffness",
    "assemble_load",
    "apply_bcs",
]

# A Gauss point integrates only if its nearest node lies within
# ACTIVITY_FACTOR * d_c; this skips points in holes left by removed nodes.
ACTIVITY_FACTOR = 1.0


def active_supports(points, cloud: NodeCloud,
                    cfg: MeshlessConfig = DEFAULT_CONFIG, where=_nowhere):
    """Indices of the points that integrate for ``cloud`` (see
    ACTIVITY_FACTOR) and their supports; a deficient support raises, with
    ``where(p)`` locating its point p (an index into ``points``)."""
    points = np.asarray(points, dtype=float).reshape(-1, cloud.dim)
    dist, d_c = spacing(points, cloud)
    active = np.flatnonzero(dist <= ACTIVITY_FACTOR * d_c)
    return active, find_supports(points[active], cloud, d_c[active], cfg,
                                 lambda g: where(active[g]))


def at_gauss_point(grid: BackgroundGrid, p: int) -> str:
    """Error-location suffix naming Gauss point p of ``grid`` and its cell."""
    points, _, cells = grid.gauss
    return (f" (at Gauss point {points[p].tolist()} in cell "
            f"{tuple(int(c) for c in cells[p])})")


@dataclass(frozen=True)
class GaussState:
    """Integration state of one cloud on a grid's Gauss points: the points
    that integrate, their supports, and the shape-function gradients of
    every support node, flattened along ``sup.rows``.  Its arrays are
    read-only."""

    active: np.ndarray       # (A,) ascending indices into grid.gauss
    sup: Supports            # supports of the active points
    grads: np.ndarray        # (len(sup.rows), dim)

    def __post_init__(self):
        for a in (self.active, self.grads, self.sup.ptr, self.sup.rows):
            a.flags.writeable = False

    def take(self, points) -> "GaussState":
        """The state at the Gauss points ``points`` (indices into
        grid.gauss); those that do not integrate for the cloud drop out."""
        pos = np.flatnonzero(np.isin(self.active, points))
        _, flat = self.sup.entries(pos)
        return GaussState(active=self.active[pos], sup=self.sup.take(pos),
                          grads=self.grads[flat])


def gauss_state(cloud: NodeCloud, grid: BackgroundGrid,
                cfg: MeshlessConfig = DEFAULT_CONFIG, supports=None
                ) -> GaussState:
    """One kernel pass: the state of ``cloud`` on the Gauss points of
    ``grid``.

    ``supports``, an (active, sup) pair as :func:`active_supports` gives,
    restricts the pass to those points and skips the support search.  A
    support-deficient point raises SupportDeficiencyError and a failed
    Kriging system ConditioningError, each naming the point and its cell.
    """
    points, where = grid.gauss[0], partial(at_gauss_point, grid)
    active, sup = supports or active_supports(points, cloud, cfg, where)
    grads = np.empty((len(sup.rows), cloud.dim))
    for idx, _, _, g in evaluate_batch(points[active], cloud, sup, cfg,
                                       lambda j: where(active[j])):
        grads[sup.ptr[idx][:, None] + np.arange(g.shape[1])] = g
    return GaussState(active=active, sup=sup, grads=grads)


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


def _csr_rows(data: np.ndarray, cols: np.ndarray, n_cols: int
              ) -> sp.csr_matrix:
    """CSR matrix of dense rows ``data`` (R, m) at columns ``cols``
    (R, m)."""
    R, m = data.shape
    return sp.csr_matrix((data.ravel(), cols.ravel(),
                          np.arange(0, R * m + 1, m)), shape=(R, n_cols))


def integrate_stiffness(terms, weights, D: np.ndarray, dof_map: DofMap
                        ) -> sp.csr_matrix:
    """sum over ``terms`` (cloud, state, sign) of
    sign * sum_g w_g B_g^T D B_g, over the Gauss points of each
    :class:`GaussState`, on ``dof_map``'s DOFs.

    Every point adds its strain rows to one sparse B (columns are its
    support's DOFs) and the same rows times sign * w_g * D to W D B; the
    sum is then the one sparse product B^T (W D B), symmetrized.
    ``weights`` are the grid's Gauss weights, which the states index.
    """
    d, N = dof_map.dim, dof_map.n_dofs
    B_rows, WDB_rows = [], []
    for cloud, state, sign in terms:
        pos = dof_map.positions(cloud.ids)
        sizes = state.sup.sizes
        for n in np.unique(sizes):
            group = np.flatnonzero(sizes == n)
            flat = state.sup.ptr[group][:, None] + np.arange(n)
            B = strain_displacement(state.grads[flat])     # (c, n, r, d)
            c, _, r, _ = B.shape
            B = B.transpose(0, 2, 1, 3).reshape(c, r, n * d)
            dofs = (pos[state.sup.rows[flat]][:, :, None] * d
                    + np.arange(d)).reshape(c, 1, -1)
            cols = np.broadcast_to(dofs, B.shape).reshape(c * r, -1)
            WDB = (sign * weights[state.active[group]])[:, None, None] \
                * (D @ B)
            B_rows.append(_csr_rows(B.reshape(c * r, -1), cols, N))
            WDB_rows.append(_csr_rows(WDB.reshape(c * r, -1), cols, N))
    if not B_rows:
        return sp.csr_matrix((N, N))
    B = sp.vstack(B_rows, format="csr")
    B.eliminate_zeros()
    K = (B.T @ sp.vstack(WDB_rows, format="csr")).tocsr()
    return (0.5 * (K + K.T)).tocsr()


@dataclass(frozen=True)
class StiffnessSystem:
    """Symmetric stiffness + load on the union DOF space; ``state`` is the
    cloud's Gauss-point state when the stiffness was assembled from it."""

    K: sp.csr_matrix
    F: np.ndarray
    dof_map: DofMap
    state: GaussState | None = None

    @property
    def n_dofs(self) -> int:
        return self.K.shape[0]

    def with_load(self, F: np.ndarray) -> "StiffnessSystem":
        return replace(self, F=np.asarray(F, dtype=float))


def assemble_stiffness(cloud: NodeCloud, grid: BackgroundGrid,
                       mat: MaterialModel, cfg: MeshlessConfig = DEFAULT_CONFIG,
                       dof_map: DofMap | None = None) -> StiffnessSystem:
    """Assemble the sparse global stiffness matrix for one configuration
    from one kernel pass over the grid, whose :class:`GaussState` the
    result keeps.

    Union DOFs whose node is absent from ``cloud`` receive the unit
    diagonal of :meth:`DofMap.absent_unit`, so they decouple and solve to
    zero.
    """
    if dof_map is None:
        dof_map = identity_dof_map(cloud)
    state = gauss_state(cloud, grid, cfg)
    K = integrate_stiffness([(cloud, state, 1.0)], grid.gauss[1],
                            constitutive(mat), dof_map)
    K = (K + dof_map.absent_unit(cloud)).tocsr()
    return StiffnessSystem(K=K, F=np.zeros(dof_map.n_dofs), dof_map=dof_map,
                           state=state)


def assemble_load(cloud: NodeCloud, bc: BoundaryConditions,
                  dof_map: DofMap | None = None,
                  cfg: MeshlessConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Load vector: point loads scatter directly; edge tractions integrate
    phi_I * q along each segment with 2-point Gauss quadrature.

    A traction with a quadrature point off the material (by the Gauss
    points' ACTIVITY_FACTOR rule) raises ValidationError.  Tractions have
    few quadrature points, so each goes through :func:`evaluate_at`.
    """
    if dof_map is None:
        dof_map = identity_dof_map(cloud)
    F = np.zeros(dof_map.n_dofs)
    for node_id, axis, value in bc.point_loads:
        if not cloud.has_node(node_id):
            raise ValidationError(f"point load on node {node_id} not in cloud")
        F[dof_map.dof(node_id, axis)] += value
    quad = np.array([0.5 * (tr.start + tr.end) + xi * 0.5 * (tr.end - tr.start)
                     for tr in bc.tractions for xi in (-_GL, _GL)])
    dist, d_c = spacing(quad, cloud)
    off = np.flatnonzero(~(dist <= ACTIVITY_FACTOR * d_c))
    if len(off):
        tr = bc.tractions[off[0] // 2]
        raise ValidationError(
            f"traction {tr.start.tolist()} -> {tr.end.tolist()} acts off "
            f"the material at {quad[off[0]].tolist()}")
    for k, tr in enumerate(bc.tractions):
        half_len = 0.5 * float(np.linalg.norm(tr.end - tr.start))
        for x in quad[2 * k:2 * k + 2]:
            sf = evaluate_at(x, cloud, cfg)
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
        return system
    N = system.n_dofs
    free = np.ones(N)
    free[fixed] = 0.0
    M = sp.diags(free)
    K = (M @ system.K @ M).tocsr()
    K = K + sp.coo_matrix((np.ones(len(fixed)), (fixed, fixed)), shape=(N, N))
    F = system.F.copy()
    F[fixed] = 0.0
    return StiffnessSystem(K=K.tocsr(), F=F, dof_map=dm)
