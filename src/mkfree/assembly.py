"""Global stiffness and load assembly by Gauss quadrature over background
cells.

Each cell carries a 2x2 (2x2x2 in 3D) Gauss-Legendre rule, cached on the
grid as arrays (``BackgroundGrid.gauss``).  A Gauss point contributes only
when it lies inside the material domain, which a node cloud represents
implicitly: the point must have a cloud node within
``ACTIVITY_FACTOR * d_c``; so must a traction's quadrature points.

One pass of the batched kernel of :mod:`mkfree.interp`,
:func:`gauss_state`, gives a :class:`GaussState` of a cloud on any batch
of points: one support per point, complete where the point integrates
for the cloud and empty where it does not, the shape-function gradients
on the supports and the reach of every point.
It is the one builder of a state, for the grid's Gauss points here and
for the nodes of field recovery (:mod:`mkfree.recovery`).
:func:`assemble_stiffness` keeps the state it computed on
the :class:`StiffnessSystem` it returns, so the local update reads the
initial cloud's side from it instead of searching and evaluating it
again, and re-searches the modified cloud only where a changed node lies
within a point's reach.  The global assembler and the local delta both
integrate states through :func:`gradient_products`, the node-level
products P_ab = G_a^T W G_b of the Gauss weights W and the sparse
shape-function derivatives G_a.  An
isotropic K = lambda K_lambda + mu K_mu is a sum of two material-free parts
of them (:func:`isotropic_stiffness`; Kirby, Knepley, Logg & Scott, SIAM J.
Sci. Comput. 27(3), 2005), so the assembly keeps them for a change of
material.  A point's gradients do not depend on the batch they are
computed in, and a state restricted to some points is a take of its
arrays, so the local delta matches a global reassembly to roundoff.
Every matrix assembled here is raw physics; :func:`apply_bcs` alone gives
unit rows, to the DOFs that are fixed or that the cloud does not carry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.sparse as sp

from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import ValidationError
from .interp import (Supports, _nowhere, evaluate_at, find_supports, reach,
                     spacing, support_gradients)
from .model import (_GL, BackgroundGrid, BoundaryConditions, DofMap,
                    MaterialModel, NodeCloud, identity_dof_map)

__all__ = [
    "GaussState",
    "StiffnessSystem",
    "active_supports",
    "at_gauss_point",
    "gauss_state",
    "traction_points",
    "constitutive",
    "gradient_products",
    "isotropic_stiffness",
    "assemble_stiffness",
    "assemble_load",
    "apply_bcs",
]

# A Gauss point integrates only if its nearest node lies within
# ACTIVITY_FACTOR * d_c; this skips points in holes left by removed nodes.
ACTIVITY_FACTOR = 1.0


def active_supports(points, cloud: NodeCloud,
                    cfg: MeshlessConfig = DEFAULT_CONFIG, where=_nowhere):
    """The :class:`~mkfree.interp.Supports` of every point, empty where a
    point does not integrate for ``cloud`` (see ACTIVITY_FACTOR), and the
    :func:`~mkfree.interp.reach` of every point; a deficient support
    raises, with ``where(p)`` locating its point p (an index into
    ``points``)."""
    points = np.asarray(points, dtype=float).reshape(-1, cloud.dim)
    dist, d_c, d_nb = spacing(points, cloud)
    on = np.flatnonzero(dist <= ACTIVITY_FACTOR * d_c)
    sup = find_supports(points[on], cloud, d_c[on], cfg,
                        lambda g: where(on[g]))
    sizes = np.zeros(len(points), dtype=np.int64)
    sizes[on] = sup.sizes
    return (Supports(ptr=np.concatenate([[0], np.cumsum(sizes)]),
                     rows=sup.rows), reach(dist, d_c, d_nb, cfg))


def at_gauss_point(grid: BackgroundGrid, p: int) -> str:
    """Error-location suffix naming Gauss point p of ``grid`` and its cell."""
    points, _, cells = grid.gauss
    return (f" (at Gauss point {points[p].tolist()} in cell "
            f"{tuple(int(c) for c in cells[p])})")


@dataclass(frozen=True)
class GaussState:
    """Integration state of one cloud on a batch of points (a grid's Gauss
    points, or the cloud's nodes): the support of every point, empty where
    the point does not integrate, the shape-function gradients of every
    support node, flattened along ``sup.rows``, and, for a state of the
    whole batch, the :func:`~mkfree.interp.reach` of every point.  Its
    arrays are read-only."""

    sup: Supports            # one support per point of the batch
    grads: np.ndarray        # (len(sup.rows), dim)
    reach: np.ndarray | None = None    # (G,)

    def __post_init__(self):
        for a in (self.grads, self.sup.ptr, self.sup.rows, self.reach):
            if a is not None:
                a.flags.writeable = False

    def take(self, points) -> "GaussState":
        """The state at the points ``points`` (indices into the batch), in
        that order, without a reach."""
        _, flat = self.sup.entries(points)
        return GaussState(sup=self.sup.take(points), grads=self.grads[flat])


def gauss_state(cloud: NodeCloud, points,
                cfg: MeshlessConfig = DEFAULT_CONFIG, where=_nowhere
                ) -> GaussState:
    """One kernel pass: the state of ``cloud`` on the batch ``points``, a
    grid's Gauss points (with :func:`at_gauss_point` as ``where``) or the
    cloud's nodes, which always integrate (their dist is 0).

    :func:`active_supports` and then
    :func:`~mkfree.interp.support_gradients` of the points that integrate.
    A support-deficient point raises SupportDeficiencyError and a failed
    Kriging system ConditioningError, each located by ``where(p)`` for its
    index p into ``points``.
    """
    points = np.asarray(points, dtype=float).reshape(-1, cloud.dim)
    sup, rho = active_supports(points, cloud, cfg, where)
    return GaussState(sup=sup, grads=support_gradients(
        points, cloud, sup, cfg, where), reach=rho)


def _lame(mat: MaterialModel) -> tuple[float, float]:
    """Lame constants (lambda, mu) of ``mat``; in plane stress lambda is the
    reduced lambda* = E nu / (1 - nu^2)."""
    E, nu = mat.young_modulus, mat.poisson_ratio
    mu = E / (2.0 * (1.0 + nu))
    if mat.mode == "plane_stress":
        return E * nu / (1.0 - nu ** 2), mu
    return E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu)), mu


def constitutive(mat: MaterialModel) -> np.ndarray:
    """Plane-stress 3x3 or isotropic 3D 6x6 constitutive matrix."""
    lam, mu = _lame(mat)
    d = mat.dim
    D = mu * np.eye(3 * d - 3)
    D[:d, :d] += lam + mu * np.eye(d)
    return D


def gradient_products(terms, weights, dof_map: DofMap) -> dict:
    """P_ab = sum over ``terms`` (cloud, state, sign) of G_a^T W G_b, a <= b,
    on ``dof_map``'s nodes.  Every state is on one batch of Gauss points,
    whose quadrature ``weights`` are aligned with it.  G_a is the CSR
    matrix of a state's ``grads[:, a]`` on its supports, a row per point;
    W holds sign * w_g.  Terms are multiplied apart, so cancelling ones
    sum to exactly zero; P_aa is made exactly symmetric."""
    d = dof_map.dim
    n = dof_map.n_dofs // d
    P = {(a, b): sp.csr_matrix((n, n)) for a in range(d) for b in range(a, d)}
    for cloud, state, sign in terms:
        cols = dof_map.positions(cloud.ids)[state.sup.rows]
        w = np.repeat(sign * weights, state.sup.sizes)
        G = [sp.csr_matrix((g, cols, state.sup.ptr),
                           shape=(len(weights), n))
             for g in np.concatenate([state.grads.T, w * state.grads.T])]
        Gt = [G[a].T.tocsr() for a in range(d)]
        for a, b in P:
            P[a, b] = P[a, b] + Gt[a] @ G[d + b]
    for a in range(d):
        P[a, a] = 0.5 * (P[a, a] + P[a, a].T)
    return P


def isotropic_stiffness(P: dict, mat: MaterialModel) -> sp.csr_matrix:
    """K of the gradient products ``P`` for the isotropic ``mat``: axis
    block (a, b) is lambda P_ab + mu (P_ba + delta_ab sum_c P_cc), with
    P_ba = P_ab^T.  Each block keeps its own pattern until the permutation
    to interleaved DOFs; blocks (a, b) and (b, a) add the same two terms,
    transposed, so K is exactly symmetric."""
    lam, mu = _lame(mat)
    d = mat.dim
    S = mu * sum((P[c, c] for c in range(1, d)), P[0, 0])
    T = {(a, b): P[a, b].T.tocsr() for a, b in P if a != b}

    def block(a, b):
        if a == b:
            return (lam + mu) * P[a, a] + S
        return (lam * P[a, b] + mu * T[a, b] if a < b
                else lam * T[b, a] + mu * P[b, a])

    K = sp.bmat([[block(a, b) for b in range(d)] for a in range(d)],
                format="coo")
    dof = np.arange(K.shape[0], dtype=K.row.dtype)    # no int64 copies
    dof = dof % S.shape[0] * d + dof // S.shape[0]
    return sp.csr_matrix((K.data, (dof[K.row], dof[K.col])), shape=K.shape)


@dataclass(frozen=True)
class StiffnessSystem:
    """Symmetric stiffness + load on the union DOF space; ``state`` and
    ``products`` are the cloud's Gauss-point state and gradient products
    when the stiffness was assembled from them."""

    K: sp.csr_matrix
    F: np.ndarray
    dof_map: DofMap
    state: GaussState | None = None
    products: dict | None = None

    @property
    def n_dofs(self) -> int:
        return self.K.shape[0]

    def with_load(self, F: np.ndarray) -> "StiffnessSystem":
        return replace(self, F=np.asarray(F, dtype=float))


def assemble_stiffness(cloud: NodeCloud, grid: BackgroundGrid,
                       mat: MaterialModel, cfg: MeshlessConfig = DEFAULT_CONFIG,
                       dof_map: DofMap | None = None) -> StiffnessSystem:
    """Assemble the sparse global stiffness matrix for one configuration
    from one kernel pass over the grid, whose :class:`GaussState` and
    :func:`gradient_products` the result keeps.

    The matrix is raw: union DOFs whose node is absent from ``cloud`` have
    empty rows and columns until :func:`apply_bcs` decouples them.
    """
    if dof_map is None:
        dof_map = identity_dof_map(cloud)
    state = gauss_state(cloud, grid.gauss[0], cfg,
                        partial(at_gauss_point, grid))
    P = gradient_products([(cloud, state, 1.0)], grid.gauss[1], dof_map)
    return StiffnessSystem(K=isotropic_stiffness(P, mat),
                           F=np.zeros(dof_map.n_dofs), dof_map=dof_map,
                           state=state, products=P)


def traction_points(bc: BoundaryConditions, dim: int) -> np.ndarray:
    """The 2-point Gauss quadrature points (2 per traction, in traction
    order) of the tractions of ``bc``, as a (2 * len(tractions), dim)
    array."""
    return np.array([0.5 * (tr.start + tr.end) + xi * 0.5 * (tr.end - tr.start)
                     for tr in bc.tractions for xi in (-_GL, _GL)]
                    ).reshape(-1, dim)


def assemble_load(cloud: NodeCloud, bc: BoundaryConditions,
                  dof_map: DofMap | None = None,
                  cfg: MeshlessConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Load vector of ``bc`` as :func:`~mkfree.model.validate_model`
    accepts it: point loads scatter directly; edge tractions integrate
    phi_I * q along each segment with 2-point Gauss quadrature.

    A traction with a quadrature point off the material (by the Gauss
    points' ACTIVITY_FACTOR rule) raises ValidationError.  Tractions have
    few quadrature points, so each goes through :func:`evaluate_at`.
    """
    if dof_map is None:
        dof_map = identity_dof_map(cloud)
    F = np.zeros(dof_map.n_dofs)
    for node_id, axis, value in bc.point_loads:
        F[dof_map.dof(node_id, axis)] += value
    quad = traction_points(bc, cloud.dim)
    dist, d_c, _ = spacing(quad, cloud)
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


def apply_bcs(system: StiffnessSystem, bc: BoundaryConditions,
              cloud: NodeCloud) -> StiffnessSystem:
    """Decouple the DOFs of the raw ``system`` that ``bc`` fixes or
    ``cloud`` does not carry: zero row and column, unit diagonal, zero
    load.  Every other nonzero entry is kept; with nothing to decouple,
    ``system`` is returned.

    Direct elimination is valid because the shape functions interpolate
    (Kronecker delta at nodes).
    """
    dm = system.dof_map
    off = ~dm.carries(cloud)
    off[[dm.dof(n, a) for n, a in bc.fixed_dofs]] = True
    if not off.any():
        return system
    K = system.K
    data = np.repeat(off, np.diff(K.indptr))    # bool: entry to zero
    data |= off[K.indices]
    data = np.where(data, 0.0, K.data)          # frees the bool flags
    K = sp.csr_matrix((data, K.indices, K.indptr), shape=K.shape)
    K = K + sp.diags(off * 1.0, format="csr")
    return StiffnessSystem(K=K, F=np.where(off, 0.0, system.F), dof_map=dm)
