"""Moving-Kriging interpolation: support selection, correlation/polynomial
systems, and shape-function evaluation with analytic first derivatives.

The shape functions interpolate (Kronecker delta at nodes), form a partition
of unity, and reproduce affine fields exactly because the polynomial basis
contains the constant and linear terms.

Every stage works on a batch of points at once.  This is the Gauss-point
kernel that stiffness assembly, the local update, load assembly and field
recovery share.  Its stages:

1. :func:`spacing` and :func:`find_supports` locate the supports of all
   points with vectorized KD-tree queries.  A support still short of
   dim + 1 nodes after its one growth is refused there: every support
   the later stages see is complete.  :func:`reach` bounds, from the same
   queries, the region of nodes a point's spacing and support depend on,
   so an edit of a cloud re-searches only the points it can change
   (:func:`within_reach`).
2. :func:`evaluate_batch` groups the points by support size n and cuts
   each group into chunks whose (c, n, n) arrays stay memory-bounded.
3. Per chunk, :func:`_systems` builds the correlation matrices R (the
   squared distances summed from one contiguous plane per coordinate),
   factors the whole stack with one Cholesky call, inverts each factor in
   place with one LAPACK ``dtrtri`` call per support, and from L^-1 forms
   L^-1 P and M = P^T R^-1 P.
4. :func:`_shapes` solves for the shape functions and their gradients at
   once: with b = [r(x) dr/dx] and q = [p(x) dp/dx], the multipliers are
   Lam = M^-1 (P^T R^-1 b - q) and [phi dphi/dx] = R^-1 (b - P Lam).

No transfer matrix is formed.  The textbook form phi = p^T S_a + r^T S_b
builds the n x n S_b = R^-1 (I - P S_a) for every point, to use it on
only dim + 1 vectors; here R^-1 only ever acts on those vectors, through
L^-1.

Guards, each raising :class:`ConditioningError` that names the point:

- a correlation matrix that fails to factor;
- trace(R^-1) = ||L^-1||_F^2 above ``_TRACE_LIMIT`` (1e5): near-coincident
  nodes, or a spacing too small for theta.  As 0 <= S_b <= R^-1, it also
  bounds the transfer matrix the shape functions implicitly apply;
- cond(M) above 1e12: a rank-deficient polynomial system (collinear
  supports);
- a residual above 1e-10 in the system actually evaluated,
  R phi + P Lam = b and P^T phi = q.

The one-point functions (``select_support``, ``build_system``,
``shape_functions``, ``evaluate_at``) run the same kernel on a batch of
one.  A point's results do not depend on the batch it sits in: every
stacked operation acts on each point's own matrices only, and sums over
coordinates are written out in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from numpy.linalg import LinAlgError, cholesky
from scipy.linalg.lapack import dtrtri
from scipy.spatial import cKDTree

from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import ConditioningError, SupportDeficiencyError, ValidationError
from .model import NodeCloud

__all__ = [
    "SupportSelection",
    "Supports",
    "KrigingSystem",
    "ShapeEval",
    "spacing",
    "reach",
    "within_reach",
    "find_supports",
    "select_support",
    "build_system",
    "shape_functions",
    "evaluate_batch",
    "support_gradients",
    "evaluate_at",
    "basis_size",
]

# Doubles each (c, n, n) array of a chunk of c supports of n nodes may hold.
# The kernel keeps two alive at its peak (R, and its Cholesky factor, which
# L^-1 overwrites), so a chunk stays near 4 MB whatever n is; larger chunks
# measured no faster.
_CHUNK_DOUBLES = 1 << 18

# Radius factor of the one retry of a support short of basis_size nodes.
_SUPPORT_GROWTH = 1.5

# Relative pad of a reach: a changed node at exactly a point's reach counts
# as within it, with room to spare over the 1e-12 pad of the support balls
# and over the rounding of distances computed by different trees.
_REACH_PAD = 1e-9

# Largest trace(R^-1) = ||L^-1||_F^2 accepted for a correlation matrix R.
# It bounds ||R^-1|| and, as 0 <= S_b <= R^-1 for the transfer matrix
# S_b = R^-1 (I - P (P^T R^-1 P)^-1 P^T R^-1), the size of S_b too, which
# the error of phi grows with.  Supports of the test and benchmark clouds
# read at most about 250.
_TRACE_LIMIT = 1e5

# Relative residual accepted for the two identities of each Kriging system.
_SYSTEM_RESIDUAL_TOL = 1e-10


def basis_size(dim: int) -> int:
    """Linear polynomial basis: [1 x y] in 2D, [1 x y z] in 3D."""
    return dim + 1


def _nowhere(g: int) -> str:
    """Error-location suffix for point g when the caller gives none."""
    return ""


def _sqnorm(diff: np.ndarray) -> np.ndarray:
    """Squared length along the last axis, summed in coordinate order."""
    out = diff[..., 0] * diff[..., 0]
    for k in range(1, diff.shape[-1]):
        out = out + diff[..., k] * diff[..., k]
    return out


def spacing(points, cloud: NodeCloud):
    """Nearest-node distance, local adjacent-node distance d_c and
    neighbourhood radius of each row of ``points`` (G, dim).

    d_c is the mean distance from the node n(x) nearest to a point x to
    that node's dim+1 nearest neighbors; it equals the pitch on a uniform
    grid.  The neighbourhood radius is dist(x) + D_NN(n(x)), D_NN being
    the distance from n(x) to its (dim+1)-th neighbor: every node that
    the point's dist and d_c depend on lies within it.  It is infinite
    where no such bound holds: where n(x) ties with another node at the
    same distance (which of them the KD tree returns depends on the
    tree), or in a cloud of fewer than dim + 2 nodes.
    """
    if cloud.n_nodes < 2:
        raise ValidationError("local spacing needs at least two nodes")
    points = np.asarray(points, dtype=float).reshape(-1, cloud.dim)
    near, rows = cloud.tree.query(points, k=2)
    dist, nearest = near[:, 0], rows[:, 0]
    k = min(cloud.dim + 2, cloud.n_nodes)   # self + dim+1 neighbors
    dists, _ = cloud.tree.query(cloud.coords[nearest], k=k)
    d_c = sum(dists[:, j] for j in range(1, k)) / (k - 1)
    if np.any(d_c <= 0):
        raise ValidationError("degenerate node spacing")
    d_nb = dist + dists[:, -1]
    d_nb[near[:, 1] <= near[:, 0] * (1.0 + _REACH_PAD)] = np.inf
    if k < cloud.dim + 2:
        d_nb[:] = np.inf
    return dist, d_c, d_nb


def reach(dist, d_c, d_nb, cfg: MeshlessConfig = DEFAULT_CONFIG
          ) -> np.ndarray:
    """Reach rho(x) = max(_SUPPORT_GROWTH * alpha * d_c, d_nb) of points
    whose :func:`spacing` is (dist, d_c, d_nb), padded by ``_REACH_PAD``.

    Claim: if no changed node (a removed node at its old position, or an
    added node) lies within rho(x) of x, then x has the same activity and
    the same support, id for id, before and after the edit, and so, by the
    kernel's batch independence, bitwise the same shape functions.

    Proof.  Every node within d_nb of x is kept and no node is added
    there.  That region holds n(x), so the nearest node and dist are
    unchanged (an added node at a distance <= dist would lie in it), and
    n(x) is still the unique nearest node (a tie makes d_nb infinite, and
    an edit cannot create one without an added node at distance dist).  It
    also holds the ball of radius D_NN around n(x) (triangle inequality),
    so n(x)'s dim+1 nearest-neighbor distances, hence d_c, are unchanged;
    and a removal that would leave fewer than dim + 2 nodes removes one of
    them.  dist and d_c decide activity.  The support is the closed ball of
    radius alpha * d_c, or _SUPPORT_GROWTH times that, padded by 1e-12; it
    lies within rho(x) and no node inside rho(x) changed, so each ball
    holds the same nodes, the growth decision is the same, and the sorted
    id list is identical.  The point's dist, d_c and d_nb are unchanged
    too, so its reach carries over to the edited cloud.
    """
    return np.maximum(_SUPPORT_GROWTH * cfg.alpha * np.asarray(d_c), d_nb) \
        * (1.0 + _REACH_PAD)


def within_reach(points, rho, coords) -> np.ndarray:
    """(len(points),) bool: whether any of ``coords`` lies within the reach
    ``rho`` of each point, by one KD query of ``coords``."""
    points = np.asarray(points, dtype=float)
    coords = np.asarray(coords, dtype=float).reshape(-1, points.shape[-1])
    if not len(coords):
        return np.zeros(len(points), dtype=bool)
    d, _ = cKDTree(coords).query(points, k=1)
    return d <= rho


@dataclass(frozen=True)
class Supports:
    """Supports of a batch of points, flattened: point g owns the cloud rows
    ``rows[ptr[g]:ptr[g + 1]]``, ascending, which is ascending node-id
    order; a point that does not integrate owns none."""

    ptr: np.ndarray          # (G + 1,)
    rows: np.ndarray         # cloud rows

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.ptr)

    def entries(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """The pointer (len(idx) + 1,) and the positions in ``rows`` of the
        supports of points ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        sizes = self.sizes[idx]
        ptr = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        return ptr, np.repeat(self.ptr[idx] - ptr[:-1], sizes) \
            + np.arange(ptr[-1])

    def take(self, idx) -> "Supports":
        """The supports of points ``idx`` of this batch, in that order."""
        ptr, flat = self.entries(idx)
        return Supports(ptr=ptr, rows=self.rows[flat])


def _ball_rows(cloud: NodeCloud, points, radius):
    # tiny pad keeps boundary ties (dist == d_m) inside the closed ball;
    # ascending rows are ascending ids
    return cloud.tree.query_ball_point(points, radius * (1.0 + 1e-12),
                                       return_sorted=True)


def find_supports(points, cloud: NodeCloud, d_c, cfg: MeshlessConfig
                  = DEFAULT_CONFIG, where=_nowhere) -> Supports:
    """Closed-ball supports of radius d_m = alpha * d_c around each point.

    A point whose ball captures fewer nodes than the polynomial basis size
    is searched once more with the radius grown by ``_SUPPORT_GROWTH``;
    the first point still short raises SupportDeficiencyError, with
    ``where(g)`` locating point g in the message.
    """
    points = np.asarray(points, dtype=float).reshape(-1, cloud.dim)
    G = len(points)
    m = basis_size(cloud.dim)
    radius = cfg.alpha * np.asarray(d_c, dtype=float)
    lists = list(_ball_rows(cloud, points, radius)) if G else []
    counts = np.fromiter(map(len, lists), dtype=np.int64, count=G)
    short = np.flatnonzero(counts < m)
    if len(short):
        grown = _ball_rows(cloud, points[short],
                           radius[short] * _SUPPORT_GROWTH)
        for g, rows in zip(short, grown):
            lists[g] = rows
            counts[g] = len(rows)
        bad = short[counts[short] < m]
        if len(bad):
            g = int(bad[0])
            raise SupportDeficiencyError(
                f"support at {points[g].tolist()} captured {counts[g]} "
                f"nodes, need >= {m}{where(g)}",
                point=points[g], found=int(counts[g]), needed=m)
    rows = np.fromiter(chain.from_iterable(lists), dtype=np.int64,
                       count=int(counts.sum()))
    ptr = np.zeros(G + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return Supports(ptr=ptr, rows=rows)


@dataclass(frozen=True)
class SupportSelection:
    """Nodes participating in interpolation at one evaluation point."""

    point: np.ndarray
    node_ids: np.ndarray         # ascending ids
    node_coords: np.ndarray      # aligned with node_ids

    @property
    def n(self) -> int:
        return len(self.node_ids)


def select_support(point, cloud: NodeCloud, cfg: MeshlessConfig = DEFAULT_CONFIG
                   ) -> SupportSelection:
    """Support of one point (see :func:`find_supports`, which raises
    SupportDeficiencyError if the grown ball is still deficient)."""
    point = np.asarray(point, dtype=float)
    _, d_c, _ = spacing(point, cloud)
    rows = find_supports(point, cloud, d_c, cfg).rows
    return SupportSelection(point=point, node_ids=cloud.ids[rows],
                            node_coords=cloud.coords[rows])


@dataclass(frozen=True)
class KrigingSystem:
    """Factor data of the correlation/polynomial systems of a stack of
    supports; every array has a leading point axis (a stack of one from
    :func:`build_system`)."""

    R: np.ndarray         # (c, n, n) correlation matrices
    L_inv: np.ndarray     # (c, n, n) inverse Cholesky factors, R = L L^T
    LiP: np.ndarray       # (c, n, m) L^-1 P
    M: np.ndarray         # (c, m, m) P^T R^-1 P = (L^-1 P)^T (L^-1 P)
    theta: float


def _poly_rows(points: np.ndarray) -> np.ndarray:
    """[1 x (y z)] rows for points (..., dim)."""
    ones = np.ones(points.shape[:-1] + (1,))
    return np.concatenate([ones, points], axis=-1)


def _correlation(X: np.ndarray, theta: float) -> np.ndarray:
    """Gaussian correlation matrices (c, n, n) of supports X (c, n, dim).

    The squared distances are summed one coordinate at a time, in order,
    each from a contiguous (c, n) plane of that coordinate, in place in
    two (c, n, n) buffers."""
    planes = np.ascontiguousarray(np.moveaxis(X, -1, 0))   # (dim, c, n)
    sq = np.subtract(planes[0, :, :, None], planes[0, :, None, :])
    np.multiply(sq, sq, out=sq)
    diff = np.empty_like(sq)
    for plane in planes[1:]:
        np.subtract(plane[:, :, None], plane[:, None, :], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(sq, diff, out=sq)
    sq *= -theta
    return np.exp(sq, out=sq)


def _cholesky(R: np.ndarray, where) -> np.ndarray:
    """Lower Cholesky factors of a stack of correlation matrices; a matrix
    that fails to factor raises ConditioningError naming its point."""
    try:
        return cholesky(R)
    except LinAlgError:
        for g, R_g in enumerate(R):         # find the point that failed
            try:
                cholesky(R_g)
            except LinAlgError:
                raise ConditioningError(
                    "correlation matrix is not positive definite "
                    f"(coincident support nodes?){where(g)}",
                    cond_estimate=float(np.linalg.cond(R_g))) from None
        raise


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverses (c, n, n) of a stack of lower-triangular matrices, computed
    in place in ``L`` by one LAPACK ``dtrtri`` call per matrix.

    Row-major L[g] is, read column-major, the upper-triangular L[g]^T, so
    inverting that in place leaves L[g]^-1 in row-major order.  The strict
    upper triangle of L stays untouched (zero for a Cholesky factor).
    ``dtrtri`` fails only on an exactly zero diagonal entry, which a
    Cholesky factor cannot have; an inverse that overflows is left to the
    trace guard of :func:`_systems`."""
    L = np.ascontiguousarray(L, dtype=float)   # in place needs row-major
    for L_g in L:
        dtrtri(L_g.T, lower=0, overwrite_c=1)
    return L


def _systems(X: np.ndarray, theta: float, where=_nowhere) -> KrigingSystem:
    """Factor the Kriging systems of a stack of supports X (c, n, dim).

    Guards, each raising ConditioningError with ``where(g)`` naming the
    point: R must factor; trace(R^-1) = ||L^-1||_F^2 must not exceed
    ``_TRACE_LIMIT``; and the polynomial system must have cond(M) <= 1e12.
    """
    R = _correlation(X, theta)
    L_inv = _lower_inverse(_cholesky(R, where))
    trace = np.einsum("cij,cij->c", L_inv, L_inv)
    bad = np.flatnonzero(~(trace <= _TRACE_LIMIT))
    if len(bad):
        g = int(bad[0])
        raise ConditioningError(
            f"correlation matrix is ill-conditioned: trace(R^-1) = "
            f"{trace[g]:.2e} exceeds {_TRACE_LIMIT:.0e} (near-coincident "
            f"support nodes, or theta too small for the spacing?){where(g)}",
            cond_estimate=float(np.linalg.cond(R[g])))
    LiP = L_inv @ _poly_rows(X)
    M = LiP.transpose(0, 2, 1) @ LiP
    cond_M = np.linalg.cond(M)
    bad = np.flatnonzero(~(np.isfinite(cond_M) & (cond_M <= 1e12)))
    if len(bad):
        g = int(bad[0])
        raise ConditioningError(
            "polynomial system is rank deficient (collinear support "
            f"nodes?){where(g)}", cond_estimate=float(cond_M[g]))
    return KrigingSystem(R=R, L_inv=L_inv, LiP=LiP, M=M, theta=theta)


def _shapes(sys: KrigingSystem, X: np.ndarray, x: np.ndarray,
            where=_nowhere):
    """Shape functions of a stack of systems at points x (c, dim); returns
    values (c, n) and grads (c, n, dim).

    With b = [r(x) dr/dx] and q = [p(x) dp/dx], the Lagrange multipliers
    are Lam = M^-1 (P^T R^-1 b - q) and [phi dphi/dx] = R^-1 (b - P Lam),
    both through L^-1.  The evaluated system R phi + P Lam = b,
    P^T phi = q is residual-checked; a failure raises ConditioningError.
    """
    c, n, dim = X.shape
    diff = x[:, None, :] - X                   # (c, n, dim)
    b = np.empty((c, n, dim + 1))
    b[:, :, 0] = np.exp(-sys.theta * _sqnorm(diff))
    b[:, :, 1:] = -2.0 * sys.theta * diff * b[:, :, :1]
    q = np.zeros((c, dim + 1, dim + 1))
    q[:, :, 0] = _poly_rows(x)
    q[:, 1:, 1:] = np.eye(dim)
    Wb = sys.L_inv @ b
    Lam = np.linalg.solve(sys.M, sys.LiP.transpose(0, 2, 1) @ Wb - q)
    phi = sys.L_inv.transpose(0, 2, 1) @ (Wb - sys.LiP @ Lam)

    P = _poly_rows(X)
    res1 = np.linalg.norm(sys.R @ phi + P @ Lam - b, axis=(1, 2)) \
        / np.maximum(1.0, np.linalg.norm(b, axis=(1, 2)))
    res2 = np.linalg.norm(P.transpose(0, 2, 1) @ phi - q, axis=(1, 2)) \
        / np.maximum(1.0, np.linalg.norm(q, axis=(1, 2)))
    tol = _SYSTEM_RESIDUAL_TOL
    bad = np.flatnonzero(~((res1 <= tol) & (res2 <= tol)))
    if len(bad):
        g = int(bad[0])
        raise ConditioningError(
            f"interpolation system residuals too large ({res1[g]:.2e}, "
            f"{res2[g]:.2e}){where(g)}",
            cond_estimate=float(np.linalg.cond(sys.R[g])))
    return phi[:, :, 0], phi[:, :, 1:]


def build_system(sel: SupportSelection, theta: float | None = None,
                 cfg: MeshlessConfig = DEFAULT_CONFIG) -> KrigingSystem:
    """Kriging system of one support selection: a stack of one (see
    :func:`_systems`)."""
    if theta is None:
        theta = cfg.theta
    return _systems(sel.node_coords[None], theta)


@dataclass(frozen=True)
class ShapeEval:
    """Shape-function values and first derivatives at one point."""

    values: np.ndarray       # (n,)
    grads: np.ndarray        # (n, dim)
    node_ids: np.ndarray


def shape_functions(sel: SupportSelection, sys: KrigingSystem, point
                    ) -> ShapeEval:
    """Shape functions of one system at ``point``."""
    x = np.asarray(point, dtype=float)
    values, grads = _shapes(sys, sel.node_coords[None], x[None])
    return ShapeEval(values=values[0], grads=grads[0], node_ids=sel.node_ids)


def evaluate_batch(points, cloud: NodeCloud, sup: Supports,
                   cfg: MeshlessConfig = DEFAULT_CONFIG, where=_nowhere):
    """Shape functions of every point of a batch.

    Points are grouped by support size and each group is solved in
    memory-bounded chunks; a point with an empty support is skipped.
    Yields ``(idx, rows, values, grads)`` per chunk: indices into
    ``points``, cloud rows (c, n) of the supports, values (c, n) and
    grads (c, n, dim).  ``where(g)`` locates point g in error messages.
    """
    points = np.asarray(points, dtype=float)
    sizes = sup.sizes
    for n in np.unique(sizes[sizes > 0]):
        group = np.flatnonzero(sizes == n)
        rows = sup.rows[sup.ptr[group][:, None] + np.arange(n)]
        step = max(1, _CHUNK_DOUBLES // (n * n))
        for lo in range(0, len(group), step):
            idx = group[lo:lo + step]
            X = cloud.coords[rows[lo:lo + step]]
            locate = lambda j: where(idx[j])
            sys = _systems(X, cfg.theta, locate)
            values, grads = _shapes(sys, X, points[idx], locate)
            yield idx, rows[lo:lo + step], values, grads


def support_gradients(points, cloud: NodeCloud, sup: Supports,
                      cfg: MeshlessConfig = DEFAULT_CONFIG, where=_nowhere
                      ) -> np.ndarray:
    """Shape-function gradients (len(sup.rows), dim) of a batch of points,
    flattened along ``sup.rows`` (see :func:`evaluate_batch`)."""
    grads = np.empty((len(sup.rows), cloud.dim))
    for idx, _, _, g in evaluate_batch(points, cloud, sup, cfg, where):
        grads[sup.ptr[idx][:, None] + np.arange(g.shape[1])] = g
    return grads


def evaluate_at(point, cloud: NodeCloud, cfg: MeshlessConfig = DEFAULT_CONFIG
                ) -> ShapeEval:
    """Convenience: support selection + system build + evaluation."""
    sel = select_support(point, cloud, cfg)
    sys = build_system(sel, cfg.theta, cfg)
    return shape_functions(sel, sys, point)
