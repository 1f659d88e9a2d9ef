"""Moving-Kriging interpolation: support selection, correlation/polynomial
systems, and shape-function evaluation with analytic first derivatives.

The shape functions interpolate (Kronecker delta at nodes), form a partition
of unity, and reproduce affine fields exactly because the polynomial basis
contains the constant and linear terms.

Every stage works on a batch of points at once.  This is the Gauss-point
kernel that stiffness assembly, the local update, load assembly and field
recovery share.  Its stages:

1. :func:`spacing` and :func:`find_supports` locate the supports of all
   points with vectorized KD-tree queries.
2. :func:`evaluate_batch` groups the points by support size n and cuts
   each group into chunks whose (c, n, n) arrays stay memory-bounded.
3. Per chunk, :func:`_systems` builds the correlation matrices R (one
   coordinate at a time), factors the whole stack with one Cholesky call,
   forms L^-1 by forward substitution vectorized across the chunk, and
   from it L^-1 P and M = P^T R^-1 P.
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

from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import ConditioningError, SupportDeficiencyError, ValidationError
from .model import NodeCloud

__all__ = [
    "SupportSelection",
    "Supports",
    "KrigingSystem",
    "ShapeEval",
    "spacing",
    "find_supports",
    "select_support",
    "build_system",
    "shape_functions",
    "evaluate_batch",
    "evaluate_at",
    "basis_size",
]

# Doubles each (c, n, n) array of a chunk of c supports of n nodes may hold.
# The kernel keeps three alive at its peak (R, its Cholesky factor and
# L^-1), so a chunk stays near 6 MB whatever n is; larger chunks measured
# no faster.
_CHUNK_DOUBLES = 1 << 18

# Radius factor of the one retry of a support short of basis_size nodes.
_SUPPORT_GROWTH = 1.5

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
    """Nearest-node distance and local adjacent-node distance d_c of each
    row of ``points`` (G, dim).

    d_c is the mean distance from the node nearest to a point to that
    node's dim+1 nearest neighbors; it equals the pitch on a uniform grid.
    """
    if cloud.n_nodes < 2:
        raise ValidationError("local spacing needs at least two nodes")
    points = np.asarray(points, dtype=float).reshape(-1, cloud.dim)
    dist, nearest = cloud.tree.query(points, k=1)
    k = min(cloud.dim + 2, cloud.n_nodes)   # self + dim+1 neighbors
    dists, _ = cloud.tree.query(cloud.coords[nearest], k=k)
    d_c = sum(dists[:, j] for j in range(1, k)) / (k - 1)
    if np.any(d_c <= 0):
        raise ValidationError("degenerate node spacing")
    return dist, d_c


@dataclass(frozen=True)
class Supports:
    """Supports of a batch of points, flattened: point g owns the cloud rows
    ``rows[ptr[g]:ptr[g + 1]]``, in ascending node-id order."""

    ptr: np.ndarray          # (G + 1,)
    rows: np.ndarray         # cloud rows
    radius: np.ndarray       # (G,) d_m actually used (after any growth)
    deficient: np.ndarray    # (G,) fewer than dim+1 nodes even after growth

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
        return Supports(ptr=ptr, rows=self.rows[flat], radius=self.radius[idx],
                        deficient=self.deficient[idx])

    def require(self, points, where=_nowhere):
        """Raise SupportDeficiencyError for the first deficient point;
        ``where(g)`` adds the point's location to the message."""
        bad = np.flatnonzero(self.deficient)
        if len(bad) == 0:
            return
        g = int(bad[0])
        point = np.asarray(points)[g]
        found = int(self.sizes[g])
        needed = basis_size(point.shape[-1])
        raise SupportDeficiencyError(
            f"support at {point.tolist()} captured {found} nodes, "
            f"need >= {needed}{where(g)}",
            point=point, found=found, needed=needed)


def _ball_rows(cloud: NodeCloud, points, radius):
    # tiny pad keeps boundary ties (dist == d_m) inside the closed ball
    return cloud.tree.query_ball_point(points, radius * (1.0 + 1e-12))


def find_supports(points, cloud: NodeCloud, d_c, cfg: MeshlessConfig
                  = DEFAULT_CONFIG) -> Supports:
    """Closed-ball supports of radius d_m = alpha * d_c around each point.

    A point whose ball captures fewer nodes than the polynomial basis size
    is searched once more with the radius grown by ``_SUPPORT_GROWTH``;
    if it is still short it is flagged ``deficient``.
    """
    points = np.asarray(points, dtype=float).reshape(-1, cloud.dim)
    G = len(points)
    m = basis_size(cloud.dim)
    radius = cfg.alpha * np.asarray(d_c, dtype=float)
    lists = list(_ball_rows(cloud, points, radius)) if G else []
    counts = np.fromiter(map(len, lists), dtype=np.int64, count=G)
    short = np.flatnonzero(counts < m)
    if len(short):
        radius = radius.copy()
        radius[short] *= _SUPPORT_GROWTH
        grown = _ball_rows(cloud, points[short], radius[short])
        for g, rows in zip(short, grown):
            lists[g] = rows
            counts[g] = len(rows)
    rows = np.fromiter(chain.from_iterable(lists), dtype=np.int64,
                       count=int(counts.sum()))
    owner = np.repeat(np.arange(G), counts)
    rows = rows[np.lexsort((cloud.ids[rows], owner))]
    ptr = np.zeros(G + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return Supports(ptr=ptr, rows=rows, radius=radius,
                    deficient=counts < m)


@dataclass(frozen=True)
class SupportSelection:
    """Nodes participating in interpolation at one evaluation point."""

    point: np.ndarray
    radius: float                # d_m actually used (after any growth)
    node_ids: np.ndarray         # ascending ids
    node_coords: np.ndarray      # aligned with node_ids
    d_c: float

    @property
    def n(self) -> int:
        return len(self.node_ids)


def select_support(point, cloud: NodeCloud, cfg: MeshlessConfig = DEFAULT_CONFIG
                   ) -> SupportSelection:
    """Support of one point (see :func:`find_supports`); raises
    SupportDeficiencyError if the grown ball is still deficient."""
    point = np.asarray(point, dtype=float)
    _, d_c = spacing(point, cloud)
    sup = find_supports(point, cloud, d_c, cfg)
    sup.require(point[None])
    rows = sup.rows
    return SupportSelection(point=point, radius=float(sup.radius[0]),
                            node_ids=cloud.ids[rows],
                            node_coords=cloud.coords[rows],
                            d_c=float(d_c[0]))


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
    """Gaussian correlation matrices (c, n, n) of supports X (c, n, dim),
    the squared distances summed one coordinate at a time."""
    diff = X[:, :, None, 0] - X[:, None, :, 0]
    sq = diff * diff
    for k in range(1, X.shape[-1]):
        diff = X[:, :, None, k] - X[:, None, :, k]
        sq += diff * diff
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
    """Inverses (c, n, n) of a stack of lower-triangular matrices, by
    forward substitution over the rows: row i of L^-1 is
    (e_i - L[i, :i] L^-1[:i]) / L[i, i]."""
    Li = np.zeros_like(L)
    for i in range(L.shape[1]):
        Li[:, i, i] = 1.0
        Li[:, i, :i + 1] -= (L[:, i, None, :i] @ Li[:, :i, :i + 1])[:, 0]
        Li[:, i, :i + 1] /= L[:, i, i, None]
    return Li


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
                   cfg: MeshlessConfig = DEFAULT_CONFIG, where=None):
    """Shape functions of every point of a batch.

    Points are grouped by support size and each group is solved in
    memory-bounded chunks.  Yields ``(idx, rows, values, grads)`` per
    chunk: indices into ``points``, cloud rows (c, n) of the supports,
    values (c, n) and grads (c, n, dim).  ``where(g)``, if given, locates
    point g in error messages.
    """
    points = np.asarray(points, dtype=float)
    where = where or _nowhere
    sizes = sup.sizes
    for n in np.unique(sizes):
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


def evaluate_at(point, cloud: NodeCloud, cfg: MeshlessConfig = DEFAULT_CONFIG
                ) -> ShapeEval:
    """Convenience: support selection + system build + evaluation."""
    sel = select_support(point, cloud, cfg)
    sys = build_system(sel, cfg.theta, cfg)
    return shape_functions(sel, sys, point)
