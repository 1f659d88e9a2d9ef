"""Moving-Kriging interpolation: support selection, correlation/polynomial
systems, and shape-function evaluation with analytic first derivatives.

The shape functions interpolate (Kronecker delta at nodes), form a partition
of unity, and reproduce affine fields exactly because the polynomial basis
contains the constant and linear terms.

Every stage works on a batch of points at once.  This is the Gauss-point
kernel that stiffness assembly, the local update, load assembly and field
recovery share: :func:`spacing` and :func:`find_supports` locate the
supports of all points with vectorized KD-tree queries, and
:func:`evaluate_batch` groups the points by support size and builds and
evaluates the stacked Kriging systems a memory-bounded chunk at a time.
The one-point functions (``select_support``, ``build_system``,
``shape_functions``, ``evaluate_at``) run the same stages on a batch of
one.  A point's results do not depend on the batch it sits in: every
stacked operation acts on each point's own matrices only, and sums over
coordinates are written out in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

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
    "kriging_systems",
    "build_system",
    "shape_values",
    "shape_functions",
    "evaluate_batch",
    "evaluate_at",
    "basis_size",
]

# Doubles one chunk of a support-size group may hold per matrix stage; keeps
# the stacked systems and the per-point stiffness blocks bounded in memory.
_CHUNK_DOUBLES = 1 << 21

# Diagonal jitter, relative to trace(R)/n, of the one retry when a
# correlation matrix R fails to factor.
_JITTER_SCALE = 1e-12

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
    is searched once more with the radius grown by ``cfg.support_growth``;
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
        radius[short] *= cfg.support_growth
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
    """Transfer matrices of one support selection's correlation/polynomial
    system."""

    S_a: np.ndarray       # (m, n)
    S_b: np.ndarray       # (n, n)
    theta: float


def _poly_rows(points: np.ndarray) -> np.ndarray:
    """[1 x (y z)] rows for points (..., dim)."""
    ones = np.ones(points.shape[:-1] + (1,))
    return np.concatenate([ones, points], axis=-1)


def _cholesky(R: np.ndarray, where, g: int):
    """Lower Cholesky factor of one correlation matrix, retried once with
    a diagonal jitter (relative to trace/n) if R fails to factor."""
    c, info = dpotrf(R, lower=1)
    if info == 0:
        return c
    n = len(R)
    c, info = dpotrf(R + _JITTER_SCALE * np.trace(R) / n * np.eye(n),
                     lower=1)
    if info == 0:
        return c
    raise ConditioningError(
        f"correlation matrix is numerically singular{where(g)}",
        cond_estimate=float(np.linalg.cond(R)))


def kriging_systems(X: np.ndarray, theta: float, where=_nowhere):
    """Transfer matrices S_a (G, m, n) and S_b (G, n, n) of a stack of
    supports X (G, n, dim).

    S_a = (P^T R^-1 P)^-1 P^T R^-1 and S_b = R^-1 (I - P S_a).  Every
    point's polynomial system must have cond <= 1e12, and both defining
    identities P S_a + R S_b = I and P^T S_b = 0 are residual-checked;
    failures raise ConditioningError, with ``where(g)`` naming the point.

    The correlation matrices are factored and solved point by point with
    LAPACK's Cholesky routines (NumPy has no stacked triangular solve, and
    its stacked LU is slower here); everything else is stacked.
    """
    G, n, _ = X.shape
    R = np.exp(-theta * _sqnorm(X[:, :, None, :] - X[:, None, :, :]))
    P = _poly_rows(X)
    Pt = P.transpose(0, 2, 1)
    factors = []
    RiP = np.empty_like(P)                     # R^-1 P
    for g in range(G):
        factors.append(_cholesky(R[g], where, g))
        RiP[g] = dpotrs(factors[g], P[g], lower=1)[0]
    M = Pt @ RiP                               # (G, m, m)
    cond_M = np.linalg.cond(M)
    bad = np.flatnonzero(~(np.isfinite(cond_M) & (cond_M <= 1e12)))
    if len(bad):
        g = int(bad[0])
        raise ConditioningError(
            "polynomial system is rank deficient (collinear support "
            f"nodes?){where(g)}", cond_estimate=float(cond_M[g]))
    S_a = np.linalg.solve(M, RiP.transpose(0, 2, 1))    # (G, m, n)
    eye = np.eye(n)
    rhs = eye - P @ S_a
    S_b = np.empty_like(R)
    for g, c in enumerate(factors):
        S_b[g] = dpotrs(c, rhs[g], lower=1)[0]

    # residual checks of the defining identities
    res1 = np.linalg.norm(P @ S_a + R @ S_b - eye, axis=(1, 2)) / np.sqrt(n)
    res2 = np.linalg.norm(Pt @ S_b, axis=(1, 2)) / np.maximum(
        1.0, np.linalg.norm(S_b, axis=(1, 2)))
    tol = _SYSTEM_RESIDUAL_TOL
    bad = np.flatnonzero((res1 > tol) | (res2 > tol))
    if len(bad):
        g = int(bad[0])
        raise ConditioningError(
            f"interpolation system residuals too large ({res1[g]:.2e}, "
            f"{res2[g]:.2e}){where(g)}",
            cond_estimate=float(np.linalg.cond(R[g])))
    return S_a, S_b


def build_system(sel: SupportSelection, theta: float | None = None,
                 cfg: MeshlessConfig = DEFAULT_CONFIG) -> KrigingSystem:
    """Kriging system of one support selection (see
    :func:`kriging_systems`)."""
    if theta is None:
        theta = cfg.theta
    S_a, S_b = kriging_systems(sel.node_coords[None], theta)
    return KrigingSystem(S_a=S_a[0], S_b=S_b[0], theta=theta)


@dataclass(frozen=True)
class ShapeEval:
    """Shape-function values and first derivatives at one point."""

    values: np.ndarray       # (n,)
    grads: np.ndarray        # (n, dim)
    node_ids: np.ndarray


def shape_values(S_a: np.ndarray, S_b: np.ndarray, X: np.ndarray,
                 x: np.ndarray, theta: float):
    """phi_I(x) = p(x)^T S_a + r(x)^T S_b and its gradient for a stack of
    systems; returns values (G, n) and grads (G, n, dim)."""
    diff = x[:, None, :] - X                   # (G, n, d)
    r = np.exp(-theta * _sqnorm(diff))         # (G, n)
    p = _poly_rows(x)                          # (G, m)
    values = (p[:, None, :] @ S_a + r[:, None, :] @ S_b)[:, 0, :]
    dr = -2.0 * theta * diff * r[:, :, None]   # dr_k/dx_i
    # d p / dx_i selects row i+1 of S_a
    grads = S_a[:, 1:, :] + dr.transpose(0, 2, 1) @ S_b
    return values, grads.transpose(0, 2, 1)


def shape_functions(sel: SupportSelection, sys: KrigingSystem, point
                    ) -> ShapeEval:
    """Shape functions of one system at ``point``."""
    x = np.asarray(point, dtype=float)
    values, grads = shape_values(sys.S_a[None], sys.S_b[None],
                                 sel.node_coords[None], x[None], sys.theta)
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
        step = max(1, _CHUNK_DOUBLES // (n * n * cloud.dim ** 2))
        for lo in range(0, len(group), step):
            idx = group[lo:lo + step]
            X = cloud.coords[rows[lo:lo + step]]
            S_a, S_b = kriging_systems(X, cfg.theta, lambda j: where(idx[j]))
            values, grads = shape_values(S_a, S_b, X, points[idx], cfg.theta)
            yield idx, rows[lo:lo + step], values, grads


def evaluate_at(point, cloud: NodeCloud, cfg: MeshlessConfig = DEFAULT_CONFIG
                ) -> ShapeEval:
    """Convenience: support selection + system build + evaluation."""
    sel = select_support(point, cloud, cfg)
    sys = build_system(sel, cfg.theta, cfg)
    return shape_functions(sel, sys, point)
