"""Moving-Kriging interpolation: support selection, correlation/polynomial
systems, and shape-function evaluation with analytic first derivatives.

The shape functions interpolate (Kronecker delta at nodes), form a partition
of unity, and reproduce affine fields exactly because the polynomial basis
contains the constant and linear terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import ConditioningError, SupportDeficiencyError, ValidationError
from .model import NodeCloud

__all__ = [
    "SupportSelection",
    "KrigingSystem",
    "ShapeEval",
    "correlation",
    "local_spacing",
    "select_support",
    "build_system",
    "shape_functions",
    "evaluate_at",
    "basis_size",
]


def basis_size(dim: int) -> int:
    """Linear polynomial basis: [1 x y] in 2D, [1 x y z] in 3D."""
    return dim + 1


def correlation(x_i, x_j, theta: float) -> float:
    """Gaussian correlation exp(-theta * ||x_i - x_j||^2)."""
    if theta <= 0:
        raise ValidationError("theta must be positive")
    diff = np.asarray(x_i, dtype=float) - np.asarray(x_j, dtype=float)
    return float(np.exp(-theta * np.dot(diff, diff)))


def local_spacing(point, cloud: NodeCloud) -> float:
    """Local adjacent-node distance d_c around ``point``.

    Mean distance from the node nearest to ``point`` to that node's
    dim+1 nearest neighbors.  Equals the pitch on a uniform grid.
    """
    if cloud.n_nodes < 2:
        raise ValidationError("local spacing needs at least two nodes")
    _, nearest = cloud.tree.query(np.asarray(point, dtype=float), k=1)
    k = min(cloud.dim + 2, cloud.n_nodes)   # self + dim+1 neighbors
    dists, _ = cloud.tree.query(cloud.coords[nearest], k=k)
    d_c = float(np.mean(dists[1:]))
    if d_c <= 0:
        raise ValidationError("degenerate node spacing")
    return d_c


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
    """Closed-ball support of radius d_m = alpha * d_c around ``point``.

    Grows the radius once by ``cfg.support_growth`` if fewer nodes than the
    polynomial basis size are captured; raises SupportDeficiencyError if the
    grown ball is still deficient.
    """
    point = np.asarray(point, dtype=float)
    d_c = local_spacing(point, cloud)
    m = basis_size(cloud.dim)
    radius = cfg.alpha * d_c
    for attempt in range(2):
        # tiny pad keeps boundary ties (dist == d_m) inside the closed ball
        rows = cloud.tree.query_ball_point(point, radius * (1.0 + 1e-12))
        if len(rows) >= m:
            break
        if attempt == 0:
            radius *= cfg.support_growth
    else:
        raise SupportDeficiencyError(
            f"support at {point.tolist()} captured {len(rows)} nodes, "
            f"need >= {m}", point=point, found=len(rows), needed=m)
    rows = np.asarray(sorted(rows, key=lambda r: cloud.ids[r]), dtype=np.int64)
    return SupportSelection(point=point, radius=radius,
                            node_ids=cloud.ids[rows],
                            node_coords=cloud.coords[rows],
                            d_c=d_c)


@dataclass(frozen=True)
class KrigingSystem:
    """Transfer matrices of one support selection's correlation/polynomial
    system."""

    S_a: np.ndarray       # (m, n)
    S_b: np.ndarray       # (n, n)
    theta: float


def _poly_rows(points: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(len(points)), points])


def build_system(sel: SupportSelection, theta: float | None = None,
                 cfg: MeshlessConfig = DEFAULT_CONFIG) -> KrigingSystem:
    """Build R, P and the transfer matrices S_a, S_b for a support selection.

    S_a = (P^T R^-1 P)^-1 P^T R^-1 and S_b = R^-1 (I - P S_a); both are
    residual-verified through the identities P S_a + R S_b = I and
    P^T S_b = 0.  A one-shot diagonal jitter is applied if the correlation
    matrix fails to factor.
    """
    if theta is None:
        theta = cfg.theta
    X = sel.node_coords
    n = len(X)
    diff = X[:, None, :] - X[None, :, :]
    R = np.exp(-theta * np.einsum("ijk,ijk->ij", diff, diff))
    P = _poly_rows(X)
    m = P.shape[1]

    factor = None
    for jitter in (0.0, cfg.jitter_scale * np.trace(R) / n):
        try:
            factor = cho_factor(R + jitter * np.eye(n), lower=True)
            break
        except LinAlgError:
            continue
    if factor is None:
        raise ConditioningError(
            "correlation matrix is numerically singular",
            cond_estimate=float(np.linalg.cond(R)))

    RiP = cho_solve(factor, P)                 # R^-1 P
    M = P.T @ RiP                              # m x m
    cond_M = float(np.linalg.cond(M))
    if not np.isfinite(cond_M) or cond_M > 1e12:
        raise ConditioningError(
            "polynomial system is rank deficient (collinear support nodes?)",
            cond_estimate=cond_M)
    S_a = np.linalg.solve(M, RiP.T)            # (m, n)
    S_b = cho_solve(factor, np.eye(n) - P @ S_a)

    # residual checks of the defining identities
    res1 = np.linalg.norm(P @ S_a + R @ S_b - np.eye(n)) / np.sqrt(n)
    res2 = np.linalg.norm(P.T @ S_b) / max(1.0, np.linalg.norm(S_b))
    if res1 > cfg.system_residual_tol or res2 > cfg.system_residual_tol:
        raise ConditioningError(
            f"interpolation system residuals too large ({res1:.2e}, {res2:.2e})",
            cond_estimate=float(np.linalg.cond(R)))
    return KrigingSystem(S_a=S_a, S_b=S_b, theta=theta)


@dataclass(frozen=True)
class ShapeEval:
    """Shape-function values and first derivatives at one point."""

    values: np.ndarray       # (n,)
    grads: np.ndarray        # (n, dim)
    node_ids: np.ndarray


def shape_functions(sel: SupportSelection, sys: KrigingSystem, point
                    ) -> ShapeEval:
    """Evaluate phi_I(x) = p(x)^T S_a + r(x)^T S_b and its gradient."""
    x = np.asarray(point, dtype=float)
    X = sel.node_coords
    d = X.shape[1]
    diff = x[None, :] - X                      # (n, d)
    r = np.exp(-sys.theta * np.einsum("ij,ij->i", diff, diff))
    p = np.concatenate([[1.0], x])
    values = p @ sys.S_a + r @ sys.S_b

    dp = np.zeros((d, len(p)))
    dp[:, 1:] = np.eye(d)
    dr = -2.0 * sys.theta * diff * r[:, None]  # (n, d): dr_k/dx_i
    grads = (dp @ sys.S_a + dr.T @ sys.S_b).T  # (n, d)
    return ShapeEval(values=values, grads=grads, node_ids=sel.node_ids)


def evaluate_at(point, cloud: NodeCloud, cfg: MeshlessConfig = DEFAULT_CONFIG
                ) -> ShapeEval:
    """Convenience: support selection + system build + evaluation."""
    sel = select_support(point, cloud, cfg)
    sys = build_system(sel, cfg.theta, cfg)
    return shape_functions(sel, sys, point)
