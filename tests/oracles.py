"""Independent brute-force oracles used to cross-check the implementation.

Everything here is written against the mathematical definitions with plain
dense linear algebra (explicit inverses, no factorization reuse, no sparse
scatter), deliberately sharing no code paths with the package internals.
The one exception is :func:`full_screen_oracle`, the local update's screen
over the whole grid, which checks the bounded screen by brute force on the
package's own support search.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded

from mkfree.assembly import ACTIVITY_FACTOR, active_supports
from mkfree.interp import _SUPPORT_GROWTH

_GL = 1.0 / np.sqrt(3.0)


def kriging_matrices_oracle(X, theta):
    """Gaussian correlation matrix R (n, n) and linear polynomial matrix
    P (n, 1 + dim) of support coordinates ``X``."""
    X = np.asarray(X, dtype=float)
    diff = X[:, None, :] - X[None, :, :]
    R = np.exp(-theta * (diff ** 2).sum(axis=2))
    P = np.hstack([np.ones((len(X), 1)), X])
    return R, P


def transfer_matrices_oracle(X, theta):
    """R, P and the transfer matrices S_a = (P^T R^-1 P)^-1 P^T R^-1 and
    S_b = R^-1 (I - P S_a) of support coordinates ``X``, via explicit
    inverses; phi(x) = p(x)^T S_a + r(x)^T S_b."""
    R, P = kriging_matrices_oracle(X, theta)
    Ri = np.linalg.inv(R)
    S_a = np.linalg.inv(P.T @ Ri @ P) @ P.T @ Ri
    S_b = Ri @ (np.eye(len(R)) - P @ S_a)
    return R, P, S_a, S_b


def shape_oracle(point, X, theta):
    """Moving-Kriging shape values and analytic gradients at ``point`` from
    support coordinates ``X``, via explicit inverses."""
    point = np.asarray(point, dtype=float)
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    _, _, A, B = transfer_matrices_oracle(X, theta)

    dx = point[None, :] - X
    r = np.exp(-theta * (dx ** 2).sum(axis=1))
    p = np.concatenate([[1.0], point])
    values = p @ A + r @ B

    grads = np.empty((n, d))
    for axis in range(d):
        dp = np.zeros(d + 1)
        dp[axis + 1] = 1.0
        dr = -2.0 * theta * dx[:, axis] * r
        grads[:, axis] = dp @ A + dr @ B
    return values, grads


def _distances(point, coords):
    return np.sqrt(((coords - np.asarray(point, dtype=float)) ** 2).sum(axis=1))


def spacing_oracle(point, cloud):
    """d_c: mean distance from the node nearest to ``point`` to its
    dim+1 nearest neighbors, all by brute-force sorting."""
    dist = _distances(point, cloud.coords)
    anchor = cloud.coords[np.argmin(dist)]
    d2 = np.sort(_distances(anchor, cloud.coords))
    k = min(cloud.dim + 1, cloud.n_nodes - 1)
    return float(np.mean(d2[1:1 + k]))


def active_oracle(point, cloud):
    """Whether ``point`` integrates for ``cloud``: its nearest node lies
    within ACTIVITY_FACTOR * d_c."""
    return bool(_distances(point, cloud.coords).min()
                <= ACTIVITY_FACTOR * spacing_oracle(point, cloud))


def support_oracle(point, cloud, cfg):
    """Closed-ball support rows (sorted by node id) mirroring the selection
    rule: radius alpha*d_c with a 1e-12 pad, one growth retry, or None if
    still deficient."""
    d_c = spacing_oracle(point, cloud)
    m = cloud.dim + 1
    dist = _distances(point, cloud.coords)
    for radius in (cfg.alpha * d_c, cfg.alpha * d_c * _SUPPORT_GROWTH):
        rows = np.where(dist <= radius * (1.0 + 1e-12))[0]
        if len(rows) >= m:
            return rows[np.argsort(cloud.ids[rows])]
    return None


def constitutive_oracle(mat):
    E, nu = mat.young_modulus, mat.poisson_ratio
    if mat.mode == "plane_stress":
        c = E / (1.0 - nu ** 2)
        return np.array([[c, c * nu, 0.0],
                         [c * nu, c, 0.0],
                         [0.0, 0.0, c * (1.0 - nu) / 2.0]])
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    D = lam * np.ones((3, 3)) + 2.0 * mu * np.eye(3)
    return np.block([[D, np.zeros((3, 3))],
                     [np.zeros((3, 3)), mu * np.eye(3)]])


def strain_displacement(grads):
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


def b_matrix_oracle(grads):
    """Strain-displacement matrix assembled row by row from the gradient
    table; (3, 2n) in 2D, (6, 3n) in 3D with strain order
    (xx, yy, zz, yz, zx, xy)."""
    n, d = grads.shape
    if d == 2:
        B = np.zeros((3, 2 * n))
        for k in range(n):
            gx, gy = grads[k]
            B[0, 2 * k] = gx
            B[1, 2 * k + 1] = gy
            B[2, 2 * k] = gy
            B[2, 2 * k + 1] = gx
        return B
    B = np.zeros((6, 3 * n))
    for k in range(n):
        gx, gy, gz = grads[k]
        c = 3 * k
        B[0, c] = gx
        B[1, c + 1] = gy
        B[2, c + 2] = gz
        B[3, c + 1] = gz
        B[3, c + 2] = gy
        B[4, c] = gz
        B[4, c + 2] = gx
        B[5, c] = gy
        B[5, c + 1] = gx
    return B


def dense_stiffness_oracle(cloud, grid, mat, cfg):
    """Brute-force dense global stiffness by 2^dim Gauss quadrature per
    cell, including the activity rule.  Like the assembled matrix it is
    raw physics, with no unit diagonal (a cloud is its own DOF space
    here, so no DOF is empty)."""
    d = cloud.dim
    order = np.argsort(cloud.ids)
    id_pos = {int(cloud.ids[row]): k for k, row in enumerate(order)}
    N = cloud.n_nodes * d
    K = np.zeros((N, N))
    D = constitutive_oracle(mat)
    for cell in np.ndindex(*grid.counts):
        lo = grid.origin + np.asarray(cell, dtype=float) * grid.cell_size
        hi = lo + grid.cell_size
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        w = np.prod(hi - lo) / 2 ** d
        for signs in np.ndindex(*(2,) * d):
            gp = center + (2.0 * np.asarray(signs) - 1.0) * _GL * half
            if not active_oracle(gp, cloud):
                continue
            rows = support_oracle(gp, cloud, cfg)
            assert rows is not None, "oracle hit a deficient support"
            _, grads = shape_oracle(gp, cloud.coords[rows], cfg.theta)
            B = b_matrix_oracle(grads)
            k_loc = w * B.T @ D @ B
            dofs = np.concatenate(
                [[id_pos[int(cloud.ids[r])] * d + a for a in range(d)]
                 for r in rows])
            K[np.ix_(dofs, dofs)] += 0.5 * (k_loc + k_loc.T)
    return K


def ca_basis_oracle(K_star, dK, F, s):
    """Recurrence basis via dense solves: U_1 = K*^-1 F,
    U_{i+1} = -K*^-1 dK U_i."""
    cols = [np.linalg.solve(K_star, F)]
    for _ in range(s - 1):
        cols.append(np.linalg.solve(K_star, -(dK @ cols[-1])))
    return np.column_stack(cols)


def ifu_hand_steps(K_star, K_m, F, U_star, S_d):
    """Hand-executed factor constraint + fundamental solutions + reduced
    solve, with the corrected (negated) stiffness columns in the
    constraint right-hand sides.  Everything dense and explicit."""
    K_star = np.asarray(K_star, dtype=float)
    K_m = np.asarray(K_m, dtype=float)
    n = K_star.shape[0]
    L = np.linalg.cholesky(K_star)
    n_d = len(S_d)
    V = np.zeros((n, n_d))
    L_mod = L.copy()
    for i, s in sorted(enumerate(S_d), key=lambda t: -t[1]):
        V[:, i] = L_mod[:, s]
        V[s, i] = 0.0
        L_mod[s, :] = 0.0
        L_mod[:, s] = 0.0
        L_mod[s, s] = 1.0

    R = np.zeros((n, n_d))
    for i, s in enumerate(S_d):
        R[:, i] = -K_m[:, s]
        for j, sj in enumerate(S_d):
            R[sj, i] = 1.0 if sj == s else 0.0

    A = L_mod @ L_mod.T + V @ V.T
    B = np.linalg.solve(A, R)
    delta = F - K_m @ U_star
    K_R = K_m[S_d, :] @ B
    y = np.linalg.solve(K_R, delta[S_d])
    U = U_star + B @ y
    residual_40 = np.linalg.norm(A @ B - R) / np.linalg.norm(R)
    return {"L_mod": L_mod, "V": V, "R": R, "A": A, "B": B,
            "K_R": K_R, "y": y, "U": U, "residual": residual_40}


def banded_cholesky_oracle(K):
    """Lower band ``ab[i - j, j] = L[i, j]`` of the Cholesky factor of the
    sparse SPD matrix K in DOF order, the band read off a COO scatter of
    K's lower triangle."""
    T = sp.tril(K, format="coo")
    T.sum_duplicates()
    d = T.row - T.col
    band = np.zeros((int(np.max(d, initial=0)) + 1, K.shape[0]))
    band[d, T.col] = T.data
    return cholesky_banded(band, lower=True)


def random_spd(rng, n, scale=1.0):
    M = rng.standard_normal((n, n))
    return scale * (M @ M.T + n * np.eye(n))


def full_screen_oracle(changed, cloud_initial, cloud_modified, grid, initial,
                       cfg):
    """The local update's screen with every Gauss point searched in the
    modified cloud: (affected_gauss, influence_node_ids, Supports of the
    modified cloud at the affected points).  A point is affected when its
    support sizes in ``initial`` (the initial cloud's state over the whole
    grid) and in the modified cloud differ, 0 where it does not integrate,
    or at equal sizes when its ascending id lists differ."""
    sup_i = initial.sup
    sup_m, _ = active_supports(grid.gauss[0], cloud_modified, cfg)
    differs = sup_i.sizes != sup_m.sizes
    same = np.flatnonzero(~differs)
    ids_i = cloud_initial.ids[sup_i.take(same).rows]
    ids_m = cloud_modified.ids[sup_m.take(same).rows]
    differs[np.repeat(same, sup_i.sizes[same])[ids_i != ids_m]] = True
    affected = np.flatnonzero(differs)
    affected_m = sup_m.take(affected)
    influence = np.concatenate([
        cloud_initial.ids[sup_i.take(affected).rows],
        cloud_modified.ids[affected_m.rows]])
    return affected, np.union1d(influence, changed), affected_m
