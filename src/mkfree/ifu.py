"""Indirect Factorization Updating: exact reanalysis of a locally modified
system by constraining the initial Cholesky factor at the unbalanced DOFs
and correcting through the Sherman-Morrison-Woodbury identity.

Constraining the factor L0 of K* at the unbalanced set S_d gives
L0_mod L0_mod^T + V V^T = K* with rows and columns S_d replaced by the
identity.  That operator is block-diagonal: a row is *decoupled* when the
factor has a unit diagonal there and no other entry in that row or column,
and the row of V is zero.  The rows S_d are decoupled by construction, and
so is every DOF the factor already carries as a unit row (BC-eliminated
DOFs, DOFs a configuration does not carry).  On decoupled rows the
fundamental solution equals the right-hand side; on the coupled rows r the
operator is K*[r, r] = L_rr L_rr^T + V_r V_r^T, and SMW (Hager, SIAM
Review 31(2), 1989) solves it with one forward and one back triangular
solve on L_rr and a Cholesky factor of the SPD capacitance matrix.
:func:`_coupled` holds the rule; :func:`ifu_solve` and
:func:`fundamental_solutions` both call it, so they solve the same block
and return the same B bit for bit.

Guards: :func:`ifu_solve` checks the fundamental solutions against the
sparse K*[r, r] it receives, and the answer against the modified system;
:func:`fundamental_solutions`, which has no K*, checks the dense block
L_rr L_rr^T + V_r V_r^T.  Each raises :class:`NumericalError` above 1e-9.
The fundamental right-hand sides carry the *negated* stiffness column:
with the positive column the balanced equations are not annihilated and
the method loses exactness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cholesky, solve_triangular

from .errors import NumericalError
from .solver import CholeskyFactor

__all__ = [
    "IfuDiagnostics",
    "residual",
    "measurement",
    "unbalanced_set",
    "constrain_factor",
    "constraint_rhs",
    "fundamental_solutions",
    "reduce_unbalanced",
    "ifu_solve",
]

_RESIDUAL_TOL = 1e-9


def _guard(what: str, res: np.ndarray, ref: np.ndarray) -> float:
    """Relative residual ||res|| / ||ref||; NumericalError above 1e-9."""
    rel = float(np.linalg.norm(res) / max(np.linalg.norm(ref), 1e-300))
    if not rel <= _RESIDUAL_TOL:
        raise NumericalError(
            f"{what} residual {rel:.2e} exceeds {_RESIDUAL_TOL:.0e}; fall "
            f"back to a full re-factorization")
    return rel


def residual(K_m: sp.spmatrix, F: np.ndarray, U_star: np.ndarray) -> np.ndarray:
    """Residual of the initial displacement in the modified system."""
    return np.asarray(F, dtype=float) - K_m @ np.asarray(U_star, dtype=float)


def measurement(K_m: sp.spmatrix, K_m_star: sp.spmatrix, delta: np.ndarray
                ) -> np.ndarray:
    """Per-DOF measurement: row-sums of |K_m - K_m*| plus |delta|."""
    diff = (K_m - K_m_star).tocsr()
    diff.eliminate_zeros()
    rowsum = np.abs(diff).sum(axis=1)
    return np.asarray(rowsum).ravel() + np.abs(delta)


def unbalanced_set(meas: np.ndarray, tol: float) -> np.ndarray:
    """Ascending indices of the DOFs whose measurement exceeds ``tol``.

    The tolerance policy lives in :func:`ifu_solve`, whose scale-aware
    default keeps floating-point assembly noise out of the set.
    """
    meas = np.asarray(meas, dtype=float)
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return np.where(np.abs(meas) > tol)[0]


def constrain_factor(factor: CholeskyFactor, S_d: np.ndarray):
    """Constrain a copy of the factor at the unbalanced DOFs.

    V holds the factor columns at S_d with the rows S_d zeroed; L0_mod is
    the factor with rows and columns S_d zeroed and a unit diagonal there.
    This equals moving the columns out one DOF at a time in descending
    order, because L0 is lower triangular: column s has no entry in a row
    above s, so zeroing the rows of the other unbalanced DOFs first cannot
    change what it contributes.  Returns (L0_mod, V).

    This is the hand-checkable phase: it builds the dense n x n constrained
    factor.  :func:`ifu_solve` never does; it gathers the coupled blocks of
    L0_mod and V straight from ``factor.L0``.
    """
    L0 = factor.L0.copy()
    V = L0.take(S_d, axis=1)     # C order, unlike L0[:, S_d]
    V[S_d, :] = 0.0
    L0[S_d, :] = 0.0
    L0[:, S_d] = 0.0
    L0[S_d, S_d] = 1.0
    return L0, V


def constraint_rhs(K_m: sp.spmatrix, S_d: np.ndarray) -> np.ndarray:
    """Right-hand constraint columns for the fundamental solutions.

    Column i is the negated modified-stiffness column at S_d[i], with the
    unbalanced rows zeroed and a unit entry at (S_d[i], i).
    """
    n = K_m.shape[0]
    n_d = len(S_d)
    R = np.zeros((n, n_d))
    if n_d == 0:
        return R
    cols = sp.csc_matrix(K_m)[:, S_d].toarray()
    R[:] = -cols
    R[S_d, :] = 0.0
    R[S_d, np.arange(n_d)] = 1.0
    return R


def _coupled(L: np.ndarray, V: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mask over ``rows``: True where L L^T + V V^T, restricted to rows x
    rows, couples the row to others.

    ``V`` holds one row per entry of ``rows``.  A row is decoupled when L
    has a unit diagonal there and no other entry in that row or column of
    the block, and its row of V is zero.  Only unit-diagonal rows are
    inspected, so the check reads a few rows and columns of L.
    """
    cand = np.flatnonzero(np.diagonal(L)[rows] == 1.0)
    i = rows[cand]
    alone = ((np.count_nonzero(L[np.ix_(i, rows)], axis=1) == 1)
             & (np.count_nonzero(L[np.ix_(rows, i)], axis=0) == 1)
             & ~V[cand].any(axis=1))
    keep = np.ones(len(rows), dtype=bool)
    keep[cand[alone]] = False
    return keep


def _smw(L: np.ndarray, V: np.ndarray, R: np.ndarray):
    """Solve (L L^T + V V^T) X = R for lower-triangular L through SMW.

    With Y = L^-1 R and W = L^-1 V from one forward solve, the capacitance
    C = I + W^T W = G G^T is SPD and X = L^-T (Y - Z Z^T Y) with
    Z^T = G^-1 W^T; Z Z^T Y is grouped by whichever of n_r and n_d is
    smaller.  Returns X and (max/min of diag G)^2, a lower bound on cond(C).
    """
    n_r, n_d = R.shape
    YW = solve_triangular(L, np.hstack([R, V]), lower=True,
                          check_finite=False)
    Y, W = YW[:, :n_d], YW[:, n_d:]
    try:
        G = cholesky(np.eye(n_d) + W.T @ W, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NumericalError(
            "SMW capacitance matrix is singular; fall back to a full "
            "re-factorization") from exc
    Zt = solve_triangular(G, W.T, lower=True, check_finite=False)
    ZZtY = (Zt.T @ Zt) @ Y if n_r < n_d else Zt.T @ (Zt @ Y)
    X = solve_triangular(L, Y - ZZtY, lower=True, trans="T",
                         check_finite=False)
    d = np.diagonal(G)
    return X, float((d.max() / d.min()) ** 2)


def fundamental_solutions(L0_mod: np.ndarray, V: np.ndarray, R: np.ndarray
                          ) -> tuple[np.ndarray, float]:
    """Solve (L0_mod L0_mod^T + V V^T) B = R through SMW.

    Decoupled rows keep B = R; SMW solves the coupled block, which a dense
    residual check then guards.  Returns (B, relative residual of the
    solved system).
    """
    n, n_d = R.shape
    if n_d == 0:
        return R.copy(), 0.0
    r = np.flatnonzero(_coupled(L0_mod, V, np.arange(n)))
    L, V_r, R_r = L0_mod[np.ix_(r, r)], V[r], R[r]
    B_r, _ = _smw(L, V_r, R_r)
    rel = _guard("fundamental-solution",
                 L @ (L.T @ B_r) + V_r @ (V_r.T @ B_r) - R_r, R)
    B = R.copy()
    B[r] = B_r
    return B, rel


def reduce_unbalanced(K_m: sp.spmatrix, S_d: np.ndarray, B: np.ndarray,
                      delta: np.ndarray):
    """Reduced system over the unbalanced DOFs: K_R = K_u B, K_R y = delta_u."""
    K_u = sp.csr_matrix(K_m)[S_d, :]
    delta_u = np.asarray(delta, dtype=float)[S_d]
    K_R = K_u @ B
    try:
        y = np.linalg.solve(K_R, delta_u)
    except LinAlgError as exc:
        raise NumericalError(
            "reduced unbalanced system is singular; the modification likely "
            "disconnected part of the structure") from exc
    return K_R, delta_u, y


@dataclass(frozen=True)
class IfuDiagnostics:
    n_d: int
    fund_residual: float
    solve_residual: float
    n_coupled: int              # rows SMW solved; the rest keep B = R
    capacitance_cond: float     # lower bound on cond(I + W^T W)

    @property
    def short_circuit(self) -> bool:
        """No DOF was unbalanced, so U* was returned unchanged."""
        return self.n_d == 0


def ifu_solve(factor: CholeskyFactor, K_m_star: sp.spmatrix, K_m: sp.spmatrix,
              F: np.ndarray, U_star: np.ndarray, tol: float | None = None):
    """Full IFU pipeline; returns (U, IfuDiagnostics).

    Exact up to solver roundoff: the returned displacement satisfies the
    modified system to 1e-9 relative, or NumericalError is raised.
    """
    F = np.asarray(F, dtype=float)
    delta = residual(K_m, F, U_star)
    meas = measurement(K_m, K_m_star, delta)
    if tol is None:
        # scale-aware default: the initial residual is pure roundoff on
        # unchanged equations, so threshold against the problem magnitude
        # rather than against max(meas), which itself is roundoff when
        # nothing changed
        k_scale = float(abs(K_m).max()) if K_m.nnz else 0.0
        u_scale = float(np.abs(U_star).max(initial=0.0))
        f_scale = float(np.abs(F).max(initial=0.0))
        tol = 1e-9 * (k_scale * max(1.0, u_scale) + f_scale)
    S_d = unbalanced_set(meas, tol)
    if len(S_d) == 0:
        return U_star.copy(), IfuDiagnostics(
            n_d=0, fund_residual=0.0, solve_residual=0.0, n_coupled=0,
            capacitance_cond=1.0)

    # the blocks of constrain_factor's (L0_mod, V) off the rows S_d
    L0 = factor.L0
    rest = np.delete(np.arange(factor.n), S_d)
    V = L0[np.ix_(rest, S_d)]
    keep = _coupled(L0, V, rest)
    r = rest[keep]
    R = constraint_rhs(K_m, S_d)
    R_r = R[r]
    B_r, cond = _smw(L0[np.ix_(r, r)], V[keep], R_r)
    fund_rel = _guard("fundamental-solution",
                      sp.csr_matrix(K_m_star)[r][:, r] @ B_r - R_r, R)
    B = R               # B = R on the decoupled rows; R is not read again
    B[r] = B_r
    _, _, y = reduce_unbalanced(K_m, S_d, B, delta)
    U = U_star + B @ y
    solve_rel = _guard("IFU solve", K_m @ U - F, F)
    return U, IfuDiagnostics(n_d=len(S_d), fund_residual=fund_rel,
                             solve_residual=solve_rel, n_coupled=len(r),
                             capacitance_cond=cond)
