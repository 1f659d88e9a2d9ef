"""Indirect Factorization Updating: exact reanalysis of a locally modified
system by constraining the initial Cholesky factor at the unbalanced DOFs
and correcting through the Sherman-Morrison-Woodbury identity.

The constrained factor satisfies L0_mod L0_mod^T + V V^T = K* with the
unbalanced rows/columns replaced by identity; this reconstruction identity
is validated on toy systems in the test suite, and every production run
re-checks the fundamental-solution residual before the correction is
trusted.  Note the fundamental right-hand sides carry the *negated*
stiffness column: with the positive column the balanced equations are not
annihilated and the method loses exactness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError

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

_FUND_RESIDUAL_TOL = 1e-9


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


def fundamental_solutions(L0_mod: np.ndarray, V: np.ndarray, R: np.ndarray
                          ) -> tuple[np.ndarray, float]:
    """Solve (L0_mod L0_mod^T + V V^T) B = R through SMW.

    All inverse applications are triangular solves on L0_mod; the n_d
    right-hand sides are batched into single BLAS-3 solves.  Returns
    (B, relative residual of the solved system).
    """
    n_d = R.shape[1]
    if n_d == 0:
        return R.copy(), 0.0

    AinvRV = CholeskyFactor(L0_mod).apply_inverse(np.hstack([R, V]))
    AinvR = AinvRV[:, :n_d]
    AinvV = AinvRV[:, n_d:]
    C = np.eye(V.shape[1]) + V.T @ AinvV
    try:
        Z = np.linalg.solve(C, V.T @ AinvR)
    except LinAlgError as exc:
        raise NumericalError(
            "SMW capacitance matrix is singular; fall back to a full "
            "re-factorization") from exc
    B = AinvR - AinvV @ Z

    res = L0_mod @ (L0_mod.T @ B) + V @ (V.T @ B) - R
    rel = float(np.linalg.norm(res) / max(np.linalg.norm(R), 1e-300))
    if rel > _FUND_RESIDUAL_TOL:
        raise NumericalError(
            f"fundamental-solution residual {rel:.2e} exceeds "
            f"{_FUND_RESIDUAL_TOL:.0e}; fall back to a full re-factorization")
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

    @property
    def short_circuit(self) -> bool:
        """No DOF was unbalanced, so U* was returned unchanged."""
        return self.n_d == 0


def ifu_solve(factor: CholeskyFactor, K_m_star: sp.spmatrix, K_m: sp.spmatrix,
              F: np.ndarray, U_star: np.ndarray, tol: float | None = None):
    """Full IFU pipeline; returns (U, IfuDiagnostics).

    Exact up to solver roundoff: the returned displacement satisfies the
    modified system to the residual reported in the diagnostics.
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
            n_d=0, fund_residual=0.0, solve_residual=0.0)

    L0_mod, V = constrain_factor(factor, S_d)
    R = constraint_rhs(K_m, S_d)
    B, fund_rel = fundamental_solutions(L0_mod, V, R)
    _, _, y = reduce_unbalanced(K_m, S_d, B, delta)
    U = U_star + B @ y
    solve_rel = float(np.linalg.norm(K_m @ U - F)
                      / max(np.linalg.norm(F), 1e-300))
    return U, IfuDiagnostics(n_d=len(S_d), fund_residual=fund_rel,
                             solve_residual=solve_rel)
