"""Combined Approximations reanalysis: reduced-basis prediction of the
modified displacement from the initial factorization and the stiffness delta.

The basis spans the Krylov space of the recurrence U_1 = K*^-1 F,
U_{i+1} = -K*^-1 (dK U_i), built orthonormal column by column (Arnoldi:
each new vector is the recurrence applied to the newest orthonormal
column, orthogonalized against the earlier ones).  Each vector costs one
pair of triangular solves; the iteration matrix is never formed.  A
Galerkin solve on the basis gives the prediction, and as s grows it
converges to the modified solution.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import NumericalError, ValidationError
from .model import _integer
from .solver import CholeskyFactor

__all__ = ["build_basis", "reduce_and_solve", "combine", "ca_solve"]

# a new vector whose part outside the current basis is at most this
# fraction of its norm adds no direction: the Krylov space is exhausted
_NEGLIGIBLE = 1e-14


def build_basis(factor: CholeskyFactor, dK: sp.spmatrix, F: np.ndarray,
                s: int, mask: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis U_B (n x k, k <= s) of the CA Krylov space.

    Column 1 is the initial solution K*^-1 F, normalized.  Each further
    column applies -K*^-1 dK to the newest column and orthogonalizes the
    result against all earlier ones by classical Gram-Schmidt, run twice.
    The basis stops before s columns once a new vector has no part outside
    it (at most ``_NEGLIGIBLE`` of its norm); a zero load gives no column.
    The first j columns do not depend on s.

    ``mask`` (a boolean active-DOF vector) zeroes each vector on DOFs the
    modified configuration does not carry.  The exact modified solution is
    zero there, so the restriction is admissible -- and essential: DOFs
    dropped by the modification contribute a large eigenvalue cluster to
    the iteration operator that otherwise swamps the basis.
    """
    s = _integer(s, "basis count")
    if s < 1:
        raise ValidationError("basis count must be >= 1")
    if s > factor.n:
        raise ValidationError(f"basis count {s} exceeds DOF count {factor.n}")
    if mask is not None:
        mask = np.asarray(mask, dtype=float)
        if mask.shape[0] != factor.n:
            raise ValidationError("mask length does not match DOF count")

    def project(v):
        return v if mask is None else mask * v

    # column-major, so every leading block Q[:, :k] has the same layout
    Q = np.empty((factor.n, s), order="F")
    v = project(factor.apply_inverse(np.asarray(F, dtype=float)))
    for k in range(s):
        norm = np.linalg.norm(v)
        if k:
            for _ in range(2):
                v -= Q[:, :k] @ (Q[:, :k].T @ v)
        remainder = np.linalg.norm(v)
        if remainder <= _NEGLIGIBLE * norm:
            return Q[:, :k]
        Q[:, k] = v / remainder
        if k + 1 < s:
            v = project(-factor.apply_inverse(dK @ Q[:, k]))
    return Q


def reduce_and_solve(U_B: np.ndarray, K_m: sp.spmatrix, F: np.ndarray
                     ) -> np.ndarray:
    """Galerkin coefficients y = K_R^-1 U_B^T F, K_R = U_B^T K_m U_B.

    K_R is solved by Cholesky (reading its upper triangle).  It is SPD
    whenever K_m is positive definite on the span of U_B, so a failed
    factorization raises :class:`NumericalError`.
    """
    U_B = np.asarray(U_B, dtype=float)
    K_R = U_B.T @ (K_m @ U_B)
    try:
        factor = sla.cho_factor(K_R)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"reduced stiffness matrix is not positive "
                             f"definite: {exc}") from exc
    return sla.cho_solve(factor, U_B.T @ F)


def combine(U_B: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Modified displacement U = U_B @ y on the union DOF space."""
    return np.asarray(U_B) @ np.asarray(y)


def ca_solve(factor: CholeskyFactor, dK: sp.spmatrix, K_m: sp.spmatrix,
             F: np.ndarray, s: int, mask: np.ndarray | None = None):
    """Full CA pipeline; returns (U, U_B, y).  U_B has at most s columns."""
    U_B = build_basis(factor, dK, F, s, mask=mask)
    y = reduce_and_solve(U_B, K_m, F)
    return combine(U_B, y), U_B, y
