"""Combined Approximations reanalysis: reduced-basis prediction of the
modified displacement from the initial factorization and the stiffness delta.

Basis recurrence: U_1 = K*^-1 F, U_{i+1} = -K*^-1 (dK U_i).  Each new vector
costs one pair of triangular solves; the iteration matrix is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError, ValidationError
from .solver import CholeskyFactor

__all__ = ["ReducedSystem", "build_basis", "reduce_and_solve", "combine",
           "ca_solve"]

# columns with relative norm below this are treated as numerically zero,
# singular values below this fraction of the largest as linearly dependent
_NEGLIGIBLE = 1e-14
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class ReducedSystem:
    """Coefficient solution of the reduced s x s system."""

    y: np.ndarray
    rank: int


def build_basis(factor: CholeskyFactor, dK: sp.spmatrix, F: np.ndarray,
                s: int, mask: np.ndarray | None = None) -> np.ndarray:
    """Krylov-style recurrence basis U_B, n x s; column 1 is the initial
    solution.

    ``mask`` (a boolean active-DOF vector) zeroes each vector on DOFs the
    modified configuration does not carry.  The exact modified solution is
    zero there, so the restriction is admissible -- and essential: DOFs
    dropped by the modification contribute a large eigenvalue cluster to
    the iteration operator that otherwise swamps the basis.
    """
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

    cols = [project(factor.apply_inverse(np.asarray(F, dtype=float)))]
    for _ in range(s - 1):
        cols.append(project(-factor.apply_inverse(dK @ cols[-1])))
    return np.column_stack(cols)


def reduce_and_solve(U_B: np.ndarray, K_m: sp.spmatrix, F: np.ndarray
                     ) -> ReducedSystem:
    """Galerkin reduction K_R = W^T K_m W, F_R = W^T F, solve for y.

    W is U_B with its columns norm-scaled to the first column (the
    recurrence decays or grows geometrically); linearly dependent columns
    are dropped by a rank-revealing solve.  The returned y lives in the
    unscaled basis space, so U = U_B @ y.
    """
    U_B = np.asarray(U_B, dtype=float)
    F = np.asarray(F, dtype=float)
    s = U_B.shape[1]
    norms = np.linalg.norm(U_B, axis=0)
    ref = norms[0]
    if ref == 0.0:
        # zero load: the solution is zero regardless of the basis
        return ReducedSystem(y=np.zeros(s), rank=0)
    keep = norms > _NEGLIGIBLE * ref
    scales = np.divide(ref, norms, out=np.zeros(s), where=keep)
    W = U_B * scales

    K_R = W.T @ (K_m @ W)
    K_R = 0.5 * (K_R + K_R.T)
    F_R = W.T @ F
    U, sig, Vt = np.linalg.svd(K_R)
    rank = int(np.sum(sig > _RANK_TOL * sig[0])) if sig[0] > 0 else 0
    if rank == 0:
        raise NumericalError("reduced stiffness matrix has rank 0")
    y_w = Vt[:rank].T @ ((U[:, :rank].T @ F_R) / sig[:rank])
    return ReducedSystem(y=scales * y_w, rank=rank)


def combine(U_B: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Modified displacement U = U_B @ y on the union DOF space."""
    return np.asarray(U_B) @ np.asarray(y)


def ca_solve(factor: CholeskyFactor, dK: sp.spmatrix, K_m: sp.spmatrix,
             F: np.ndarray, s: int, mask: np.ndarray | None = None):
    """Full CA pipeline; returns (U, U_B, ReducedSystem)."""
    U_B = build_basis(factor, dK, F, s, mask=mask)
    reduced = reduce_and_solve(U_B, K_m, F)
    return combine(U_B, reduced.y), U_B, reduced
