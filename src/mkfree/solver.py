"""Direct solution of the constrained system K U = F via a banded Cholesky
factor.

The factor is kept in original DOF order (no fill-reducing permutation) so
that reanalysis can address factor columns by DOF index directly.  It is
stored as its lower band, ``ab[i - j, j] = L[i, j]`` for
``0 <= i - j <= b``, with b the half-bandwidth of K: (b + 1) n doubles
instead of n^2.  Only this module knows that layout.  One right-hand side
goes through LAPACK's banded solve; a block of them goes through
:meth:`CholeskyFactor.panel_solve`, and a block product with L or L^T
through :meth:`CholeskyFactor.panel_multiply`, both level-3 BLAS on panels
of the band.  Reanalysis reads the factor through its ``columns``,
``constrained``, ``unit_rows``, ``principal`` and ``embed`` methods, none
of which builds a dense n x n matrix; ``np.asarray(factor)`` (its
``__array__``) is the one dense view, for tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.linalg.blas import dgemm, dtrmm, dtrsm
from scipy.sparse.linalg import ArpackError, eigsh

from .assembly import StiffnessSystem
from .errors import RigidBodyError

__all__ = ["CholeskyFactor", "factorize", "solve"]

# rows per panel of CholeskyFactor.panel_solve; measured fastest on 2
# cores from 64 to 256 for half-bandwidths of 250-430
_PANEL = 128


def _lower_band(A) -> np.ndarray:
    """Lower band ``ab[i - j, j] = A[i, j]`` of a matrix, dense or sparse,
    as wide as the nonzeros of its lower triangle."""
    T = sp.tril(A, format="coo")
    T.sum_duplicates()
    d = T.row - T.col
    ab = np.zeros((int(np.max(d, initial=0)) + 1, A.shape[0]))
    ab[d, T.col] = T.data
    return ab


def _strip(ab: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """L[k0:k1 + b, k0:k1] of the band ``ab`` as a Fortran-ordered array,
    zero where the band holds nothing (rows past n included).

    In a Fortran array with leading dimension ld, diagonal d of column j
    sits at flat offset j (ld + 1) + d, so a (p, ld + 1) view of the buffer
    takes the band's columns as its rows.
    """
    w = ab.shape[0]
    p = k1 - k0
    ld = p + w - 1
    buf = np.zeros(p * (ld + 1))
    buf.reshape(p, ld + 1)[:, :w] = ab[:, k0:k1].T
    return buf[:p * ld].reshape(p, ld).T


class CholeskyFactor:
    """Lower-triangular factor L with K = L L^T, in DOF order, stored as its
    band ``ab[i - j, j] = L[i, j]``.  ``CholeskyFactor(L0=L)`` takes a
    dense factor and ``np.asarray(factor)`` returns one, for tests; the
    solver and IFU paths use only the band."""

    __slots__ = ("ab",)

    def __init__(self, L0: np.ndarray | None = None, *,
                 ab: np.ndarray | None = None):
        if (L0 is None) == (ab is None):
            raise TypeError("give exactly one of L0 and ab")
        if ab is None:
            ab = _lower_band(np.asarray(L0, dtype=float))
        self.ab = ab

    @property
    def n(self) -> int:
        return self.ab.shape[1]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense n x n factor, built afresh on each call."""
        if copy is False:
            raise ValueError("the dense factor is always built afresh")
        return self.columns(np.arange(self.n))

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """Dense L[:, cols]."""
        w, n = self.ab.shape
        i = cols + np.arange(w)[:, None]
        ok = i < n
        out = np.zeros((n, len(cols)))
        out[i[ok], np.broadcast_to(np.arange(len(cols)), i.shape)[ok]] = \
            self.ab[:, cols][ok]
        return out

    def constrained(self, S_d: np.ndarray) -> "CholeskyFactor":
        """A copy of L with rows and columns ``S_d`` zeroed and a unit
        diagonal there, on the same band."""
        ab = self.ab.copy()
        ab[:, S_d] = 0.0
        ab[0, S_d] = 1.0
        for d in range(1, ab.shape[0]):     # L[s, s - d] = ab[d, s - d]
            ab[d, S_d[S_d >= d] - d] = 0.0
        return CholeskyFactor(ab=ab)

    def unit_rows(self) -> np.ndarray:
        """Mask over the DOFs: True where L has a unit diagonal and no other
        entry in that row or column."""
        w, n = self.ab.shape
        linked = np.zeros(n, dtype=bool)
        for d in range(1, w):       # L[j + d, j] links column j and row j + d
            nz = self.ab[d, :n - d] != 0.0
            linked[:n - d] |= nz
            linked[d:] |= nz
        return (self.ab[0] == 1.0) & ~linked

    def principal(self, r: np.ndarray) -> "CholeskyFactor":
        """L[r, r] for ascending ``r``, a lower-triangular factor in its own
        right, on a band as wide as its nonzeros.  Entry (r[c + d], r[c])
        lies r[c + d] - r[c] >= d rows below the diagonal of L, so that
        band is no wider than L's."""
        w, n_r = self.ab.shape[0], len(r)
        sub = np.zeros((w, n_r))
        for d in range(min(w, n_r)):
            gap = r[d:] - r[:n_r - d]
            ok = gap < w
            sub[d, :n_r - d][ok] = self.ab[gap[ok], r[:n_r - d][ok]]
        return CholeskyFactor(
            ab=sub[:np.flatnonzero(sub.any(axis=1)).max(initial=0) + 1])

    def embed(self, perm: np.ndarray, N: int) -> "CholeskyFactor":
        """The factor of P K P^T + I_a on N DOFs, with P[perm[k], k] = 1 and
        I_a the unit diagonal off ``perm``, for increasing ``perm``.

        L scatters to P L P^T, which stays lower triangular as ``perm``
        increases: band entry (d, j) moves to diagonal perm[j + d] - perm[j]
        of column perm[j], and the band widens to the widest such gap.
        """
        w, n = self.ab.shape
        i = np.arange(n) + np.arange(w)[:, None]
        ok = i < n
        col = np.broadcast_to(perm, i.shape)[ok]
        gap = perm[i[ok]] - col
        ab = np.zeros((int(gap.max(initial=0)) + 1, N))
        ab[0] = 1.0
        ab[gap, col] = self.ab[ok]
        return CholeskyFactor(ab=ab)

    def apply_inverse(self, rhs: np.ndarray) -> np.ndarray:
        """K^-1 rhs through the two banded triangular solves."""
        return cho_solve_banded((self.ab, True), rhs, check_finite=False)

    def _panels(self, X: np.ndarray, descending: bool):
        """Per panel k0:k1 of up to ``_PANEL`` rows: its diagonal block
        D = L[k0:k1, k0:k1], the block E = L[k1:k1 + b, k0:k1] below it, and
        the matching column blocks of X^T.  ``X`` must be C-ordered, so that
        X^T is Fortran-ordered and BLAS overwrites its blocks in place."""
        if not X.flags.c_contiguous:
            raise ValueError("panel kernels need a C-ordered right-hand side")
        w, n = self.ab.shape
        XT = X.T
        starts = range(0, n, _PANEL)
        for k0 in (reversed(starts) if descending else starts):
            k1 = min(k0 + _PANEL, n)
            e = min(k1 + w - 1, n)
            S = _strip(self.ab, k0, k1)
            yield S[:k1 - k0], S[k1 - k0:e - k0], XT[:, k0:k1], XT[:, k1:e]

    def panel_solve(self, X: np.ndarray, trans: bool = False) -> np.ndarray:
        """Solve L Y = X, or L^T Y = X with ``trans``, for a C-ordered block
        X, in place: a dense triangular solve (``dtrsm``) on each diagonal
        block, and one product (``dgemm``) with the block below it, which
        carries the panel into the next ones.  Returns ``X``, holding Y.
        """
        for D, E, Xk, Xe in self._panels(X, descending=trans):
            if trans:       # Y_k^T = (X_k^T - Y_e^T E) D^-1
                if E.size:
                    dgemm(-1.0, Xe, E, 1.0, Xk, overwrite_c=1)
                dtrsm(1.0, D, Xk, side=1, lower=1, overwrite_b=1)
            else:           # Y_k^T = X_k^T D^-T, then X_e^T -= Y_k^T E^T
                dtrsm(1.0, D, Xk, side=1, lower=1, trans_a=1, overwrite_b=1)
                if E.size:
                    dgemm(-1.0, Xk, E, 1.0, Xe, trans_b=1, overwrite_c=1)
        return X

    def panel_multiply(self, X: np.ndarray, trans: bool = False
                       ) -> np.ndarray:
        """Y = L X, or L^T X with ``trans``, for a C-ordered block X, in place:
        ``dtrmm`` on each diagonal block, ``dgemm`` with the block below it,
        in the panel order that reads each block of X before overwriting it.
        Returns ``X``, holding Y."""
        for D, E, Xk, Xe in self._panels(X, descending=not trans):
            if trans:       # Y_k^T = X_k^T D + X_e^T E
                dtrmm(1.0, D, Xk, side=1, lower=1, overwrite_b=1)
                if E.size:
                    dgemm(1.0, Xe, E, 1.0, Xk, overwrite_c=1)
            else:           # X_e^T += X_k^T E^T, then Y_k^T = X_k^T D^T
                if E.size:
                    dgemm(1.0, Xk, E, 1.0, Xe, trans_b=1, overwrite_c=1)
                dtrmm(1.0, D, Xk, side=1, lower=1, trans_a=1, overwrite_b=1)
        return X


def _near_null_vector(K) -> np.ndarray | None:
    """Eigenvector of the eigenvalue of K nearest zero, by shift-invert
    Lanczos about a shift just below zero, so that K - sigma I is SPD for
    a positive semi-definite K."""
    K = sp.csc_matrix(K)
    try:
        _, v = eigsh(K, k=1, sigma=-1e-8 * float(abs(K).max()), which="LM")
    except (ArpackError, LinAlgError, RuntimeError, ValueError):
        return None
    return v[:, 0]


def factorize(system: StiffnessSystem) -> CholeskyFactor:
    """Cholesky-factor the BC-applied stiffness matrix on its band.

    Raises RigidBodyError, with a near-null vector, if the matrix is not
    positive definite, i.e. the model is under-constrained.
    """
    try:
        ab = cholesky_banded(_lower_band(system.K), lower=True,
                             check_finite=False)
    except LinAlgError as exc:
        raise RigidBodyError(
            "stiffness matrix is not positive definite; the model is likely "
            "under-constrained (rigid-body mode present)",
            null_vector=_near_null_vector(system.K)) from exc
    return CholeskyFactor(ab=ab)


def solve(factor: CholeskyFactor, F: np.ndarray) -> np.ndarray:
    """Solve K U = F with the precomputed factor."""
    F = np.asarray(F, dtype=float)
    if F.shape[0] != factor.n:
        raise ValueError(f"rhs length {F.shape[0]} != system size {factor.n}")
    return factor.apply_inverse(F)
