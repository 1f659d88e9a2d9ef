"""Direct solution of the constrained system K U = F via a banded Cholesky
factor.

The factor is stored as its lower band, ``ab[i - j, j] = L[i, j]`` for
``0 <= i - j <= b``, with b its half-bandwidth: (b + 1) n doubles instead
of n^2.  Its rows are in the factor's order ``perm``: L L^T is
K[perm][:, perm].  :func:`factorize` takes the reverse Cuthill-McKee order
of K's pattern (Cuthill & McKee, ACM Nat. Conf. 1969; George & Liu,
*Computer Solution of Large Sparse Positive Definite Systems*, 1981) when
it narrows the band of K's coupled rows, and keeps DOF order (``perm``
the identity) otherwise, so the band does not follow how the node ids
happen to be numbered.  K, F, U and every DofMap stay in DOF order:
:meth:`CholeskyFactor.apply_inverse` moves a right-hand side into the
factor's order and its answer back.  Only this module knows the band
layout.  One right-hand side goes through LAPACK's banded solve; a block
of them goes through :meth:`CholeskyFactor.panel_solve`, and a block
product with L or L^T through :meth:`CholeskyFactor.panel_multiply`, both
level-3 BLAS on panels of the band.  Reanalysis reads the factor by DOF,
whatever its order, through its ``columns``, ``constrained`` and
``unit_rows`` methods, and moves it to another DOF set: IFU drops all but
the coupled rows of a constrained factor (``reindex``), and a node
insertion pads the band with unit columns for the DOFs it adds
(``embed``).  None of them builds a dense n x n matrix;
``np.asarray(factor)`` (its ``__array__``) is the one dense view, for tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.linalg.blas import dgemm, dtrmm, dtrsm
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackError, eigsh

from .assembly import StiffnessSystem
from .errors import RigidBodyError, ValidationError

__all__ = ["CholeskyFactor", "factorize", "solve"]

# rows per panel of CholeskyFactor.panel_solve; measured fastest on 2
# cores from 64 to 256 for half-bandwidths of 250-430
_PANEL = 128

# Smallest pivot L_jj^2, relative to its own diagonal K_jj, that factorize
# accepts.  Each row is read against itself, so the unit rows of decoupled
# DOFs (a 1.0 with no unit) read 1 and do not set the scale of the others,
# whatever the unit of E.  The bundled demos and the benchmark clouds read
# 0.017-0.20, the slender 33x9 cantilever, held only at its root, 5.9e-3
# (against its max diagonal it read 1.2e-8, its fixed DOFs' unit pivots
# against 8.1e7), and the rigid-body modes of the unconstrained
# plate_with_hole 4.6e-14.
_PIVOT_TOL = 1e-10


def _canonical(A) -> sp.csr_matrix:
    """A, dense or sparse, as CSR with sorted indices and no duplicates."""
    A = sp.csr_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A


def _inverse(perm: np.ndarray) -> np.ndarray:
    """The position of each index in the order ``perm``."""
    ip = np.empty_like(perm)
    ip[perm] = np.arange(len(perm))
    return ip


def _lower_band(A: sp.csr_matrix, perm: np.ndarray) -> np.ndarray:
    """Lower band ``ab[ip[i] - ip[j], ip[j]] = A[i, j]`` of a canonical CSR
    matrix in the order ``perm``, with ``ip`` its inverse, as wide as the
    stored entries of that lower triangle."""
    ip = _inverse(perm)
    i = np.repeat(ip, np.diff(A.indptr))
    j = ip[A.indices]
    d = i - j
    low = d >= 0
    ab = np.zeros((int(np.max(d, initial=0)) + 1, A.shape[0]))
    ab[d[low], j[low]] = A.data[low]
    return ab


def _band_order(K: sp.csr_matrix) -> np.ndarray:
    """The reverse Cuthill-McKee order of K's pattern when it narrows the
    band of K's coupled rows, those with an off-diagonal entry; else DOF
    order, ``arange(n)``.

    The widths are compared as if the decoupled rows (lone diagonals:
    BC-eliminated or uncarried DOFs) were removed: each order's width is
    the largest count of coupled rows from a row's farthest column to the
    row, read off the sorted CSR rows.  That is the stored band when no
    decoupled row lies inside a coupled row's span, but in DOF order each
    decoupled row inside a span widens the stored band by one.  So the
    rule errs towards DOF order: it keeps DOF order when RCM narrows the
    stored band only by setting decoupled rows aside (as on a dense block
    with interleaved clamped rows, where DOF order is optimal for the
    coupled rows), and it gives up the case where decoupled rows inside
    the spans make DOF order's stored band wider than RCM's.  Of 41
    systems factored by the demos, the bench family, the benchmark plates
    and their edits, and the benchmark clouds, a rule on the stored bands
    would pick otherwise on three: plate_with_hole's modified K (317
    against RCM's 297, the hole's removed nodes inside the spans), a 20 %
    cut-out of the 40 x 24 plate (293 against 291) and the 5 x 5 patch
    (47 against 46)."""
    n = K.shape[0]
    if K.nnz == 0:
        return np.arange(n)
    start, stop = K.indptr[:-1], K.indptr[1:]
    rows = np.flatnonzero(stop > start)
    first, last = K.indices[start[rows]], K.indices[stop[rows] - 1]
    coupled = np.zeros(K.shape[0], dtype=bool)
    coupled[rows] = (first != rows) | (last != rows)
    rank = np.cumsum(coupled)               # in DOF order
    width = np.max(rank[rows] - rank[first])
    rcm = reverse_cuthill_mckee(K, symmetric_mode=True).astype(np.intp)
    rank[rcm] = np.cumsum(coupled[rcm])
    farthest = np.minimum.reduceat(rank[K.indices], start[rows])
    return rcm if np.max(rank[rows] - farthest) < width else np.arange(n)


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
    """Lower-triangular factor L with L L^T = K[perm][:, perm], stored as
    its band ``ab[i - j, j] = L[i, j]``: row k of L is DOF ``perm[k]``, and
    ``perm`` is ``arange(n)`` in DOF order (the default).

    Every method but the panel kernels speaks in DOFs, whatever the order:
    ``columns``, ``constrained``, ``unit_rows``, ``reindex`` and ``embed``
    take and give DOF indices, and ``np.asarray(factor)`` is P^T L P, L with
    row and column k at DOF ``perm[k]``, whose product with its transpose
    is K.  ``CholeskyFactor(L0=A, perm=perm)`` reads a dense A in that same
    view, by DOF, keeping the entries on or below the diagonal in the
    order ``perm``, so ``CholeskyFactor(L0=np.asarray(f), perm=f.perm)``
    gives f back; both are for tests.  ``panel_solve`` and
    ``panel_multiply`` act on L itself, in the factor's order; IFU calls
    them on a :meth:`reindex`, whose order is the one its map lists.  The
    solver and IFU paths use only the band."""

    __slots__ = ("ab", "perm")

    def __init__(self, L0: np.ndarray | None = None, *,
                 ab: np.ndarray | None = None,
                 perm: np.ndarray | None = None):
        if (L0 is None) == (ab is None):
            raise TypeError("give exactly one of L0 and ab")
        if L0 is not None:
            L0 = _canonical(np.asarray(L0, dtype=float))
        n = L0.shape[0] if ab is None else ab.shape[1]
        if perm is None:
            perm = np.arange(n)
        perm = np.asarray(perm)
        if perm.shape != (n,) or perm.dtype.kind not in "iu" \
                or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError(f"perm must be a permutation of range({n})")
        self.ab = _lower_band(L0, perm) if ab is None else ab
        self.perm = perm

    @property
    def n(self) -> int:
        return self.ab.shape[1]

    def _rows(self, dofs: np.ndarray) -> np.ndarray:
        """The factor rows of ``dofs``."""
        return _inverse(self.perm)[dofs]

    def in_order(self, mask: np.ndarray) -> np.ndarray:
        """The DOFs where the boolean ``mask`` holds, in the factor's
        order."""
        return self.perm[mask[self.perm]]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense n x n factor by DOF, P^T L P, built afresh on each
        call."""
        if copy is False:
            raise ValueError("the dense factor is always built afresh")
        return self.columns(np.arange(self.n))

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """Dense columns ``cols`` of P^T L P: L's column at DOF cols[k],
        each entry in the row of its DOF."""
        w, n = self.ab.shape
        c = self._rows(cols)
        i = c + np.arange(w)[:, None]
        ok = i < n
        out = np.zeros((n, len(cols)))
        out[self.perm[i[ok]],
            np.broadcast_to(np.arange(len(cols)), i.shape)[ok]] = \
            self.ab[:, c][ok]
        return out

    def constrained(self, S_d: np.ndarray) -> "CholeskyFactor":
        """A copy of the factor with the rows and columns of DOFs ``S_d``
        zeroed and a unit diagonal there, on the same band and order."""
        S_d = self._rows(np.asarray(S_d))
        ab = self.ab.copy()
        ab[:, S_d] = 0.0
        ab[0, S_d] = 1.0
        for d in range(1, ab.shape[0]):     # L[s, s - d] = ab[d, s - d]
            ab[d, S_d[S_d >= d] - d] = 0.0
        return CholeskyFactor(ab=ab, perm=self.perm)

    def unit_rows(self) -> np.ndarray:
        """Mask over the DOFs: True where L has a unit diagonal and no other
        entry in that row or column."""
        w, n = self.ab.shape
        linked = np.zeros(n, dtype=bool)
        for d in range(1, w):       # L[j + d, j] links column j and row j + d
            nz = self.ab[d, :n - d] != 0.0
            linked[:n - d] |= nz
            linked[d:] |= nz
        mask = (self.ab[0] == 1.0) & ~linked
        return mask[_inverse(self.perm)]

    def reindex(self, src: np.ndarray) -> "CholeskyFactor":
        """R with R[t', t] = A[src[t'], src[t]] for A = ``np.asarray(self)``,
        on a band as wide as its nonzeros, in the order ``src`` lists (DOF
        order).

        ``src`` must list DOFs in the factor's order, increasing factor rows
        (ValueError otherwise), so entry (t', t) with t < t' comes from below
        L's diagonal: R is lower triangular, and R R^T is L L^T re-indexed
        alike.  So R is the Cholesky factor of that matrix when no column
        ``src`` drops has an entry in a row it keeps, as for the coupled
        rows of a constrained factor (Davis & Hager, SIAM J. Matrix Anal.
        Appl. 20(3), 1999).  A kept gap between factor rows is at least
        t' - t, and L has no gap past w - 1, so R has at most w diagonals:
        each is one gather from the flat band, kept where the gap is below
        w.
        """
        w, n = self.ab.shape
        src = np.asarray(src, dtype=np.intp)
        wrong = ValueError(f"src must list DOFs in range({n}), increasing "
                           f"in the factor's order")
        if src.ndim != 1 or np.any((src < 0) | (src >= n)):
            raise wrong
        rows = self._rows(src)
        if np.any(np.diff(rows) <= 0):
            raise wrong
        N = len(src)
        out = np.zeros((max(min(w, N), 1), N))
        out[0] = self.ab[0, rows]
        ab = self.ab if self.ab.flags.forc else np.ascontiguousarray(self.ab)
        flat = ab.ravel("K")                # ab[g, c] at g step + c stride
        step, stride = (s // ab.itemsize for s in ab.strides)
        off = rows * stride
        for e in range(1, out.shape[0]):
            gap = rows[e:] - rows[:N - e]
            np.copyto(out[e, :N - e],
                      flat.take(gap * step + off[:N - e], mode="clip"),
                      where=gap < w)
        return CholeskyFactor(
            ab=out[:np.flatnonzero(out.any(axis=1)).max(initial=0) + 1])

    def embed(self, dofs: np.ndarray, N: int) -> "CholeskyFactor":
        """The factor of the N x N matrix that holds K at ``dofs`` (K's DOF j
        at DOF dofs[j]) and a unit diagonal on the other DOFs: this band,
        whose entries past its last row are zero (every band here holds
        zeros there), padded with unit columns and copied column-major, the
        layout LAPACK's banded solve reads uncopied.  Its order is
        ``dofs[perm]``, then the other DOFs in ascending order: a unit
        column has no entry below its diagonal, so the band keeps its width
        wherever the unit DOFs sit in DOF order."""
        ab = np.zeros((self.ab.shape[0], N), order="F")
        ab[0] = 1.0
        ab[:, :self.n] = self.ab
        return CholeskyFactor(ab=ab, perm=np.concatenate(
            [dofs[self.perm], np.delete(np.arange(N), dofs)]))

    def apply_inverse(self, rhs: np.ndarray) -> np.ndarray:
        """K^-1 rhs through the two banded triangular solves, ``rhs`` and
        the answer by DOF."""
        x = cho_solve_banded((self.ab, True), np.asarray(rhs)[self.perm],
                             overwrite_b=True, check_finite=False)
        out = np.empty_like(x)
        out[self.perm] = x
        return out

    def _panels(self, X: np.ndarray, descending: bool, first: int = 0):
        """Per panel k0:k1 of up to ``_PANEL`` rows, from the panel holding
        row ``first`` on: its diagonal block D = L[k0:k1, k0:k1], the block
        E = L[k1:k1 + b, k0:k1] below it, and the matching column blocks of
        X^T.  ``X`` must be C-ordered, so that X^T is Fortran-ordered and
        BLAS overwrites its blocks in place."""
        if not X.flags.c_contiguous:
            raise ValueError("panel kernels need a C-ordered right-hand side")
        w, n = self.ab.shape
        XT = X.T
        starts = range(first - first % _PANEL, n, _PANEL)
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
        Leading zero rows of X solve to zero rows of Y in L Y = X, so that
        solve starts at the panel of the first nonzero row.
        """
        first = 0 if trans else int(np.append(X.any(axis=1), True).argmax())
        for D, E, Xk, Xe in self._panels(X, descending=trans, first=first):
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
    """Cholesky-factor the BC-applied stiffness matrix on its band, in the
    order :func:`_band_order` picks.

    Raises RigidBodyError, with a near-null vector, if the matrix is not
    positive definite or some pivot L_jj^2 is at most ``_PIVOT_TOL`` times
    its own diagonal entry K_jj, i.e. the model is under-constrained: a
    rigid-body mode can factor by roundoff alone.
    """
    K = _canonical(system.K)
    perm = _band_order(K)
    band = _lower_band(K, perm)
    try:
        ab = cholesky_banded(band, lower=True, check_finite=False)
    except LinAlgError:
        ab = None
    if ab is None or not np.min(ab[0] ** 2 / band[0]) > _PIVOT_TOL:
        raise RigidBodyError(
            "stiffness matrix is not positive definite, or its smallest "
            "pivot is at roundoff level; the model is likely "
            "under-constrained (rigid-body mode present)",
            null_vector=_near_null_vector(system.K))
    return CholeskyFactor(ab=ab, perm=perm)


def solve(factor: CholeskyFactor, F: np.ndarray) -> np.ndarray:
    """Solve K U = F with the precomputed factor."""
    F = np.asarray(F, dtype=float)
    if F.shape[0] != factor.n:
        raise ValidationError(f"rhs length {F.shape[0]} != system size {factor.n}")
    return factor.apply_inverse(F)
