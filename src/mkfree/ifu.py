"""Indirect Factorization Updating: exact reanalysis of a locally modified
system by constraining the initial Cholesky factor at the unbalanced DOFs
and correcting through the Sherman-Morrison-Woodbury identity.

Constraining the factor L of K* at the unbalanced set S_d gives
L_mod L_mod^T + V V^T = K* with rows and columns S_d replaced by the
identity.  That operator is block-diagonal: a row is *decoupled* when the
factor has a unit diagonal there and no other entry in that row or column,
and the row of V is zero.  The rows S_d are decoupled by construction, and
so is every DOF the factor already carries as a unit row (BC-eliminated
DOFs, DOFs a configuration does not carry).  The fundamental solutions B
solve that operator for the right-hand sides R (the negated columns S_d
of K_m, with the identity on S_d): B = R on the decoupled rows, and on the
coupled rows r the operator is K*[r, r] = L_rr L_rr^T + V_r V_r^T, which
SMW (Hager, SIAM Review 31(2), 1989) solves with one forward and one back
triangular solve on L_rr and a Cholesky factor G G^T of the SPD
capacitance matrix, taken on the smaller side: I + W W^T over the coupled
rows SMW reaches when they are fewer than the n_d columns (the
push-through form), I + W^T W otherwise.  The answer is U = U* + B y with
y from the reduced system K_R y = delta_u, K_R = K_u B over S_d.

:func:`ifu_solve` never forms B.  B enters only through K_R and the one
vector B y, and SMW's forward stage gives both (:func:`schur_reduce`):
K_m is symmetric, so R_r = -K_u[:, r]^T and K_R is the Schur complement
K_m[S_d, S_d] + K_u[:, o] R[o] - R_r^T K*_rr^-1 R_r, o the decoupled rows
outside S_d, whose last term is Y^T (I + W W^T)^-1 Y with
Y = L_rr^-1 R_r.  :func:`fundamental_product` then takes B y through the
stored Y, W and G and one back solve.  A lone row of K_u, whose only
entry is its diagonal (a removed node's DOF), is read off that diagonal,
and its column of R is zero off S_d, so Y and K_R hold the other rows
only.  :func:`fundamental_solutions` and :func:`reduce_unbalanced` are
the reference path: they form all of B and then K_u B, share the forward
stage and the capacitance factor with the Schur phase, and serve as its
oracle.

:func:`ifu_solve` is the composition of the public phases
:func:`residual`, :func:`measurement`, :func:`unbalanced_set`,
:func:`constrain_factor`, :func:`schur_reduce` and
:func:`fundamental_product`, and every phase runs on the banded factor:
:func:`constrain_factor` copies the band with S_d constrained, the coupled
rows r are re-indexed out of that copy (:meth:`CholeskyFactor.unit_rows`,
:meth:`CholeskyFactor.reindex`), and the triangular solves and products
go by panels of the band.  No n x n array is built, and R_r and V_r are
gathered once, into the blocks the forward solve overwrites; the Schur
phase gathers R_r straight from the sparse K_m.  The factor may hold its
rows in its own order (``CholeskyFactor.perm``), and the phases do not
depend on it: every array they take and give is by DOF, as K_m is, and
only the coupled rows r are listed in the factor's order, so that L_rr
is lower triangular on a band.

One BLAS: every dense product, factorization and norm goes through
scipy's BLAS and LAPACK (``scipy.linalg.blas``, ``scipy.linalg.lapack``,
``scipy.linalg``), as the panel kernels do, and none through numpy's
``@``, ``dot`` or ``numpy.linalg``.  numpy and scipy each bundle their own
OpenBLAS, whose worker threads keep spinning for a while after a call, so
calls that alternate between the two make the pools fight over the cores:
on 2 cores a 300 x 300 product took 0.7-1.0 ms from either library alone
and 6 ms when the two alternated, and ifu_solve on a 9-node removal of a
48 x 30 plate took 0.16 s, against 0.08 s on scipy's BLAS alone.  scipy's
wrappers copy an operand that is not Fortran-ordered, so R_r and V_r are
two C-ordered blocks, each panel-solved in place into Y and W, and the
products take their Fortran-ordered transposes.

Guards: a singular capacitance raises.  The fundamental guard checks the
vector that enters the answer, x_r = (B y)[r], against the operator SMW
solved: (L_rr L_rr^T + V_r V_r^T) x_r against R_r y, by panel products on
the band and V read where it is.  The reference path checks all of B the
same way, with one blocked V_r (V_r^T B_r) product.  The answer is
checked against the modified system, which also catches a factor that is
inconsistent with K*: on the balanced rows the answer residual is
K*[r, r] x_r - R_r y - delta_r.  Each guard raises
:class:`NumericalError` above 1e-9.  The fundamental right-hand sides
carry the *negated* stiffness column: with the positive column the
balanced equations are not annihilated and the method loses exactness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve, cholesky
from scipy.linalg.blas import dgemm, dgemv, dnrm2, dsyrk, dtrsm
from scipy.linalg.lapack import dgesv

from .errors import NumericalError, ValidationError
from .solver import CholeskyFactor

__all__ = [
    "IfuDiagnostics",
    "residual",
    "measurement",
    "unbalanced_set",
    "default_tol",
    "constrain_factor",
    "constraint_rhs",
    "fundamental_solutions",
    "reduce_unbalanced",
    "SchurReduction",
    "schur_reduce",
    "fundamental_product",
    "ifu_solve",
]

_RESIDUAL_TOL = 1e-9

# columns of V per block of the fundamental guard's V (V^T B) product; with
# 64/128/256 it took 10.3/8.6/8.9 ms on a 20 % large-redesign cut-out
# (n_r 762 < n_d 1110; dense (V V^T) B 24.2 ms) and 4.6/3.7/4.0 ms on a
# 9-node local-edits removal (n_r 2558, n_d 262; dense V (V^T B) 10.3 ms)
_V_BLOCK = 128


def _norm(a: np.ndarray) -> float:
    """2-norm of all the entries of ``a`` by ``dnrm2``; 0 when empty."""
    return float(dnrm2(a.ravel())) if a.size else 0.0


def _guard(what: str, res: np.ndarray, ref: np.ndarray) -> float:
    """Relative residual ||res|| / ||ref||; NumericalError above 1e-9."""
    rel = _norm(res) / max(_norm(ref), 1e-300)
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
    rowsum = np.abs(diff).sum(axis=1)
    return np.asarray(rowsum).ravel() + np.abs(delta)


def unbalanced_set(meas: np.ndarray, tol: float) -> np.ndarray:
    """Ascending indices of the DOFs whose measurement exceeds ``tol``;
    ValidationError unless ``tol`` is a real, not a bool, in [0, inf).

    The tolerance policy lives in :func:`default_tol`, whose scale-aware
    threshold keeps floating-point assembly noise out of the set.
    """
    meas = np.asarray(meas, dtype=float)
    if isinstance(tol, bool) or not (isinstance(tol, Real)
                                     and 0.0 <= tol < np.inf):
        raise ValidationError(
            f"IFU tolerance must be a finite nonnegative number, got {tol!r}")
    return np.where(np.abs(meas) > tol)[0]


def _finite_max(a: np.ndarray) -> float:
    """max|a| over the finite entries of ``a``, 0 if there are none."""
    return float(np.max(np.abs(a), where=np.isfinite(a), initial=0.0))


def default_tol(K_m: sp.spmatrix, F: np.ndarray) -> float:
    """:func:`ifu_solve`'s default unbalanced-set tolerance,
    1e-9 (max|K_m| over its coupled rows + max|F|), each over the finite
    entries.

    The initial residual is pure roundoff on unchanged equations, so it is
    thresholded against the problem magnitude rather than against
    max(meas), which itself is roundoff when nothing changed.  A coupled
    row holds a nonzero off-diagonal entry.  The other rows are the unit
    rows of decoupled DOFs, a 1.0 with no unit, which would otherwise set
    the scale of a soft material and drop genuine measurements from S_d.
    K_m is SPD, so |K_ij| <= sqrt(K_ii K_jj) and the largest entry of the
    coupled rows is one of their diagonal entries.  A NaN is left out of
    the scale and never exceeds it, so the answer gate refuses it.
    """
    K = sp.csr_matrix(K_m)
    d = K.diagonal()
    nonzero = sp.csr_matrix((K.data != 0.0, K.indices, K.indptr),
                            shape=K.shape)
    coupled = np.asarray(nonzero.sum(axis=1)).ravel() > (d != 0.0)
    return 1e-9 * (_finite_max(d[coupled])
                   + _finite_max(np.asarray(F, dtype=float)))


def constrain_factor(factor: CholeskyFactor, S_d: np.ndarray):
    """Constrain a copy of the factor at the unbalanced DOFs; returns
    (L_mod, V).

    L_mod is a :class:`CholeskyFactor` on the band of ``factor``, with rows
    and columns S_d zeroed and a unit diagonal there; V (n x n_d, rows by
    DOF) holds the factor columns at S_d with the rows S_d zeroed.  This
    equals moving the columns out one at a time in descending factor
    order, because L is lower triangular: column s has no entry in a row
    above s, so zeroing the rows of the other unbalanced DOFs first cannot
    change what it contributes.
    """
    V = factor.columns(S_d)
    V[S_d, :] = 0.0
    return factor.constrained(S_d), V


def constraint_rhs(K_m: sp.spmatrix, S_d: np.ndarray) -> np.ndarray:
    """Right-hand constraint columns for the fundamental solutions.

    Column i is the negated modified-stiffness column at S_d[i], with the
    unbalanced rows zeroed and a unit entry at (S_d[i], i).
    """
    R = sp.csr_matrix(K_m)[:, S_d].toarray()
    np.negative(R, out=R)
    R[S_d, :] = 0.0
    R[S_d, np.arange(len(S_d))] = 1.0
    return R


def _coupled(L_mod: CholeskyFactor, V: np.ndarray):
    """The coupled rows r, in the factor's order, and L_rr on them: every
    row of L_mod but its unit rows where V is zero, which are linked to no
    row of r."""
    r = L_mod.in_order(~L_mod.unit_rows() | V.any(axis=1))
    return r, L_mod.reindex(r)


def _forward(L: CholeskyFactor, Y: np.ndarray, W: np.ndarray):
    """SMW's forward stage on the C-ordered blocks Y = R_r and W = V_r, in
    place: a forward panel solve of each gives Y = L^-1 R_r and
    W = L^-1 V_r.  Rows of [R_r V_r] above its first nonzero row k give
    zero rows of Y and W, so the dense work runs on the n_r' = n_r - k rows
    below.  The capacitance is factored on the smaller side,
    G G^T = I + W W^T (n_r' x n_r', the push-through side) when n_r' < n_d,
    else I + W^T W (n_d x n_d); either is SPD.  Returns (k, G, push); with
    n_r' = 0 (as on a material-only change) nothing is solved or factored
    and G is None."""
    n_r, n_d = W.shape
    k = int(np.append(Y.any(axis=1) | W.any(axis=1), True).argmax())
    if k == n_r:
        return k, None, False
    L.panel_solve(Y)
    L.panel_solve(W)
    push = n_r - k < n_d
    C = dsyrk(1.0, W[k:].T, trans=push, lower=1)
    C += np.tril(C, -1).T       # mirror the lower triangle dsyrk formed
    C.flat[::len(C) + 1] += 1.0
    try:
        G = cholesky(C, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError as exc:
        raise NumericalError(
            "SMW capacitance matrix is singular; fall back to a full "
            "re-factorization") from exc
    return k, G, push


def _capacitance_solve(G: np.ndarray, push: bool, W: np.ndarray,
                       X: np.ndarray) -> np.ndarray:
    """X <- (I + W W^T)^-1 X in place, for a C-ordered X on the rows of the
    C-ordered W: two triangular solves with G on the push-through side,
    else X - W (I + W^T W)^-1 W^T X."""
    if push:        # X^T <- X^T (G G^T)^-1 by two triangular solves
        dtrsm(1.0, G, X.T, side=1, lower=1, trans_a=1, overwrite_b=1)
        dtrsm(1.0, G, X.T, side=1, lower=1, overwrite_b=1)
    else:           # X^T -= T^T W^T with T = (G G^T)^-1 W^T X
        T = cho_solve((G, True), dgemm(1.0, W.T, X.T, trans_b=1),
                      overwrite_b=True, check_finite=False)
        dgemm(-1.0, T, W.T, 1.0, X.T, trans_a=1, overwrite_c=1)
    return X


def _cond(G: np.ndarray | None) -> float:
    """(max/min of diag G)^2, a lower bound on cond(G G^T); 1.0 without
    G."""
    if G is None:
        return 1.0
    d = np.diagonal(G)
    return float((d.max() / d.min()) ** 2)


def _smw(L: CholeskyFactor, V: np.ndarray, R: np.ndarray, r: np.ndarray):
    """Solve (L L^T + V_r V_r^T) X = R_r through SMW for lower-triangular L,
    with R_r = R[r] and V_r = V[r] gathered once into the blocks that
    :func:`_forward` overwrites with Y and W; then
    X = L^-T (I + W W^T)^-1 Y by :func:`_capacitance_solve` and one back
    panel solve, in Y's block.  Returns X and the capacitance bound of
    :func:`_cond`; X is zero when n_r' = 0."""
    Y, W = R[r], V[r]
    k, G, push = _forward(L, Y, W)
    if G is not None:
        _capacitance_solve(G, push, W[k:], Y[k:])
        L.panel_solve(Y, trans=True)
    return Y, _cond(G)


def _add_outer(out: np.ndarray, V: np.ndarray, r: np.ndarray, B: np.ndarray):
    """out += V[r] (V[r]^T B) by blocks of ``_V_BLOCK`` columns of V, each
    gathered at r, over the rows it touches.  V holds factor columns, each
    nonzero only in the band below its own factor row, so in DOF order,
    where V's columns (S_d ascending) follow r, a block's rows are few,
    and a lift keeps r in the baseline's order (the DOFs an insertion adds
    go last, and are never coupled).  In another factor order a block's
    columns can lie anywhere in r and its rows can span most of r.  On a
    shuffled-id 48 x 30 plate in reverse Cuthill-McKee order (band 500;
    40- and 150-node removals) this product took 27 and 75 ms of a 0.55
    and 0.89 s ifu_solve, and blocks taken in factor order would save at
    most 2 and 15 ms of it, so the blocks stay in V's order."""
    for j in range(0, V.shape[1], _V_BLOCK):
        Vb = V[r, j:j + _V_BLOCK]
        rows = np.flatnonzero(Vb.any(axis=1))
        if len(rows):
            lo, hi = rows[0], rows[-1] + 1
            Vb = Vb[lo:hi]      # out^T += (V_b^T B)^T V_b^T
            dgemm(1.0, dgemm(1.0, Vb.T, B[lo:hi].T, trans_b=1), Vb.T, 1.0,
                  out[lo:hi].T, trans_a=1, overwrite_c=1)


def _fundamental(L_mod: CholeskyFactor, V: np.ndarray, R: np.ndarray):
    """Solve (L_mod L_mod^T + V V^T) B = R with SMW on the coupled rows r of
    :func:`_coupled`; B equals R on the other rows, so B overwrites R.  The
    guard, read off R and V at r, is L_rr L_rr^T B_r by panels of the band
    plus V_r (V_r^T B_r) by :func:`_add_outer`, less R_r.  Returns (B,
    relative residual, number of coupled rows, capacitance bound)."""
    r, L = _coupled(L_mod, V)
    B_r, cond = _smw(L, V, R, r)
    res = L.panel_multiply(L.panel_multiply(B_r.copy(), trans=True))
    _add_outer(res, V, r, B_r)
    res -= R[r]
    rel = _guard("fundamental-solution", res, R)
    R[r] = B_r
    return R, rel, len(r), cond


def fundamental_solutions(L_mod: CholeskyFactor, V: np.ndarray,
                          R: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve (L_mod L_mod^T + V V^T) B = R through SMW: the reference
    path, which forms all n_d fundamental solutions.

    Decoupled rows keep B = R; SMW solves the coupled block on its band.
    Returns (B, relative residual of the solved system).
    """
    if R.shape[1] == 0:
        return R.copy(), 0.0
    B, rel, _, _ = _fundamental(L_mod, V, R.copy())
    return B, rel


def _unbalanced_rows(K_m: sp.spmatrix, S_d: np.ndarray):
    """K_u, the rows S_d of K_m (canonical CSR, no stored zeros), its
    diagonal K_u[i, S_d[i]], and the positions in S_d of its *lone* rows,
    whose only entry is their own diagonal (typically a removed node's
    DOF), and of the rest."""
    K_u = sp.csr_matrix(K_m)[S_d, :]
    K_u.sum_duplicates()
    K_u.eliminate_zeros()
    diag = np.asarray(K_u[np.arange(len(S_d)), S_d]).ravel()
    lone = np.diff(K_u.indptr) == (diag != 0.0)
    return K_u, diag, np.flatnonzero(lone), np.flatnonzero(~lone)


def _solve_reduced(K_ss, K_rest, delta_u, lone, rest, K_rest_lone=None):
    """y over S_d: delta_u / K_ss on the lone rows, and on the rest the LU
    solve of K_rest y = delta_u - K_rest_lone y[lone] (no coupling term
    without K_rest_lone).  NumericalError when either part is singular."""
    y = np.empty(len(delta_u))
    try:
        if not np.all(K_ss != 0.0):
            raise LinAlgError("a lone diagonal is zero")
        y[lone] = delta_u[lone] / K_ss
        b = delta_u[rest]
        if K_rest_lone is not None and K_rest_lone.size:
            b = dgemv(-1.0, K_rest_lone.T, y[lone], 1.0, b, trans=1)
        if len(rest):
            _, _, y[rest], info = dgesv(K_rest, b)
            if info:
                raise LinAlgError("K_R is singular")
    except LinAlgError as exc:
        raise NumericalError(
            "reduced unbalanced system is singular; the modification likely "
            "disconnected part of the structure") from exc
    return y


def reduce_unbalanced(K_m: sp.spmatrix, S_d: np.ndarray, B: np.ndarray,
                      delta: np.ndarray):
    """Reduced system over the unbalanced DOFs from the fundamental
    solutions B: K_R = K_u B, K_R y = delta_u, with K_u the rows S_d of
    K_m.  The reference path; :func:`schur_reduce` forms the same system
    without B.

    B must be the identity on its rows S_d, as the fundamental solutions
    are (those rows are decoupled, where B = R).  So K_R is
    K_m[S_d, S_d] plus K_u B with K_u's entries in S_d columns left out.
    A lone row of K_u, whose only entry is its own diagonal K_ss, is a
    scaled unit row of K_R: y there is delta_u / K_ss, and the dense LU
    runs on the other rows only.
    Returns (K_R, delta_u, y); NumericalError when K_R is singular.
    """
    K_u, _, lone, rest = _unbalanced_rows(K_m, S_d)
    delta_u = np.asarray(delta, dtype=float)[S_d]
    K_uu = K_u[:, S_d].tocoo()
    in_sd = np.zeros(K_u.shape[1], dtype=bool)
    in_sd[S_d] = True
    K_u.data[in_sd[K_u.indices]] = 0.0
    K_u.eliminate_zeros()
    K_R = K_u @ B
    K_R[K_uu.row, K_uu.col] += K_uu.data
    y = _solve_reduced(K_R[lone, lone], K_R[np.ix_(rest, rest)], delta_u,
                       lone, rest, K_R[np.ix_(rest, lone)])
    return K_R, delta_u, y


@dataclass(frozen=True, eq=False)
class SchurReduction:
    """The reduced system of :func:`schur_reduce`, and the SMW state that
    :func:`fundamental_product` expands its solution with.

    ``K_R`` is the reduced matrix on the ``rest`` rows of S_d (positions in
    S_d; the lone rows are read off their diagonal), ``delta_u`` the
    residual on S_d and ``y`` the solution over S_d.  ``K_u`` holds the
    rows S_d of K_m; ``r`` lists the coupled rows in the factor's order and
    ``L`` is L_rr.  ``Y`` = L_rr^-1 R_r on the rest columns and
    ``W`` = L_rr^-1 V_r hold the n_r' rows below the first nonzero row of
    [R_r V_r], each C-ordered, and ``G`` is the capacitance factor on the
    side ``push`` names, None when n_r' = 0.
    """

    S_d: np.ndarray
    rest: np.ndarray
    K_R: np.ndarray
    delta_u: np.ndarray
    y: np.ndarray
    K_u: sp.csr_matrix = field(repr=False)
    V: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    L: CholeskyFactor = field(repr=False)
    Y: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    G: np.ndarray | None = field(repr=False)
    push: bool = field(repr=False)

    @property
    def n_coupled(self) -> int:
        """Rows SMW solved; the others keep B = R."""
        return len(self.r)

    @property
    def capacitance_cond(self) -> float:
        """(max/min of diag G)^2, a lower bound on the condition number of
        the factored capacitance; 1.0 when none was factored."""
        return _cond(self.G)


def _subtract_coupled(K_R: np.ndarray, G: np.ndarray, push: bool,
                      Y: np.ndarray, W: np.ndarray):
    """K_R -= Y^T (I + W W^T)^-1 Y in place: Z^T Z with Z = G^-1 Y on the
    push-through side, else Y^T Y - P^T P with P = G^-1 W^T Y.  ``dsyrk``
    forms the upper triangle of the product, and both triangles of K_R take
    it; the temporaries are freed before :func:`_solve_reduced` copies K_R
    for its LU."""
    if push:        # Z^T = Y^T G^-T
        S = dsyrk(1.0, dtrsm(1.0, G, Y.T, side=1, lower=1, trans_a=1))
    else:           # P^T = Y^T W G^-T
        P_T = dtrsm(1.0, G, dgemm(1.0, Y.T, W.T, trans_b=1), side=1,
                    lower=1, trans_a=1, overwrite_b=1)
        S = dsyrk(-1.0, P_T, 1.0, dsyrk(1.0, Y.T), overwrite_c=1)
    K_R -= S                # S holds zeros below its diagonal
    np.fill_diagonal(S, 0.0)
    K_R -= S.T


def schur_reduce(L_mod: CholeskyFactor, V: np.ndarray, K_m: sp.spmatrix,
                 S_d: np.ndarray, delta: np.ndarray) -> SchurReduction:
    """The reduced system K_R y = delta_u of :func:`reduce_unbalanced`,
    formed as a Schur complement without the fundamental solutions.

    K_m is symmetric, so on the coupled rows r the right-hand sides are
    R_r = -K_u[:, r]^T, and B = R on the decoupled rows o outside S_d.
    With B = I on S_d,
    K_R = K_m[S_d, S_d] + K_u[:, o] R[o] - R_r^T K*_rr^-1 R_r, and SMW's
    forward stage gives the last term: with Y = L_rr^-1 R_r it is
    Y^T (I + W W^T)^-1 Y, so Z^T Z with Z = G^-1 Y on the push-through
    side, else Y^T Y - P^T P with P = G^-1 W^T Y.  A lone row of K_u has
    a zero column of R off its own diagonal, so Y holds only the rest
    columns, R_r is gathered from K_u straight into the block the forward
    solve overwrites, and K_R is formed on the rest rows only.  When
    every row is lone, R_r is zero and nothing is solved or factored.
    NumericalError when the capacitance or K_R is singular.
    """
    K_u, diag, lone, rest = _unbalanced_rows(K_m, S_d)
    delta_u = np.asarray(delta, dtype=float)[S_d]
    r, L = _coupled(L_mod, V)
    o = np.ones(K_u.shape[1], dtype=bool)
    o[S_d] = o[r] = False
    K_rest = K_u[rest] if len(lone) else K_u
    K_R = K_rest[:, S_d[rest]].toarray()
    Ko = K_rest[:, np.flatnonzero(o)]
    if Ko.nnz:
        Koo = (Ko @ Ko.T).tocoo()       # K_u[:, o] R[o], R[o] = -K_u[:, o]^T
        np.subtract.at(K_R, (Koo.row, Koo.col), Koo.data)
    Y = np.zeros((len(r), len(rest)))
    A = K_rest[:, r].tocoo()
    Y[A.col, A.row] = -A.data
    W = V[r]
    k, G, push = _forward(L, Y, W) if len(rest) else (len(r), None, False)
    Y, W = Y[k:], W[k:]
    if G is not None:
        _subtract_coupled(K_R, G, push, Y, W)
    y = _solve_reduced(diag[lone], K_R, delta_u, lone, rest)
    return SchurReduction(S_d=S_d, rest=rest, K_R=K_R, delta_u=delta_u, y=y,
                          K_u=K_u, V=V, r=r, L=L, Y=Y, W=W, G=G, push=push)


def fundamental_product(red: SchurReduction, y: np.ndarray):
    """B y for the fundamental solutions B that ``red`` stands for, without
    forming B: y on S_d, R[o] y = -(K_u^T y)[o] on the decoupled rows
    outside S_d, and on the coupled rows x_r = K*_rr^-1 R_r y, one vector
    through the stored Y, W and G and one back panel solve,
    x_r = L_rr^-T (I + W W^T)^-1 Y y.  The fundamental guard checks that
    vector: (L_rr L_rr^T + V_r V_r^T) x_r against R_r y, with V_r read
    where it is.  Returns (B y, relative residual); NumericalError above
    1e-9.
    """
    y = np.asarray(y, dtype=float)
    By = -(red.K_u.T @ y)
    By[red.S_d] = y
    rhs = By[red.r]
    x = np.zeros((len(red.r), 1))
    if red.G is not None:
        k = len(red.r) - len(red.Y)
        x[k:, 0] = dgemv(1.0, red.Y.T, y[red.rest], trans=1)
        _capacitance_solve(red.G, red.push, red.W, x[k:])
        red.L.panel_solve(x, trans=True)
    res = red.L.panel_multiply(red.L.panel_multiply(x.copy(), trans=True))
    x = x[:, 0]
    x_full = np.zeros(len(By))
    x_full[red.r] = x
    VVx = dgemv(1.0, red.V.T, dgemv(1.0, red.V.T, x_full), trans=1)
    res = res[:, 0] + VVx[red.r] - rhs
    rel = _guard("fundamental-solution", res, rhs)
    By[red.r] = x
    return By, rel


@dataclass(frozen=True)
class IfuDiagnostics:
    """What one :func:`ifu_solve` run measured.  ``fund_residual`` is the
    fundamental guard's relative residual on the one vector of the
    fundamental solutions that enters the answer, x_r = (B y)[r]:
    ||(L_rr L_rr^T + V_r V_r^T) x_r - R_r y|| / ||R_r y||.
    ``solve_residual`` is ||K_m U - F|| / ||F||.  Both are at most 1e-9,
    or ifu_solve raises; with no unbalanced DOF, fund_residual is 0."""

    n_d: int
    fund_residual: float
    solve_residual: float
    n_coupled: int              # rows SMW solved; the rest keep B = R
    capacitance_cond: float     # lower bound on cond(factored capacitance)

    @property
    def short_circuit(self) -> bool:
        """No DOF was unbalanced, so no factor was constrained: the answer
        is U* unchanged, or U = 0 for a zero load."""
        return self.n_d == 0


def ifu_solve(factor: CholeskyFactor, K_m_star: sp.spmatrix, K_m: sp.spmatrix,
              F: np.ndarray, U_star: np.ndarray, tol: float | None = None):
    """Full IFU pipeline; returns (U, IfuDiagnostics).

    Exact up to solver roundoff: the returned displacement satisfies the
    modified system to 1e-9 relative, or NumericalError is raised.
    """
    F = np.asarray(F, dtype=float)
    loaded = F.any()
    if not loaded:      # a zero load's exact answer is U = 0, whatever changed
        U_star = np.zeros_like(F)
    delta = residual(K_m, F, U_star)
    meas = measurement(K_m, K_m_star, delta) if loaded else []
    if tol is None:
        tol = default_tol(K_m, F)
    S_d = unbalanced_set(meas, tol)
    if len(S_d) == 0:
        # U* is the answer; its residual K_m U* - F is -delta, so the gate
        # needs no new product (and a NaN in K_m or F trips it)
        return U_star.copy(), IfuDiagnostics(
            n_d=0, fund_residual=0.0,
            solve_residual=_guard("IFU solve", delta, F), n_coupled=0,
            capacitance_cond=1.0)
    L_mod, V = constrain_factor(factor, S_d)
    red = schur_reduce(L_mod, V, K_m, S_d, delta)
    By, fund_rel = fundamental_product(red, red.y)
    U = U_star + By
    solve_rel = _guard("IFU solve", K_m @ U - F, F)
    return U, IfuDiagnostics(n_d=len(S_d), fund_residual=fund_rel,
                             solve_residual=solve_rel,
                             n_coupled=red.n_coupled,
                             capacitance_cond=red.capacitance_cond)
