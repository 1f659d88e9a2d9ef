"""Indirect Factorization Updating: exact reanalysis of a locally modified
system by constraining the initial Cholesky factor at the unbalanced DOFs
and correcting through the Sherman-Morrison-Woodbury identity.

Constraining the factor L of K* at the unbalanced set S_d gives
L_mod L_mod^T + V V^T = K* with rows and columns S_d replaced by the
identity.  That operator is block-diagonal: a row is *decoupled* when the
factor has a unit diagonal there and no other entry in that row or column,
and the row of V is zero.  The rows S_d are decoupled by construction, and
so is every DOF the factor already carries as a unit row (BC-eliminated
DOFs, DOFs a configuration does not carry).  On decoupled rows the
fundamental solution equals the right-hand side; on the coupled rows r the
operator is K*[r, r] = L_rr L_rr^T + V_r V_r^T, and SMW (Hager, SIAM
Review 31(2), 1989) solves it with one forward and one back triangular
solve on L_rr and a Cholesky factor of the SPD capacitance matrix, taken
on the smaller side: I + W W^T over the coupled rows SMW reaches when
they are fewer than the n_d columns (the push-through form), I + W^T W
otherwise.  The fundamental solutions are the identity on S_d, so the
reduced system K_R = K_u B over S_d is K_m[S_d, S_d] plus the product of
K_u's other columns with B, and its rows that are a removed node's lone
diagonal are read off without the dense LU.

:func:`ifu_solve` is the composition of the public phases below, and
every phase runs on the banded factor: :func:`constrain_factor` copies
the band with S_d constrained, :func:`fundamental_solutions` re-indexes
that copy onto its coupled rows r (:meth:`CholeskyFactor.unit_rows`,
:meth:`CholeskyFactor.reindex`), and the triangular solves and products
go by panels of the band.  No n x n array is built, and SMW copies R and
V at r once, into the block it solves in place.  The factor may hold its
rows in its own order (``CholeskyFactor.perm``), and the phases do not
depend on it: every array they take and give is by DOF, as K_m is, and
only the coupled rows r are listed in the factor's order, so that L_rr
is lower triangular on a band.

Guards: the fundamental solutions are checked against the operator SMW
solved, L_rr L_rr^T + V_r V_r^T, reading R and V at r where they are, by
panel products on the band and one blocked V_r (V_r^T B_r) product, each
block of columns of V gathered at r over the rows it touches, whether V_r
has more rows or more columns.  The answer is checked against the
modified system, which also catches a factor that is inconsistent with
K*: on the balanced rows the answer residual is
delta_r + (K*[r, r] B_r - R_r) y.  Each guard raises
:class:`NumericalError` above 1e-9.  The fundamental right-hand sides
carry the *negated* stiffness column: with the positive column the
balanced equations are not annihilated and the method loses exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve, cholesky
from scipy.linalg.blas import dtrsm

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
    "ifu_solve",
]

_RESIDUAL_TOL = 1e-9

# columns of V per block of the fundamental guard's V (V^T B) product; with
# 64/128/256 it took 10.3/8.6/8.9 ms on a 20 % large-redesign cut-out
# (n_r 762 < n_d 1110; dense (V V^T) B 24.2 ms) and 4.6/3.7/4.0 ms on a
# 9-node local-edits removal (n_r 2558, n_d 262; dense V (V^T B) 10.3 ms)
_V_BLOCK = 128


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
    rowsum = np.abs(diff).sum(axis=1)
    return np.asarray(rowsum).ravel() + np.abs(delta)


def unbalanced_set(meas: np.ndarray, tol: float) -> np.ndarray:
    """Ascending indices of the DOFs whose measurement exceeds ``tol``;
    ValidationError unless ``tol`` is a real number with 0 <= tol < inf.

    The tolerance policy lives in :func:`default_tol`, whose scale-aware
    threshold keeps floating-point assembly noise out of the set.
    """
    meas = np.asarray(meas, dtype=float)
    if not (isinstance(tol, Real) and 0.0 <= tol < np.inf):
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


def _smw(L: CholeskyFactor, V: np.ndarray, R: np.ndarray, r: np.ndarray):
    """Solve (L L^T + V_r V_r^T) X = R_r through SMW for lower-triangular L,
    with R_r = R[r] and V_r = V[r] gathered once into the block [Y W] that
    one forward panel solve overwrites: Y = L^-1 R_r, W = L^-1 V_r, and
    X = L^-T (Y - W (I + W^T W)^-1 W^T Y).  Rows of [R_r V_r] above its
    first nonzero row k give zero rows of Y and W, so the dense work runs
    on the n_r' = n_r - k rows below.  The capacitance is factored on the
    smaller side: when 0 < n_r' < n_d, the push-through identity gives
    Y - W (I + W^T W)^-1 W^T Y = (I + W W^T)^-1 Y, one Cholesky factor of
    the n_r' x n_r' matrix and two triangular solves on Y in place;
    otherwise I + W^T W (n_d x n_d) is factored.  Either capacitance is
    SPD, G G^T.  Returns X and (max/min of diag G)^2, a lower bound on
    cond(G G^T).  With n_r' = 0 (as on a material-only change) X is zero,
    nothing is factored, and the bound is 1.0.
    """
    n_r, n_d = len(r), R.shape[1]
    YW = np.empty((n_r, 2 * n_d))
    YW[:, :n_d] = R[r]
    YW[:, n_d:] = V[r]
    k = int(np.append(YW.any(axis=1), True).argmax())
    if k == n_r:
        return np.zeros((n_r, n_d)), 1.0
    Y, W = L.panel_solve(YW)[k:, :n_d], YW[k:, n_d:]
    push = 0 < n_r - k < n_d
    try:
        G = cholesky(np.eye(n_r - k) + W @ W.T if push
                     else np.eye(n_d) + W.T @ W,
                     lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NumericalError(
            "SMW capacitance matrix is singular; fall back to a full "
            "re-factorization") from exc
    X = np.concatenate((np.zeros((k, n_d)), Y))
    if push:        # X^T G G^T = Y^T by two triangular solves, in place
        dtrsm(1.0, G, X[k:].T, side=1, lower=1, trans_a=1, overwrite_b=1)
        dtrsm(1.0, G, X[k:].T, side=1, lower=1, overwrite_b=1)
    else:
        X[k:] -= W @ cho_solve((G, True), W.T @ Y, check_finite=False)
    L.panel_solve(X, trans=True)
    d = np.diagonal(G)
    return X, float((d.max() / d.min()) ** 2)


def _add_outer(out: np.ndarray, V: np.ndarray, r: np.ndarray, B: np.ndarray):
    """out += V[r] (V[r]^T B) by blocks of ``_V_BLOCK`` columns of V, each
    gathered at r, over the rows it touches.  V holds factor columns, each
    nonzero only in the band below its own factor row, so in DOF order,
    where V's columns (S_d ascending) follow r, a block's rows are few.  In
    another factor order a block's columns can lie anywhere in r and its
    rows can span most of r.  On a shuffled-id 48 x 30 plate in reverse
    Cuthill-McKee order (band 500; 40- and 150-node removals) this product
    took 27 and 75 ms of a 0.55 and 0.89 s ifu_solve, and blocks taken in
    factor order would save at most 2 and 15 ms of it, so the blocks stay
    in V's order."""
    for j in range(0, V.shape[1], _V_BLOCK):
        Vb = V[r, j:j + _V_BLOCK]
        rows = np.flatnonzero(Vb.any(axis=1))
        if len(rows):
            lo, hi = rows[0], rows[-1] + 1
            out[lo:hi] += Vb[lo:hi] @ (Vb[lo:hi].T @ B[lo:hi])


def _fundamental(L_mod: CholeskyFactor, V: np.ndarray, R: np.ndarray):
    """Solve (L_mod L_mod^T + V V^T) B = R with SMW on the coupled rows r,
    listed in the factor's order, on L_rr = ``L_mod.reindex(r)``: the other
    rows are unit rows of L_mod, linked to no row of r, and B equals R
    there, so B overwrites R.  The guard, read off R and V at r, is
    L_rr L_rr^T B_r by panels of the band plus V_r (V_r^T B_r) by
    :func:`_add_outer`, less R_r.  Returns (B, relative residual, number
    of coupled rows, capacitance bound)."""
    r = L_mod.in_order(~L_mod.unit_rows() | V.any(axis=1))
    L = L_mod.reindex(r)
    B_r, cond = _smw(L, V, R, r)
    res = L.panel_multiply(L.panel_multiply(B_r.copy(), trans=True))
    _add_outer(res, V, r, B_r)
    res -= R[r]
    rel = _guard("fundamental-solution", res, R)
    R[r] = B_r
    return R, rel, len(r), cond


def fundamental_solutions(L_mod: CholeskyFactor, V: np.ndarray,
                          R: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve (L_mod L_mod^T + V V^T) B = R through SMW.

    Decoupled rows keep B = R; SMW solves the coupled block on its band.
    Returns (B, relative residual of the solved system).
    """
    if R.shape[1] == 0:
        return R.copy(), 0.0
    B, rel, _, _ = _fundamental(L_mod, V, R.copy())
    return B, rel


def reduce_unbalanced(K_m: sp.spmatrix, S_d: np.ndarray, B: np.ndarray,
                      delta: np.ndarray):
    """Reduced system over the unbalanced DOFs: K_R = K_u B, K_R y = delta_u,
    with K_u the rows S_d of K_m.

    B must be the identity on its rows S_d, as the fundamental solutions
    are (those rows are decoupled, where B = R).  So K_R is
    K_m[S_d, S_d] plus K_u B with K_u's entries in S_d columns left out.
    A row of K_u whose only entry is its own diagonal K_ss (typically a
    removed node's DOF) is a scaled unit row of K_R: y there is
    delta_u / K_ss, and the dense LU runs on the other rows only.
    Returns (K_R, delta_u, y); NumericalError when K_R is singular.
    """
    K_u = sp.csr_matrix(K_m)[S_d, :]
    K_u.sum_duplicates()
    K_u.eliminate_zeros()
    delta_u = np.asarray(delta, dtype=float)[S_d]
    K_uu = K_u[:, S_d].tocoo()
    lone = np.diff(K_u.indptr) == (K_uu.diagonal() != 0.0)
    lone, rest = np.flatnonzero(lone), np.flatnonzero(~lone)
    in_sd = np.zeros(K_u.shape[1], dtype=bool)
    in_sd[S_d] = True
    K_u.data[in_sd[K_u.indices]] = 0.0
    K_u.eliminate_zeros()
    K_R = K_u @ B
    K_R[K_uu.row, K_uu.col] += K_uu.data
    K_ss = K_R[lone, lone]
    y = np.empty(len(S_d))
    try:
        if not np.all(K_ss != 0.0):
            raise LinAlgError("a lone diagonal is zero")
        y[lone] = delta_u[lone] / K_ss
        y[rest] = np.linalg.solve(
            K_R[np.ix_(rest, rest)],
            delta_u[rest] - K_R[np.ix_(rest, lone)] @ y[lone])
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
    R = constraint_rhs(K_m, S_d)
    B, fund_rel, n_coupled, cond = _fundamental(L_mod, V, R)
    _, _, y = reduce_unbalanced(K_m, S_d, B, delta)
    U = U_star + B @ y
    solve_rel = _guard("IFU solve", K_m @ U - F, F)
    return U, IfuDiagnostics(n_d=len(S_d), fund_residual=fund_rel,
                             solve_residual=solve_rel, n_coupled=n_coupled,
                             capacitance_cond=cond)
