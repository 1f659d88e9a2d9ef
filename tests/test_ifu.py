import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mkfree import demos, ifu, solver
from mkfree.assembly import StiffnessSystem
from mkfree.errors import NumericalError, ValidationError
from mkfree.ifu import (constrain_factor, constraint_rhs,
                        fundamental_product, fundamental_solutions,
                        ifu_solve, measurement, reduce_unbalanced, residual,
                        schur_reduce, unbalanced_set)
from mkfree.model import DofMap, MaterialModel, Modification
from mkfree.pipeline import full_analysis, prepare_modified
from mkfree.solver import CholeskyFactor, factorize

from conftest import (cantilever_bc, grid_for, ifu_default_tol,
                      jittered_cloud, shuffled_plate)
from oracles import banded_cholesky_oracle, ifu_hand_steps, random_spd


def _factor(K):
    return CholeskyFactor(L0=np.linalg.cholesky(K))


def _modified_pair(rng, n, dofs):
    """K*, K_m differing only inside the dofs x dofs block, so exactly
    those rows are unbalanced (SPD preserved by an SPD block bump)."""
    K_star = random_spd(rng, n)
    K_m = K_star.copy()
    d = np.asarray(dofs)
    M = rng.standard_normal((len(d), len(d)))
    K_m[np.ix_(d, d)] += M @ M.T + len(d) * np.eye(len(d))
    return K_star, K_m


def _banded_spd(rng, n, b):
    """Diagonally dominant SPD matrix of half-bandwidth exactly b."""
    i, j = np.indices((n, n))
    K = np.where(np.abs(i - j) <= b, random_spd(rng, n), 0.0)
    K[np.abs(i - j) == b] += 1.0        # no cancellation narrows the band
    return K + np.diag(np.abs(K).sum(axis=1))


def _clamped(K, dofs):
    """K with rows and columns ``dofs`` replaced by the identity, the way
    BC elimination leaves a clamped DOF."""
    K = K.copy()
    K[dofs, :] = 0.0
    K[:, dofs] = 0.0
    K[dofs, dofs] = 1.0
    return K


class TestMeasurement:
    def test_unbalanced_set_localized(self, rng):
        K_star, K_m = _modified_pair(rng, 12, [3, 7])
        F = rng.standard_normal(12)
        U_star = np.linalg.solve(K_star, F)
        delta = residual(sp.csr_matrix(K_m), F, U_star)
        meas = measurement(sp.csr_matrix(K_m), sp.csr_matrix(K_star), delta)
        tol = 1e-9 * np.abs(K_m).max()
        assert set(unbalanced_set(meas, tol).tolist()) == {3, 7}

    def test_no_change_empty_set(self, rng):
        K = random_spd(rng, 8)
        F = rng.standard_normal(8)
        U = np.linalg.solve(K, F)
        delta = residual(sp.csr_matrix(K), F, U)
        meas = measurement(sp.csr_matrix(K), sp.csr_matrix(K), delta)
        assert len(unbalanced_set(meas, 1e-9 * np.abs(K).max())) == 0

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            unbalanced_set(np.ones(3), tol=-1.0)


class TestConstrainFactor:
    def test_reconstruction_identity(self, rng):
        """Constrained factor + extracted columns rebuild K* with the
        unbalanced rows/cols replaced by identity."""
        K_star = random_spd(rng, 10)
        S_d = np.array([2, 6, 7])
        L_mod, V = constrain_factor(_factor(K_star), S_d)
        L = np.asarray(L_mod)
        A = L @ L.T + V @ V.T
        expect = K_star.copy()
        expect[S_d, :] = 0.0
        expect[:, S_d] = 0.0
        expect[S_d, S_d] = 1.0
        assert np.allclose(A, expect, atol=1e-10)

    def test_original_factor_untouched(self, rng):
        K_star = random_spd(rng, 6)
        factor = _factor(K_star)
        before = np.asarray(factor)
        constrain_factor(factor, np.array([1, 4]))
        assert np.array_equal(np.asarray(factor), before)


class TestConstraintRhs:
    def test_structure(self, rng):
        K_m = sp.csr_matrix(random_spd(rng, 7))
        S_d = np.array([1, 5])
        R = constraint_rhs(K_m, S_d)
        Kd = K_m.toarray()
        # balanced rows carry the negated stiffness column
        others = [i for i in range(7) if i not in (1, 5)]
        for c, s in enumerate(S_d):
            assert np.allclose(R[others, c], -Kd[others, s])
        # unbalanced rows are the identity block
        assert np.allclose(R[np.ix_(S_d, [0, 1])], np.eye(2))


class TestHandExecutedSteps:
    def test_2x2_system(self, rng):
        K_star = np.array([[4.0, 1.0], [1.0, 3.0]])
        K_m = np.array([[4.0, 1.0], [1.0, 5.0]])
        F = np.array([1.0, 2.0])
        U_star = np.linalg.solve(K_star, F)
        hand = ifu_hand_steps(K_star, K_m, F, U_star, S_d=[1])
        U, diag = ifu_solve(_factor(K_star), sp.csr_matrix(K_star),
                            sp.csr_matrix(K_m), F, U_star)
        assert diag.n_d == 1
        assert np.abs(U - hand["U"]).max() <= 1e-10
        assert np.abs(U - np.linalg.solve(K_m, F)).max() <= 1e-10
        assert hand["residual"] <= 1e-9
        assert diag.fund_residual <= 1e-9

    def test_6dof_system(self, rng):
        K_star, K_m = _modified_pair(rng, 6, [2, 5])
        F = rng.standard_normal(6)
        U_star = np.linalg.solve(K_star, F)
        hand = ifu_hand_steps(K_star, K_m, F, U_star, S_d=[2, 5])
        L_mod, V = constrain_factor(_factor(K_star), np.array([2, 5]))
        assert np.allclose(L_mod, hand["L_mod"], atol=1e-12)
        assert np.allclose(V, hand["V"], atol=1e-12)
        R = constraint_rhs(sp.csr_matrix(K_m), np.array([2, 5]))
        assert np.allclose(R, hand["R"], atol=1e-12)
        B, rel = fundamental_solutions(L_mod, V, R)
        assert np.allclose(B, hand["B"], atol=1e-10)
        assert rel <= 1e-9
        U, diag = ifu_solve(_factor(K_star), sp.csr_matrix(K_star),
                            sp.csr_matrix(K_m), F, U_star)
        assert np.abs(U - hand["U"]).max() <= 1e-10
        assert np.abs(U - np.linalg.solve(K_m, F)).max() <= 1e-10

    def test_positive_column_sign_loses_exactness(self, rng):
        """Regression: flipping the constraint right-hand-side sign breaks
        the method (the balanced equations are no longer annihilated)."""
        K_star, K_m = _modified_pair(rng, 6, [2])
        F = rng.standard_normal(6)
        U_star = np.linalg.solve(K_star, F)
        S_d = np.array([2])
        L_mod, V = constrain_factor(_factor(K_star), S_d)
        R_bad = -constraint_rhs(sp.csr_matrix(K_m), S_d)
        R_bad[S_d, 0] = 1.0
        L = np.asarray(L_mod)
        A = L @ L.T + V @ V.T
        B_bad = np.linalg.solve(A, R_bad)
        _, _, y = reduce_unbalanced(sp.csr_matrix(K_m), S_d, B_bad,
                                    residual(sp.csr_matrix(K_m), F, U_star))
        U_bad = U_star + B_bad @ y
        exact = np.linalg.solve(K_m, F)
        assert np.linalg.norm(U_bad - exact) > 1e-6 * np.linalg.norm(exact)


class TestIfuSolve:
    def test_exact_on_random_systems(self, rng):
        for n, dofs in ((10, [4]), (25, [3, 11, 19]), (40, list(range(8)))):
            K_star, K_m = _modified_pair(rng, n, dofs)
            F = rng.standard_normal(n)
            U_star = np.linalg.solve(K_star, F)
            U, diag = ifu_solve(_factor(K_star), sp.csr_matrix(K_star),
                                sp.csr_matrix(K_m), F, U_star)
            exact = np.linalg.solve(K_m, F)
            assert np.linalg.norm(U - exact) <= 1e-10 * np.linalg.norm(exact)
            assert diag.n_d >= len(dofs)
            assert diag.fund_residual <= 1e-9

    def test_short_circuit_without_change(self, rng):
        K = random_spd(rng, 9)
        F = rng.standard_normal(9)
        U_star = np.linalg.solve(K, F)
        U, diag = ifu_solve(_factor(K), sp.csr_matrix(K), sp.csr_matrix(K),
                            F, U_star)
        assert diag.short_circuit and diag.n_d == 0
        assert np.array_equal(U, U_star)
        # the answer gate ran on the residual of U*
        delta = residual(sp.csr_matrix(K), F, U_star)
        rel = np.linalg.norm(delta) / np.linalg.norm(F)
        assert diag.solve_residual == pytest.approx(rel, rel=1e-12, abs=0)
        assert 0.0 < diag.solve_residual <= 1e-9

    @pytest.mark.parametrize("where", ["K_m", "F"])
    def test_short_circuit_gates_nan(self, rng, where):
        """A NaN is left out of the scale-aware tolerance and never
        exceeds it, so no DOF looks unbalanced; the answer gate must still
        refuse U*."""
        K = random_spd(rng, 6)
        F = rng.standard_normal(6)
        U_star = np.linalg.solve(K, F)
        K_m = K.copy()
        if where == "K_m":
            K_m[3, 3] = np.nan
        else:
            F[1] = np.nan
        with pytest.raises(NumericalError, match="IFU solve residual"):
            ifu_solve(_factor(K), sp.csr_matrix(K), sp.csr_matrix(K_m), F,
                      U_star)

    def test_factor_inconsistent_with_K_star_raises(self, rng):
        """A factor of K* + eps E, with E coupled to the change, solves its
        own operator to roundoff; the answer gate still sees the mismatch
        with the K* it is given, through (K*[r, r] B_r - R_r) y."""
        K_star, K_m = _modified_pair(rng, 12, [3, 7])
        F = rng.standard_normal(12)
        U_star = np.linalg.solve(K_star, F)
        E = np.zeros((12, 12))
        E[1, 2] = E[2, 1] = 1e-6 * np.abs(K_star).max()
        with pytest.raises(NumericalError):
            ifu_solve(_factor(K_star + E), sp.csr_matrix(K_star),
                      sp.csr_matrix(K_m), F, U_star)

    def test_disconnected_modification_raises(self, rng):
        # zeroing a row/col entirely makes the reduced system singular
        K_star = random_spd(rng, 6)
        K_m = K_star.copy()
        K_m[3, :] = 0.0
        K_m[:, 3] = 0.0
        F = rng.standard_normal(6)
        U_star = np.linalg.solve(K_star, F)
        with pytest.raises(NumericalError):
            ifu_solve(_factor(K_star), sp.csr_matrix(K_star),
                      sp.csr_matrix(K_m), F, U_star)

    def test_unchecked_answer_raises(self, rng, monkeypatch):
        K_star, K_m = _modified_pair(rng, 12, [3, 7])
        F = rng.standard_normal(12)
        U_star = np.linalg.solve(K_star, F)
        real = ifu.schur_reduce

        def perturbed(*args):
            red = real(*args)
            return dataclasses.replace(red, y=red.y * (1.0 + 1e-6))

        monkeypatch.setattr(ifu, "schur_reduce", perturbed)
        with pytest.raises(NumericalError, match="IFU solve residual"):
            ifu_solve(_factor(K_star), sp.csr_matrix(K_star),
                      sp.csr_matrix(K_m), F, U_star)


class TestCoupledBlock:
    def test_unit_row_outside_S_d_keeps_rhs(self, rng):
        """A clamped DOF is a unit row of the factor: B equals R there, and
        the coupled block alone solves the constrained system."""
        K_star = _clamped(random_spd(rng, 9), [4])
        S_d = np.array([1, 6])
        L_mod, V = constrain_factor(_factor(K_star), S_d)
        R = constraint_rhs(sp.csr_matrix(random_spd(rng, 9)), S_d)
        B, rel = fundamental_solutions(L_mod, V, R)
        L = np.asarray(L_mod)
        exact = np.linalg.solve(L @ L.T + V @ V.T, R)
        assert np.abs(B - exact).max() <= 1e-12 * np.abs(exact).max()
        assert np.array_equal(B[[1, 4, 6]], R[[1, 4, 6]])
        assert rel <= 1e-12

    def test_row_linked_only_to_S_d_is_decoupled(self, rng):
        """DOF 0 has a unit diagonal and couples only to the unbalanced
        DOF 2; constraining DOF 2 leaves it a unit row, so SMW skips it."""
        K_star = np.diag([1.0, 5.0, 4.0, 6.0])
        K_star[0, 2] = K_star[2, 0] = 0.5
        K_star[1, 3] = K_star[3, 1] = 1.0
        K_m = K_star.copy()
        K_m[2, 2] += 3.0
        F = rng.standard_normal(4)
        U_star = np.linalg.solve(K_star, F)
        U, diag = ifu_solve(_factor(K_star), sp.csr_matrix(K_star),
                            sp.csr_matrix(K_m), F, U_star)
        assert diag.n_d == 1 and diag.n_coupled == 2
        exact = np.linalg.solve(K_m, F)
        assert np.linalg.norm(U - exact) <= 1e-12 * np.linalg.norm(exact)

    def test_unit_diagonal_rows_with_links_stay_coupled(self, rng):
        """Rows 0 and 2 of the factor have a unit diagonal, but row 0 has an
        entry in its column, on the widest diagonal of the band, and row 2
        one in its row; both stay in the SMW block."""
        L = np.diag([1.0, 2.0, 1.0, 2.0, 2.0])
        L[2, 1] = L[3, 0] = L[3, 1] = L[4, 3] = 0.5
        K_star = L @ L.T
        K_m = K_star.copy()
        K_m[4, 4] += 3.0
        F = rng.standard_normal(5)
        U_star = np.linalg.solve(K_star, F)
        U, diag = ifu_solve(CholeskyFactor(L0=L), sp.csr_matrix(K_star),
                            sp.csr_matrix(K_m), F, U_star)
        assert diag.n_d == 1 and diag.n_coupled == 4
        exact = np.linalg.solve(K_m, F)
        assert np.linalg.norm(U - exact) <= 1e-12 * np.linalg.norm(exact)

    def test_blocked_outer_product_matches_dense(self, rng):
        """The guard's V[r] (V[r]^T B) by column blocks gathered at r and
        restricted to the rows they touch equals the dense product, over
        several blocks and with empty columns, for r all rows and for r the
        rows V touches, where V[r] has more columns than rows (n_r < n_d)."""
        n = 700
        K = _clamped(_banded_spd(rng, n, 15), np.arange(40, 60))
        factor = CholeskyFactor(L0=np.linalg.cholesky(K))
        S_d = np.sort(rng.choice(n, 3 * ifu._V_BLOCK + 5, replace=False))
        _, V = constrain_factor(factor, S_d)
        touched = np.flatnonzero(V.any(axis=1))
        assert len(touched) < V.shape[1]
        for r in (np.arange(n), touched):
            W = V[r]
            B = rng.standard_normal((len(r), len(S_d)))
            out = rng.standard_normal(B.shape)
            expect = out + W @ (W.T @ B)
            ifu._add_outer(out, V, r, B)
            assert np.abs(out - expect).max() <= 1e-12 * np.abs(expect).max()

    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(4, 3 * solver._PANEL + 40),
           b=st.one_of(st.just(0), st.just(-1), st.integers(1, 60)))
    @example(seed=1, n=9, b=0)
    @example(seed=2, n=23, b=-1)
    @example(seed=3, n=2 * solver._PANEL + 37, b=-1)
    @example(seed=4, n=3 * solver._PANEL + 40, b=25)
    @settings(max_examples=30, deadline=None)
    def test_exact_with_unit_rows(self, seed, n, b):
        """Random banded K* (half-bandwidth b; -1 means n - 1) with unit
        rows, from one panel or less up to several that do not divide the
        coupled block evenly."""
        rng = np.random.default_rng(seed)
        b = n - 1 if b < 0 else min(b, n - 1)
        dofs = rng.permutation(n)
        k = int(rng.integers(1, min(n - 1, 40)))
        n_unit = int(rng.integers(0, n - k))
        changed, unit = np.sort(dofs[:k]), np.sort(dofs[k:k + n_unit])
        K_star = _clamped(_banded_spd(rng, n, b), unit)
        K_m = K_star.copy()
        M = rng.standard_normal((k, k))
        K_m[np.ix_(changed, changed)] += M @ M.T + k * np.eye(k)
        F = rng.standard_normal(n)
        F[unit] = 0.0
        U_star = np.linalg.solve(K_star, F)
        # the banded kernels against their dense counterparts
        factor = factorize(StiffnessSystem(
            K=sp.csr_matrix(K_star), F=F,
            dof_map=DofMap(node_ids=np.arange(n), dim=1)))
        assert factor.ab.shape[0] <= b + 1
        L = np.linalg.cholesky(K_star)
        assert np.abs(np.asarray(factor) - L).max() <= 1e-12 * np.abs(L).max()
        assert (np.linalg.norm(factor.apply_inverse(F) - U_star)
                <= 1e-10 * np.linalg.norm(U_star))
        X = rng.standard_normal((n, 3))
        lead = X.copy()
        lead[:n // 2 + 1] = 0.0             # the forward solve skips these
        for trans, A in ((False, L), (True, L.T)):
            for rhs in (X, lead):
                Y = factor.panel_solve(rhs.copy(), trans=trans)
                assert np.abs(A @ Y - rhs).max() <= 1e-10 * np.abs(X).max()
            Y = factor.panel_multiply(X.copy(), trans=trans)
            assert np.abs(Y - A @ X).max() \
                <= 1e-12 * np.abs(A).max() * np.abs(X).max() * n
        K_m_csr = sp.csr_matrix(K_m)
        U, diag = ifu_solve(factor, sp.csr_matrix(K_star), K_m_csr, F, U_star)
        exact = np.linalg.solve(K_m, F)
        assert np.linalg.norm(U - exact) <= 1e-10 * np.linalg.norm(exact)
        assert diag.n_d == k
        assert diag.n_coupled == n - k - n_unit
        # principal submatrices of the band, runs of r with and without gaps
        for r in (np.flatnonzero(rng.random(n) < 0.7), np.arange(1, n),
                  np.setdiff1d(np.arange(n), changed)):
            assert np.array_equal(np.asarray(factor.reindex(r)),
                                  np.asarray(factor)[np.ix_(r, r)])
        # the public phases find the same unit rows and the same answer,
        # and the reference path through B agrees to roundoff
        L_mod, V = constrain_factor(factor, changed)
        delta = residual(K_m_csr, F, U_star)
        red = schur_reduce(L_mod, V, K_m_csr, changed, delta)
        assert np.array_equal(U_star + fundamental_product(red, red.y)[0], U)
        B, _ = fundamental_solutions(L_mod, V,
                                     constraint_rhs(K_m_csr, changed))
        _, _, y = reduce_unbalanced(K_m_csr, changed, B, delta)
        assert np.linalg.norm(U_star + B @ y - U) \
            <= 1e-12 * np.linalg.norm(U)
        # the reported bound does not exceed the capacitance's condition
        r = np.setdiff1d(np.arange(n), np.union1d(changed, unit))
        W = np.linalg.solve(np.asarray(L_mod)[np.ix_(r, r)], V[r])
        cond = np.linalg.cond(np.eye(k) + W.T @ W)
        assert 1.0 <= diag.capacitance_cond <= cond * (1 + 1e-10)


class TestSmw:
    """_smw factors the capacitance on the smaller side, I + W W^T when the
    rows below the first nonzero row of [R[r] V[r]] (n_r') are fewer than
    the columns (n_d), else I + W^T W, and solves the same system either
    way; an all-zero block (n_r' = 0) factors nothing and gives X = 0."""

    @pytest.mark.parametrize("n_r_prime, n_d", [(20, 45), (30, 30),
                                                (60, 25), (0, 12)])
    def test_matches_dense_solve_on_the_smaller_side(self, rng, monkeypatch,
                                                     n_r_prime, n_d):
        n, b = 70, 6
        L = np.linalg.cholesky(_banded_spd(rng, n, b))
        factor = CholeskyFactor(L0=L)
        k = n - n_r_prime
        R = np.zeros((n, n_d))
        V = np.zeros((n, n_d))
        R[k:] = rng.standard_normal((n_r_prime, n_d))
        V[k:] = rng.standard_normal((n_r_prime, n_d))
        if n_r_prime:
            R[k] = 1.0          # row k is the first nonzero one
        # R and V at the rows r of larger arrays, whose other rows SMW skips
        r = np.sort(rng.choice(n + 15, n, replace=False))
        R_full = rng.standard_normal((n + 15, n_d))
        V_full = rng.standard_normal((n + 15, n_d))
        R_full[r], V_full[r] = R, V
        before = R_full.copy(), V_full.copy()
        factored = []
        real = ifu.cholesky

        def recording(C, **kwargs):
            factored.append(C.copy())
            return real(C, **kwargs)

        monkeypatch.setattr(ifu, "cholesky", recording)
        X, cond = ifu._smw(factor, V_full, R_full, r)
        assert all(map(np.array_equal, (R_full, V_full), before))
        exact = np.linalg.solve(L @ L.T + V @ V.T, R)
        assert np.abs(X - exact).max() <= 1e-12 * max(np.abs(exact).max(), 1)
        if n_r_prime == 0:
            assert factored == [] and not X.any() and cond == 1.0
            return
        side = min(n_r_prime, n_d)
        W = np.linalg.solve(L, V)[k:]
        C = (np.eye(n_r_prime) + W @ W.T if 0 < n_r_prime < n_d
             else np.eye(n_d) + W.T @ W)
        assert [G.shape for G in factored] == [C.shape] == [(side, side)]
        assert np.abs(factored[0] - C).max() <= 1e-12 * np.abs(C).max()
        assert 1.0 <= cond <= np.linalg.cond(C) * (1 + 1e-10)

    def test_singular_capacitance_raises_on_either_side(self, rng,
                                                        monkeypatch):
        factor = CholeskyFactor(L0=np.eye(8))

        def failing(C, **kwargs):
            raise ifu.LinAlgError("not positive definite")

        monkeypatch.setattr(ifu, "cholesky", failing)
        for n_d in (3, 12):
            with pytest.raises(NumericalError, match="capacitance"):
                ifu._smw(factor, rng.standard_normal((8, n_d)),
                         rng.standard_normal((8, n_d)), np.arange(8))


@pytest.fixture(scope="module")
def plate_removal():
    """A 9-node removal from a 24 x 16 plate: n_r 438 coupled rows and
    n_d 298 unbalanced DOFs."""
    cloud = jittered_cloud(np.random.default_rng(5), 24, 16, jitter=0.0)
    base = full_analysis(cloud, grid_for(cloud), MaterialModel(100.0, 0.3),
                         cantilever_bc(cloud))
    i, j = np.divmod(cloud.ids, 16)
    block = (np.abs(i - 12) <= 1) & (np.abs(j - 8) <= 1)
    return prepare_modified(base, Modification(
        removed_ids=frozenset(int(n) for n in cloud.ids[block])))


def test_fundamental_memory_holds_the_coupled_rows_once(plate_removal):
    """On the plate removal, the reference path's fundamental stage peaks
    at 5.9 blocks of n_r x n_d doubles, the L_rr band (0.56) included: SMW
    gathers R and V at r once into the block it solves, and the guard reads
    them where they are.  Copies of R_r and V_r kept beside that block
    peak at 7.9."""
    case = plate_removal
    delta = residual(case.K_m, case.F, case.U_star)
    S_d = unbalanced_set(measurement(case.K_m, case.star.K, delta),
                         ifu_default_tol(case))
    L_mod, V = constrain_factor(case.factor, S_d)
    R = constraint_rhs(case.K_m, S_d)
    tracemalloc.start()
    try:
        _, _, n_r, _ = ifu._fundamental(L_mod, V, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (n_r, len(S_d)) == (438, 298)
    assert peak <= 7.0 * n_r * len(S_d) * 8


def test_ifu_solve_memory_without_the_fundamental_solutions(plate_removal):
    """On the plate removal, the whole of ifu_solve peaks at 9.2 blocks of
    n_r x n_d doubles, V and both factor bands included.  Forming the
    fundamental solutions B, with the dense n x n_d R, it peaked at 10.4."""
    case = plate_removal
    tracemalloc.start()
    try:
        _, diag = ifu_solve(case.factor, case.star.K, case.K_m, case.F,
                            case.U_star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (diag.n_coupled, diag.n_d) == (438, 298)
    assert peak <= 9.6 * diag.n_coupled * diag.n_d * 8


def _schur_case(rng, kind):
    """(factor, K_m, S_d, delta) for TestSchurReduce: a banded SPD K*
    (half-bandwidth 5) and a symmetric K_m that differs from it on the rows
    and columns S_d, within the band."""
    n, b = 60, 5
    S_d = {"push": np.arange(40, 60), "capacitance": np.array([17, 29, 30]),
           "lone": np.array([10, 20, 21, 22, 23, 35]),
           "material": np.setdiff1d(np.arange(n), [0, 30]),
           "decoupled": np.array([12, 40]),
           "rcm": np.array([8, 9, 31, 47])}[kind]
    K_star = _banded_spd(rng, n, b)
    if kind == "decoupled":
        # DOF 9 links to DOF 12 of S_d alone, with a unit diagonal: it is a
        # unit row of the constrained factor, a decoupled row with R != 0
        K_star[9, :] = K_star[:, 9] = 0.0
        K_star[9, 9], K_star[9, 12] = 1.0, 0.5
        K_star[12, 9] = 0.5
    if kind == "material":
        K_star = _clamped(K_star, [0, 30])
    K_m = K_star.copy()
    E = np.zeros((n, n))
    for s in S_d:
        lo, hi = max(s - b, 0), min(s + b + 1, n)
        E[s, lo:hi] = rng.standard_normal(hi - lo)
    K_m += E + E.T
    K_m[S_d, S_d] += 2.0 * np.abs(E + E.T).sum(axis=1)[S_d]
    if kind == "lone":          # DOFs 20-23 lose every link: removed nodes
        K_m = _clamped(K_m, [20, 21, 22, 23])
        K_m[[20, 22], [20, 22]] = 3.0
    if kind == "material":
        K_m = _clamped(K_m, [0, 30])
    delta = rng.standard_normal(n)
    if kind == "rcm":           # the same systems with shuffled DOFs
        p = rng.permutation(n)
        K_star, K_m = K_star[np.ix_(p, p)], K_m[np.ix_(p, p)]
        S_d, delta = np.sort(np.argsort(p)[S_d]), delta[p]
        factor = factorize(StiffnessSystem(
            K=sp.csr_matrix(K_star), F=delta,
            dof_map=DofMap(node_ids=np.arange(n), dim=1)))
    else:
        factor = _factor(K_star)
    return factor, sp.csr_matrix(K_m), S_d, delta


class TestSchurReduce:
    """schur_reduce forms the reduced system of the reference path,
    reduce_unbalanced on fundamental_solutions' B, without forming B, and
    fundamental_product gives B y: both to 1e-12 relative, on either side
    of the capacitance, with lone rows, with no coupled row reached
    (n_r' = 0), with a decoupled row outside S_d where R is nonzero, and on
    a reverse Cuthill-McKee ordered factor."""

    @pytest.mark.parametrize("kind", ["push", "capacitance", "lone",
                                      "material", "decoupled", "rcm"])
    def test_matches_the_fundamental_solution_path(self, rng, kind):
        factor, K_m, S_d, delta = _schur_case(rng, kind)
        L_mod, V = constrain_factor(factor, S_d)
        R = constraint_rhs(K_m, S_d)
        B, _ = fundamental_solutions(L_mod, V, R)
        K_R, delta_u, y = reduce_unbalanced(K_m, S_d, B, delta)
        red = schur_reduce(L_mod, V, K_m, S_d, delta)

        def close(a, b):
            return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

        rest = red.rest
        assert close(red.K_R, K_R[np.ix_(rest, rest)])
        assert np.array_equal(red.delta_u, delta_u)
        assert close(red.y, y)
        By, rel = fundamental_product(red, red.y)
        assert close(By, B @ red.y)
        assert rel <= 1e-12

        lone = np.setdiff1d(np.arange(len(S_d)), rest)
        assert np.array_equal(K_R[np.ix_(lone, lone)],
                              np.diag(K_R[lone, lone]))
        assert (len(lone) > 0) == (kind == "lone")
        n_r_prime = len(red.Y)
        assert (red.G is None) == (kind == "material") == (n_r_prime == 0)
        if kind == "push":
            assert red.push and 0 < n_r_prime < len(S_d)
        if kind == "capacitance":
            assert not red.push and n_r_prime >= len(S_d)
        if kind == "decoupled":
            assert 9 not in red.r and 9 not in S_d and R[9].any()
        if kind == "rcm":
            assert not np.array_equal(factor.perm, np.arange(factor.n))

    def test_fundamental_guard_checks_the_answer_vector(self, rng):
        """A stored W that no longer matches V_r gives an x_r that does not
        solve the operator; the guard on that one vector refuses it."""
        factor, K_m, S_d, delta = _schur_case(rng, "capacitance")
        L_mod, V = constrain_factor(factor, S_d)
        red = schur_reduce(L_mod, V, K_m, S_d, delta)
        _, rel = fundamental_product(red, red.y)
        assert rel <= 1e-12
        bad = dataclasses.replace(red, W=red.W * (1.0 + 1e-6))
        with pytest.raises(NumericalError, match="fundamental-solution"):
            fundamental_product(bad, red.y)


class TestReduceUnbalanced:
    """reduce_unbalanced against a dense solve of K_u B: rows of K_u whose
    only entry is their diagonal are read off as delta_u / K_ss."""

    @staticmethod
    def _system(rng, lone_diag):
        n = 30
        S_d = np.array([2, 5, 9, 14, 20, 27])
        K_m = random_spd(rng, n)
        lone = S_d[[1, 4]]
        for s, K_ss in zip(lone, lone_diag):
            K_m[s, :] = K_m[:, s] = 0.0
            K_m[s, s] = K_ss
        B = rng.standard_normal((n, len(S_d)))
        B[S_d] = np.eye(len(S_d))
        return sp.csr_matrix(K_m), S_d, B, rng.standard_normal(n)

    @pytest.mark.parametrize("lone_diag", [(), (1.0, 1.0), (3.5, 0.25)],
                             ids=["no-lone-rows", "unit", "scaled"])
    def test_matches_dense_solve(self, rng, lone_diag):
        K_m, S_d, B, delta = self._system(rng, lone_diag)
        K_R, delta_u, y = reduce_unbalanced(K_m, S_d, B, delta)
        K_u = K_m.toarray()[S_d]
        assert np.abs(K_R - K_u @ B).max() <= 1e-13 * np.abs(K_u @ B).max()
        assert np.array_equal(delta_u, delta[S_d])
        exact = np.linalg.solve(K_u @ B, delta[S_d])
        assert np.abs(y - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_row_with_one_entry_off_its_diagonal_is_not_lone(self, rng):
        """A row of K_u holding one entry, in another column than its own
        diagonal, is a general row of K_R; it goes through the LU."""
        K_m, S_d, B, delta = self._system(rng, (2.0,))
        K = K_m.toarray()
        K[S_d[2], :] = 0.0
        K[S_d[2], 3] = 1.5
        K_R, _, y = reduce_unbalanced(sp.csr_matrix(K), S_d, B, delta)
        exact = np.linalg.solve(K[S_d] @ B, delta[S_d])
        assert np.abs(y - exact).max() <= 1e-12 * np.abs(exact).max()

    @pytest.mark.parametrize("stored", [False, True])
    def test_zero_lone_diagonal_raises(self, rng, stored):
        """A lone row whose diagonal is zero, absent or stored, makes K_R
        singular."""
        K_m, S_d, B, delta = self._system(rng, (2.0, 0.0))
        if stored:
            A = K_m.tocoo()
            K_m = sp.csr_matrix((np.append(A.data, 0.0),
                                 (np.append(A.row, S_d[4]),
                                  np.append(A.col, S_d[4]))), shape=A.shape)
        assert K_m[S_d[4]].nnz == stored
        with pytest.raises(NumericalError, match="reduced unbalanced system "
                                                 "is singular"):
            reduce_unbalanced(K_m, S_d, B, delta)


@pytest.fixture(scope="module", params=["plate_with_hole", "notch_fill",
                                        "l_frame_3d"])
def demo_case(request):
    cloud, grid, mat, bc, mod = demos.DEMO_BUILDERS[request.param]()
    return prepare_modified(full_analysis(cloud, grid, mat, bc), mod)


class TestDemoComposition:
    """The public phases, composed as a reader would, give ifu_solve's
    answer bit for bit, and the reference path through the fundamental
    solutions B gives it to roundoff; every guard reads roundoff on the
    demos."""

    def test_phases_reproduce_ifu_solve(self, demo_case):
        c = demo_case
        U, diag = ifu_solve(c.factor, c.star.K, c.K_m, c.F, c.U_star)
        delta = residual(c.K_m, c.F, c.U_star)
        S_d = unbalanced_set(measurement(c.K_m, c.star.K, delta),
                             ifu_default_tol(c))
        assert len(S_d) == diag.n_d > 0
        L_mod, V = constrain_factor(c.factor, S_d)
        red = schur_reduce(L_mod, V, c.K_m, S_d, delta)
        By, fund_rel = fundamental_product(red, red.y)
        assert np.array_equal(c.U_star + By, U)
        assert fund_rel == diag.fund_residual

        R = constraint_rhs(c.K_m, S_d)
        B, rel = fundamental_solutions(L_mod, V, R)
        _, _, y = reduce_unbalanced(c.K_m, S_d, B, delta)
        assert np.linalg.norm(c.U_star + B @ y - U) \
            <= 1e-12 * np.linalg.norm(U)

        L = np.asarray(L_mod)
        dense = L @ (L.T @ B) + V @ (V.T @ B) - R
        assert np.linalg.norm(dense) <= 1e-12 * np.linalg.norm(R)
        assert rel <= 1e-12
        assert diag.fund_residual <= 1e-12
        assert diag.solve_residual <= 1e-9



@pytest.mark.parametrize("edit", ["removal", "material"])
def test_reordered_factor_gives_the_dof_order_answer(edit):
    """On a shuffled-id plate the factor is in reverse Cuthill-McKee order.
    ifu_solve with it equals ifu_solve with the DOF-order factor of the
    same K* to roundoff, with the same unbalanced and coupled DOFs; the
    public phases, composed in DOF order, reproduce it bit for bit, and
    the reference path through B to roundoff."""
    base = full_analysis(*shuffled_plate(nx=40, ny=12))
    assert not np.array_equal(base.factor.perm, np.arange(base.factor.n))
    cloud = base.cloud
    centre = np.linalg.norm(cloud.coords - cloud.coords.mean(axis=0), axis=1)
    mod = (Modification(removed_ids=frozenset(
               int(i) for i in cloud.ids[np.argsort(centre)[:4]]))
           if edit == "removal"
           else Modification(material_change=MaterialModel(250.0, 0.25)))
    c = prepare_modified(base, mod)
    dof_order = CholeskyFactor(ab=banded_cholesky_oracle(c.star.K))
    U, diag = ifu_solve(c.factor, c.star.K, c.K_m, c.F, c.U_star)
    U_ref, ref = ifu_solve(dof_order, c.star.K, c.K_m, c.F, c.U_star)
    assert np.linalg.norm(U - U_ref) <= 1e-12 * np.linalg.norm(U_ref)
    assert (diag.n_d, diag.n_coupled) == (ref.n_d, ref.n_coupled)
    assert diag.n_d > 0
    delta = residual(c.K_m, c.F, c.U_star)
    S_d = unbalanced_set(measurement(c.K_m, c.star.K, delta),
                         ifu_default_tol(c))
    L_mod, V = constrain_factor(c.factor, S_d)
    red = schur_reduce(L_mod, V, c.K_m, S_d, delta)
    assert np.array_equal(c.U_star + fundamental_product(red, red.y)[0], U)
    B, _ = fundamental_solutions(L_mod, V, constraint_rhs(c.K_m, S_d))
    _, _, y = reduce_unbalanced(c.K_m, S_d, B, delta)
    assert np.linalg.norm(c.U_star + B @ y - U) <= 1e-12 * np.linalg.norm(U)
