import numpy as np
import pytest
import scipy.sparse as sp

from mkfree.ca import build_basis, ca_solve, combine, reduce_and_solve
from mkfree.errors import NumericalError, ValidationError
from mkfree.solver import CholeskyFactor

from oracles import ca_basis_oracle, random_spd


def _factor(K):
    return CholeskyFactor(L0=np.linalg.cholesky(K))


def _random_system(rng, n, delta_scale=0.1):
    K_star = random_spd(rng, n)
    E = rng.standard_normal((n, n))
    dK = delta_scale * (E + E.T)
    # keep the modified matrix SPD
    w = np.linalg.eigvalsh(K_star + dK)
    if w.min() <= 0:
        dK += (abs(w.min()) + 1.0) * np.eye(n)
    F = rng.standard_normal(n)
    return K_star, sp.csr_matrix(dK), F


class TestBuildBasis:
    def test_matches_dense_oracle(self, rng):
        # same Krylov space: the span holds every recurrence column
        K_star, dK, F = _random_system(rng, 10)
        U_B = build_basis(_factor(K_star), dK, F, 4)
        expect = ca_basis_oracle(K_star, dK.toarray(), F, 4)
        assert U_B.shape == (10, 4)
        outside = expect - U_B @ (U_B.T @ expect)
        assert np.abs(outside).max() <= 1e-12 * np.abs(expect).max()

    def test_first_column_is_initial_solution(self, rng):
        K_star, dK, F = _random_system(rng, 8)
        U_B = build_basis(_factor(K_star), dK, F, 3)
        U1 = np.linalg.solve(K_star, F)
        assert np.allclose(U_B[:, 0], U1 / np.linalg.norm(U1))

    def test_columns_orthonormal(self, rng):
        K_star, dK, F = _random_system(rng, 30, delta_scale=0.3)
        U_B = build_basis(_factor(K_star), dK, F, 20)
        assert U_B.shape == (30, 20)
        assert np.abs(U_B.T @ U_B - np.eye(20)).max() <= 1e-12

    def test_leading_columns_do_not_depend_on_s(self, rng):
        K_star, dK, F = _random_system(rng, 30)
        factor = _factor(K_star)
        for s in (1, 5, 12):
            U_B = build_basis(factor, dK, F, s)
            longer = build_basis(factor, dK, F, s + 3)
            assert np.array_equal(U_B, longer[:, :s])

    def test_stops_when_the_space_is_exhausted(self, rng):
        K_star, _, F = _random_system(rng, 12)
        factor = _factor(K_star)
        assert build_basis(factor, sp.csr_matrix((12, 12)), F, 6).shape \
            == (12, 1)
        v = rng.standard_normal(12)
        rank_one = sp.csr_matrix(0.5 * np.outer(v, v))
        assert build_basis(factor, rank_one, F, 6).shape[1] <= 2

    def test_mask_zeroes_inactive_rows(self, rng):
        K_star, dK, F = _random_system(rng, 8)
        mask = np.ones(8, bool)
        mask[[2, 5]] = False
        U_B = build_basis(_factor(K_star), dK, F, 4, mask=mask)
        assert np.all(U_B[[2, 5], :] == 0.0)

    def test_invalid_s(self, rng):
        K_star, dK, F = _random_system(rng, 5)
        with pytest.raises(ValidationError):
            build_basis(_factor(K_star), dK, F, 0)
        with pytest.raises(ValidationError):
            build_basis(_factor(K_star), dK, F, 6)


class TestReduceAndSolve:
    def test_galerkin_residual_orthogonality(self, rng):
        K_star, dK, F = _random_system(rng, 20)
        K_m = sp.csr_matrix(K_star + dK.toarray())
        U_B = build_basis(_factor(K_star), dK, F, 5)
        U = combine(U_B, reduce_and_solve(U_B, K_m, F))
        # residual orthogonal to the basis subspace
        r = F - K_m @ U
        assert np.abs(U_B.T @ r).max() <= 1e-8 * np.linalg.norm(F)

    def test_zero_load(self, rng):
        K_star, dK, _ = _random_system(rng, 6)
        U_B = build_basis(_factor(K_star), dK, np.zeros(6), 3)
        assert U_B.shape == (6, 0)
        y = reduce_and_solve(U_B, sp.csr_matrix(K_star), np.zeros(6))
        assert np.all(combine(U_B, y) == 0.0)

    def test_indefinite_reduced_system_raises(self, rng):
        K_star, dK, F = _random_system(rng, 8)
        U_B = build_basis(_factor(K_star), dK, F, 3)
        with pytest.raises(NumericalError):
            reduce_and_solve(U_B, sp.csr_matrix(-K_star), F)


class TestCaSolve:
    def test_full_basis_exact_small_systems(self, rng):
        for n in (4, 8, 12):
            K_star, dK, F = _random_system(rng, n, delta_scale=0.3)
            K_m = sp.csr_matrix(K_star + dK.toarray())
            exact = np.linalg.solve(K_m.toarray(), F)
            U, _, _ = ca_solve(_factor(K_star), dK, K_m, F, s=n)
            scale = np.linalg.norm(exact)
            assert np.linalg.norm(U - exact) <= 1e-8 * scale

    def test_zero_delta_reproduces_initial(self, rng):
        K_star, _, F = _random_system(rng, 10)
        U_star = np.linalg.solve(K_star, F)
        zero = sp.csr_matrix((10, 10))
        for s in (1, 3, 7):
            U, _, _ = ca_solve(_factor(K_star), zero, sp.csr_matrix(K_star),
                               F, s=s)
            assert np.linalg.norm(U - U_star) \
                <= 1e-10 * np.linalg.norm(U_star)

    def test_error_decreases_with_basis_size(self, rng):
        K_star, dK, F = _random_system(rng, 40, delta_scale=0.25)
        K_m = sp.csr_matrix(K_star + dK.toarray())
        exact = np.linalg.solve(K_m.toarray(), F)
        errs = []
        for s in (1, 3, 8):
            U, _, _ = ca_solve(_factor(K_star), dK, K_m, F, s=s)
            errs.append(np.linalg.norm(U - exact) / np.linalg.norm(exact))
        assert errs[2] < errs[0]
        assert errs[2] < 1e-2
