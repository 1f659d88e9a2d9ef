import numpy as np
import pytest
import scipy.sparse as sp

from mkfree.ca import build_basis, ca_solve, combine, reduce_and_solve
from mkfree.errors import ValidationError
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
        K_star, dK, F = _random_system(rng, 10)
        U_B = build_basis(_factor(K_star), dK, F, 4)
        expect = ca_basis_oracle(K_star, dK.toarray(), F, 4)
        assert np.allclose(U_B, expect, rtol=1e-10, atol=1e-12)

    def test_first_column_is_initial_solution(self, rng):
        K_star, dK, F = _random_system(rng, 8)
        U_B = build_basis(_factor(K_star), dK, F, 3)
        assert np.allclose(U_B[:, 0], np.linalg.solve(K_star, F))

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
        red = reduce_and_solve(U_B, K_m, F)
        U = combine(U_B, red.y)
        # residual orthogonal to the basis subspace
        r = F - K_m @ U
        assert np.abs(U_B.T @ r).max() <= 1e-8 * np.linalg.norm(F)

    def test_zero_load(self, rng):
        K_star, dK, _ = _random_system(rng, 6)
        U_B = build_basis(_factor(K_star), dK, np.zeros(6), 3)
        red = reduce_and_solve(U_B, sp.csr_matrix(K_star), np.zeros(6))
        assert np.all(combine(U_B, red.y) == 0.0)

    def test_collinear_columns_truncated(self, rng):
        K_star, _, F = _random_system(rng, 8)
        U1 = np.linalg.solve(K_star, F)
        U_B = np.column_stack([U1, 2 * U1, U1 + 1e-16 * np.ones(8)])
        red = reduce_and_solve(U_B, sp.csr_matrix(K_star), F)
        assert red.rank == 1
        assert np.allclose(combine(U_B, red.y), U1, rtol=1e-8)


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
