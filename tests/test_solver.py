import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import mkfree

from mkfree import demos
from mkfree.assembly import StiffnessSystem, apply_bcs, assemble_load, \
    assemble_stiffness
from mkfree.errors import RigidBodyError, ValidationError
from mkfree.model import DofMap, MaterialModel, identity_dof_map
from mkfree.pipeline import full_analysis
from mkfree.solver import CholeskyFactor, factorize, solve

from conftest import cantilever_bc, grid_for, jittered_cloud, shuffled_plate
from oracles import banded_cholesky_oracle, random_spd


def test_factor_solve_matches_numpy(rng):
    K = random_spd(rng, 30)
    F = rng.standard_normal(30)
    from mkfree.model import DofMap
    dm = DofMap(node_ids=np.arange(15), dim=2)
    system = StiffnessSystem(K=sp.csr_matrix(K), F=F, dof_map=dm)
    factor = factorize(system)
    U = solve(factor, F)
    assert np.allclose(U, np.linalg.solve(K, F), rtol=1e-12, atol=1e-12)
    L = np.asarray(factor)
    assert np.allclose(L @ L.T, K, atol=1e-10)
    # the factor is lower triangular in natural DOF order
    assert np.allclose(np.triu(L, 1), 0.0)


def test_apply_inverse_matches_solve(rng):
    K = random_spd(rng, 12)
    factor = CholeskyFactor(L0=np.linalg.cholesky(K))
    rhs = rng.standard_normal((12, 3))
    assert np.allclose(factor.apply_inverse(rhs), np.linalg.solve(K, rhs))


def test_unconstrained_model_raises_rigid_body(small_model, cfg):
    cloud, grid, mat, bc = small_model
    raw = assemble_stiffness(cloud, grid, mat, cfg)
    with pytest.raises(RigidBodyError) as err:
        factorize(raw)   # no BCs applied: translations are in the null space
    null = err.value.null_vector
    assert null is not None
    K = raw.K.toarray()
    assert np.linalg.norm(K @ null) <= 1e-6 * np.abs(K).max()


def test_rigid_body_null_vector_above_2000_dofs(cfg):
    """The near-null vector comes from a sparse eigensolver, so it is
    reported at every size."""
    cloud, grid, mat, _, _ = demos.plate_with_hole()
    raw = assemble_stiffness(cloud, grid, mat, cfg)
    assert raw.n_dofs > 2000
    with pytest.raises(RigidBodyError) as err:
        factorize(raw)
    null = err.value.null_vector
    assert null is not None
    assert np.linalg.norm(raw.K @ null) \
        <= 1e-8 * abs(raw.K).max() * np.linalg.norm(null)


def test_rigid_body_detected_by_pivot_not_by_failure(small_model, cfg):
    """An unconstrained stiffness shifted by 1e-13 max|K| I factors, but
    its smallest pivot still marks the rigid-body modes."""
    cloud, grid, mat, bc = small_model
    raw = assemble_stiffness(cloud, grid, mat, cfg)
    K = raw.K + 1e-13 * abs(raw.K).max() * sp.identity(raw.n_dofs)
    with pytest.raises(RigidBodyError) as err:
        factorize(StiffnessSystem(K=K.tocsr(), F=raw.F, dof_map=raw.dof_map))
    null = err.value.null_vector
    assert null is not None
    assert np.linalg.norm(raw.K @ null) \
        <= 1e-8 * abs(raw.K).max() * np.linalg.norm(null)


def test_constrained_model_solves(small_model, cfg):
    cloud, grid, mat, bc = small_model
    raw = assemble_stiffness(cloud, grid, mat, cfg)
    raw = raw.with_load(assemble_load(cloud, bc, raw.dof_map, cfg))
    system = apply_bcs(raw, bc, cloud)
    U = solve(factorize(system), system.F)
    res = np.linalg.norm(system.K @ U - system.F)
    assert res <= 1e-10 * np.linalg.norm(system.F)
    # tip sags downward under the downward load
    dm = system.dof_map
    tip = cloud.ids[np.argmax(cloud.coords[:, 0])]
    assert U[dm.dof(int(tip), 1)] < 0.0


def test_rhs_length_mismatch():
    factor = CholeskyFactor(L0=np.eye(4))
    with pytest.raises(ValidationError, match="rhs length 5 != system "
                       "size 4"):
        solve(factor, np.zeros(5))


def test_only_the_solver_reads_the_band():
    """The band layout of CholeskyFactor is the solver's alone: no other
    module of the package reads ``.ab``."""
    src = Path(mkfree.__file__).parent
    readers = [p.name for p in sorted(src.glob("*.py"))
               if p.name != "solver.py"
               and re.search(r"\.ab\b", p.read_text())]
    assert readers == []


def _banded_factor(rng, n, b, layout):
    """A random lower-triangular factor of half-bandwidth at most b, with
    scattered zeros in its band, stored C-ordered (a copied band),
    Fortran-ordered (factorize leaves LAPACK's order) or as a strided view."""
    i, j = np.indices((n, n))
    L = np.where((i >= j) & (i - j <= b) & (rng.random((n, n)) < 0.8),
                 rng.standard_normal((n, n)), 0.0)
    L[np.arange(n), np.arange(n)] = 1.0 + rng.random(n)
    ab = CholeskyFactor(L0=L).ab
    if layout == "F":
        ab = np.asfortranarray(ab)
    elif layout == "strided":
        ab = np.repeat(ab, 2, axis=1)[:, ::2]
    return L, CholeskyFactor(ab=ab)


def _increasing_map(rng, n, kind):
    """An increasing map onto a random subset of range(n) ("drop"), or onto
    all of it ("all")."""
    if kind == "all":
        return np.arange(n)
    return np.sort(rng.choice(n, int(rng.integers(0, n + 1)), replace=False))


@pytest.mark.parametrize("kind", ["drop", "all"])
def test_reindex_matches_dense_oracle(kind):
    """reindex equals L[src, src], bit for bit, on a band as wide as its
    nonzeros and no wider than L's; the maps include empty results
    (N = 0) and diagonal factors (w = 1)."""
    rng = np.random.default_rng(["drop", "all"].index(kind))
    cases = [(0, 0), (1, 0), (6, 0), (12, 0)] + [
        (n, int(rng.integers(0, n))) for n in rng.integers(1, 40, 100)]
    for k, (n, b) in enumerate(cases):
        L, factor = _banded_factor(rng, n, b, ("C", "F", "strided")[k % 3])
        maps = [_increasing_map(rng, n, kind) for _ in range(3)]
        if kind == "drop":
            maps.append(np.zeros(0, dtype=int))
        for src in maps:
            R = factor.reindex(src)
            assert np.array_equal(np.asarray(R), L[np.ix_(src, src)])
            widest = np.flatnonzero(R.ab.any(axis=1)).max(initial=0)
            assert R.ab.shape[0] == widest + 1
            assert R.ab.shape[0] <= factor.ab.shape[0]


@pytest.mark.parametrize("src", [[1, 0, 2], [0, 2, 2], [-1, 1, 2], [0, 4]],
                         ids=["decreasing", "repeated", "negative",
                              "out-of-range"])
def test_reindex_rejects_a_map_that_is_not_increasing(src):
    factor = CholeskyFactor(L0=np.linalg.cholesky(random_spd(
        np.random.default_rng(0), 4)))
    with pytest.raises(ValueError, match="increasing"):
        factor.reindex(np.array(src))


def _ordered(rng, n, b):
    """A random banded factor in a random order: the band of L and the
    order perm, with P^T L P its dense view by DOF."""
    L, factor = _banded_factor(rng, n, b, "C")
    perm = rng.permutation(n)
    dense = np.empty_like(L)
    dense[np.ix_(perm, perm)] = L
    return L, CholeskyFactor(ab=factor.ab, perm=perm), dense


def test_factorize_orders_a_shuffled_cloud_by_rcm():
    """A cloud whose ids follow no geometry factors in reverse
    Cuthill-McKee order, on a band at most a quarter of n wide (about n in
    DOF order): L L^T = K[perm][:, perm] with L lower triangular, the
    dense view by DOF is P^T L P, and the solve matches the DOF-order
    banded solve."""
    base = full_analysis(*shuffled_plate(nx=40, ny=12))
    factor, K = base.factor, base.system.K
    n = factor.n
    ref = CholeskyFactor(ab=banded_cholesky_oracle(K))
    assert ref.ab.shape[0] >= 0.9 * n
    assert not np.array_equal(factor.perm, np.arange(factor.n))
    assert factor.ab.shape[0] - 1 <= n // 4
    p = factor.perm
    L = np.asarray(factor)[np.ix_(p, p)]
    Kp = K.toarray()[np.ix_(p, p)]
    assert np.array_equal(L, np.tril(L))
    assert np.abs(L @ L.T - Kp).max() <= 1e-13 * np.abs(Kp).max()
    F = np.random.default_rng(0).standard_normal((n, 3))
    for rhs in (base.system.F, F):
        U, U_ref = solve(factor, rhs), solve(ref, rhs)
        assert np.linalg.norm(U - U_ref) <= 1e-12 * np.linalg.norm(U_ref)


def test_lattice_plate_keeps_dof_order_and_its_band():
    """On the 48 x 30 plate, numbered along its geometry, RCM is wider (477
    against 305), so the factor stays in DOF order, its band bit for bit
    the Cholesky factor of K's lower band in DOF order."""
    cloud = jittered_cloud(np.random.default_rng(5), 48, 30, jitter=0.0)
    base = full_analysis(cloud, grid_for(cloud), MaterialModel(100.0, 0.3),
                         cantilever_bc(cloud))
    assert np.array_equal(base.factor.perm, np.arange(base.factor.n))
    assert np.array_equal(base.factor.ab,
                          banded_cholesky_oracle(base.system.K))


def test_rcm_does_not_win_by_setting_decoupled_rows_aside(rng):
    """A dense coupled block with unit rows between its DOFs: RCM narrows
    the band only by moving the unit rows out, which does not count, so
    the factor keeps DOF order and equals the dense Cholesky factor."""
    n = 16
    unit = np.array([1, 4, 5, 9, 12])
    K = random_spd(rng, n)
    K[unit, :] = K[:, unit] = 0.0
    K[unit, unit] = 1.0
    factor = factorize(StiffnessSystem(
        K=sp.csr_matrix(K), F=np.zeros(n),
        dof_map=DofMap(node_ids=np.arange(n // 2), dim=2)))
    assert np.array_equal(factor.perm, np.arange(factor.n))
    assert np.abs(np.asarray(factor) - np.linalg.cholesky(K)).max() \
        <= 1e-12 * np.abs(K).max()


@pytest.mark.parametrize("perm", [[0, 1, 1, 3], [0, 1, 2], [0, 1, 2, 4],
                                  [0.0, 1.0, 2.0, 3.0], [[0, 1], [2, 3]],
                                  [True, False, True, True]],
                         ids=["repeated", "short", "out-of-range", "float",
                              "2d", "bool"])
def test_perm_must_be_a_permutation_of_the_dofs(perm):
    with pytest.raises(ValueError, match="permutation"):
        CholeskyFactor(L0=np.eye(4), perm=np.array(perm))


def test_factor_methods_speak_in_dofs_in_any_order(rng):
    """With a random order, columns, constrained, unit_rows and reindex
    agree with the dense view by DOF, and apply_inverse with K^-1; the
    panel kernels act on L in the factor's order."""
    n, b = 40, 6
    L, factor, A = _ordered(rng, n, b)
    cols = rng.choice(n, 7, replace=False)
    assert np.array_equal(factor.columns(cols), A[:, cols])
    S_d = np.sort(rng.choice(n, 5, replace=False))
    ref = A.copy()
    ref[S_d, :] = ref[:, S_d] = 0.0
    ref[S_d, S_d] = 1.0
    constrained = factor.constrained(S_d)
    assert np.array_equal(np.asarray(constrained), ref)
    lone = (np.diag(ref) == 1.0) & (np.count_nonzero(ref, axis=0) == 1) \
        & (np.count_nonzero(ref, axis=1) == 1)
    assert np.array_equal(constrained.unit_rows(), lone)
    src = factor.in_order(rng.random(n) < 0.6)
    assert np.array_equal(np.asarray(factor.reindex(src)),
                          A[np.ix_(src, src)])
    with pytest.raises(ValueError, match="increasing"):
        factor.reindex(src[::-1])
    K = A @ A.T
    rhs = rng.standard_normal((n, 2))
    assert np.allclose(factor.apply_inverse(rhs), np.linalg.solve(K, rhs),
                       rtol=1e-10, atol=1e-12)
    X = rng.standard_normal((n, 3))
    assert np.allclose(factor.panel_multiply(X.copy()), L @ X, atol=1e-12)
    again = CholeskyFactor(L0=A, perm=factor.perm)
    assert np.array_equal(again.ab, factor.ab)


@pytest.mark.parametrize("ordered", [False, True])
def test_embed_scatters_the_factor_with_unit_dofs(rng, ordered):
    """embed gives the factor of K scattered onto N DOFs with a unit
    diagonal on the others: its dense view by DOF is the scatter of the
    initial one, bit for bit, and L stays lower triangular in its order.
    That order is the initial DOFs in the initial order, then the unit
    DOFs in ascending order, on the initial band, copied column-major and
    padded with unit columns."""
    n, N = 30, 37
    L, factor = _banded_factor(rng, n, 5, "C")
    A = L
    if ordered:
        _, factor, A = _ordered(rng, n, 5)
    dofs = np.sort(rng.choice(N, n, replace=False))
    lifted = factor.embed(dofs, N)
    ref = np.eye(N)
    ref[np.ix_(dofs, dofs)] = A
    assert np.array_equal(np.asarray(lifted), ref)
    p = lifted.perm
    L_N = ref[np.ix_(p, p)]
    assert np.array_equal(L_N, np.tril(L_N))
    assert np.array_equal(p, np.concatenate(
        [dofs[factor.perm], np.setdiff1d(np.arange(N), dofs)]))
    assert lifted.ab.flags.f_contiguous
    assert np.array_equal(lifted.ab[:, :n], factor.ab)
    pad = np.zeros((lifted.ab.shape[0], N - n))
    pad[0] = 1.0
    assert np.array_equal(lifted.ab[:, n:], pad)
