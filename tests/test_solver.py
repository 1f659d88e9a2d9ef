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
from mkfree.model import identity_dof_map
from mkfree.solver import CholeskyFactor, factorize, solve

from oracles import random_spd


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


def _reindexed(L, src):
    """Dense oracle of CholeskyFactor.reindex: L[src, src], with the
    identity's row and column where src < 0."""
    out = np.eye(len(src))
    t = np.flatnonzero(src >= 0)
    out[np.ix_(t, t)] = L[np.ix_(src[t], src[t])]
    return out


def _increasing_map(rng, n, kind):
    """An increasing map onto a subset of range(n) ("drop"), onto all of it
    with unit DOFs inserted ("insert"), or both."""
    keep = (np.sort(rng.choice(n, int(rng.integers(0, n + 1)), replace=False))
            if kind != "insert" else np.arange(n))
    N = len(keep) + (int(rng.integers(1, 6)) if kind != "drop" else 0)
    src = np.full(N, -1)
    src[np.sort(rng.choice(N, len(keep), replace=False))] = keep
    return src


@pytest.mark.parametrize("kind", ["drop", "insert", "both"])
def test_reindex_matches_dense_oracle(kind):
    """reindex equals L[src, src] with unit DOFs, bit for bit, on a band
    as wide as its nonzeros and no wider than w plus the unit DOFs; the
    maps include empty results (N = 0) and diagonal factors (w = 1)."""
    rng = np.random.default_rng(["drop", "insert", "both"].index(kind))
    cases = [(0, 0), (1, 0), (6, 0), (12, 0)] + [
        (n, int(rng.integers(0, n))) for n in rng.integers(1, 40, 100)]
    for k, (n, b) in enumerate(cases):
        L, factor = _banded_factor(rng, n, b, ("C", "F", "strided")[k % 3])
        maps = [_increasing_map(rng, n, kind) for _ in range(3)]
        if kind == "drop":
            maps.append(np.zeros(0, dtype=int))
        for src in maps:
            R = factor.reindex(src)
            assert np.array_equal(np.asarray(R), _reindexed(L, src))
            widest = np.flatnonzero(R.ab.any(axis=1)).max(initial=0)
            assert R.ab.shape[0] == widest + 1
            assert R.ab.shape[0] <= factor.ab.shape[0] + np.sum(src < 0)


@pytest.mark.parametrize("src", [[1, 0, 2], [0, 2, 2], [-1, 3, -1, 1],
                                 [0, 4]],
                         ids=["decreasing", "repeated", "decreasing-past-unit",
                              "out-of-range"])
def test_reindex_rejects_a_map_that_is_not_increasing(src):
    factor = CholeskyFactor(L0=np.linalg.cholesky(random_spd(
        np.random.default_rng(0), 4)))
    with pytest.raises(ValueError, match="increasing"):
        factor.reindex(np.array(src))
