import re
from pathlib import Path

import numpy as np
import pytest

import mkfree

from mkfree import demos
from mkfree.assembly import StiffnessSystem, apply_bcs, assemble_load, \
    assemble_stiffness
from mkfree.errors import RigidBodyError
from mkfree.model import identity_dof_map
from mkfree.solver import CholeskyFactor, factorize, solve

from oracles import random_spd


def test_factor_solve_matches_numpy(rng):
    K = random_spd(rng, 30)
    F = rng.standard_normal(30)
    import scipy.sparse as sp
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


def test_constrained_model_solves(small_model, cfg):
    cloud, grid, mat, bc = small_model
    raw = assemble_stiffness(cloud, grid, mat, cfg)
    raw = raw.with_load(assemble_load(cloud, bc, raw.dof_map, cfg))
    system = apply_bcs(raw, bc)
    U = solve(factorize(system), system.F)
    res = np.linalg.norm(system.K @ U - system.F)
    assert res <= 1e-10 * np.linalg.norm(system.F)
    # tip sags downward under the downward load
    dm = system.dof_map
    tip = cloud.ids[np.argmax(cloud.coords[:, 0])]
    assert U[dm.dof(int(tip), 1)] < 0.0


def test_rhs_length_mismatch():
    factor = CholeskyFactor(L0=np.eye(4))
    with pytest.raises(ValueError):
        solve(factor, np.zeros(5))


def test_only_the_solver_reads_the_band():
    """The band layout of CholeskyFactor is the solver's alone: no other
    module of the package reads ``.ab``."""
    src = Path(mkfree.__file__).parent
    readers = [p.name for p in sorted(src.glob("*.py"))
               if p.name != "solver.py"
               and re.search(r"\.ab\b", p.read_text())]
    assert readers == []
