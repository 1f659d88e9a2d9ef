"""Shared fixtures and cloud generators.

Random clouds are jittered regular grids: unit-scale spacing with bounded
jitter keeps the correlation matrices well conditioned and guarantees a
minimum node separation, which the interpolation tolerances assume.
"""

import numpy as np
import pytest

from mkfree import demos, ifu
from mkfree.config import MeshlessConfig
from mkfree.model import (BackgroundGrid, BoundaryConditions, MaterialModel,
                          Modification, NodeCloud)


def jittered_cloud(rng, nx, ny, nz=None, pitch=1.0, jitter=0.25):
    """Regular grid with per-node jitter of at most ``jitter * pitch``."""
    dims = [nx, ny] + ([nz] if nz is not None else [])
    axes = [pitch * np.arange(n) for n in dims]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.column_stack([m.ravel() for m in mesh]).astype(float)
    coords += rng.uniform(-jitter * pitch, jitter * pitch, coords.shape)
    ids = np.arange(len(coords))
    return NodeCloud(ids=ids, coords=coords, dim=len(dims))


def grid_for(cloud, pitch=1.0, pad=0.0, refine=1):
    """Background grid of ``pitch/refine`` cells covering the cloud bounds."""
    lo = cloud.coords.min(axis=0) - pad
    hi = cloud.coords.max(axis=0) + pad
    cell = pitch / refine
    counts = tuple(int(np.ceil((h - l) / cell)) for l, h in zip(lo, hi))
    return BackgroundGrid(origin=lo, cell_size=np.full(cloud.dim, cell),
                          counts=counts)


def cantilever_bc(cloud, load=1.0, band=0.5):
    """Clamp the min-x node column, load the max-x column downward; the
    band absorbs jitter so a whole column is picked on jittered grids."""
    x = cloud.coords[:, 0]
    left = cloud.ids[x <= x.min() + band]
    right = cloud.ids[x >= x.max() - band]
    return BoundaryConditions(
        fixed_dofs=tuple((int(i), a) for i in left for a in range(cloud.dim)),
        point_loads=tuple((int(i), 1, -load / len(right)) for i in right),
    )


def shuffled_plate(seed=3, nx=24, ny=12, stride=1):
    """A jittered nx x ny cantilever plate whose ids are a random
    permutation of range(nx ny), times ``stride``: its DOF order follows no
    geometry, so its band in DOF order is about n wide."""
    rng = np.random.default_rng(seed)
    lattice = jittered_cloud(rng, nx, ny, jitter=0.2)
    cloud = NodeCloud(ids=stride * rng.permutation(lattice.n_nodes),
                      coords=lattice.coords, dim=2)
    return (cloud, grid_for(cloud, pad=0.3), MaterialModel(100.0, 0.3),
            cantilever_bc(cloud))


def loaded_edge_cut():
    """The 20 x 12 tension plate and the removal of its 18 nodes at
    x >= 17, |y - 5.5| < 2.6, which cuts into the loaded edge x = 19: five
    of its eleven traction segments, [19, 3] -> [19, 4] up to
    [19, 7] -> [19, 8], lose the material under them.  Returns
    (cloud, grid, mat, bc, mod)."""
    cloud, grid, mat, bc = demos._tension_plate(20, 12, 1.0)
    x, y = cloud.coords.T
    cut = cloud.ids[(x >= 17) & (np.abs(y - 5.5) < 2.6)]
    return cloud, grid, mat, bc, Modification(removed_ids=frozenset(cut))


def ifu_default_tol(case):
    """ifu_solve's default unbalanced-set tolerance for a prepared case."""
    return ifu.default_tol(case.K_m, case.F)


def pytest_runtest_logreport(report):
    """One PASS/FAIL line per acceptance criterion, independent of capture."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {status}", flush=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def cfg():
    return MeshlessConfig()


@pytest.fixture
def small_model(rng):
    """A solvable ~60-node 2D model (cloud, grid, material, bc)."""
    cloud = jittered_cloud(rng, 10, 6, jitter=0.2)
    grid = grid_for(cloud, pad=0.3)
    mat = MaterialModel(young_modulus=100.0, poisson_ratio=0.3)
    bc = cantilever_bc(cloud)
    return cloud, grid, mat, bc
