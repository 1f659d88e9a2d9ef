"""Shared fixtures and cloud generators.

Random clouds are jittered regular grids: unit-scale spacing with bounded
jitter keeps the correlation matrices well conditioned and guarantees a
minimum node separation, which the interpolation tolerances assume.
"""

import numpy as np
import pytest

from mkfree.config import MeshlessConfig
from mkfree.model import (BackgroundGrid, BoundaryConditions, MaterialModel,
                          NodeCloud)


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


def ifu_default_tol(case):
    """ifu_solve's default unbalanced-set tolerance for a prepared case."""
    k_scale = float(abs(case.K_m).max())
    u_scale = float(np.abs(case.U_star).max())
    return 1e-9 * (k_scale * max(1.0, u_scale) + float(np.abs(case.F).max()))


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
