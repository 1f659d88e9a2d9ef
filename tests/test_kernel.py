"""Contract of the batched Gauss-point kernel: a point's results do not
depend on the batch it is evaluated in, the error semantics of the
one-point path (one support growth, the conditioning guards, the failing
Gauss point named in the message) hold inside a batch, the guards
reject every near-singular support, and the inverse Cholesky factors are
the exact inverses, one LAPACK call per support."""

import re
from dataclasses import replace

import numpy as np
import pytest

from mkfree import interp
from mkfree.assembly import active_supports, assemble_stiffness
from mkfree.config import MeshlessConfig
from mkfree.errors import ConditioningError, SupportDeficiencyError
from mkfree.interp import (build_system, evaluate_at, evaluate_batch,
                           find_supports, select_support, shape_functions,
                           spacing)
from mkfree.model import BackgroundGrid, MaterialModel, NodeCloud

from conftest import grid_for, jittered_cloud


def kernel_results(points, cloud, cfg):
    """{point index: (values, grads)} for the points of a batch that
    integrate (those with a non-empty support)."""
    sup, _ = active_supports(points, cloud, cfg)
    out = {}
    for idx, _, values, grads in evaluate_batch(points, cloud, sup, cfg):
        for j, i in enumerate(idx):
            out[int(i)] = [values[j], grads[j]]
    return out


def _model(rng, dim):
    if dim == 2:
        cloud = jittered_cloud(rng, 7, 6, jitter=0.2)
    else:
        cloud = jittered_cloud(rng, 4, 4, nz=4, jitter=0.15)
    return cloud, grid_for(cloud, pad=0.2)


@pytest.mark.parametrize("dim", [2, 3])
def test_point_results_independent_of_batch(rng, cfg, dim, monkeypatch):
    cloud, grid = _model(rng, dim)
    points = grid.gauss[0]
    full = kernel_results(points, cloud, cfg)
    sizes = {i: len(v[0]) for i, v in full.items()}
    targets = [min(full), max(full), max(sizes, key=sizes.get),
               min(sizes, key=sizes.get)]
    for t in targets:
        alone = kernel_results(points[[t]], cloud, cfg)[0]
        group = [i for i in full if sizes[i] == sizes[t]]
        in_group = kernel_results(points[group], cloud, cfg)[group.index(t)]
        sf = evaluate_at(points[t], cloud, cfg)
        for got in (alone, in_group, [sf.values, sf.grads]):
            for a, b in zip(got, full[t]):
                assert np.array_equal(a, b)
    # groups split into chunks of a few points give the same results
    monkeypatch.setattr(interp, "_CHUNK_DOUBLES", 3 * 40 ** 2)
    chunked = kernel_results(points, cloud, cfg)
    assert chunked.keys() == full.keys()
    for i, got in chunked.items():
        for a, b in zip(got, full[i]):
            assert np.array_equal(a, b)


def _located(message):
    """(point, cell) named by an assembly error message."""
    m = re.search(r"at Gauss point \[([^\]]*)\] in cell \(([^)]*)\)",
                  message)
    assert m, message
    point = np.array([float(v) for v in m.group(1).split(",")])
    cell = tuple(int(v) for v in m.group(2).split(","))
    return point, cell


def test_collinear_support_names_the_gauss_point(cfg):
    cloud = NodeCloud(ids=np.arange(6),
                      coords=np.column_stack([np.arange(6.0), np.zeros(6)]),
                      dim=2)
    grid = BackgroundGrid(origin=[0.0, -0.5], cell_size=[1.0, 1.0],
                          counts=(5, 1))
    with pytest.raises(ConditioningError) as err:
        assemble_stiffness(cloud, grid, MaterialModel(10.0, 0.3), cfg)
    assert "rank deficient" in str(err.value)
    assert err.value.cond_estimate > 1e12
    point, cell = _located(str(err.value))
    lo = grid.origin + np.asarray(cell) * grid.cell_size
    hi = lo + grid.cell_size
    assert np.all(point > lo) and np.all(point < hi)


def test_support_grows_once_then_raises(rng):
    cloud = jittered_cloud(rng, 5, 5, jitter=0.0)
    points = np.array([[2.5, 2.5], [2.0, 2.0]])
    _, d_c, _ = spacing(points, cloud)
    cfg = MeshlessConfig(alpha=0.75)
    sup = find_supports(points, cloud, d_c, cfg)
    # the first ball holds 4 nodes; the second holds 1 and grows once
    assert sup.sizes.tolist() == [4, 5]

    cfg = MeshlessConfig(alpha=0.3)
    with pytest.raises(SupportDeficiencyError) as err:
        find_supports(points, cloud, d_c, cfg)
    assert (err.value.found, err.value.needed) == (0, 3)
    assert np.array_equal(err.value.point, points[0])

    grid = grid_for(cloud)
    with pytest.raises(SupportDeficiencyError) as err:
        assemble_stiffness(cloud, grid, MaterialModel(10.0, 0.3), cfg)
    point, cell = _located(str(err.value))
    lo = grid.origin + np.asarray(cell) * grid.cell_size
    hi = lo + grid.cell_size
    assert np.all(point > lo) and np.all(point < hi)


def _middle_point(rng, cfg):
    """Model, Gauss points, their supports, and the index of the middle
    one of the points that integrate (``sup.sizes > 0``)."""
    cloud, grid = _model(rng, 2)
    points = grid.gauss[0]
    sup, _ = active_supports(points, cloud, cfg)
    active = np.flatnonzero(sup.sizes > 0)
    return cloud, grid, points, sup, active[len(active) // 2]


def test_cholesky_failure_names_the_gauss_point(rng, cfg, monkeypatch):
    cloud, grid, points, sup, j = _middle_point(rng, cfg)
    X = cloud.coords[sup.rows[sup.ptr[j]:sup.ptr[j + 1]]]
    R_target = np.exp(-cfg.theta * ((X[:, None] - X[None]) ** 2).sum(-1))

    real = interp.cholesky
    failed = []

    def failing(a):
        stack = a.reshape(-1, *a.shape[-2:])
        if a.shape[-1] == len(X) and any(np.array_equal(R, R_target)
                                         for R in stack):
            failed.append(len(stack))
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(a)

    monkeypatch.setattr(interp, "cholesky", failing)
    with pytest.raises(ConditioningError) as err:
        assemble_stiffness(cloud, grid, MaterialModel(10.0, 0.3), cfg)
    assert "not positive definite" in str(err.value)
    point, _ = _located(str(err.value))
    assert np.array_equal(point, points[j])
    # the stacked call of the chunk failed, then the point's own call
    assert len(failed) == 2 and failed[0] > 1 and failed[1] == 1


def test_duplicate_support_node_names_the_gauss_point(rng, cfg):
    """A support holding one node twice (an exact duplicate) is rejected,
    and the error names the point it belongs to."""
    cloud, _, points, sup, j = _middle_point(rng, cfg)
    rows = sup.rows.copy()
    rows[sup.ptr[j + 1] - 1] = rows[sup.ptr[j]]
    sup = interp.Supports(ptr=sup.ptr, rows=rows)
    where = lambda g: f" (at point {g})"
    with pytest.raises(ConditioningError) as err:
        for _ in evaluate_batch(points, cloud, sup, cfg, where):
            pass
    assert str(err.value).endswith(f" (at point {j})")


def _rejected(sel, x, cfg):
    """Whether the kernel rejects the support ``sel`` evaluated at x."""
    try:
        shape_functions(sel, build_system(sel, cfg.theta, cfg), x)
    except ConditioningError:
        return True
    return False


def test_near_singular_supports_rejected(cfg):
    """Guard sweep: a support plus a copy of one of its nodes at a shrinking
    distance, and a support scaled by a shrinking h at theta = 1.  The
    transfer-matrix residual gate, the guard before trace(R^-1), rejected
    distances <= 3e-4 and scales <= 0.25 here; every one of those must
    still be rejected, and well-spaced supports must still pass."""
    cloud = jittered_cloud(np.random.default_rng(7), 5, 5, jitter=0.2)
    x = np.array([2.3, 1.8])
    sel = select_support(x, cloud, cfg)
    distances = [3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5, 1e-6, 1e-8, 0.0]
    rejected = []
    for dist in distances:
        copy = cloud.coords[12] + dist * np.array([0.6, 0.8])
        near = replace(sel, node_ids=np.append(sel.node_ids, 99),
                       node_coords=np.vstack([sel.node_coords, copy]))
        rejected.append(_rejected(near, x, cfg))
    residual_gate = [d <= 3e-4 for d in distances]
    assert all(r for r, old in zip(rejected, residual_gate) if old)
    assert rejected == [d <= 3e-3 for d in distances]

    cloud = jittered_cloud(np.random.default_rng(8), 8, 8, jitter=0.2)
    x = np.array([3.3, 3.6])
    sel = select_support(x, cloud, cfg)
    scales = [1.0, 0.5, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05]
    rejected = [_rejected(replace(sel, node_coords=h * sel.node_coords),
                          h * x, cfg) for h in scales]
    residual_gate = [h <= 0.25 for h in scales]
    assert all(r for r, old in zip(rejected, residual_gate) if old)
    assert rejected == [h <= 0.35 for h in scales]


@pytest.mark.parametrize("dim", [2, 3])
def test_one_cholesky_call_per_chunk(rng, cfg, dim, monkeypatch):
    """Assembly factors each chunk of a support-size group with one stacked
    Cholesky call: the calls count chunks, not points."""
    cloud, grid = _model(rng, dim)
    points = grid.gauss[0]
    sup, _ = active_supports(points, cloud, cfg)
    active = sup.sizes[sup.sizes > 0]
    sizes, counts = np.unique(active, return_counts=True)
    steps = np.maximum(1, interp._CHUNK_DOUBLES // (sizes * sizes))
    chunks = int(np.sum(-(-counts // steps)))
    assert chunks < len(active) / 4

    real = interp.cholesky
    calls = []

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(interp, "cholesky", counted)
    mode = "plane_stress" if dim == 2 else "solid_3d"
    assemble_stiffness(cloud, grid, MaterialModel(10.0, 0.3, mode=mode), cfg)
    assert len(calls) == chunks
    assert sum(shape[0] for shape in calls) == len(active)


def _factors(rng, n, count=5):
    """Cholesky factors (count, n, n) of the correlation matrices of real
    supports: the n nodes nearest to points inside a jittered cloud."""
    if n == 3:
        cloud = jittered_cloud(rng, 6, 6, jitter=0.2)
    else:
        cloud = jittered_cloud(rng, 6, 6, nz=6, jitter=0.15)
    points = rng.uniform(1.5, 3.5, (count, cloud.dim))
    _, rows = cloud.tree.query(points, k=n)
    rows = np.sort(rows.reshape(count, n), axis=1)
    R = interp._correlation(cloud.coords[rows], MeshlessConfig().theta)
    return np.linalg.cholesky(R)


@pytest.mark.parametrize("n", [3, 4, 27, 62, 101])
def test_lower_inverse_is_the_inverse(rng, n):
    """Each factor's L^-1 matches np.linalg.inv to roundoff in its
    condition number, and its strict upper triangle is exactly zero: the
    trace guard sums every entry of L^-1."""
    L = _factors(rng, n)
    Li = interp._lower_inverse(L.copy())
    assert Li.shape == L.shape
    for L_g, Li_g in zip(L, Li):
        ref = np.linalg.inv(L_g)
        cond = np.linalg.cond(L_g)
        assert np.abs(Li_g - ref).max() <= 1e-13 * cond * np.abs(ref).max()
        assert not np.triu(Li_g, 1).any()


@pytest.mark.parametrize("dim", [2, 3])
def test_one_triangular_inverse_per_point(rng, cfg, dim, monkeypatch):
    """Assembly inverts each active Gauss point's Cholesky factor with
    exactly one LAPACK call."""
    cloud, grid = _model(rng, dim)
    sup, _ = active_supports(grid.gauss[0], cloud, cfg)
    real = interp.dtrtri
    calls = []

    def counted(c, *args, **kwargs):
        calls.append(c.shape)
        return real(c, *args, **kwargs)

    monkeypatch.setattr(interp, "dtrtri", counted)
    mode = "plane_stress" if dim == 2 else "solid_3d"
    assemble_stiffness(cloud, grid, MaterialModel(10.0, 0.3, mode=mode), cfg)
    active = sup.sizes[sup.sizes > 0]
    assert len(calls) == len(active)
    assert sorted(shape[0] for shape in calls) == sorted(active)
