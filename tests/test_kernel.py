"""Contract of the batched Gauss-point kernel: a point's results do not
depend on the batch it is evaluated in, and the error semantics of the
one-point path (one support growth, jitter retry, conditioning guard, the
failing Gauss point named in the message) hold inside a batch."""

import re

import numpy as np
import pytest

from mkfree import interp
from mkfree.assembly import active_supports, assemble_stiffness
from mkfree.config import MeshlessConfig
from mkfree.errors import ConditioningError, SupportDeficiencyError
from mkfree.interp import evaluate_at, evaluate_batch, find_supports, spacing
from mkfree.model import BackgroundGrid, MaterialModel, NodeCloud

from conftest import grid_for, jittered_cloud


def kernel_results(points, cloud, cfg):
    """{point index: (values, grads)} for the active points of a batch."""
    active, sup = active_supports(points, cloud, cfg)
    out = {}
    for idx, _, values, grads in evaluate_batch(points[active], cloud, sup,
                                                cfg):
        for j, i in enumerate(active[idx]):
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
    monkeypatch.setattr(interp, "_CHUNK_DOUBLES", 3 * (40 * dim) ** 2)
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
    _, d_c = spacing(points, cloud)
    cfg = MeshlessConfig(alpha=0.75, support_growth=1.5)
    sup = find_supports(points, cloud, d_c, cfg)
    # the first ball holds 4 nodes; the second holds 1 and grows once
    assert sup.sizes.tolist() == [4, 5]
    assert sup.radius[0] == 0.75 * d_c[0]
    assert sup.radius[1] == 0.75 * d_c[1] * 1.5
    assert not sup.deficient.any()

    cfg = MeshlessConfig(alpha=0.3, support_growth=1.1)
    sup = find_supports(points, cloud, d_c, cfg)
    assert sup.deficient.tolist() == [True, True]
    assert np.allclose(sup.radius, 0.3 * 1.1 * d_c)
    with pytest.raises(SupportDeficiencyError) as err:
        sup.require(points)
    assert (err.value.found, err.value.needed) == (0, 3)

    grid = grid_for(cloud)
    with pytest.raises(SupportDeficiencyError) as err:
        assemble_stiffness(cloud, grid, MaterialModel(10.0, 0.3), cfg)
    point, cell = _located(str(err.value))
    lo = grid.origin + np.asarray(cell) * grid.cell_size
    hi = lo + grid.cell_size
    assert np.all(point > lo) and np.all(point < hi)


def test_cholesky_failure_retries_that_point_only(rng, cfg, monkeypatch):
    cloud, grid = _model(rng, 2)
    points = grid.gauss[0]
    reference = kernel_results(points, cloud, cfg)
    target = sorted(reference)[len(reference) // 2]
    active, sup = active_supports(points, cloud, cfg)
    rows = sup.rows[sup.ptr[np.searchsorted(active, target)]:][
        :len(reference[target][0])]
    X = cloud.coords[rows]
    R_target = np.exp(-cfg.theta * ((X[:, None] - X[None]) ** 2).sum(-1))

    real = interp.dpotrf
    calls = []

    def failing(a, lower=0):
        hit = a.shape == R_target.shape and np.array_equal(a, R_target)
        calls.append(hit)
        return (a, 1) if hit else real(a, lower=lower)

    monkeypatch.setattr(interp, "dpotrf", failing)
    forced = kernel_results(points, cloud, cfg)
    # one call per point, plus one retry with the jittered matrix for the
    # target
    assert calls.count(True) == 1
    assert len(calls) == len(reference) + 1
    for i, got in forced.items():
        for a, b in zip(got, reference[i]):
            if i == target:
                assert np.allclose(a, b, rtol=0.0,
                                   atol=1e-8 * np.abs(b).max())
            else:
                assert np.array_equal(a, b)
