import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkfree.config import MeshlessConfig
from mkfree.errors import ConditioningError, SupportDeficiencyError
from mkfree.interp import (basis_size, build_system, evaluate_at,
                           select_support, shape_functions, spacing)
from mkfree.model import NodeCloud

from conftest import jittered_cloud
from oracles import (shape_oracle, spacing_oracle, support_oracle,
                     transfer_matrices_oracle)


def test_basis_size():
    assert basis_size(2) == 3
    assert basis_size(3) == 4


def test_local_spacing_uniform_grid(rng):
    cloud = jittered_cloud(rng, 8, 8, jitter=0.0)
    # interior point: the three nearest neighbors all sit one pitch away
    assert np.isclose(spacing([3.4, 3.6], cloud)[1][0], 1.0)


def test_local_spacing_matches_oracle(rng):
    cloud = jittered_cloud(rng, 7, 6, jitter=0.25)
    for _ in range(20):
        p = rng.uniform(0.5, 4.5, 2)
        assert np.isclose(spacing(p, cloud)[1][0], spacing_oracle(p, cloud),
                          rtol=1e-12)


class TestSelectSupport:
    def test_matches_oracle(self, rng, cfg):
        cloud = jittered_cloud(rng, 9, 7, jitter=0.25)
        for _ in range(30):
            p = rng.uniform(0.5, 5.5, 2)
            sel = select_support(p, cloud, cfg)
            rows = support_oracle(p, cloud, cfg)
            assert np.array_equal(sel.node_ids, cloud.ids[rows])

    def test_ids_sorted_ascending(self, rng, cfg):
        cloud = jittered_cloud(rng, 6, 6)
        sel = select_support([2.5, 2.5], cloud, cfg)
        assert np.all(np.diff(sel.node_ids) > 0)

    def test_growth_recovers_sparse_region(self):
        # the initial ball captures one node; one growth captures three
        cloud = NodeCloud(ids=np.arange(5),
                          coords=[[0, 0], [1.2, 0], [0, 1.2], [1.2, 1.2],
                                  [2.4, 0]], dim=2)
        cfg = MeshlessConfig(alpha=0.8)
        _, d_c, _ = spacing([0.0, 0.0], cloud)
        first = np.linalg.norm(cloud.coords, axis=1) <= cfg.alpha * d_c[0]
        assert first.sum() == 1
        assert select_support([0.0, 0.0], cloud, cfg).n == 3

    def test_deficiency_raises(self):
        cloud = NodeCloud(ids=[0, 1, 2],
                          coords=[[0, 0], [10, 0], [0, 10]], dim=2)
        cfg = MeshlessConfig(alpha=0.1)
        with pytest.raises(SupportDeficiencyError) as err:
            select_support([5.0, 5.0], cloud, cfg)
        assert err.value.needed == 3


class TestBuildSystem:
    def test_transfer_identities(self, rng, cfg):
        """The kernel's values and gradients satisfy the system it evaluates,
        R phi + P Lam = [r dr] and P^T phi = [p dp], with the multipliers
        Lam = S_a ([r dr] - R S_a^T [p dp]) of the oracle's transfer
        matrices, and equal p^T S_a + r^T S_b."""
        cloud = jittered_cloud(rng, 8, 8)
        sel = select_support([3.3, 3.7], cloud, cfg)
        sys = build_system(sel, cfg.theta, cfg)
        R, P, S_a, S_b = transfer_matrices_oracle(sel.node_coords, cfg.theta)
        n = sel.n
        assert np.allclose(P @ S_a + R @ S_b, np.eye(n), atol=1e-10)
        assert np.allclose(P.T @ S_b, 0.0, atol=1e-10)
        for x in ([3.3, 3.7], [2.9, 4.1], sel.node_coords[3]):
            x = np.asarray(x, dtype=float)
            sf = shape_functions(sel, sys, x)
            phi = np.column_stack([sf.values, sf.grads])       # (n, 3)
            diff = x - sel.node_coords
            r = np.exp(-cfg.theta * (diff ** 2).sum(axis=1))
            b = np.column_stack([r, -2.0 * cfg.theta * diff * r[:, None]])
            q = np.column_stack([np.concatenate([[1.0], x]),
                                 np.vstack([np.zeros(2), np.eye(2)])])
            Lam = S_a @ (b - R @ S_a.T @ q)
            assert np.allclose(R @ phi + P @ Lam, b, rtol=0.0, atol=1e-10)
            assert np.allclose(P.T @ phi, q, rtol=0.0, atol=1e-10)
            assert np.allclose(phi, S_a.T @ q + S_b.T @ b, rtol=0.0,
                               atol=1e-10)

    def test_collinear_support_raises(self):
        cloud = NodeCloud(ids=np.arange(6),
                          coords=np.column_stack([np.arange(6.0),
                                                  np.zeros(6)]),
                          dim=2)
        cfg = MeshlessConfig(alpha=3.0)
        sel = select_support([2.5, 0.0], cloud, cfg)
        with pytest.raises(ConditioningError):
            build_system(sel, cfg.theta, cfg)


class TestShapeFunctions:
    def test_matches_dense_oracle(self, rng, cfg):
        cloud = jittered_cloud(rng, 9, 8)
        for _ in range(10):
            p = rng.uniform(1.0, 6.0, 2)
            sf = evaluate_at(p, cloud, cfg)
            rows = [cloud.id_to_row[int(i)] for i in sf.node_ids]
            vals, grads = shape_oracle(p, cloud.coords[rows], cfg.theta)
            assert np.allclose(sf.values, vals, atol=1e-10)
            assert np.allclose(sf.grads, grads, atol=1e-9)

    def test_kronecker_delta(self, rng, cfg):
        cloud = jittered_cloud(rng, 7, 7)
        for row in (0, 17, 30):
            x = cloud.coords[row]
            sf = evaluate_at(x, cloud, cfg)
            expect = (sf.node_ids == cloud.ids[row]).astype(float)
            assert np.allclose(sf.values, expect, atol=1e-10)

    def test_partition_of_unity_and_linear_reproduction(self, rng, cfg):
        cloud = jittered_cloud(rng, 8, 7)
        rows = {int(i): k for k, i in enumerate(cloud.ids)}
        for _ in range(15):
            p = rng.uniform(0.8, 5.2, 2)
            sf = evaluate_at(p, cloud, cfg)
            X = cloud.coords[[rows[int(i)] for i in sf.node_ids]]
            assert np.isclose(sf.values.sum(), 1.0, atol=1e-10)
            assert np.allclose(sf.values @ X, p, atol=1e-10)
            assert np.allclose(sf.grads.sum(axis=0), 0.0, atol=1e-9)
            assert np.allclose(sf.grads.T @ X, np.eye(2), atol=1e-9)

    def test_gradient_finite_difference(self, rng, cfg):
        cloud = jittered_cloud(rng, 8, 8)
        h = 1e-6
        for _ in range(10):
            p = rng.uniform(1.0, 5.8, 2)
            sel = select_support(p, cloud, cfg)
            sys = build_system(sel, cfg.theta, cfg)
            sf = shape_functions(sel, sys, p)
            for axis in range(2):
                dp = np.zeros(2)
                dp[axis] = h
                f_plus = shape_functions(sel, sys, p + dp).values
                f_minus = shape_functions(sel, sys, p - dp).values
                fd = (f_plus - f_minus) / (2 * h)
                denom = max(1.0, np.abs(sf.grads[:, axis]).max())
                assert np.abs(fd - sf.grads[:, axis]).max() / denom < 1e-4

    def test_3d_properties(self, rng, cfg):
        cloud = jittered_cloud(rng, 5, 5, nz=4, jitter=0.2)
        rows = {int(i): k for k, i in enumerate(cloud.ids)}
        p = np.array([1.8, 2.2, 1.4])
        sf = evaluate_at(p, cloud, cfg)
        X = cloud.coords[[rows[int(i)] for i in sf.node_ids]]
        assert np.isclose(sf.values.sum(), 1.0, atol=1e-10)
        assert np.allclose(sf.values @ X, p, atol=1e-10)
        assert np.allclose(sf.grads.T @ X, np.eye(3), atol=1e-8)


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_partition_of_unity_property(seed):
    """Partition of unity holds on arbitrary jittered clouds and points."""
    r = np.random.default_rng(seed)
    cloud = jittered_cloud(r, int(r.integers(5, 9)), int(r.integers(5, 9)),
                           jitter=0.25)
    hi = cloud.coords.max(axis=0) - 0.5
    p = r.uniform(0.5, 1.0, 2) * (hi - 0.5) + 0.5
    sf = evaluate_at(p, cloud)
    assert np.isclose(sf.values.sum(), 1.0, atol=1e-9)
