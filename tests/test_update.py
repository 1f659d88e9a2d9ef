import numpy as np
import pytest

from mkfree.assembly import gauss_point_active
from mkfree.config import MeshlessConfig
from mkfree.errors import SupportDeficiencyError, ValidationError
from mkfree.interp import select_support
from mkfree.model import (MaterialModel, Modification, NodeCloud,
                          apply_modification)
from mkfree.update import (LocalUpdateUnavailableError,
                           build_influence_domain, changed_nodes,
                           compute_delta, global_update, local_delta)

from conftest import grid_for, jittered_cloud


def random_modification(rng, cloud, n_change=3):
    """Remove up to n_change existing nodes and add as many fresh ones
    jittered near existing positions."""
    n_rem = int(rng.integers(0, n_change + 1))
    n_add = int(rng.integers(0 if n_rem else 1, n_change + 1))
    removed = set(int(i) for i in rng.choice(cloud.ids, size=n_rem,
                                             replace=False))
    next_id = int(cloud.ids.max()) + 1
    added_ids, added_coords = [], []
    keep_coords = cloud.coords[~np.isin(cloud.ids, list(removed))]
    lo, hi = cloud.coords.min(axis=0), cloud.coords.max(axis=0)
    while len(added_ids) < n_add:
        base = keep_coords[rng.integers(len(keep_coords))]
        cand = base + rng.uniform(0.35, 0.6, cloud.dim) * rng.choice([-1, 1],
                                                                     cloud.dim)
        cand = np.clip(cand, lo, hi)
        all_pts = np.vstack([keep_coords] + ([added_coords] if added_coords
                                             else []))
        if np.min(np.linalg.norm(all_pts - cand, axis=1)) > 0.25:
            added_ids.append(next_id + len(added_ids))
            added_coords.append(cand)
    return Modification(added_ids=tuple(added_ids),
                        added_coords=np.asarray(added_coords).reshape(
                            n_add, cloud.dim),
                        removed_ids=frozenset(removed))


def support_signature(point, cloud, cfg):
    """One point's integration state: inactive, support-deficient, or the
    exact support node-id tuple (the per-point screen)."""
    if not gauss_point_active(point, cloud):
        return ("inactive",)
    try:
        sel = select_support(point, cloud, cfg)
    except SupportDeficiencyError:
        return ("deficient",)
    return tuple(int(i) for i in sel.node_ids)


class TestChangedNodes:
    def test_sorted_union(self):
        mod = Modification(added_ids=(9, 4), added_coords=[[0, 0], [1, 1]],
                           removed_ids={7, 2})
        assert changed_nodes(mod) == [2, 4, 7, 9]


class TestInfluenceDomain:
    def test_delta_zero_outside_influence_nodes(self, rng, cfg):
        cloud = jittered_cloud(rng, 10, 8, jitter=0.2)
        grid = grid_for(cloud, pad=0.2)
        mat = MaterialModel(50.0, 0.3)
        mod = random_modification(rng, cloud)
        cloud_m, dm = apply_modification(cloud, mod)
        dom = build_influence_domain(changed_nodes(mod), cloud, cloud_m,
                                     grid, cfg)
        delta = compute_delta(dom, cloud, cloud_m, mat, dm, cfg)
        inf_dofs = set(dm.dofs_of(dom.influence_node_ids).tolist())
        rows, cols = delta.dK.nonzero()
        assert set(rows.tolist()) <= inf_dofs
        assert set(cols.tolist()) <= inf_dofs

    def test_screen_matches_per_point_signatures(self, rng):
        """The batched screen against a per-point signature comparison,
        including configurations with holes and deficient supports."""
        for trial in range(8):
            cfg = MeshlessConfig(alpha=(3.0, 0.6)[trial % 2])
            cloud = jittered_cloud(rng, 9, 7, jitter=0.2)
            grid = grid_for(cloud, pad=0.2)
            mod = random_modification(rng, cloud, n_change=6)
            cloud_m, _ = apply_modification(cloud, mod)
            dom = build_influence_domain(changed_nodes(mod), cloud, cloud_m,
                                         grid, cfg)
            affected, nodes = [], set(changed_nodes(mod))
            for g, x in enumerate(grid.gauss[0]):
                sig_i = support_signature(x, cloud, cfg)
                sig_m = support_signature(x, cloud_m, cfg)
                if sig_i != sig_m:
                    affected.append(g)
                    for sig in (sig_i, sig_m):
                        if isinstance(sig[0], int):
                            nodes.update(sig)
            assert dom.affected_gauss.tolist() == affected
            assert dom.influence_node_ids.tolist() == sorted(nodes)
            assert dom.n_gauss_total == len(grid.gauss[0])

    def test_empty_change_rejected(self, rng, cfg):
        cloud = jittered_cloud(rng, 5, 5)
        with pytest.raises(ValidationError):
            build_influence_domain([], cloud, cloud, grid_for(cloud), cfg)


class TestDeltaExactness:
    def test_matches_global_reassembly(self, rng, cfg):
        mat = MaterialModel(120.0, 0.3)
        for trial in range(6):
            cloud = jittered_cloud(rng, 9, 7, jitter=0.2)
            grid = grid_for(cloud, pad=0.2)
            mod = random_modification(rng, cloud)
            cloud_m, dm = apply_modification(cloud, mod)
            _, delta = local_delta(mod, cloud, cloud_m, grid, mat, dm, cfg)
            K_star = global_update(cloud, grid, mat, dm, cfg).K
            K_mod = global_update(cloud_m, grid, mat, dm, cfg).K
            ref = (K_mod - K_star).toarray()
            scale = max(np.abs(ref).max(), np.abs(K_star.toarray()).max())
            assert np.abs(delta.dK.toarray() - ref).max() <= 1e-12 * scale

    def test_removed_added_diag_bookkeeping(self, rng, cfg):
        cloud = jittered_cloud(rng, 8, 6, jitter=0.15)
        grid = grid_for(cloud, pad=0.2)
        mat = MaterialModel(10.0, 0.3)
        mod = Modification(removed_ids={9},
                           added_ids=(999,), added_coords=[[3.4, 2.6]])
        cloud_m, dm = apply_modification(cloud, mod)
        _, delta = local_delta(mod, cloud, cloud_m, grid, mat, dm, cfg)
        K_star = global_update(cloud, grid, mat, dm, cfg).K.toarray()
        K_mod = global_update(cloud_m, grid, mat, dm, cfg).K.toarray()
        # union bookkeeping: K* carries the unit diagonal at the added node,
        # K_mod at the removed one; the delta must reproduce the swap
        d_rem = dm.dof(9, 0)
        d_add = dm.dof(999, 0)
        assert K_mod[d_rem, d_rem] == 1.0
        assert K_star[d_add, d_add] == 1.0
        dK = delta.dK.toarray()
        assert np.allclose(dK[d_rem, d_rem], 1.0 - K_star[d_rem, d_rem])
        assert np.allclose(dK[d_add, d_add], K_mod[d_add, d_add] - 1.0)


class TestLocalDeltaRefusals:
    def test_material_change_refused(self, rng, cfg):
        cloud = jittered_cloud(rng, 5, 5)
        grid = grid_for(cloud)
        mod = Modification(material_change=MaterialModel(99.0, 0.3))
        cloud_m, dm = apply_modification(cloud, mod)
        with pytest.raises(LocalUpdateUnavailableError):
            local_delta(mod, cloud, cloud_m, grid, MaterialModel(99.0, 0.3),
                        dm, cfg)

    def test_empty_mod_zero_delta(self, rng, cfg):
        cloud = jittered_cloud(rng, 5, 5)
        grid = grid_for(cloud)
        mod = Modification()
        cloud_m, dm = apply_modification(cloud, mod)
        dom, delta = local_delta(mod, cloud, cloud_m, grid,
                                 MaterialModel(10.0, 0.3), dm, cfg)
        assert dom is None
        assert delta.dK.nnz == 0

