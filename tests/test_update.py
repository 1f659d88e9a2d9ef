import dataclasses

import numpy as np
import pytest

from mkfree.assembly import assemble_stiffness, gauss_state
from mkfree.config import MeshlessConfig
from mkfree.errors import SupportDeficiencyError, ValidationError
from mkfree.interp import reach, select_support, spacing
from mkfree.model import (MaterialModel, Modification, NodeCloud,
                          apply_modification)
from mkfree.update import (build_influence_domain, changed_nodes,
                           compute_delta, global_update, local_delta)

from conftest import grid_for, jittered_cloud
from oracles import active_oracle, full_screen_oracle


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


def interleaved(rng, cloud, mod):
    """The same edit on the cloud with even ids, the added nodes taking odd
    ids that sort among the initial ones."""
    odd = 2 * rng.choice(cloud.ids, len(mod.added_ids), replace=False) + 1
    return (NodeCloud(ids=2 * cloud.ids, coords=cloud.coords, dim=cloud.dim),
            Modification(added_ids=tuple(int(i) for i in odd),
                         added_coords=mod.added_coords,
                         removed_ids=frozenset(2 * i for i in mod.removed_ids)))


def support_signature(point, cloud, cfg):
    """One point's integration state: inactive, support-deficient, or the
    exact support node-id tuple (the per-point screen)."""
    if not active_oracle(point, cloud):
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
        state = gauss_state(cloud, grid, cfg)
        dom = build_influence_domain(changed_nodes(mod), cloud, cloud_m,
                                     grid, state, cfg)
        delta = compute_delta(dom, cloud, cloud_m, mat, dm, state, cfg)
        inf_dofs = set(dm.dofs_of(dom.influence_node_ids).tolist())
        rows, cols = delta.dK.nonzero()
        assert set(rows.tolist()) <= inf_dofs
        assert set(cols.tolist()) <= inf_dofs

    def test_screen_matches_per_point_signatures(self, rng):
        """The screen against a per-point signature comparison, on 2D
        plates and 3D blocks, with holes, with appended and with
        interleaved added ids.  At alpha = 0.6 supports can be deficient
        (on a jittered cloud, or after an edit of a regular lattice): then
        an initial cloud fails its assembly, and a modified one fails the
        local update naming its first deficient Gauss point."""
        for trial in range(16):
            dim = 2 + trial // 8
            alpha, jitter = ((3.0, 0.2), (0.6, 0.0), (3.0, 0.2),
                             (0.6, 0.2))[trial % 4]
            cfg = MeshlessConfig(alpha=alpha)
            mat = MaterialModel(100.0, 0.3, mode=("plane_stress", "solid_3d")
                                [dim - 2])
            cloud = (jittered_cloud(rng, 9, 7, jitter=jitter) if dim == 2
                     else jittered_cloud(rng, 5, 4, nz=4, jitter=0.75 * jitter))
            mod = random_modification(rng, cloud, n_change=6)
            if trial % 4 >= 2:
                cloud, mod = interleaved(rng, cloud, mod)
            grid = grid_for(cloud, pad=jitter)
            cloud_m, dm = apply_modification(cloud, mod)
            points = grid.gauss[0]
            sig_i = [support_signature(x, cloud, cfg) for x in points]
            sig_m = [support_signature(x, cloud_m, cfg) for x in points]
            if ("deficient",) in sig_i:
                with pytest.raises(SupportDeficiencyError):
                    assemble_stiffness(cloud, grid, mat, cfg)
                continue
            state = assemble_stiffness(cloud, grid, mat, cfg).state
            if ("deficient",) in sig_m:
                with pytest.raises(SupportDeficiencyError) as err:
                    local_delta(mod, cloud, cloud_m, grid, mat, dm, cfg,
                                state)
                assert "at Gauss point" in str(err.value)
                first = points[sig_m.index(("deficient",))]
                assert np.array_equal(err.value.point, first)
                continue
            dom, _ = local_delta(mod, cloud, cloud_m, grid, mat, dm, cfg,
                                 state)
            affected, nodes = [], set(changed_nodes(mod))
            for g, (a, b) in enumerate(zip(sig_i, sig_m)):
                if a != b:
                    affected.append(g)
                    for sig in (a, b):
                        if isinstance(sig[0], int):
                            nodes.update(sig)
            assert dom.affected_gauss.tolist() == affected
            assert dom.influence_node_ids.tolist() == sorted(nodes)
            assert dom.n_gauss_total == len(points)

    def test_empty_change_rejected(self, rng, cfg):
        cloud = jittered_cloud(rng, 5, 5)
        grid = grid_for(cloud)
        with pytest.raises(ValidationError):
            build_influence_domain([], cloud, cloud, grid,
                                   gauss_state(cloud, grid, cfg), cfg)


def _screen_edits(rng, dim):
    """(label, cloud, grid, mod, cfg) edits that stress the bounded screen:
    random edits at alpha 3.0 (jittered) and 0.6 (a regular lattice, where
    every support grows and an edit can leave one deficient), with
    appended and with interleaved added ids; at alpha 0.6, two nodes
    re-added under new ids at their own places, which changes id lists
    but leaves every support complete; an edit at alpha 1.2 inside a grown
    support; a fill of a hole, which activates
    points that did not integrate; the removal of the nearest neighbour of
    a point's nearest node, which changes its d_c but not its nearest
    node; and added nodes at exactly a point's support radius and at
    exactly its reach.  The last four run at alpha 2.0 in 3D, where the
    reach at alpha 3.0 spans a whole small block."""
    edits = []
    for alpha, jitter in ((3.0, 0.2), (0.6, 0.0)):
        for order in ("appended", "interleaved"):
            cloud = (jittered_cloud(rng, 9, 7, jitter=jitter) if dim == 2
                     else jittered_cloud(rng, 5, 4, nz=4, jitter=0.75 * jitter))
            mod = random_modification(rng, cloud, n_change=6)
            if alpha < 1.0:
                moved = rng.choice(cloud.ids[1:-1], 2, replace=False)
                top = int(cloud.ids.max())
                renumber = Modification(
                    added_ids=(top + 1, top + 2),
                    added_coords=cloud.coords[np.isin(cloud.ids, moved)],
                    removed_ids=frozenset(moved.tolist()))
            if order == "interleaved":
                cloud0 = cloud
                cloud, mod = interleaved(rng, cloud0, mod)
                if alpha < 1.0:
                    renumber = interleaved(rng, cloud0, renumber)[1]
            cases = [("random", mod)] + ([("renumber", renumber)]
                                         if alpha < 1.0 else [])
            for kind, edit in cases:
                edits.append((f"{kind}-{order}-alpha{alpha}", cloud,
                              grid_for(cloud, pad=jitter), edit,
                              MeshlessConfig(alpha=alpha)))
    # at alpha 1.2 a support that grows can reach past dist + D_NN; this
    # seeded edit adds or removes a node there
    seeded = np.random.default_rng(7 if dim == 2 else 2)
    cloud = (jittered_cloud(seeded, 9, 7, jitter=0.15) if dim == 2
             else jittered_cloud(seeded, 5, 4, nz=4, jitter=0.1))
    edits.append(("grown-alpha1.2", cloud, grid_for(cloud),
                  random_modification(seeded, cloud, n_change=3),
                  MeshlessConfig(alpha=1.2)))
    cfg = MeshlessConfig(alpha=3.0 if dim == 2 else 2.0)
    cloud = (jittered_cloud(rng, 11, 9, jitter=0.2) if dim == 2
             else jittered_cloud(rng, 8, 7, nz=7, jitter=0.15))
    centre = cloud.coords.mean(axis=0)
    hole = np.linalg.norm(cloud.coords - centre, axis=1) < 1.6
    holed = NodeCloud(ids=cloud.ids[~hole], coords=cloud.coords[~hole],
                      dim=dim)
    grid = grid_for(cloud, pad=0.2)
    edits.append(("hole-fill", holed, grid, Modification(
        added_ids=tuple(cloud.ids[hole].tolist()),
        added_coords=cloud.coords[hole]), cfg))
    points = grid.gauss[0]
    x = points[np.argmin(np.linalg.norm(points - points.min(axis=0) - 0.8,
                                        axis=1))]
    nearest = int(cloud.tree.query(x)[1])
    second = cloud.tree.query(cloud.coords[nearest], k=2)[1][1]
    edits.append(("nearest-neighbour", cloud, grid, Modification(
        removed_ids={int(cloud.ids[second])}), cfg))
    dist, d_c, d_nb = spacing(x, cloud)
    radii = {"at-support-radius": cfg.alpha * d_c[0],
             "at-reach": reach(dist, d_c, d_nb, cfg)[0]}
    top = int(cloud.ids.max())
    for label, r in radii.items():
        while True:     # into the cloud, clear of its nodes
            away = np.ones(dim) + 0.3 * rng.standard_normal(dim)
            added = x + r * away / np.linalg.norm(away)
            if cloud.tree.query(added)[0] > 0.3:
                break
        edits.append((label, cloud, grid, Modification(
            added_ids=(top + 1,), added_coords=[added]), cfg))
    return edits


@pytest.mark.parametrize("dim", [2, 3])
def test_bounded_screen_matches_the_full_grid_screen(rng, dim):
    """The screen, which searches only the Gauss points with a changed node
    within their reach, gives the full-grid screen's affected points,
    influence nodes and modified supports, and refuses the same first
    deficient point."""
    for label, cloud, grid, mod, cfg in _screen_edits(rng, dim):
        cloud_m, _ = apply_modification(cloud, mod)
        state = gauss_state(cloud, grid, cfg)
        changed = changed_nodes(mod)
        try:
            affected, nodes, (active, sup) = full_screen_oracle(
                changed, cloud, cloud_m, grid, state, cfg)
        except SupportDeficiencyError as exc:
            with pytest.raises(SupportDeficiencyError) as err:
                build_influence_domain(changed, cloud, cloud_m, grid, state,
                                       cfg)
            assert np.array_equal(err.value.point, exc.point), label
            continue
        dom = build_influence_domain(changed, cloud, cloud_m, grid, state,
                                     cfg)
        assert len(dom.affected_gauss) > 0, label
        assert np.array_equal(dom.affected_gauss, affected), label
        assert np.array_equal(dom.influence_node_ids, nodes), label
        got_active, got_sup = dom.modified_supports
        assert np.array_equal(got_active, active), label
        assert np.array_equal(got_sup.ptr, sup.ptr), label
        assert np.array_equal(got_sup.rows, sup.rows), label
        assert dom.n_gauss_total == len(grid.gauss[0])
        if label == "hole-fill":
            assert not np.isin(dom.affected_gauss, state.active).all()


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


class TestLocalDeltaMaterialChange:
    def test_material_change_is_integrated_with_the_new_material(self, rng,
                                                                 cfg):
        """Alone, a material change keeps the node set: no domain and a
        zero delta.  With a removal, the delta is the difference of two
        reassemblies with the new material."""
        cloud = jittered_cloud(rng, 6, 5)
        grid = grid_for(cloud)
        new = MaterialModel(99.0, 0.2)
        alone = Modification(material_change=new)
        cloud_m, dm = apply_modification(cloud, alone)
        dom, delta = local_delta(alone, cloud, cloud_m, grid, new, dm, cfg)
        assert dom is None and delta.dK.nnz == 0
        mod = Modification(removed_ids={14}, material_change=new)
        cloud_m, dm = apply_modification(cloud, mod)
        dom, delta = local_delta(mod, cloud, cloud_m, grid, new, dm, cfg)
        ref = (global_update(cloud_m, grid, new, dm, cfg).K
               - global_update(cloud, grid, new, dm, cfg).K).toarray()
        scale = np.abs(global_update(cloud, grid, new, dm, cfg).K).max()
        assert dom is not None
        assert np.abs(delta.dK.toarray() - ref).max() <= 1e-14 * scale


class TestLocalDeltaRefusals:

    def test_empty_mod_zero_delta(self, rng, cfg):
        cloud = jittered_cloud(rng, 5, 5)
        grid = grid_for(cloud)
        mod = Modification()
        cloud_m, dm = apply_modification(cloud, mod)
        dom, delta = local_delta(mod, cloud, cloud_m, grid,
                                 MaterialModel(10.0, 0.3), dm, cfg)
        assert dom is None
        assert delta.dK.nnz == 0



def _state_edits(rng, dim):
    """(cloud, mod) pairs: a removal, an insertion with appended ids and
    one whose ids sort among the initial ones (the initial ids are even)."""
    if dim == 2:
        cloud = jittered_cloud(rng, 9, 7, jitter=0.2)
    else:
        cloud = jittered_cloud(rng, 5, 4, nz=4, jitter=0.15)
    even = NodeCloud(ids=2 * cloud.ids, coords=cloud.coords, dim=dim)
    centre = cloud.coords.mean(axis=0)
    inner = cloud.ids[np.argsort(np.linalg.norm(cloud.coords - centre,
                                                axis=1))[:3]]
    added = centre + np.array([[0.5] * dim, [-0.45] * dim])
    top = int(cloud.ids.max())
    return [(cloud, Modification(removed_ids=frozenset(inner.tolist()))),
            (cloud, Modification(added_ids=(top + 1, top + 2),
                                 added_coords=added)),
            (even, Modification(added_ids=(7, 2 * top - 3),
                                added_coords=added,
                                removed_ids={2 * int(inner[0])}))]


@pytest.mark.parametrize("dim", [2, 3])
class TestBaselineState:
    """local_delta on the state the baseline assembly keeps, against
    local_delta building the state itself."""

    def test_state_matches_the_stateless_path(self, rng, cfg, dim):
        mat = MaterialModel(100.0, 0.3,
                            mode="plane_stress" if dim == 2 else "solid_3d")
        for cloud, mod in _state_edits(rng, dim):
            cloud_m, dm = apply_modification(cloud, mod)
            grid = grid_for(cloud, pad=0.2)
            state = assemble_stiffness(cloud, grid, mat, cfg).state
            dom_s, delta_s = local_delta(mod, cloud, cloud_m, grid, mat, dm,
                                         cfg, state)
            dom, delta = local_delta(mod, cloud, cloud_m, grid, mat, dm, cfg)
            assert len(dom.affected_gauss) > 0
            assert np.array_equal(dom_s.affected_gauss, dom.affected_gauss)
            assert np.array_equal(dom_s.influence_node_ids,
                                  dom.influence_node_ids)
            dK = delta.dK.toarray()
            assert np.abs(delta_s.dK.toarray() - dK).max() \
                <= 1e-14 * np.abs(dK).max()

    def test_deficient_modified_point_raises(self, dim):
        """On a regular grid with alpha = 0.6 every Gauss point's grown
        support holds dim + 1 nodes; without an interior node, the points
        nearest it keep only dim."""
        cfg = MeshlessConfig(alpha=0.6)
        rng = np.random.default_rng(0)
        cloud = (jittered_cloud(rng, 6, 5, jitter=0.0) if dim == 2
                 else jittered_cloud(rng, 4, 4, nz=4, jitter=0.0))
        grid = grid_for(cloud)
        mat = MaterialModel(100.0, 0.3,
                            mode="plane_stress" if dim == 2 else "solid_3d")
        state = assemble_stiffness(cloud, grid, mat, cfg).state
        centre = cloud.coords.mean(axis=0)
        inner = int(cloud.ids[np.argmin(np.linalg.norm(cloud.coords - centre,
                                                       axis=1))])
        mod = Modification(removed_ids={inner})
        cloud_m, dm = apply_modification(cloud, mod)
        for initial in (state, None):
            with pytest.raises(SupportDeficiencyError) as err:
                local_delta(mod, cloud, cloud_m, grid, mat, dm, cfg, initial)
            assert (err.value.found, err.value.needed) == (dim, dim + 1)
            assert "at Gauss point" in str(err.value)
