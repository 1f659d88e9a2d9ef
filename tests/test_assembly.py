import numpy as np
import pytest

from mkfree.assembly import (active_supports, apply_bcs, assemble_load,
                             assemble_stiffness, constitutive, gauss_state,
                             integrate_stiffness, strain_displacement)
from mkfree.config import MeshlessConfig
from mkfree.interp import evaluate_at
from mkfree.model import (BackgroundGrid, BoundaryConditions, MaterialModel,
                          Modification, NodeCloud, Traction,
                          apply_modification, identity_dof_map)
from mkfree.update import local_delta

from conftest import cantilever_bc, grid_for, jittered_cloud
from oracles import (active_oracle, constitutive_oracle,
                     dense_stiffness_oracle, shape_oracle, support_oracle)


class TestGaussPoints:
    def test_weights_sum_to_measure(self):
        grid = BackgroundGrid(origin=[0, 0], cell_size=[2.0, 0.5],
                              counts=(3, 4))
        positions, weights, cells = grid.gauss
        assert len(positions) == len(weights) == len(cells) == 3 * 4 * 4
        assert np.isclose(weights.sum(), 3 * 2.0 * 4 * 0.5)

    def test_positions_inside_cells(self):
        grid = BackgroundGrid(origin=[1, 1], cell_size=[1, 1], counts=(2, 2))
        for position, cell in zip(grid.gauss[0], grid.gauss[2]):
            lo = grid.origin + cell * grid.cell_size
            hi = lo + grid.cell_size
            assert np.all(position > lo) and np.all(position < hi)

    def test_quadrature_integrates_cubics(self):
        # 2-point Gauss-Legendre is exact through degree 3 per axis
        grid = BackgroundGrid(origin=[0, 0], cell_size=[1, 1], counts=(1, 1))
        positions, weights, _ = grid.gauss
        total = np.sum(weights * positions[:, 0] ** 3 * positions[:, 1])
        assert np.isclose(total, 0.25 * 0.5)

    def test_3d_count(self):
        grid = BackgroundGrid(origin=[0, 0, 0], cell_size=[1, 1, 1],
                              counts=(2, 1, 1))
        assert len(grid.gauss[0]) == 2 * 8


class TestActivity:
    def test_point_in_hole_inactive(self, rng):
        cloud = jittered_cloud(rng, 10, 10, jitter=0.0)
        keep = ~((np.abs(cloud.coords[:, 0] - 4.5) < 2.0)
                 & (np.abs(cloud.coords[:, 1] - 4.5) < 2.0))
        holey = NodeCloud(ids=cloud.ids[keep], coords=cloud.coords[keep],
                          dim=2)
        points = [[4.5, 4.5], [0.5, 0.5]]
        for c, active in ((cloud, [0, 1]), (holey, [1])):
            assert active_supports(points, c)[0].tolist() == active
            assert [active_oracle(p, c) for p in points] \
                == [k in active for k in range(2)]


class TestConstitutive:
    def test_plane_stress_matches_oracle(self):
        mat = MaterialModel(200.0, 0.3)
        assert np.allclose(constitutive(mat), constitutive_oracle(mat))

    def test_3d_matches_oracle(self):
        mat = MaterialModel(200.0, 0.25, "solid_3d")
        D = constitutive(mat)
        assert np.allclose(D, constitutive_oracle(mat))
        assert np.allclose(D, D.T)
        assert np.all(np.linalg.eigvalsh(D) > 0)


def test_strain_displacement_blocks(rng):
    cloud = jittered_cloud(rng, 6, 6)
    sf = evaluate_at([2.3, 2.7], cloud)
    B = strain_displacement(sf.grads)
    g = sf.grads
    assert B.shape == (len(g), 3, 2)
    k = 3
    assert B[k, 0, 0] == g[k, 0] and B[k, 1, 1] == g[k, 1]
    assert B[k, 2, 0] == g[k, 1] and B[k, 2, 1] == g[k, 0]


class TestAssembly:
    def test_matches_dense_oracle(self, rng, cfg):
        for trial in range(3):
            cloud = jittered_cloud(rng, 6, 5, jitter=0.2)
            grid = grid_for(cloud, pad=0.2)
            mat = MaterialModel(100.0, 0.3)
            system = assemble_stiffness(cloud, grid, mat, cfg)
            K_oracle = dense_stiffness_oracle(cloud, grid, mat, cfg)
            scale = np.abs(K_oracle).max()
            assert np.abs(system.K.toarray() - K_oracle).max() <= 1e-12 * scale

    def test_symmetry(self, small_model, cfg):
        cloud, grid, mat, _ = small_model
        system = assemble_stiffness(cloud, grid, mat, cfg)
        K = system.K.toarray()
        assert np.abs(K - K.T).max() <= 1e-14 * np.abs(K).max()

    def test_rigid_body_modes_annihilated(self, small_model, cfg):
        cloud, grid, mat, _ = small_model
        K = assemble_stiffness(cloud, grid, mat, cfg).K.toarray()
        n = cloud.n_nodes
        tx = np.tile([1.0, 0.0], n)
        ty = np.tile([0.0, 1.0], n)
        order = np.argsort(cloud.ids)
        X = cloud.coords[order]
        rot = np.column_stack([-X[:, 1], X[:, 0]]).ravel()
        scale = np.abs(K).max()
        for mode in (tx, ty, rot):
            assert np.abs(K @ mode).max() <= 1e-8 * scale * np.abs(mode).max()

    def test_union_space_absent_nodes_unit_diag(self, rng, cfg):
        cloud = jittered_cloud(rng, 6, 5, jitter=0.15)
        mod = Modification(removed_ids={7, 12})
        cloud_m, dm = apply_modification(cloud, mod)
        system = assemble_stiffness(cloud_m, grid_for(cloud, pad=0.2),
                                    MaterialModel(10.0, 0.3), cfg,
                                    dof_map=dm)
        K = system.K.toarray()
        for nid in (7, 12):
            for axis in (0, 1):
                d = dm.dof(nid, axis)
                row = K[d].copy()
                assert row[d] == 1.0
                row[d] = 0.0
                assert np.all(row == 0.0)


def _edited_model(rng, dim):
    """A 2D or 3D jittered cloud, the cloud after removing one interior
    node and adding one, and the grid, material and union DOF map."""
    if dim == 2:
        cloud = jittered_cloud(rng, 7, 6, jitter=0.2)
        mat = MaterialModel(100.0, 0.3)
    else:
        cloud = jittered_cloud(rng, 5, 4, nz=4, jitter=0.15)
        mat = MaterialModel(100.0, 0.3, mode="solid_3d")
    centre = cloud.coords.mean(axis=0)
    removed = int(cloud.ids[np.argmin(
        np.linalg.norm(cloud.coords - centre, axis=1))])
    mod = Modification(added_ids=(int(cloud.ids.max()) + 1,),
                       added_coords=[centre + 0.5], removed_ids={removed})
    cloud_m, dm = apply_modification(cloud, mod)
    return cloud, cloud_m, mod, grid_for(cloud, pad=0.2), mat, dm


@pytest.mark.parametrize("dim", [2, 3])
class TestIntegrateStiffness:
    def test_signed_terms_are_the_difference(self, rng, cfg, dim):
        cloud, cloud_m, _, grid, mat, dm = _edited_model(rng, dim)
        D = constitutive(mat)

        def integrate(terms):
            states = [(c, gauss_state(c, grid, cfg), sign)
                      for c, sign in terms]
            return integrate_stiffness(states, grid.gauss[1], D,
                                       dm).toarray()

        K_m, K = integrate([(cloud_m, 1.0)]), integrate([(cloud, 1.0)])
        both = integrate([(cloud_m, 1.0), (cloud, -1.0)])
        scale = max(np.abs(K_m).max(), np.abs(K).max())
        assert np.abs(both - (K_m - K)).max() <= 1e-14 * scale
        assert np.abs(both).max() > 1e-3 * scale

    def test_stiffness_and_delta_exactly_symmetric(self, rng, cfg, dim):
        cloud, cloud_m, mod, grid, mat, dm = _edited_model(rng, dim)
        K = assemble_stiffness(cloud, grid, mat, cfg, dof_map=dm).K
        _, delta = local_delta(mod, cloud, cloud_m, grid, mat, dm, cfg)
        for A in (K, delta.dK):
            assert A.nnz > 0
            assert (A != A.T).nnz == 0


class TestLoad:
    def test_point_loads(self, rng):
        cloud = jittered_cloud(rng, 5, 4)
        bc = BoundaryConditions(point_loads=((3, 1, -2.5), (3, 0, 1.0)))
        F = assemble_load(cloud, bc)
        from mkfree.model import identity_dof_map
        dm = identity_dof_map(cloud)
        assert F[dm.dof(3, 1)] == -2.5
        assert F[dm.dof(3, 0)] == 1.0
        assert np.count_nonzero(F) == 2

    def test_traction_resultant(self, rng):
        # partition of unity makes the total traction force exact
        cloud = jittered_cloud(rng, 8, 5, jitter=0.0)
        tr = Traction(start=[0.0, 2.0], end=[7.0, 2.0], q=[0.0, -3.0])
        F = assemble_load(cloud, BoundaryConditions(tractions=(tr,)))
        assert np.isclose(F[1::2].sum(), -3.0 * 7.0, rtol=1e-12)
        assert np.isclose(F[0::2].sum(), 0.0, atol=1e-12)

    def test_tractions_match_per_point_quadrature(self, rng, cfg):
        """Edge tractions against a 2-point line quadrature written out
        point by point with the dense shape-function oracle."""
        cloud = jittered_cloud(rng, 7, 5, jitter=0.2)
        tractions = (Traction(start=[6.0, 0.0], end=[6.0, 2.0], q=[1.5, 0.0]),
                     Traction(start=[6.0, 2.0], end=[6.0, 4.0], q=[1.5, -0.5]),
                     Traction(start=[0.5, 4.0], end=[3.5, 4.0], q=[0.0, -2.0]))
        F = assemble_load(cloud, BoundaryConditions(tractions=tractions),
                          cfg=cfg)
        dm = identity_dof_map(cloud)
        ref = np.zeros(dm.n_dofs)
        gl = 1.0 / np.sqrt(3.0)
        for tr in tractions:
            seg = tr.end - tr.start
            for xi in (-gl, gl):
                x = 0.5 * (tr.start + tr.end) + 0.5 * xi * seg
                rows = support_oracle(x, cloud, cfg)
                values, _ = shape_oracle(x, cloud.coords[rows], cfg.theta)
                dofs = dm.dofs_of(cloud.ids[rows]).reshape(-1, 2)
                for axis in range(2):
                    ref[dofs[:, axis]] += (0.5 * np.linalg.norm(seg)
                                           * tr.q[axis] * values)
        assert np.abs(F - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_unknown_node_rejected(self, rng):
        from mkfree.errors import ValidationError
        cloud = jittered_cloud(rng, 4, 4)
        with pytest.raises(ValidationError):
            assemble_load(cloud,
                          BoundaryConditions(point_loads=((99, 0, 1.0),)))


class TestApplyBcs:
    def test_elimination(self, small_model, cfg):
        cloud, grid, mat, bc = small_model
        raw = assemble_stiffness(cloud, grid, mat, cfg)
        raw = raw.with_load(assemble_load(cloud, bc, raw.dof_map, cfg))
        con = apply_bcs(raw, bc)
        dm = con.dof_map
        fixed = sorted(dm.dof(n, a) for n, a in bc.fixed_dofs)
        K = con.K.toarray()
        # exactly the fixed DOFs are unit rows and columns with zero load
        unit = [d for d in range(dm.n_dofs)
                if K[d, d] == 1.0 and np.count_nonzero(K[d]) == 1
                and np.count_nonzero(K[:, d]) == 1 and con.F[d] == 0.0]
        assert unit == fixed
        # free block untouched
        free = np.setdiff1d(np.arange(dm.n_dofs), fixed)
        assert np.allclose(K[np.ix_(free, free)],
                           raw.K.toarray()[np.ix_(free, free)])
