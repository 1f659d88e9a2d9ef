import numpy as np
import pytest

from mkfree.assembly import constitutive
from mkfree.config import MeshlessConfig
from mkfree.errors import SupportDeficiencyError, ValidationError
from mkfree.interp import evaluate_at
from mkfree.model import MaterialModel, NodeCloud, identity_dof_map
from mkfree.recovery import error_metrics, recover_fields, von_mises

from conftest import jittered_cloud
from oracles import strain_displacement


class TestVonMisesStress:
    def test_uniaxial_plane(self):
        assert von_mises(np.array([100.0, 0.0, 0.0]), "plane_stress") \
            == pytest.approx(100.0)

    def test_equibiaxial_plane(self):
        # sx = sy = s: sqrt(s^2 + s^2 - s^2) = s
        assert von_mises(np.array([7.0, 7.0, 0.0]), "plane_stress") \
            == pytest.approx(7.0)

    def test_pure_shear_plane(self):
        assert von_mises(np.array([0.0, 0.0, 10.0]), "plane_stress") \
            == pytest.approx(np.sqrt(300.0))

    def test_uniaxial_3d(self):
        v = np.array([42.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert von_mises(v, "solid_3d") == pytest.approx(42.0)

    def test_hydrostatic_3d_is_zero(self):
        v = np.array([5.0, 5.0, 5.0, 0.0, 0.0, 0.0])
        assert von_mises(v, "solid_3d") == pytest.approx(0.0, abs=1e-12)

    def test_rowwise(self):
        rows = np.array([[100.0, 0.0, 0.0], [0.0, 0.0, 10.0]])
        out = von_mises(rows, "plane_stress")
        assert out.shape == (2,)
        assert out[0] == pytest.approx(100.0)


class TestVonMisesStrain:
    def test_uniaxial_incompressible_plane(self):
        # ex = e, ey = -e/2 with ez = -(ex+ey) gives equivalent strain e
        e = 0.003
        out = von_mises(np.array([e, -e / 2, 0.0]), "plane_stress",
                        kind="strain")
        assert out == pytest.approx(e)

    def test_pure_shear_plane(self):
        g = 0.01
        out = von_mises(np.array([0.0, 0.0, g]), "plane_stress", kind="strain")
        assert out == pytest.approx(g / np.sqrt(3.0))

    def test_hydrostatic_3d_is_zero(self):
        v = np.array([2e-3, 2e-3, 2e-3, 0.0, 0.0, 0.0])
        assert von_mises(v, "solid_3d", kind="strain") \
            == pytest.approx(0.0, abs=1e-15)


class TestVonMisesValidation:
    def test_wrong_component_count(self):
        with pytest.raises(ValidationError):
            von_mises(np.zeros(6), "plane_stress")
        with pytest.raises(ValidationError):
            von_mises(np.zeros(3), "solid_3d")

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            von_mises(np.zeros(3), "plane_stress", kind="displacement")


class TestRecoverFields:
    def test_linear_field_recovered_exactly_2d(self, rng, cfg):
        cloud = jittered_cloud(rng, 8, 6, jitter=0.2)
        mat = MaterialModel(100.0, 0.3)
        A = np.array([[2e-3, 5e-4], [-1e-3, 3e-3]])
        U = (cloud.coords @ A.T).ravel()
        # ids are 0..n-1 in order, so the identity DOF map matches U above
        fields = recover_fields(U, cloud, mat, cfg)
        expect_eps = np.array([A[0, 0], A[1, 1], A[0, 1] + A[1, 0]])
        assert np.allclose(fields.strain, expect_eps, atol=1e-10)
        expect_sig = constitutive(mat) @ expect_eps
        assert np.allclose(fields.stress, expect_sig, atol=1e-8)
        assert np.allclose(fields.displacements, cloud.coords @ A.T)
        assert np.allclose(
            fields.vm_stress,
            von_mises(expect_sig, mat.mode), atol=1e-8)

    def test_linear_field_recovered_exactly_3d(self, rng, cfg):
        cloud = jittered_cloud(rng, 4, 4, nz=4, jitter=0.15)
        mat = MaterialModel(10.0, 0.25, mode="solid_3d")
        A = rng.uniform(-1e-3, 1e-3, (3, 3))
        U = (cloud.coords @ A.T).ravel()
        fields = recover_fields(U, cloud, mat, cfg)
        S = A + A.T
        expect_eps = np.array([A[0, 0], A[1, 1], A[2, 2],
                               S[1, 2], S[0, 2], S[0, 1]])
        assert np.allclose(fields.strain, expect_eps, atol=1e-10)

    def test_node_ids_sorted(self, rng, cfg):
        cloud = jittered_cloud(rng, 5, 5, jitter=0.1)
        perm = rng.permutation(cloud.n_nodes)
        from mkfree.model import NodeCloud
        shuffled = NodeCloud(ids=cloud.ids[perm], coords=cloud.coords[perm],
                             dim=2)
        U = np.zeros(2 * cloud.n_nodes)
        fields = recover_fields(U, shuffled, MaterialModel(1.0, 0.3), cfg)
        assert np.all(np.diff(fields.node_ids) > 0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_per_node_evaluation(self, rng, cfg, dim):
        """The batched recovery against a per-node evaluate_at loop."""
        if dim == 2:
            cloud = jittered_cloud(rng, 7, 6, jitter=0.2)
            mat = MaterialModel(100.0, 0.3)
        else:
            cloud = jittered_cloud(rng, 4, 4, nz=3, jitter=0.15)
            mat = MaterialModel(100.0, 0.3, mode="solid_3d")
        perm = rng.permutation(cloud.n_nodes)
        from mkfree.model import NodeCloud
        cloud = NodeCloud(ids=cloud.ids[perm] * 3 + 1,
                          coords=cloud.coords[perm], dim=dim)
        dm = identity_dof_map(cloud)
        U = rng.standard_normal(dm.n_dofs)
        fields = recover_fields(U, cloud, mat, cfg)
        strain = []
        for nid in fields.node_ids:
            sf = evaluate_at(cloud.coord_of(nid), cloud, cfg)
            u = U[dm.dofs_of(sf.node_ids)].reshape(-1, dim)
            strain.append(np.einsum("nrd,nd->r",
                                    strain_displacement(sf.grads), u))
        strain = np.array(strain)
        scale = np.abs(strain).max()
        assert np.abs(fields.strain - strain).max() <= 1e-12 * scale
        assert np.array_equal(fields.displacements,
                              U[dm.dofs_of(fields.node_ids)].reshape(-1, dim))

    def test_deficient_support_names_the_node(self, rng):
        """At alpha = 0.3 no node's grown support reaches a neighbor on a
        regular lattice; the error names the first node in id order."""
        cloud = jittered_cloud(rng, 5, 5, jitter=0.0)
        cloud = NodeCloud(ids=rng.permutation(cloud.n_nodes) + 100,
                          coords=cloud.coords, dim=2)
        with pytest.raises(SupportDeficiencyError) as err:
            recover_fields(np.zeros(2 * cloud.n_nodes), cloud,
                           MaterialModel(1.0, 0.3), MeshlessConfig(alpha=0.3))
        assert str(err.value).endswith(" (at node 100)")
        assert np.array_equal(err.value.point, cloud.coord_of(100))
        assert (err.value.found, err.value.needed) == (1, 3)

    def test_length_mismatch(self, rng, cfg):
        cloud = jittered_cloud(rng, 4, 4)
        with pytest.raises(ValidationError):
            recover_fields(np.zeros(7), cloud, MaterialModel(1.0, 0.3), cfg)


class TestErrorMetrics:
    @staticmethod
    def _fields(rng, cloud, cfg, scale=1.0):
        U = scale * (cloud.coords @ np.array([[1e-3, 2e-4],
                                              [4e-4, -2e-3]]).T).ravel()
        return recover_fields(U, cloud, MaterialModel(50.0, 0.3), cfg)

    def test_zero_on_identical(self, rng, cfg):
        cloud = jittered_cloud(rng, 6, 5, jitter=0.15)
        f = self._fields(rng, cloud, cfg)
        assert error_metrics(f, f) == (0.0, 0.0, 0.0)

    def test_percent_scaling(self, rng, cfg):
        cloud = jittered_cloud(rng, 6, 5, jitter=0.15)
        ref = self._fields(rng, cloud, cfg)
        cand = self._fields(rng, cloud, cfg, scale=1.01)
        E_u, E_eps, E_sig = error_metrics(cand, ref)
        assert E_u == pytest.approx(1.0, rel=1e-6)
        assert E_eps == pytest.approx(1.0, rel=1e-6)
        assert E_sig == pytest.approx(1.0, rel=1e-6)

    def test_mismatched_nodes_rejected(self, rng, cfg):
        cloud = jittered_cloud(rng, 6, 5, jitter=0.15)
        f = self._fields(rng, cloud, cfg)
        import dataclasses
        other = dataclasses.replace(f, node_ids=f.node_ids + 1)
        with pytest.raises(ValidationError):
            error_metrics(other, f)

    def test_zero_reference_rejected(self, rng, cfg):
        cloud = jittered_cloud(rng, 5, 4, jitter=0.1)
        zero = recover_fields(np.zeros(2 * cloud.n_nodes), cloud,
                              MaterialModel(1.0, 0.3), cfg)
        nonzero = self._fields(rng, cloud, cfg)
        with pytest.raises(ValidationError):
            error_metrics(nonzero, zero)
