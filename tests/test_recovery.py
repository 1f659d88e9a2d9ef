import numpy as np
import pytest

from mkfree.assembly import constitutive
from mkfree.config import MeshlessConfig
from mkfree.errors import SupportDeficiencyError, ValidationError
from mkfree.interp import evaluate_at
from mkfree.model import (MaterialModel, Modification, NodeCloud,
                          apply_modification, identity_dof_map)
from mkfree.pipeline import full_analysis, prepare_modified, run_ifu
from mkfree.recovery import (edited_node_state, error_metrics,
                             fields_at_nodes, node_state, recover_fields,
                             von_mises)
from mkfree.update import changed_coords, changed_nodes

from conftest import cantilever_bc, grid_for, jittered_cloud
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


def _node_edits(rng, dim, shape=None):
    """(label, cloud, mod) on a jittered cloud of ``shape`` nodes, by
    default larger than the reach of its nodes: a removal, an insertion
    with appended ids and one whose ids sort among the initial ones (the
    initial ids are even)."""
    shape = shape or ((13, 9) if dim == 2 else (9, 7, 6))
    cloud = jittered_cloud(rng, *shape[:2], nz=(shape[2:] or [None])[0],
                           jitter=0.2 if dim == 2 else 0.15)
    even = NodeCloud(ids=2 * cloud.ids, coords=cloud.coords, dim=dim)
    corner = cloud.coords.min(axis=0) + 2.0
    near = cloud.ids[np.argsort(np.linalg.norm(cloud.coords - corner,
                                               axis=1))[:3]]
    added = corner + np.array([[0.5] * dim, [-0.45] * dim])
    top = int(cloud.ids.max())
    return [("removal", cloud,
             Modification(removed_ids=frozenset(near.tolist()))),
            ("appended", cloud, Modification(added_ids=(top + 1, top + 2),
                                             added_coords=added)),
            ("interleaved", even, Modification(
                added_ids=(7, 2 * top - 3), added_coords=added,
                removed_ids={2 * int(near[0])}))]


@pytest.mark.parametrize("dim", [2, 3])
class TestEditedNodeState:
    """The node-point state of a modified cloud derived from the baseline's,
    against the state and the fields built from scratch."""

    def test_equals_the_state_built_from_scratch(self, rng, cfg, dim):
        mat = MaterialModel(100.0, 0.3,
                            mode="plane_stress" if dim == 2 else "solid_3d")
        for label, cloud, mod in _node_edits(rng, dim):
            initial = node_state(cloud, cfg)
            cloud_m, dm = apply_modification(cloud, mod)
            moved = changed_coords(changed_nodes(mod), cloud, cloud_m)
            got = edited_node_state(initial, cloud, cloud_m, moved, cfg)
            ref = node_state(cloud_m, cfg)
            for a, b in ((got.active, ref.active), (got.sup.ptr, ref.sup.ptr),
                         (got.sup.rows, ref.sup.rows), (got.grads, ref.grads),
                         (got.reach, ref.reach)):
                assert np.array_equal(a, b), label
            U = rng.standard_normal(dm.n_dofs)
            fields = fields_at_nodes(U, cloud_m, got, mat, dm)
            scratch = recover_fields(U, cloud_m, mat, cfg, dm)
            assert np.array_equal(fields.node_ids, scratch.node_ids)
            assert np.array_equal(fields.displacements, scratch.displacements)
            for name in ("strain", "stress"):
                a, b = getattr(fields, name), getattr(scratch, name)
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), label
            # a kept node with no changed node within its reach keeps its
            # row of the baseline's state, bit for bit
            ids_i, ids_m = np.sort(cloud.ids), np.sort(cloud_m.ids)
            X = cloud.coords[np.argsort(cloud.ids)]
            gap = np.linalg.norm(X[:, None] - moved[None], axis=2).min(axis=1)
            outside = np.flatnonzero((gap > initial.reach)
                                     & np.isin(ids_i, ids_m))
            assert 0 < len(outside) < len(ids_i) - len(moved), label
            at = np.searchsorted(ids_m, ids_i[outside])
            _, flat_i = initial.sup.entries(outside)
            _, flat_m = got.sup.entries(at)
            assert np.array_equal(cloud.ids[initial.sup.rows[flat_i]],
                                  cloud_m.ids[got.sup.rows[flat_m]]), label
            assert np.array_equal(initial.grads[flat_i], got.grads[flat_m])

    def test_reanalysis_fields_equal_the_fields_from_scratch(self, rng, cfg,
                                                             dim):
        """run_ifu's fields, recovered from the node-point state that
        prepare_modified derives, against recover_fields of the modified
        cloud from scratch at the same U."""
        mat = MaterialModel(100.0, 0.3,
                            mode="plane_stress" if dim == 2 else "solid_3d")
        for label, cloud, mod in _node_edits(rng, dim, ((9, 6), (5, 4, 4))
                                             [dim - 2]):
            base = full_analysis(cloud, grid_for(cloud, pad=0.2), mat,
                                 cantilever_bc(cloud))
            case = prepare_modified(base, mod)
            U, fields, _ = run_ifu(case)
            scratch = recover_fields(U, case.cloud_mod, mat, cfg,
                                     case.dof_map)
            assert np.array_equal(fields.displacements, scratch.displacements)
            for name in ("strain", "stress", "vm_strain", "vm_stress"):
                a, b = getattr(fields, name), getattr(scratch, name)
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), label

    def test_deficient_added_node_is_named(self, dim):
        """On a regular lattice at alpha = 0.7 every node's grown support is
        complete; a node added 0.3 from a lattice node has only that one
        within its grown ball.  It has the lowest id, so both the derived
        and the from-scratch state name it."""
        cfg = MeshlessConfig(alpha=0.7)
        rng = np.random.default_rng(0)
        cloud = (jittered_cloud(rng, 5, 5, jitter=0.0) if dim == 2
                 else jittered_cloud(rng, 4, 4, nz=4, jitter=0.0))
        cloud = NodeCloud(ids=cloud.ids + 100, coords=cloud.coords, dim=dim)
        initial = node_state(cloud, cfg)
        offset = np.r_[0.3, np.full(dim - 1, 0.1)]
        mod = Modification(added_ids=(7,), added_coords=[
            cloud.coords[len(cloud.ids) // 2] + offset])
        cloud_m, dm = apply_modification(cloud, mod)
        moved = changed_coords(changed_nodes(mod), cloud, cloud_m)
        with pytest.raises(SupportDeficiencyError) as err:
            edited_node_state(initial, cloud, cloud_m, moved, cfg)
        with pytest.raises(SupportDeficiencyError) as ref:
            recover_fields(np.zeros(dm.n_dofs), cloud_m,
                           MaterialModel(1.0, 0.3, mode=("plane_stress",
                                                         "solid_3d")[dim - 2]),
                           cfg, dm)
        assert str(err.value).endswith(" (at node 7)")
        assert str(err.value) == str(ref.value)
        assert np.array_equal(err.value.point, cloud_m.coord_of(7))


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
