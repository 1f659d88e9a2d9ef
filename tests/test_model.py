import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkfree import demos
from mkfree.config import MeshlessConfig
from mkfree.errors import ParseError, ValidationError
from mkfree.model import (BackgroundGrid, BoundaryConditions, MaterialModel,
                          Modification, NodeCloud, Traction,
                          apply_modification, identity_dof_map, load_model,
                          load_modification, model_to_dict,
                          modification_to_dict, validate_model)
from mkfree.pipeline import full_analysis, prepare_modified

from conftest import jittered_cloud


class TestNodeCloud:
    def test_basic(self):
        c = NodeCloud(ids=[3, 1], coords=[[0.0, 0.0], [1.0, 0.0]], dim=2)
        assert c.n_nodes == 2
        assert c.has_node(3) and not c.has_node(2)

    def test_rows_are_in_id_order(self):
        c = NodeCloud(ids=[3, 1, 2], coords=[[0, 0], [1, 0], [2, 0]], dim=2)
        assert c.ids.tolist() == [1, 2, 3]
        assert c.coords.tolist() == [[1, 0], [2, 0], [0, 0]]
        assert not c.ids.flags.writeable and not c.coords.flags.writeable

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError):
            NodeCloud(ids=[1, 1], coords=[[0, 0], [1, 0]], dim=2)

    def test_rejects_coincident_nodes(self):
        with pytest.raises(ValidationError):
            NodeCloud(ids=[1, 2], coords=[[0, 0], [0, 0]], dim=2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            NodeCloud(ids=[1, 2], coords=[[0, 0], [np.nan, 1]], dim=2)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValidationError):
            NodeCloud(ids=[1], coords=[[0.0]], dim=1)

    @pytest.mark.parametrize("ids", [[1, 2.7], np.array([1.0, 2.0]),
                                     ["1", "2"]])
    def test_rejects_ids_that_are_not_integers(self, ids):
        with pytest.raises(ValidationError, match="node id"):
            NodeCloud(ids=ids, coords=[[0, 0], [1, 0]], dim=2)


class TestBackgroundGrid:
    def test_cells_and_bounds(self):
        g = BackgroundGrid(origin=[0, 0], cell_size=[1, 2], counts=(2, 3))
        assert g.dim == 2
        assert len(np.unique(g.gauss[2], axis=0)) == 6

    @pytest.mark.parametrize("origin, cell_size, counts", [
        ([np.nan, 0], [1, 1], (2, 2)),
        ([0, 0], [np.inf, 1], (2, 2)),
        ([0, 0], [1, 1], (2, 2.5)),
    ], ids=["nan-origin", "inf-cell", "fractional-count"])
    def test_rejects_nonfinite_or_fractional(self, origin, cell_size, counts):
        with pytest.raises(ValidationError):
            BackgroundGrid(origin=origin, cell_size=cell_size, counts=counts)

    @pytest.mark.parametrize("origin, cell_size", [
        ([0, 0, 0], [1, 1]), ([0, 0], [0.125]), (0.0, [1, 1]),
    ], ids=["long-origin", "short-cell", "scalar-origin"])
    def test_origin_and_cell_size_need_one_entry_per_count(self, origin,
                                                           cell_size):
        with pytest.raises(ValidationError, match="one entry per cell count"):
            BackgroundGrid(origin=origin, cell_size=cell_size, counts=(2, 2))


def _scaled_plate(scale):
    """The 24 x 12 tension plate shifted by 1/3 and with every length
    scaled by ``scale``, so its edge nodes and its grid bounds are computed
    along different roundings."""
    cloud, grid, mat, bc = demos._tension_plate(24, 12, 1.0)
    cloud = NodeCloud(ids=cloud.ids, coords=(cloud.coords + 1 / 3) * scale,
                      dim=2)
    grid = BackgroundGrid(origin=(grid.origin + 1 / 3) * scale,
                          cell_size=grid.cell_size * scale,
                          counts=grid.counts)
    return cloud, grid, mat, bc


def _with_node(model, x):
    cloud, *rest = model
    new = int(cloud.ids.max()) + 1
    return (NodeCloud(ids=np.append(cloud.ids, new),
                      coords=np.vstack([cloud.coords, x]), dim=cloud.dim),
            *rest), new


class TestValidateModel:
    def test_refuses_a_node_outside_the_grid(self):
        cloud, grid, mat, bc, _ = demos.notch_fill()
        model, new = _with_node((cloud, grid, mat, bc), [5.0, 12.3])
        with pytest.raises(ValidationError, match=rf"node {new} at "
                           r"\[5.0, 12.3\] lies outside the grid"):
            validate_model(*model)

    @pytest.mark.parametrize("scale", [1e-3, 1e4])
    def test_tolerance_is_relative_to_the_grid(self, scale):
        """Nodes on the grid's edge are inside at any unit of length, even
        where roundoff puts them beyond it by more than 1e-12 (at 1e4, by
        1.5e-11); a node outside by 1e-9 of the grid is outside at any
        unit."""
        model = _scaled_plate(scale)
        cloud, grid = model[:2]
        hi = grid.origin + np.asarray(grid.counts) * grid.cell_size
        beyond = (cloud.coords - hi).max()
        assert beyond > 0.0     # roundoff: 1.7e-18 at 1e-3, 1.5e-11 at 1e4
        validate_model(*model)
        outside, new = _with_node(model, hi + [1e-9 * (hi - grid.origin)[0],
                                               0.0])
        with pytest.raises(ValidationError, match=f"node {new} at"):
            validate_model(*outside)


class TestMaterial:
    def test_validation(self):
        with pytest.raises(ValidationError):
            MaterialModel(young_modulus=-1.0, poisson_ratio=0.3)
        with pytest.raises(ValidationError):
            MaterialModel(young_modulus=1.0, poisson_ratio=0.5)
        assert MaterialModel(1.0, 0.0, "solid_3d").dim == 3

    @pytest.mark.parametrize("E", [np.inf, np.nan])
    def test_rejects_nonfinite_modulus(self, E):
        with pytest.raises(ValidationError):
            MaterialModel(young_modulus=E, poisson_ratio=0.3)


class TestMeshlessConfig:
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["alpha", "theta"])
    def test_rejects_values_that_are_not_finite_and_positive(self, name,
                                                             value):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            MeshlessConfig(**{name: value})

    @pytest.mark.parametrize("value", ["3", None, True, 0, [3.0]])
    @pytest.mark.parametrize("name", ["alpha", "theta"])
    def test_rejects_values_that_are_not_one_positive_real(self, name,
                                                           value):
        """A string, None, a bool, an int 0 or a list is a
        ValidationError, not a TypeError from the comparison (NaN, inf
        and 0.0 are in the test above)."""
        with pytest.raises(ValidationError, match=name):
            MeshlessConfig(**{name: value})

    def test_stores_floats(self):
        cfg = MeshlessConfig(alpha=2, theta=np.float32(0.5))
        assert type(cfg.alpha) is float and type(cfg.theta) is float
        assert (cfg.alpha, cfg.theta) == (2.0, 0.5)


class TestBoundaryConditions:
    def test_validate_against(self):
        cloud = NodeCloud(ids=[0, 1], coords=[[0, 0], [1, 0]], dim=2)
        BoundaryConditions(fixed_dofs=((0, 0),),
                           point_loads=((1, 1, -2.0),)).validate_against(cloud)
        with pytest.raises(ValidationError):
            BoundaryConditions(fixed_dofs=((7, 0),)).validate_against(cloud)
        with pytest.raises(ValidationError):
            BoundaryConditions(fixed_dofs=((0, 2),)).validate_against(cloud)
        with pytest.raises(ValidationError):
            BoundaryConditions(fixed_dofs=((0, 0),),
                               point_loads=((0, 0, 1.0),)
                               ).validate_against(cloud)

    @pytest.mark.parametrize("kwargs", [
        {"fixed_dofs": ((0.9, 0),)},
        {"fixed_dofs": ((0, 1.5),)},
        {"point_loads": (("1", 1, 2.0),)},
        {"point_loads": ((1, 1.0, 2.0),)},
    ], ids=["fixed-node", "fixed-axis", "load-node", "load-axis"])
    def test_rejects_ids_and_axes_that_are_not_integers(self, kwargs):
        with pytest.raises(ValidationError, match="must be an integer"):
            BoundaryConditions(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"point_loads": ((1, 1, np.nan),)},
        {"tractions": (Traction(start=[0, 0], end=[0, 1], q=[np.inf, 0]),)},
        {"tractions": (Traction(start=[0, np.nan], end=[0, 1], q=[1, 0]),)},
    ], ids=["load", "traction-q", "traction-start"])
    def test_rejects_nonfinite_loads(self, kwargs):
        with pytest.raises(ValidationError, match="must be finite"):
            BoundaryConditions(**kwargs)


class TestModification:
    def test_flags(self):
        assert not Modification().changes_nodes
        m = Modification(removed_ids={4})
        assert m.changes_nodes
        m2 = Modification(material_change=MaterialModel(1.0, 0.2))
        assert not m2.changes_nodes

    def test_rejects_overlap(self):
        with pytest.raises(ValidationError):
            Modification(added_ids=(1,), added_coords=[[0, 0]],
                         removed_ids={1})

    @pytest.mark.parametrize("removed", ["400", [400, 4.9], [400, 4.0],
                                         [400, True]],
                             ids=["string", "fraction", "float", "bool"])
    def test_rejects_removed_ids_that_are_not_integers(self, removed):
        with pytest.raises(ValidationError, match="removed node id"):
            Modification(removed_ids=removed)

    def test_rejects_added_id_that_is_not_an_integer(self):
        with pytest.raises(ValidationError, match="added node id"):
            Modification(added_ids=(2.5,), added_coords=[[0, 0]])

    def test_integer_ids_of_any_integer_type_are_kept(self):
        m = Modification(added_ids=np.array([7], dtype=np.int32),
                         added_coords=[[0, 0]],
                         removed_ids=np.array([3, 5]))
        assert m.added_ids == (7,) and m.removed_ids == {3, 5}


class TestApplyModification:
    def _cloud(self):
        return NodeCloud(ids=[0, 1, 2], coords=[[0, 0], [1, 0], [2, 0]],
                         dim=2)

    def test_remove_and_add(self):
        mod = Modification(added_ids=(9,), added_coords=[[3.0, 0.0]],
                           removed_ids={1})
        cloud2, dm = apply_modification(self._cloud(), mod)
        assert sorted(cloud2.ids.tolist()) == [0, 2, 9]
        assert dm.node_ids.tolist() == [0, 1, 2, 9]
        assert dm.n_dofs == 8
        # the modified cloud drops the removed node and carries the added one
        carried = dm.carries(cloud2)
        assert not carried[dm.dof(1, 0)]
        assert carried[dm.dof(9, 1)]
        assert carried[dm.dof(0, 0)]

    def test_remove_loaded_node_requires_bc_change(self, small_model):
        """The edited model is checked as a model file is
        (:func:`validate_model`, in prepare_modified): removing a node
        that carries a point load is refused unless the edit replaces the
        boundary conditions."""
        bc = small_model[3]
        loaded = bc.point_loads[0][0]
        base = full_analysis(*small_model)
        with pytest.raises(ValidationError, match=f"point load on node "
                           f"{loaded}, which the model does not hold"):
            prepare_modified(base, Modification(removed_ids={loaded}))
        kept = BoundaryConditions(fixed_dofs=bc.fixed_dofs,
                                  point_loads=bc.point_loads[1:])
        case = prepare_modified(base, Modification(removed_ids={loaded},
                                                   bc_change=kept))
        assert not case.cloud_mod.has_node(loaded)

    def test_unknown_ids_rejected(self):
        with pytest.raises(ValidationError):
            apply_modification(self._cloud(), Modification(removed_ids={8}))
        with pytest.raises(ValidationError):
            apply_modification(
                self._cloud(),
                Modification(added_ids=(2,), added_coords=[[5.0, 5.0]]))

    def test_added_coords_of_the_wrong_width_rejected(self):
        cloud, *_ = demos.l_frame_3d()
        with pytest.raises(ValidationError, match="3 coordinates"):
            apply_modification(cloud, Modification(
                added_ids=(10 ** 6,), added_coords=[[1.5, 1.5]]))
        # the default empty addition is (0, 2) and fits any cloud
        cloud_m, _ = apply_modification(cloud, Modification(removed_ids={0}))
        assert cloud_m.n_nodes == cloud.n_nodes - 1


class TestDofMap:
    def test_identity_map_sorted(self, rng):
        cloud = jittered_cloud(rng, 4, 3)
        dm = identity_dof_map(cloud)
        assert np.all(np.diff(dm.node_ids) > 0)
        assert dm.dof(dm.node_ids[0], 1) == 1
        assert dm.dof(dm.node_ids[2], 1) == 5

    def test_dofs_of_rejects_unknown_id(self):
        dm = identity_dof_map(NodeCloud(
            ids=[2, 5, 9], coords=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            dim=2))
        assert dm.dofs_of([9, 2]).tolist() == [4, 5, 0, 1]
        for unknown in ([3], [2, 10], [-1], [11]):
            with pytest.raises(ValidationError):
                dm.dofs_of(unknown)
        with pytest.raises(ValidationError):
            dm.dof(4, 0)

    @given(st.sets(st.integers(0, 50), min_size=2, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_dofs_of_matches_dof(self, id_set):
        ids = sorted(id_set)
        dm = identity_dof_map(NodeCloud(
            ids=np.array(ids),
            coords=np.column_stack([np.arange(len(ids), dtype=float),
                                    np.zeros(len(ids))]),
            dim=2))
        flat = dm.dofs_of(ids)
        expect = [dm.dof(i, a) for i in ids for a in (0, 1)]
        assert flat.tolist() == expect


class TestJsonRoundTrip:
    def test_model_roundtrip(self, tmp_path, small_model):
        cloud, grid, mat, bc = small_model
        bc = BoundaryConditions(
            fixed_dofs=bc.fixed_dofs, point_loads=bc.point_loads,
            tractions=(Traction(start=[0.0, 0.0], end=[1.0, 0.0],
                                q=[0.0, -2.0]),))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model_to_dict(cloud, grid, mat, bc)))
        c2, g2, m2, b2 = load_model(path)
        assert np.allclose(c2.coords, cloud.coords[np.argsort(cloud.ids)]) \
            or np.allclose(c2.coords, cloud.coords)
        assert np.array_equal(c2.ids, cloud.ids)
        assert g2.counts == grid.counts
        assert m2 == mat
        assert b2.fixed_dofs == bc.fixed_dofs
        assert b2.point_loads == bc.point_loads
        assert np.allclose(b2.tractions[0].q, [0.0, -2.0])

    def test_modification_roundtrip(self, tmp_path):
        mod = Modification(added_ids=(10, 11),
                           added_coords=[[0.5, 0.5], [1.5, 0.5]],
                           removed_ids={3},
                           material_change=MaterialModel(5.0, 0.25))
        path = tmp_path / "mod.json"
        path.write_text(json.dumps(modification_to_dict(mod)))
        m2 = load_modification(path, dim=2)
        assert m2.added_ids == mod.added_ids
        assert np.allclose(m2.added_coords, mod.added_coords)
        assert m2.removed_ids == mod.removed_ids
        assert m2.material_change == mod.material_change

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_model(bad)
        with pytest.raises(ParseError):
            load_modification(bad, dim=2)

    @pytest.mark.parametrize("key, value, match", [
        ("grid", {"origin": [0, 0, 0], "cell_size": [1, 1, 1],
                  "counts": [2, 2, 2]}, "grid dimensionality"),
        ("material", {"E": 100.0, "nu": 0.3, "mode": "solid_3d"},
         "material mode"),
    ])
    def test_dimension_mismatch_is_validation_error(self, tmp_path,
                                                    small_model, key, value,
                                                    match):
        data = model_to_dict(*small_model)
        data[key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=match):
            load_model(path)

    def test_malformed_model_is_validation_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 2}))
        with pytest.raises(ValidationError):
            load_model(path)
