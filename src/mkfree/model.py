"""Problem data model: node clouds, background grids, materials, boundary
conditions, modifications, and the union DOF bookkeeping.

All types are immutable after construction and can be shared freely.  The
union DOF space covers ``initial U modified`` nodes so that the initial and
modified stiffness matrices have one fixed size; DOFs absent from a
configuration decouple through a unit diagonal and a zero load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .errors import ParseError, ValidationError

_GL = 1.0 / np.sqrt(3.0)   # 2-point Gauss-Legendre abscissae on [-1, 1]

__all__ = [
    "NodeCloud",
    "BackgroundGrid",
    "MaterialModel",
    "Traction",
    "BoundaryConditions",
    "Modification",
    "DofMap",
    "load_model",
    "load_modification",
    "model_to_dict",
    "modification_to_dict",
    "apply_modification",
]


def _integer(value, what: str) -> int:
    """``value`` as an int; ValidationError unless it is an integer (a
    bool, a float such as 4.9 or 4.0, or a string is not)."""
    if type(value) is int or isinstance(value, np.integer):
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _integers(values, what: str) -> np.ndarray:
    """:func:`_integer` of each value (a string is one value), as int64."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return np.asarray(values, dtype=np.int64)
    values = [values] if isinstance(values, str) else values
    return np.array([_integer(v, what) for v in values], dtype=np.int64)


def _finite(values, what: str) -> np.ndarray:
    """``values`` as a float array; ValidationError unless all are finite."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be finite")
    return arr


@dataclass(frozen=True)
class NodeCloud:
    """Scattered nodes of one configuration: stable integer ids + coordinates."""

    ids: np.ndarray        # (n,) int
    coords: np.ndarray     # (n, dim) float
    dim: int

    def __post_init__(self):
        ids = _integers(self.ids, "node id")
        coords = _finite(self.coords, "node coordinates")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "coords", coords)
        if self.dim not in (2, 3):
            raise ValidationError(f"dim must be 2 or 3, got {self.dim}")
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise ValidationError("coords must be (n, dim)")
        if len(ids) != len(coords):
            raise ValidationError("ids and coords length mismatch")
        if len(np.unique(ids)) != len(ids):
            raise ValidationError("node ids must be unique")
        if len(coords) >= 2:
            d, _ = self.tree.query(coords, k=2)
            if np.min(d[:, 1]) <= 0.0:
                raise ValidationError("coincident nodes detected")

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @cached_property
    def tree(self) -> cKDTree:
        return cKDTree(self.coords)

    @cached_property
    def id_to_row(self) -> dict:
        return {int(i): k for k, i in enumerate(self.ids)}

    def coord_of(self, node_id: int) -> np.ndarray:
        return self.coords[self.id_to_row[int(node_id)]]

    def has_node(self, node_id: int) -> bool:
        return int(node_id) in self.id_to_row


@dataclass(frozen=True)
class BackgroundGrid:
    """Axis-aligned quadrature cell structure, independent of the nodes."""

    origin: np.ndarray      # (dim,)
    cell_size: np.ndarray   # (dim,)
    counts: tuple           # (dim,) ints

    def __post_init__(self):
        origin = _finite(self.origin, "grid origin")
        cell_size = _finite(self.cell_size, "grid cell_size")
        counts = tuple(_integer(c, "grid count") for c in self.counts)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "cell_size", cell_size)
        object.__setattr__(self, "counts", counts)
        if np.any(cell_size <= 0):
            raise ValidationError("cell_size must be positive on every axis")
        if any(c <= 0 for c in counts):
            raise ValidationError("cell counts must be positive")

    @property
    def dim(self) -> int:
        return len(self.counts)

    def cells(self):
        """Every cell index, in row-major order."""
        return list(np.ndindex(*self.counts))

    @cached_property
    def gauss(self):
        """The 2^dim-point Gauss-Legendre rule of every cell, cells in
        row-major order: read-only positions (G, dim), weights (G,) --
        quadrature weight times jacobian, summing to each cell's measure --
        and the owning cell indices (G, dim).  Computed on first use."""
        d = self.dim
        cells = np.array(self.cells(), dtype=np.int64).reshape(-1, d)
        lo = self.origin + cells * self.cell_size
        hi = lo + self.cell_size
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        signs = 2.0 * np.array(list(np.ndindex(*(2,) * d)), dtype=float) - 1.0
        positions = center[:, None, :] + signs[None, :, :] * _GL * half[:, None, :]
        measure = hi[:, 0] - lo[:, 0]
        for k in range(1, d):
            measure = measure * (hi[:, k] - lo[:, k])
        weights = np.repeat(measure / 2 ** d, 2 ** d)
        cells = np.repeat(cells, 2 ** d, axis=0)
        out = (positions.reshape(-1, d), weights, cells)
        for a in out:
            a.flags.writeable = False
        return out

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        hi = self.origin + np.asarray(self.counts) * self.cell_size
        return bool(np.all(p >= self.origin - 1e-12) and np.all(p <= hi + 1e-12))


@dataclass(frozen=True)
class MaterialModel:
    """Isotropic linear-elastic material."""

    young_modulus: float
    poisson_ratio: float
    mode: str = "plane_stress"   # "plane_stress" | "solid_3d"

    def __post_init__(self):
        if not (0.0 < self.young_modulus < np.inf):
            raise ValidationError("Young's modulus must be finite and > 0")
        if not (0.0 <= self.poisson_ratio < 0.5):
            raise ValidationError("Poisson ratio must satisfy 0 <= nu < 0.5")
        if self.mode not in ("plane_stress", "solid_3d"):
            raise ValidationError(f"unknown material mode {self.mode!r}")

    @property
    def dim(self) -> int:
        return 2 if self.mode == "plane_stress" else 3


@dataclass(frozen=True)
class Traction:
    """Uniform distributed load ``q`` along the straight segment start->end."""

    start: np.ndarray
    end: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        for name in ("start", "end", "q"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass(frozen=True)
class BoundaryConditions:
    fixed_dofs: tuple = ()       # ((node_id, axis), ...)
    point_loads: tuple = ()      # ((node_id, axis, value), ...)
    tractions: tuple = ()        # (Traction, ...)

    def __post_init__(self):
        object.__setattr__(self, "fixed_dofs", tuple(
            (_integer(n, "fixed DOF node id"), _integer(a, "fixed DOF axis"))
            for n, a in self.fixed_dofs))
        object.__setattr__(self, "point_loads", tuple(
            (_integer(n, "point load node id"), _integer(a, "point load axis"),
             float(v)) for n, a, v in self.point_loads))
        object.__setattr__(self, "tractions", tuple(self.tractions))
        # one check for every load number: cheaper than one per traction
        _finite(np.concatenate([[v for *_, v in self.point_loads]] + [
            a for t in self.tractions for a in (t.start, t.end, t.q)]),
            "point load and traction values")

    def validate_against(self, cloud: NodeCloud):
        fixed = set(self.fixed_dofs)
        for node_id, axis in self.fixed_dofs:
            if not cloud.has_node(node_id):
                raise ValidationError(f"fixed DOF references unknown node {node_id}")
            if not (0 <= axis < cloud.dim):
                raise ValidationError(f"fixed DOF axis {axis} out of range")
        for node_id, axis, _ in self.point_loads:
            if not cloud.has_node(node_id):
                raise ValidationError(f"point load references unknown node {node_id}")
            if not (0 <= axis < cloud.dim):
                raise ValidationError(f"point load axis {axis} out of range")
            if (node_id, axis) in fixed:
                raise ValidationError(
                    f"DOF (node {node_id}, axis {axis}) is both fixed and loaded"
                )


@dataclass(frozen=True)
class Modification:
    """A local redesign: added nodes, removed nodes, and optional material or
    boundary-condition replacement."""

    added_ids: tuple = ()
    added_coords: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    removed_ids: frozenset = frozenset()
    material_change: MaterialModel | None = None
    bc_change: BoundaryConditions | None = None

    def __post_init__(self):
        object.__setattr__(self, "added_ids", tuple(
            _integers(self.added_ids, "added node id").tolist()))
        object.__setattr__(
            self, "added_coords", np.asarray(self.added_coords, dtype=float)
        )
        object.__setattr__(self, "removed_ids", frozenset(
            _integers(self.removed_ids, "removed node id").tolist()))
        if set(self.added_ids) & self.removed_ids:
            raise ValidationError("added and removed node sets overlap")
        if len(self.added_ids) != len(self.added_coords):
            raise ValidationError("added_ids and added_coords length mismatch")

    @property
    def changes_nodes(self) -> bool:
        return bool(self.added_ids) or bool(self.removed_ids)


@dataclass(frozen=True)
class DofMap:
    """Deterministic DOF ordering over the union of initial and modified
    node sets: sorted by node id, then axis.  It alone decides which DOFs
    a configuration carries; the others decouple through
    :meth:`absent_unit` and a zero load."""

    node_ids: np.ndarray       # sorted union, (N,)
    dim: int

    @property
    def n_dofs(self) -> int:
        return len(self.node_ids) * self.dim

    def positions(self, node_ids) -> np.ndarray:
        """Position of each node id in ``node_ids`` order; ValidationError
        for an id not in the map."""
        ids = np.asarray(node_ids, dtype=np.int64).ravel()
        pos = np.searchsorted(self.node_ids, ids)
        found = pos < len(self.node_ids)
        found[found] = self.node_ids[pos[found]] == ids[found]
        if not found.all():
            raise ValidationError(
                f"node {int(ids[~found][0])} is not in the DOF map")
        return pos

    def dof(self, node_id: int, axis: int) -> int:
        return int(self.positions(node_id)[0]) * self.dim + axis

    def dofs_of(self, node_ids) -> np.ndarray:
        pos = self.positions(node_ids)
        return (pos[:, None] * self.dim + np.arange(self.dim)[None, :]).ravel()

    def carries(self, cloud: NodeCloud) -> np.ndarray:
        """(n_dofs,) bool: the DOFs of the map's nodes that ``cloud`` holds."""
        return np.repeat(np.isin(self.node_ids, cloud.ids), self.dim)

    def absent_unit(self, cloud: NodeCloud) -> sp.csr_matrix:
        """Unit diagonal on the DOFs ``cloud`` does not carry, zero
        elsewhere: the term that decouples them on the union space."""
        absent = np.flatnonzero(~self.carries(cloud))
        return sp.csr_matrix((np.ones(len(absent)), (absent, absent)),
                             shape=(self.n_dofs, self.n_dofs))


def identity_dof_map(cloud: NodeCloud) -> DofMap:
    """DofMap for a single configuration (it carries every DOF)."""
    return DofMap(node_ids=np.sort(cloud.ids), dim=cloud.dim)


def apply_modification(cloud: NodeCloud, mod: Modification,
                       bc: BoundaryConditions | None = None):
    """Apply a modification, returning the modified cloud and the union DofMap.

    ``bc`` is the initial boundary conditions; removing a node that carries a
    fixed DOF or point load is rejected unless the modification replaces the
    boundary conditions.
    """
    for nid in mod.removed_ids:
        if not cloud.has_node(nid):
            raise ValidationError(f"removed node {nid} does not exist")
    for nid in mod.added_ids:
        if cloud.has_node(nid):
            raise ValidationError(f"added node id {nid} already exists")
    if bc is not None and mod.bc_change is None and mod.removed_ids:
        for node_id, axis in bc.fixed_dofs:
            if node_id in mod.removed_ids:
                raise ValidationError(
                    f"node {node_id} carries a fixed DOF; removal requires bc_change"
                )
        for node_id, axis, _ in bc.point_loads:
            if node_id in mod.removed_ids:
                raise ValidationError(
                    f"node {node_id} carries a point load; removal requires bc_change"
                )

    keep = ~np.isin(cloud.ids, list(mod.removed_ids)) if mod.removed_ids \
        else np.ones(cloud.n_nodes, dtype=bool)
    new_ids = np.concatenate([cloud.ids[keep], np.asarray(mod.added_ids, dtype=np.int64)])
    added_coords = mod.added_coords.reshape(len(mod.added_ids), cloud.dim)
    new_coords = np.vstack([cloud.coords[keep], added_coords])
    modified = NodeCloud(ids=new_ids, coords=new_coords, dim=cloud.dim)

    dof_map = DofMap(node_ids=np.union1d(cloud.ids, new_ids), dim=cloud.dim)
    return modified, dof_map


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _material_from_dict(d: dict, dim: int) -> MaterialModel:
    material = MaterialModel(
        young_modulus=float(d["E"]), poisson_ratio=float(d["nu"]),
        mode=d.get("mode", "plane_stress" if dim == 2 else "solid_3d"))
    if material.dim != dim:
        raise ValidationError("material mode does not match model dim")
    return material


def _material_to_dict(m: MaterialModel) -> dict:
    return {"E": m.young_modulus, "nu": m.poisson_ratio, "mode": m.mode}


def _bc_from_dict(d: dict) -> BoundaryConditions:
    return BoundaryConditions(
        fixed_dofs=tuple((n, a) for n, a in d.get("fixed", [])),
        point_loads=tuple((n, a, v) for n, a, v in d.get("point_loads", [])),
        tractions=tuple(Traction(start=t["from"], end=t["to"], q=t["q"])
                        for t in d.get("tractions", [])),
    )


def _bc_to_dict(bc: BoundaryConditions) -> dict:
    return {
        "fixed": [[n, a] for n, a in bc.fixed_dofs],
        "point_loads": [[n, a, v] for n, a, v in bc.point_loads],
        "tractions": [
            {"from": list(map(float, t.start)), "to": list(map(float, t.end)),
             "q": list(map(float, t.q))}
            for t in bc.tractions
        ],
    }


def _load_json(path, what: str, parse, *args):
    """Read ``path`` and build objects from it with ``parse(data, *args)``.

    Unreadable JSON is a ParseError; a missing key or a value of the wrong
    type or shape is a ValidationError naming the problem.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"cannot parse {path}: {exc}") from exc
    try:
        return parse(data, *args)
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ValidationError(f"malformed {what}: {detail}") from exc


def _parse_model_dict(data: dict):
    dim = _integer(data["dim"], "dim")
    nodes = data["nodes"]
    cloud = NodeCloud(ids=[n["id"] for n in nodes],
                      coords=np.asarray([n["x"] for n in nodes], dtype=float),
                      dim=dim)
    grid_d = data["grid"]
    grid = BackgroundGrid(origin=grid_d["origin"], cell_size=grid_d["cell_size"],
                          counts=grid_d["counts"])
    if grid.dim != dim:
        raise ValidationError("grid dimensionality does not match model dim")
    material = _material_from_dict(data["material"], dim)
    bc = _bc_from_dict(data.get("bc", {}))
    bc.validate_against(cloud)
    return cloud, grid, material, bc


def load_model(path):
    """Load and validate a model JSON file."""
    return _load_json(path, "model file", _parse_model_dict)


def model_to_dict(cloud: NodeCloud, grid: BackgroundGrid, material: MaterialModel,
                  bc: BoundaryConditions) -> dict:
    return {
        "dim": cloud.dim,
        "nodes": [{"id": int(i), "x": list(map(float, x))}
                  for i, x in zip(cloud.ids, cloud.coords)],
        "grid": {
            "origin": list(map(float, grid.origin)),
            "cell_size": list(map(float, grid.cell_size)),
            "counts": list(grid.counts),
        },
        "material": _material_to_dict(material),
        "bc": _bc_to_dict(bc),
    }


def _parse_modification_dict(data: dict, dim: int) -> Modification:
    added = data.get("add", [])
    material = None
    if data.get("material") is not None:
        material = _material_from_dict(data["material"], dim)
    bc = None
    if data.get("bc") is not None:
        bc = _bc_from_dict(data["bc"])
    return Modification(
        added_ids=tuple(n["id"] for n in added),
        added_coords=np.asarray([n["x"] for n in added], dtype=float).reshape(
            len(added), dim),
        removed_ids=frozenset(data.get("remove", [])),
        material_change=material,
        bc_change=bc,
    )


def load_modification(path, dim: int) -> Modification:
    return _load_json(path, "modification file", _parse_modification_dict,
                      dim)


def modification_to_dict(mod: Modification) -> dict:
    out = {
        "add": [{"id": int(i), "x": list(map(float, x))}
                for i, x in zip(mod.added_ids, mod.added_coords)],
        "remove": sorted(mod.removed_ids),
    }
    if mod.material_change is not None:
        out["material"] = _material_to_dict(mod.material_change)
    if mod.bc_change is not None:
        out["bc"] = _bc_to_dict(mod.bc_change)
    return out
