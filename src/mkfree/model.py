"""Problem data model: node clouds, background grids, materials, boundary
conditions, modifications, and the union DOF bookkeeping.

All types are immutable after construction and can be shared freely.  The
union DOF space covers ``initial U modified`` nodes so that the initial and
modified stiffness matrices have one fixed size; DOFs absent from a
configuration decouple in :func:`mkfree.assembly.apply_bcs`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
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
    "validate_model",
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


def _reals(values, what: str) -> np.ndarray:
    """``values`` as a float array; ValidationError unless they are real
    numbers (a bool, a string or None is not) in a regular nesting."""
    with _malformed(what):
        arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValidationError(
            f"{what} must be real numbers, got {values!r:.80}")
    return arr.astype(float, copy=False)


def _finite(values, what: str) -> np.ndarray:
    """:func:`_reals` of ``values``; ValidationError unless all are finite."""
    arr = _reals(values, what)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be finite")
    return arr


@dataclass(frozen=True)
class NodeCloud:
    """Scattered nodes of one configuration: stable integer ids + coordinates.

    The rows are the nodes in ascending id order, whatever order they were
    given in, so row k of every per-node array is the node ``ids[k]``."""

    ids: np.ndarray        # (n,) int, ascending
    coords: np.ndarray     # (n, dim) float, row k at node ids[k]
    dim: int

    def __post_init__(self):
        ids = _integers(self.ids, "node id")
        coords = _finite(self.coords, "node coordinates")
        if self.dim not in (2, 3):
            raise ValidationError(f"dim must be 2 or 3, got {self.dim}")
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise ValidationError("coords must be (n, dim)")
        if len(ids) != len(coords):
            raise ValidationError("ids and coords length mismatch")
        order = np.argsort(ids)
        ids, coords = ids[order], coords[order]
        for name, a in (("ids", ids), ("coords", coords)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if np.any(ids[1:] == ids[:-1]):
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

    def has_node(self, node_id: int) -> bool:
        k = self.ids.searchsorted(node_id)
        return bool(k < len(self.ids) and self.ids[k] == node_id)


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
        if origin.shape != (len(counts),) or cell_size.shape != origin.shape:
            raise ValidationError("grid origin and cell_size need one entry "
                                  "per cell count")
        if np.any(cell_size <= 0):
            raise ValidationError("cell_size must be positive on every axis")
        if any(c <= 0 for c in counts):
            raise ValidationError("cell counts must be positive")

    @property
    def dim(self) -> int:
        return len(self.counts)

    @cached_property
    def gauss(self):
        """The 2^dim-point Gauss-Legendre rule of every cell, cells in
        row-major order: read-only positions (G, dim), weights (G,) --
        quadrature weight times jacobian, summing to each cell's measure --
        and the owning cell indices (G, dim).  Computed on first use."""
        d = self.dim
        cells = np.indices(self.counts).reshape(d, -1).T
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


@dataclass(frozen=True)
class MaterialModel:
    """Isotropic linear-elastic material."""

    young_modulus: float
    poisson_ratio: float
    mode: str = "plane_stress"   # "plane_stress" | "solid_3d"

    def __post_init__(self):
        for name in ("young_modulus", "poisson_ratio"):
            value = _finite(getattr(self, name), name)
            if value.ndim:
                raise ValidationError(f"{name} must be one number")
            object.__setattr__(self, name, float(value))
        if not self.young_modulus > 0.0:
            raise ValidationError("Young's modulus must be finite and > 0")
        if not (0.0 <= self.poisson_ratio < 0.5):
            raise ValidationError("Poisson ratio must satisfy 0 <= nu < 0.5")
        if self.mode not in ("plane_stress", "solid_3d"):
            raise ValidationError(f"unknown material mode {self.mode!r}")

    @property
    def dim(self) -> int:
        return 2 if self.mode == "plane_stress" else 3

    def validate_against(self, cloud: NodeCloud):
        if self.dim != cloud.dim:
            raise ValidationError("material mode does not match model dim")


@dataclass(frozen=True)
class Traction:
    """Uniform distributed load ``q`` along the straight segment start->end."""

    start: np.ndarray
    end: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        for name in ("start", "end", "q"):
            object.__setattr__(self, name, _reals(getattr(self, name),
                                                  f"traction {name}"))


@dataclass(frozen=True)
class BoundaryConditions:
    fixed_dofs: tuple = ()       # ((node_id, axis), ...)
    point_loads: tuple = ()      # ((node_id, axis, value), ...)
    tractions: tuple = ()        # (Traction, ...)

    def __post_init__(self):
        with _malformed("boundary conditions"):
            object.__setattr__(self, "fixed_dofs", tuple(
                (_integer(n, "fixed DOF node id"),
                 _integer(a, "fixed DOF axis")) for n, a in self.fixed_dofs))
            object.__setattr__(self, "point_loads", tuple(
                (_integer(n, "point load node id"),
                 _integer(a, "point load axis"), float(v))
                for n, a, v in self.point_loads))
        object.__setattr__(self, "tractions", tuple(self.tractions))
        # one check for every load number: cheaper than one per traction
        _finite(np.concatenate([[v for *_, v in self.point_loads]] + [
            a for t in self.tractions for a in (t.start, t.end, t.q)]),
            "point load and traction values")

    def validate_against(self, cloud: NodeCloud):
        for k, t in enumerate(self.tractions):
            if any(a.shape != (cloud.dim,) for a in (t.start, t.end, t.q)):
                raise ValidationError(f"traction {k}: start, end and q need "
                                      f"{cloud.dim} components each")
        fixed = set(self.fixed_dofs)
        for what, entries in (("fixed DOF", self.fixed_dofs),
                              ("point load", self.point_loads)):
            for node_id, axis, *_ in entries:
                if not cloud.has_node(node_id):
                    raise ValidationError(
                        f"{what} on node {node_id}, which the model does not "
                        f"hold; removing it needs a bc replacement")
                if not (0 <= axis < cloud.dim):
                    raise ValidationError(f"{what} axis {axis} out of range")
        for node_id, axis, _ in self.point_loads:
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
        object.__setattr__(self, "added_coords", _finite(
            self.added_coords, "added node coordinates"))
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
    a configuration carries (:meth:`carries`); a raw matrix leaves the
    others empty, and :func:`~mkfree.assembly.apply_bcs` decouples them."""

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


def identity_dof_map(cloud: NodeCloud) -> DofMap:
    """DofMap for a single configuration (it carries every DOF)."""
    return DofMap(node_ids=cloud.ids, dim=cloud.dim)


def validate_model(cloud: NodeCloud, grid: BackgroundGrid,
                   material: MaterialModel, bc: BoundaryConditions):
    """ValidationError unless the grid and the material have the cloud's
    dimension (:meth:`MaterialModel.validate_against`), every node lies in
    the grid to 1e-12 of its largest extent, and ``bc`` fits the cloud
    (:meth:`BoundaryConditions.validate_against`).  The one model check of
    files, ``full_analysis`` and the edited model of ``prepare_modified``."""
    if grid.dim != cloud.dim:
        raise ValidationError("grid dimensionality does not match model dim")
    material.validate_against(cloud)
    extent = np.asarray(grid.counts) * grid.cell_size
    off, pad = cloud.coords - grid.origin, 1e-12 * extent.max()
    outside = np.flatnonzero(((off < -pad) | (off > extent + pad)).any(axis=1))
    if len(outside):
        k = outside[0]
        raise ValidationError(f"node {cloud.ids[k]} at "
                              f"{cloud.coords[k].tolist()} lies outside the grid")
    bc.validate_against(cloud)


def apply_modification(cloud: NodeCloud, mod: Modification):
    """Apply a modification, returning the modified cloud and the union
    DofMap.  ValidationError for a removed id the cloud lacks, an added id
    it holds, or added coordinates of another width; whether the edited
    model is consistent is :func:`validate_model`'s."""
    removed = np.fromiter(mod.removed_ids, np.int64, len(mod.removed_ids))
    added = np.array(mod.added_ids, dtype=np.int64)
    unknown = removed[~np.isin(removed, cloud.ids)]
    if len(unknown):
        raise ValidationError(f"removed node {unknown[0]} does not exist")
    taken = added[np.isin(added, cloud.ids)]
    if len(taken):
        raise ValidationError(f"added node id {taken[0]} already exists")
    if mod.added_coords.size != len(mod.added_ids) * cloud.dim:
        raise ValidationError(
            f"added_coords need {cloud.dim} coordinates per added node")

    keep = ~np.isin(cloud.ids, removed)
    new_ids = np.concatenate([cloud.ids[keep], added])
    added_coords = mod.added_coords.reshape(len(mod.added_ids), cloud.dim)
    new_coords = np.vstack([cloud.coords[keep], added_coords])
    modified = NodeCloud(ids=new_ids, coords=new_coords, dim=cloud.dim)

    dof_map = DofMap(node_ids=np.union1d(cloud.ids, new_ids), dim=cloud.dim)
    return modified, dof_map


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _material_from_dict(d: dict, dim: int) -> MaterialModel:
    return MaterialModel(
        young_modulus=float(d["E"]), poisson_ratio=float(d["nu"]),
        mode=d.get("mode", "plane_stress" if dim == 2 else "solid_3d"))


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


def _read_json(path):
    """The JSON content of ``path``; text that does not parse is a
    ParseError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"cannot parse {path}: {exc}") from exc


@contextmanager
def _malformed(what: str):
    """Re-raise a missing key or a value of the wrong type or shape met in
    the block as a ValidationError naming ``what`` and the problem."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ValidationError(f"malformed {what}: {detail}") from exc


def _load_json(path, what: str, parse, *args):
    """Read ``path`` and build objects from it with ``parse(data, *args)``."""
    data = _read_json(path)
    with _malformed(what):
        return parse(data, *args)


def _parse_model_dict(data: dict):
    dim = _integer(data["dim"], "dim")
    nodes = data["nodes"]
    cloud = NodeCloud(ids=[n["id"] for n in nodes],
                      coords=np.asarray([n["x"] for n in nodes], dtype=float),
                      dim=dim)
    grid_d = data["grid"]
    grid = BackgroundGrid(origin=grid_d["origin"], cell_size=grid_d["cell_size"],
                          counts=grid_d["counts"])
    material = _material_from_dict(data["material"], dim)
    bc = _bc_from_dict(data.get("bc", {}))
    validate_model(cloud, grid, material, bc)
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
