"""Bundled demo models and modifications.

Desk-scale stand-ins for the validation problems: a uniform-tension patch,
the 33x9 cantilever with its closed-form tip deflection, a plate whose
modification carves out an elliptical hole (~1/3 of the DOFs), a notched
plate whose modification adds a fillet of nodes, a coarse 3D L-frame, and
parameterized plate families for benchmarking.
"""

from __future__ import annotations

import numpy as np

from .config import MeshlessConfig
from .errors import ValidationError
from .model import (BackgroundGrid, BoundaryConditions, MaterialModel,
                    Modification, NodeCloud, Traction, _integer,
                    _malformed)

__all__ = [
    "split_edge",
    "patch",
    "PATCH_CONFIG",
    "cantilever",
    "cantilever_tip_deflection",
    "plate_with_hole",
    "notch_fill",
    "l_frame_3d",
    "bench_case",
    "default_bench_family",
    "DEMO_BUILDERS",
]


def split_edge(start, end, n_segments: int, q) -> tuple:
    """Uniform traction q along start->end as n per-segment tractions, so
    the 2-point per-segment line quadrature stays accurate."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    pts = [start + (end - start) * t for t in np.linspace(0.0, 1.0, n_segments + 1)]
    return tuple(Traction(start=a, end=b, q=q) for a, b in zip(pts[:-1], pts[1:]))


def _grid_nodes(nx: int, ny: int, pitch: float, x0: float = 0.0, y0: float = 0.0):
    xs = x0 + pitch * np.arange(nx)
    ys = y0 + pitch * np.arange(ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    coords = np.column_stack([X.ravel(), Y.ravel()])
    return np.arange(len(coords)), coords


def _rect_grid(width: float, height: float, cell: float, origin=(0.0, 0.0)):
    counts = (int(round(width / cell)), int(round(height / cell)))
    return BackgroundGrid(origin=np.asarray(origin, dtype=float),
                          cell_size=np.array([cell, cell]), counts=counts)


# The patch is integrated with a support covering the whole patch: the
# shape functions then form one globally smooth family, so the quadrature
# error converges ~h^4 and the constant-stress state is recovered sharply.
PATCH_CONFIG = MeshlessConfig(alpha=8.0)


def patch(nx: int = 5, ny: int = 5, pitch: float = 1.0, q: float = 1.0,
          refine: int = 8):
    """Uniform-tension patch: sigma_xx = q, sigma_yy = tau_xy = 0.

    The load is self-equilibrated (equal and opposite tractions on the two
    vertical edges, split per-cell for the line quadrature) and only the
    three rigid-body DOFs are pinned, at points where the exact field is
    zero -- the reactions vanish, so no consistency error enters through
    the supports.  Run with :data:`PATCH_CONFIG`; ``refine`` subdivides
    each nodal pitch into quadrature cells.
    """
    ids, coords = _grid_nodes(nx, ny, pitch)
    cloud = NodeCloud(ids=ids, coords=coords, dim=2)
    W, H = pitch * (nx - 1), pitch * (ny - 1)
    grid = _rect_grid(W, H, pitch / refine)
    mat = MaterialModel(young_modulus=1000.0, poisson_ratio=0.3)
    origin = [int(i) for i, x in zip(ids, coords)
              if x[0] == 0.0 and x[1] == 0.0][0]
    right0 = [int(i) for i, x in zip(ids, coords)
              if x[0] == W and x[1] == 0.0][0]
    nseg = (ny - 1) * refine
    bc = BoundaryConditions(
        fixed_dofs=((origin, 0), (origin, 1), (right0, 1)),
        tractions=(split_edge([W, 0.0], [W, H], nseg, [q, 0.0])
                   + split_edge([0.0, H], [0.0, 0.0], nseg, [-q, 0.0])),
    )
    return cloud, grid, mat, bc


# classic thin cantilever under end shear (plane stress)
_CANTILEVER = dict(L=48.0, D=12.0, E=3.0e7, nu=0.3, P=1000.0)


def cantilever_tip_deflection() -> float:
    """Closed-form downward tip deflection of the end-loaded cantilever:
    bending PL^3/(3EI) plus the shear correction P(4+5nu)D^2L/(24EI)."""
    L, D, E, nu, P = (_CANTILEVER[k] for k in ("L", "D", "E", "nu", "P"))
    I = D ** 3 / 12.0
    return (P * L ** 3 / (3.0 * E * I)
            + P * (4.0 + 5.0 * nu) * D ** 2 * L / (24.0 * E * I))


def cantilever(nx: int = 33, ny: int = 9, refine: int = 2):
    """The 33x9 cantilever: x in [0, L], y in [-D/2, D/2].

    The x-displacement of the root edge and the y-displacement of the root
    centroid are fixed (the exact field is ~zero there); the end shear is
    applied as Simpson-weighted nodal loads of the parabolic traction, which
    reproduces both the resultant and its moment exactly.
    """
    L, D, E, nu, P = (_CANTILEVER[k] for k in ("L", "D", "E", "nu", "P"))
    px, py = L / (nx - 1), D / (ny - 1)
    xs = px * np.arange(nx)
    ys = -D / 2.0 + py * np.arange(ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    coords = np.column_stack([X.ravel(), Y.ravel()])
    ids = np.arange(len(coords))
    cloud = NodeCloud(ids=ids, coords=coords, dim=2)
    grid = BackgroundGrid(origin=np.array([0.0, -D / 2.0]),
                          cell_size=np.array([px / refine, py / refine]),
                          counts=((nx - 1) * refine, (ny - 1) * refine))
    mat = MaterialModel(young_modulus=E, poisson_ratio=nu)

    root = [int(i) for i, x in zip(ids, coords) if x[0] == 0.0]
    centroid = [i for i in root if coords[i][1] == 0.0][0]
    fixed = tuple((i, 0) for i in root) + ((centroid, 1),)

    # Simpson weights are exact for the parabolic shear profile
    if ny % 2 == 0:
        raise ValidationError("cantilever needs an odd node count across depth")
    w = np.ones(ny)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= py / 3.0
    I = D ** 3 / 12.0
    tau = P / (2.0 * I) * (D ** 2 / 4.0 - ys ** 2)
    tip = [int(i) for i, x in zip(ids, coords) if x[0] == L]
    loads = tuple((i, 1, float(-w[k] * tau[k]))
                  for k, i in enumerate(sorted(tip, key=lambda i: coords[i][1])))
    bc = BoundaryConditions(fixed_dofs=fixed, point_loads=loads)
    tip_node = [i for i in tip if coords[i][1] == 0.0][0]
    return cloud, grid, mat, bc, tip_node


def _tension_plate(nx: int, ny: int, pitch: float, keep=None,
                   top: float | None = None):
    """The nx x ny grid plate (only the nodes where ``keep(coords)`` holds,
    if given) on one-pitch cells: the left edge is clamped and a unit
    x-traction pulls the right edge from y = 0 up to ``top`` (default: the
    full height).  Returns (cloud, grid, mat, bc)."""
    ids, coords = _grid_nodes(nx, ny, pitch)
    if keep is not None:
        sel = keep(coords)
        ids, coords = ids[sel], coords[sel]
    W, H = pitch * (nx - 1), pitch * (ny - 1)
    top = H if top is None else top
    left = ids[coords[:, 0] == 0.0]
    bc = BoundaryConditions(
        fixed_dofs=tuple((int(i), a) for i in left for a in (0, 1)),
        tractions=split_edge([W, 0.0], [W, top], int(round(top / pitch)),
                             [1.0, 0.0]),
    )
    return (NodeCloud(ids=ids, coords=coords, dim=2), _rect_grid(W, H, pitch),
            MaterialModel(young_modulus=1000.0, poisson_ratio=0.3), bc)


def _cut_plate(nx: int, ny: int, pitch: float, inside):
    """The full tension plate and the modification that removes the nodes
    for which ``inside(dx, dy)`` holds, dx and dy being the node offsets
    from the plate center."""
    cloud, grid, mat, bc = _tension_plate(nx, ny, pitch)
    cx, cy = pitch * (nx - 1) / 2.0, pitch * (ny - 1) / 2.0
    sel = inside(cloud.coords[:, 0] - cx, cloud.coords[:, 1] - cy)
    mod = Modification(removed_ids=cloud.ids[sel])
    return cloud, grid, mat, bc, mod


def _ellipse(a: float, b: float):
    return lambda dx, dy: (dx / a) ** 2 + (dy / b) ** 2 < 1.0


def plate_with_hole(nx: int = 51, ny: int = 26, pitch: float = 2.0,
                    a: float = 36.0, b: float = 16.0):
    """Tension plate whose modification removes an elliptical region
    (roughly a third of the DOFs): the large-redesign demo."""
    return _cut_plate(nx, ny, pitch, _ellipse(a, b))


def notch_fill(nx: int = 25, ny: int = 13, pitch: float = 1.0,
               notch_x: float = 18.0, notch_y: float = 8.0, fillet: int = 3):
    """Plate with a rectangular corner notch; the modification adds a small
    triangular fillet of nodes at the re-entrant corner (~3% of the DOFs):
    the node-addition demo."""
    cloud, grid, mat, bc = _tension_plate(
        nx, ny, pitch, lambda c: (c[:, 0] < notch_x) | (c[:, 1] < notch_y),
        top=notch_y - pitch)
    next_id = nx * ny
    added = []
    for dx in range(fillet + 2):
        for dy in range(fillet + 2):
            if dx + dy <= fillet:
                added.append([notch_x + dx * pitch, notch_y + dy * pitch])
    mod = Modification(
        added_ids=tuple(range(next_id, next_id + len(added))),
        added_coords=np.asarray(added),
    )
    return cloud, grid, mat, bc, mod


def l_frame_3d(n: int = 7, nz: int = 3, pitch: float = 1.0):
    """Coarse 3D L-section frame; the modification adds a handful of fillet
    nodes at the inner corner (~4% of the DOFs)."""
    half = n // 2 + 1   # the leg thickness in node columns
    pts, idx = [], []
    k = 0
    for i in range(n):
        for j in range(n):
            if i >= half and j >= half:
                continue
            for m in range(nz):
                pts.append([i * pitch, j * pitch, m * pitch])
                idx.append(k)
                k += 1
    coords = np.asarray(pts)
    ids = np.asarray(idx)
    cloud = NodeCloud(ids=ids, coords=coords, dim=3)
    side = pitch * (n - 1)
    grid = BackgroundGrid(origin=np.zeros(3),
                          cell_size=np.array([pitch] * 3),
                          counts=(n - 1, n - 1, nz - 1))
    mat = MaterialModel(young_modulus=1000.0, poisson_ratio=0.3,
                        mode="solid_3d")
    face = [int(i) for i, x in zip(ids, coords) if x[0] == 0.0]
    tip = [int(i) for i, x in zip(ids, coords) if x[0] == side]
    bc = BoundaryConditions(
        fixed_dofs=tuple((i, a) for i in face for a in (0, 1, 2)),
        point_loads=tuple((i, 2, -1.0) for i in tip),
    )
    corner = pitch * half
    added = [[corner, corner, m * pitch] for m in range(nz)]
    added += [[corner + pitch, corner, pitch * (nz // 2)],
              [corner, corner + pitch, pitch * (nz // 2)]]
    next_id = int(ids.max()) + 1
    mod = Modification(added_ids=tuple(range(next_id, next_id + len(added))),
                       added_coords=np.asarray(added))
    return cloud, grid, mat, bc, mod


# --------------------------------------------------------------------------
# benchmark families


def bench_case(entry: dict):
    """Build one benchmark case from a family entry.

    Entry schema: {"name": str, "nx": int, "ny": int, "pitch": float,
    "mod": {"kind": "hole", "half": int} | {"kind": "ellipse",
    "a": float, "b": float}, "basis": int}.  "hole" removes a
    (2*half+1)^2 node block at the plate center; "ellipse" removes the
    elliptical region with semi-axes a, b.
    """
    with _malformed("bench entry"):
        nx = _integer(entry["nx"], "bench entry nx")
        ny = _integer(entry["ny"], "bench entry ny")
        pitch = float(entry.get("pitch", 1.0))
        mod_d = entry["mod"]
        kind = mod_d["kind"]
        if kind == "hole":
            half = _integer(mod_d.get("half", 1), "bench entry half") * pitch
        elif kind == "ellipse":
            a, b = float(mod_d["a"]), float(mod_d["b"])
    if not 0.0 < pitch < np.inf:
        raise ValidationError(f"bench entry pitch must be finite and > 0, "
                              f"got {pitch}")
    if kind == "hole":
        if half < 0:
            raise ValidationError("bench entry half must be >= 0")

        def inside(dx, dy):
            return (np.abs(dx) <= half + 1e-9) & (np.abs(dy) <= half + 1e-9)
    elif kind == "ellipse":
        if not (0.0 < a < np.inf and 0.0 < b < np.inf):
            raise ValidationError(f"bench entry a and b must be finite and "
                                  f"> 0, got {a}, {b}")
        inside = _ellipse(a, b)
    else:
        raise ValidationError(f"unknown bench modification kind {kind!r}")
    return _cut_plate(nx, ny, pitch, inside)


def default_bench_family() -> dict:
    """Plate family: growing sizes with a fixed small hole, plus one
    large-modification point for the reduced-basis/exact-method trade-off."""
    return {
        "version": 1,
        "cases": [
            {"name": "plate-600", "nx": 30, "ny": 20, "pitch": 1.0,
             "mod": {"kind": "hole", "half": 1}, "basis": 6},
            {"name": "plate-1440", "nx": 48, "ny": 30, "pitch": 1.0,
             "mod": {"kind": "hole", "half": 1}, "basis": 6},
            {"name": "plate-3024", "nx": 72, "ny": 42, "pitch": 1.0,
             "mod": {"kind": "hole", "half": 1}, "basis": 6},
            {"name": "plate-960-large-mod", "nx": 40, "ny": 24, "pitch": 1.0,
             "mod": {"kind": "ellipse", "a": 14.0, "b": 8.0}, "basis": 10},
        ],
    }


DEMO_BUILDERS = {
    "patch": patch,
    "cantilever": cantilever,
    "plate_with_hole": plate_with_hole,
    "notch_fill": notch_fill,
    "l_frame_3d": l_frame_3d,
}
