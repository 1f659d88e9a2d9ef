"""Seeded input generator for the benchmark workloads.

Models are built only from the package's public model constructors
(``NodeCloud``, ``BackgroundGrid``, ``MaterialModel``,
``BoundaryConditions``, ``Traction``, ``Modification``), never from
``mkfree.demos``, so a change to the bundled demos cannot move the
benchmark's traffic.  The same seed always gives identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mkfree.model import (BackgroundGrid, BoundaryConditions, MaterialModel,
                          Modification, NodeCloud, Traction)

# Edits stay this many pitches away from the clamped (x = 0) and loaded
# (x = max) edges, so they never touch a fixed DOF or the traction supports.
EDGE_CLEARANCE = 3.0


@dataclass(frozen=True)
class Model:
    cloud: NodeCloud
    grid: BackgroundGrid
    material: MaterialModel
    bc: BoundaryConditions


def _lattice(counts, pitch: float = 1.0) -> np.ndarray:
    axes = [pitch * np.arange(n) for n in counts]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh]).astype(float)


def _edge_tractions(x: float, y_lo: float, y_hi: float, n_seg: int, q):
    """Uniform traction on the edge x = const, one segment per pitch so the
    2-point line quadrature of each segment stays accurate."""
    ys = np.linspace(y_lo, y_hi, n_seg + 1)
    return tuple(Traction(start=[x, a], end=[x, b], q=q)
                 for a, b in zip(ys[:-1], ys[1:]))


def plate(nx: int, ny: int, coords: np.ndarray | None = None,
          ids: np.ndarray | None = None) -> Model:
    """Plane-stress plate on the unit-pitch ``nx`` x ``ny`` lattice: left
    edge clamped, unit tension on the right edge, one cell per pitch.

    ``coords``/``ids`` override the lattice nodes (jittered or shuffled
    clouds); they must keep the boundary nodes on the boundary."""
    if coords is None:
        coords = _lattice((nx, ny))
    if ids is None:
        ids = np.arange(len(coords))
    cloud = NodeCloud(ids=ids, coords=coords, dim=2)
    W, H = float(nx - 1), float(ny - 1)
    grid = BackgroundGrid(origin=np.zeros(2), cell_size=np.ones(2),
                          counts=(nx - 1, ny - 1))
    mat = MaterialModel(young_modulus=1000.0, poisson_ratio=0.3)
    left = cloud.ids[cloud.coords[:, 0] == 0.0]
    bc = BoundaryConditions(
        fixed_dofs=tuple((int(i), a) for i in left for a in (0, 1)),
        tractions=_edge_tractions(W, 0.0, H, ny - 1, [1.0, 0.0]),
    )
    return Model(cloud, grid, mat, bc)


def block_3d(nx: int, ny: int, nz: int, coords: np.ndarray,
             ids: np.ndarray) -> Model:
    """Solid block on the unit-pitch lattice: x = 0 face clamped, unit
    downward load shared by the nodes of the x = max face."""
    cloud = NodeCloud(ids=ids, coords=coords, dim=3)
    grid = BackgroundGrid(origin=np.zeros(3), cell_size=np.ones(3),
                          counts=(nx - 1, ny - 1, nz - 1))
    mat = MaterialModel(young_modulus=1000.0, poisson_ratio=0.3,
                        mode="solid_3d")
    x = cloud.coords[:, 0]
    face = cloud.ids[x == 0.0]
    tip = cloud.ids[x == float(nx - 1)]
    bc = BoundaryConditions(
        fixed_dofs=tuple((int(i), a) for i in face for a in (0, 1, 2)),
        point_loads=tuple((int(i), 2, -1.0 / len(tip)) for i in tip),
    )
    return Model(cloud, grid, mat, bc)


def _jittered(rng, counts, jitter: float) -> np.ndarray:
    """Lattice with uniform +-``jitter`` pitch noise on interior nodes only,
    so boundary faces stay flat and the grid covers the cloud exactly."""
    coords = _lattice(counts)
    hi = np.asarray(counts, dtype=float) - 1.0
    interior = np.all((coords > 0.0) & (coords < hi), axis=1)
    noise = rng.uniform(-jitter, jitter, coords.shape)
    coords[interior] += noise[interior]
    return coords


def scattered_plate(rng, nx: int = 40, ny: int = 24,
                    jitter: float = 0.25) -> Model:
    """Jittered 2D plate whose node ids are a random permutation."""
    coords = _jittered(rng, (nx, ny), jitter)
    return plate(nx, ny, coords=coords, ids=rng.permutation(len(coords)))


def scattered_block(rng, nx: int = 8, ny: int = 6, nz: int = 4,
                    jitter: float = 0.2) -> Model:
    """Jittered 3D block whose node ids are a random permutation."""
    coords = _jittered(rng, (nx, ny, nz), jitter)
    return block_3d(nx, ny, nz, coords, rng.permutation(len(coords)))


# ---------------------------------------------------------------------------
# modifications


def block_removal(model: Model, rng, size: int) -> Modification:
    """Remove one node (``size`` 1) or a 3x3 node block (``size`` 9) whose
    nodes all lie >= EDGE_CLEARANCE pitches from the clamped and loaded
    edges and off the free edges."""
    coords = model.cloud.coords
    W = coords[:, 0].max()
    H = coords[:, 1].max()
    half = 0 if size == 1 else 1
    cx = rng.integers(EDGE_CLEARANCE + half, W - EDGE_CLEARANCE - half + 1)
    cy = rng.integers(1 + half, H - 1 - half + 1)
    sel = ((np.abs(coords[:, 0] - cx) <= half + 1e-9)
           & (np.abs(coords[:, 1] - cy) <= half + 1e-9))
    removed = model.cloud.ids[sel]
    if len(removed) != size:
        raise ValueError(f"block of {size} nodes expected, "
                         f"found {len(removed)}")
    return Modification(removed_ids=frozenset(int(i) for i in removed))


def insertion(model: Model, rng, count: int) -> Modification:
    """Insert ``count`` nodes at distinct cell centres >= EDGE_CLEARANCE
    pitches from the clamped and loaded edges.  New ids sort after every
    existing id."""
    gx, gy = model.grid.counts
    lo = int(EDGE_CLEARANCE)
    cells = set()
    while len(cells) < count:
        cells.add((int(rng.integers(lo, gx - lo)), int(rng.integers(0, gy))))
    centres = np.array([[i + 0.5, j + 0.5] for i, j in sorted(cells)])
    first = int(model.cloud.ids.max()) + 1
    return Modification(added_ids=tuple(range(first, first + count)),
                        added_coords=centres)


def elliptical_cutout(model: Model, rng, fraction: float) -> Modification:
    """Remove the nodes inside a seeded, rotated ellipse covering about
    ``fraction`` of the plate's nodes.  The ellipse keeps
    EDGE_CLEARANCE pitches from the clamped and loaded edges and leaves
    ligaments of >= 3 pitches above and below, so the plate stays
    connected."""
    coords = model.cloud.coords
    W = coords[:, 0].max()
    H = coords[:, 1].max()
    area = fraction * model.cloud.n_nodes
    for _ in range(1000):
        aspect = rng.uniform(1.4, 2.4)
        angle = rng.uniform(-0.35, 0.35)
        b = np.sqrt(area / (np.pi * aspect))
        a = aspect * b
        c, s = np.cos(angle), np.sin(angle)
        ext_x = np.hypot(a * c, b * s)
        ext_y = np.hypot(a * s, b * c)
        room_x = W / 2.0 - EDGE_CLEARANCE - ext_x
        room_y = H / 2.0 - 3.0 - ext_y
        if room_x < 0.0 or room_y < 0.0:
            continue
        cx = W / 2.0 + rng.uniform(-room_x, room_x)
        cy = H / 2.0 + rng.uniform(-room_y, room_y)
        dx, dy = coords[:, 0] - cx, coords[:, 1] - cy
        u = (c * dx + s * dy) / a
        v = (-s * dx + c * dy) / b
        removed = model.cloud.ids[u * u + v * v < 1.0]
        return Modification(removed_ids=frozenset(int(i) for i in removed))
    raise ValueError(f"no ellipse of fraction {fraction} fits the plate")
