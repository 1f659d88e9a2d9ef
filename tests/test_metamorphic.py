"""Metamorphic checks of the whole reanalysis: relabelling the node ids,
mirroring the plate in y, or swapping x and y, together with the loads,
the supports and the edit, transforms every displacement the same way.

The plate is a jittered lattice whose node ids are even, so an insertion
takes odd ids that sort among the initial ones.  Its left edge is held in
x, with two nodes also held in y; the right edge carries a traction with
both components and the top edge a point load in y.  Each transformed
model goes through full_analysis, prepare_modified, run_ifu and run_ca and
must give the transformed displacements of the original, and the same von
Mises stress at each node, to 1e-10 relative.  The stress reads the
node-point states, so it checks their id order too.
"""

import numpy as np
import pytest

from mkfree.model import (BackgroundGrid, BoundaryConditions, MaterialModel,
                          Modification, NodeCloud, Traction)
from mkfree.pipeline import full_analysis, prepare_modified, run_ca, run_ifu

NX, NY = 14, 9
W, H = float(NX - 1), float(NY - 1)


def _plate():
    """(ids, coords, fixed, loads, tractions, edits) of the plate, in the
    form :func:`_build` takes; ``edits`` maps a name to (removed ids,
    added ids, added coords)."""
    rng = np.random.default_rng(7)
    lattice = np.indices((NX, NY)).reshape(2, -1).T.astype(float)
    x, y = lattice.T
    coords = lattice.copy()
    interior = (x > 0) & (x < W) & (y > 0) & (y < H)
    coords[interior] += rng.uniform(-0.2, 0.2, (interior.sum(), 2))
    ids = 2 * np.arange(len(coords))
    fixed = [(int(i), 0) for i in ids[x == 0.0]]
    fixed += [(int(i), 1) for i in ids[(x == 0.0) & (y <= 1.0)]]
    loads = [(int(ids[(x == 9.0) & (y == H)][0]), 1, -0.5)]
    tractions = [([W, a], [W, a + 1.0], [1.0, 0.25]) for a in range(NY - 1)]
    block = ids[(np.abs(x - 6.0) <= 1.0) & (np.abs(y - 4.0) <= 1.0)]
    centres = np.array([[3.5, 2.5], [7.5, 6.5], [9.5, 3.5]])
    odd = 2 * np.array([20, 61, 100]) + 1
    edits = {"removal": (block, np.zeros(0, dtype=int), np.zeros((0, 2))),
             "insertion": (np.zeros(0, dtype=int), odd, centres)}
    return ids, coords, fixed, loads, tractions, edits


def _build(ids, coords, fixed, loads, tractions, counts):
    cloud = NodeCloud(ids=ids, coords=coords, dim=2)
    grid = BackgroundGrid(origin=np.zeros(2), cell_size=np.ones(2),
                          counts=counts)
    bc = BoundaryConditions(
        fixed_dofs=tuple(fixed), point_loads=tuple(loads),
        tractions=tuple(Traction(start=s, end=e, q=q)
                        for s, e, q in tractions))
    return cloud, grid, MaterialModel(1000.0, 0.3), bc


class Transform:
    """Node ids through ``perm`` (kept when None), then coordinates and
    vectors with x and y swapped when ``swap``, then negated where
    ``flip`` is -1; a negated coordinate is reflected back onto the
    plate."""

    def __init__(self, perm=None, swap=False, flip=(1.0, 1.0)):
        self.perm, self.swap = perm, swap
        self.flip = np.asarray(flip)

    def node(self, ids):
        ids = np.asarray(ids, dtype=int)
        return ids if self.perm is None else self.perm[ids]

    def axis(self, a):
        return 1 - a if self.swap else a

    def vec(self, v):
        v = np.asarray(v, dtype=float)
        return (v[..., ::-1] if self.swap else v) * self.flip

    def point(self, p):
        size = (H, W) if self.swap else (W, H)
        return self.vec(p) + np.where(self.flip < 0, size, 0.0)

    def counts(self, counts):
        return counts[::-1] if self.swap else counts


TRANSFORMS = {
    "relabel": Transform(
        perm=np.random.default_rng(11).permutation(2 * NX * NY + 1)),
    "mirror-y": Transform(flip=(1.0, -1.0)),
    "swap-xy": Transform(swap=True),
}


def _solve(ids, coords, fixed, loads, tractions, counts, edit):
    """(node ids, U per node, von Mises stress per node) of the baseline
    and of IFU and CA on the edit."""
    base = full_analysis(*_build(ids, coords, fixed, loads, tractions,
                                 counts))
    removed, added, added_coords = edit
    case = prepare_modified(base, Modification(
        added_ids=tuple(added.tolist()), added_coords=added_coords,
        removed_ids=frozenset(removed.tolist())))
    fields = [base.fields(), run_ifu(case)[1], run_ca(case, s=10)[1]]
    return [(f.node_ids, f.displacements, f.vm_stress) for f in fields]


@pytest.mark.parametrize("edit", ["removal", "insertion"])
@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
def test_reanalysis_commutes_with_the_transform(transform, edit):
    ids, coords, fixed, loads, tractions, edits = _plate()
    t = TRANSFORMS[transform]
    removed, added, added_coords = edits[edit]
    counts = (NX - 1, NY - 1)
    ref = _solve(ids, coords, fixed, loads, tractions, counts, edits[edit])
    got = _solve(
        t.node(ids), t.point(coords),
        [(int(t.node(n)), t.axis(a)) for n, a in fixed],
        [(int(t.node(n)), t.axis(a), v * t.flip[t.axis(a)])
         for n, a, v in loads],
        [(t.point(s), t.point(e), t.vec(q)) for s, e, q in tractions],
        t.counts(counts),
        (t.node(removed), t.node(added), t.point(added_coords)))
    for (ids_r, U_r, vm_r), (ids_g, U_g, vm_g) in zip(ref, got):
        at = np.searchsorted(ids_g, t.node(ids_r))
        assert np.array_equal(ids_g[at], t.node(ids_r))
        err = np.linalg.norm(U_g[at] - t.vec(U_r)) / np.linalg.norm(U_r)
        assert err <= 1e-10
        err = np.linalg.norm(vm_g[at] - vm_r) / np.linalg.norm(vm_r)
        assert err <= 1e-10
