"""Metamorphic checks of the whole reanalysis: relabelling the node ids,
mirroring the plate in y, or swapping x and y, together with the loads,
the supports and the edit, transforms every displacement the same way.
Scaling Young's modulus by s divides every displacement by s and keeps
the stress; scaling the loads by s scales both.  Giving the nodes in
another row order changes no answer by a single bit.

The plate is a jittered lattice whose node ids are even, so an insertion
takes odd ids that sort among the initial ones.  Its left edge is held in
x, with two nodes also held in y; the right edge carries a traction with
both components and the top edge a point load in y.  Each transformed
model goes through full_analysis, prepare_modified, run_ifu and run_ca and
must give the transformed displacements of the original, and the same von
Mises stress at each node, to 1e-10 relative.  The stress reads the
node-point states, so it checks their id order too.
"""

from functools import cache

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


def _build(ids, coords, fixed, loads, tractions, counts, E=1000.0):
    cloud = NodeCloud(ids=ids, coords=coords, dim=2)
    grid = BackgroundGrid(origin=np.zeros(2), cell_size=np.ones(2),
                          counts=counts)
    bc = BoundaryConditions(
        fixed_dofs=tuple(fixed), point_loads=tuple(loads),
        tractions=tuple(Traction(start=s, end=e, q=q)
                        for s, e, q in tractions))
    return cloud, grid, MaterialModel(E, 0.3), bc


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


def _solve(ids, coords, fixed, loads, tractions, counts, edit, E=1000.0):
    """{method: (node ids, U per node, von Mises stress per node)} of the
    baseline and of IFU and CA on the edit."""
    base = full_analysis(*_build(ids, coords, fixed, loads, tractions,
                                 counts, E))
    removed, added, added_coords = edit
    case = prepare_modified(base, Modification(
        added_ids=tuple(added.tolist()), added_coords=added_coords,
        removed_ids=frozenset(removed.tolist())))
    fields = {"baseline": base.fields(), "ifu": run_ifu(case)[1],
              "ca": run_ca(case, s=10)[1]}
    return {m: (f.node_ids, f.displacements, f.vm_stress)
            for m, f in fields.items()}


@cache
def _answers(edit, E_scale=1.0, load_scale=1.0):
    """:func:`_solve` of the untransformed plate and ``edit``, with E and
    every load scaled as given."""
    ids, coords, fixed, loads, tractions, edits = _plate()
    return _solve(ids, coords, fixed,
                  [(n, a, v * load_scale) for n, a, v in loads],
                  [(s, e, np.multiply(q, load_scale))
                   for s, e, q in tractions],
                  (NX - 1, NY - 1), edits[edit], 1000.0 * E_scale)


@pytest.mark.parametrize("edit", ["removal", "insertion"])
@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
def test_reanalysis_commutes_with_the_transform(transform, edit):
    ids, coords, fixed, loads, tractions, edits = _plate()
    t = TRANSFORMS[transform]
    removed, added, added_coords = edits[edit]
    counts = (NX - 1, NY - 1)
    ref = _answers(edit)
    got = _solve(
        t.node(ids), t.point(coords),
        [(int(t.node(n)), t.axis(a)) for n, a in fixed],
        [(int(t.node(n)), t.axis(a), v * t.flip[t.axis(a)])
         for n, a, v in loads],
        [(t.point(s), t.point(e), t.vec(q)) for s, e, q in tractions],
        t.counts(counts),
        (t.node(removed), t.node(added), t.point(added_coords)))
    for (ids_r, U_r, vm_r), (ids_g, U_g, vm_g) in zip(ref.values(),
                                                      got.values()):
        at = np.searchsorted(ids_g, t.node(ids_r))
        assert np.array_equal(ids_g[at], t.node(ids_r))
        err = np.linalg.norm(U_g[at] - t.vec(U_r)) / np.linalg.norm(U_r)
        assert err <= 1e-10
        err = np.linalg.norm(vm_g[at] - vm_r) / np.linalg.norm(vm_r)
        assert err <= 1e-10


# (E scale, load scale) of each scaling transform
SCALES = {"scale-E-1e-6": (1e-6, 1.0), "scale-E-1e12": (1e12, 1.0),
          "scale-loads-1e9": (1.0, 1e9)}

# CA's lifted K* holds a unit diagonal, with no unit, on the DOFs an
# insertion adds, and K*^-1 dK mixes it with the E-scaled stiffness, so its
# basis, and with it the s = 10 answer, depends on the unit of E.
_CA_MIXES_UNITS = pytest.mark.xfail(
    strict=True, reason="CA's lifted K* has a unitless unit diagonal on "
    "the added DOFs, so CA on an insertion depends on the unit of E")


@pytest.mark.parametrize("method", ["baseline", "ifu", "ca"])
@pytest.mark.parametrize("edit", ["removal", "insertion"])
@pytest.mark.parametrize("scale", sorted(SCALES))
def test_answers_scale_with_E_and_loads(request, scale, edit, method):
    E_scale, load_scale = SCALES[scale]
    if method == "ca" and edit == "insertion" and E_scale != 1.0:
        request.applymarker(_CA_MIXES_UNITS)
    ids_r, U_r, vm_r = _answers(edit)[method]
    ids_g, U_g, vm_g = _answers(edit, E_scale, load_scale)[method]
    assert np.array_equal(ids_g, ids_r)
    U = U_r * (load_scale / E_scale)
    assert np.linalg.norm(U_g - U) <= 1e-10 * np.linalg.norm(U)
    vm = vm_r * load_scale
    assert np.linalg.norm(vm_g - vm) <= 1e-10 * np.linalg.norm(vm)


@pytest.mark.parametrize("edit", ["removal", "insertion"])
def test_row_order_changes_no_answer(edit):
    """The nodes given in a shuffled row order, with the same ids and
    coordinates, give every answer bit for bit."""
    ids, coords, fixed, loads, tractions, edits = _plate()
    rows = np.random.default_rng(3).permutation(len(ids))
    got = _solve(ids[rows], coords[rows], fixed, loads, tractions,
                 (NX - 1, NY - 1), edits[edit])
    for method, ref in _answers(edit).items():
        for a, b in zip(got[method], ref):
            assert np.array_equal(a, b), method
