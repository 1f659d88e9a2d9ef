"""prepare_modified on modifications that change more than the node set,
and on insertions whose ids sort among the initial ones.

Each case checks the prepared pair against independent references: the
modified stiffness against a BC-applied global reassembly, and IFU
against a full re-solve.
"""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from mkfree import assembly, demos, ifu, interp, pipeline, update
from mkfree.assembly import StiffnessSystem, apply_bcs, assemble_load
from mkfree.config import MeshlessConfig
from mkfree.errors import ValidationError
from mkfree.model import (BackgroundGrid, BoundaryConditions, MaterialModel,
                          Modification, NodeCloud, apply_modification)
from mkfree.pipeline import (full_analysis, prepare_modified, run_ca,
                             run_full_modified, run_ifu)
from mkfree.recovery import error_metrics, node_state
from mkfree.solver import CholeskyFactor
from mkfree.update import global_update

from conftest import (cantilever_bc, grid_for, ifu_default_tol,
                      jittered_cloud, loaded_edge_cut)


@pytest.fixture
def baseline(small_model):
    return full_analysis(*small_model)


def _right_column(cloud, band=0.5):
    x = cloud.coords[:, 0]
    return [int(i) for i in cloud.ids[x >= x.max() - band]]


def _interior_node(cloud):
    centroid = cloud.coords.mean(axis=0)
    return int(cloud.ids[np.argmin(np.linalg.norm(cloud.coords - centroid,
                                                  axis=1))])


def _check_case(base, mod, case=None):
    if case is None:
        case = prepare_modified(base, mod)
    cfg = base.cfg
    ref_raw = global_update(case.cloud_mod, base.grid, case.material,
                            case.dof_map, cfg)
    F_raw = assemble_load(case.cloud_mod, case.bc, case.dof_map, cfg)
    ref = apply_bcs(StiffnessSystem(K=ref_raw.K, F=F_raw,
                                    dof_map=case.dof_map), case.bc,
                    case.cloud_mod)
    K_ref = ref.K.toarray()
    K_m = case.K_m.toarray()
    scale = np.abs(K_ref).max()
    assert np.abs(K_m - K_ref).max() <= 1e-12 * scale
    assert np.array_equal(case.F, ref.F)

    _, fields, _ = run_ifu(case)
    _, ref_fields, _ = run_full_modified(case)
    E_u = error_metrics(fields, ref_fields)[0]
    assert E_u <= 1e-7, f"IFU E_u {E_u:.2e} %"
    return case


def test_bc_only_change(baseline):
    cloud = baseline.cloud
    left = [n for n, _ in baseline.bc.fixed_dofs]
    second = cloud.ids[np.argsort(cloud.coords[:, 0])][len(set(left))]
    right = _right_column(cloud)
    bc = BoundaryConditions(
        fixed_dofs=baseline.bc.fixed_dofs + ((int(second), 0),),
        point_loads=tuple((i, 0, 2.0 / len(right)) for i in right))
    case = _check_case(baseline, Modification(bc_change=bc))
    assert case.influence is None
    # the extra fixed DOF changes K
    assert (case.K_m - case.star.K).nnz > 0


@pytest.mark.parametrize("edit", ["alone", "removal", "interleaved"])
def test_material_change_is_a_local_update(small_model, monkeypatch, edit):
    """A material change recombines the baseline's gradient products with
    the new constants and adds the local delta integrated with the new
    material: K_m equals the BC-applied global reassembly of the modified
    cloud with that material, without a reassembly of the whole grid."""
    new = MaterialModel(250.0, 0.25)
    if edit == "interleaved":
        model, mod = _interleaved_2d(small_model)
        mod = dataclasses.replace(mod, material_change=new)
    else:
        model = small_model
        removed = {_interior_node(model[0])} if edit == "removal" else set()
        mod = Modification(removed_ids=removed, material_change=new)
    base = full_analysis(*model)
    with monkeypatch.context() as m:
        m.setattr(pipeline, "assemble_stiffness", _refuse_reassembly)
        m.setattr(update, "assemble_stiffness", _refuse_reassembly)
        case = prepare_modified(base, mod)
    assert case.material == new
    assert (case.influence is None) == (edit == "alone")
    ref_raw = global_update(case.cloud_mod, base.grid, new, case.dof_map,
                            base.cfg)
    ref = apply_bcs(ref_raw.with_load(case.F), case.bc,
                    case.cloud_mod).K.toarray()
    scale = np.abs(ref).max()
    assert np.abs(case.K_m.toarray() - ref).max() <= 1e-14 * scale
    _check_case(base, mod, case)
    if edit == "alone":
        _, ref_fields, _ = run_full_modified(case)
        E_u = error_metrics(run_ca(case, s=10)[1], ref_fields)[0]
        assert E_u < 1.0, f"CA E_u {E_u:.2e} %"


def test_interior_removal_with_bc_change(baseline):
    cloud = baseline.cloud
    right = _right_column(cloud)
    bc = BoundaryConditions(
        fixed_dofs=baseline.bc.fixed_dofs,
        point_loads=tuple((i, a, 0.5 / len(right)) for i in right
                          for a in (0, 1)))
    mod = Modification(removed_ids={_interior_node(cloud)}, bc_change=bc)
    case = _check_case(baseline, mod)
    assert case.influence is not None


def test_ca_reports_its_residual(baseline):
    mod = Modification(removed_ids={_interior_node(baseline.cloud)})
    case = prepare_modified(baseline, mod)
    U, _, diag = run_ca(case, s=3)
    direct = (np.linalg.norm(case.K_m.toarray() @ U - case.F)
              / np.linalg.norm(case.F))
    assert np.isfinite(diag["residual"])
    assert diag["residual"] == pytest.approx(direct, rel=1e-12)


def _demo_case(name):
    cloud, grid, mat, bc, mod = demos.DEMO_BUILDERS[name]()
    return prepare_modified(full_analysis(cloud, grid, mat, bc), mod)


def test_ca_converges_where_the_recurrence_is_near_dependent():
    """From s = 8 on l_frame_3d the recurrence vectors are numerically
    dependent, and from s = 84 they overflow; the orthonormal basis keeps
    each new direction and converges to the full re-solve."""
    case = _demo_case("l_frame_3d")
    _, ref, _ = run_full_modified(case)
    for s, bound in ((10, 0.1), (100, 1e-8)):
        _, fields, _ = run_ca(case, s=s)
        E_u = error_metrics(fields, ref)[0]
        assert E_u <= bound, f"s={s}: E_u {E_u:.3e} %"


def test_ca_is_reproducible_under_roundoff():
    """A symmetric 1e-15 relative perturbation of K_m and K* moves the CA
    answer on notch_fill by no more than 1e-10 relative."""
    case = _demo_case("notch_fill")
    rng = np.random.default_rng(15)

    def perturbed(A):
        A = sp.csr_matrix(A)
        E = A.copy()
        E.data = A.data * rng.uniform(-1e-15, 1e-15, A.nnz)
        return A + 0.5 * (E + E.T)

    U, _, _ = run_ca(case, s=10)
    U_p, _, _ = run_ca(dataclasses.replace(
        case, K_m=perturbed(case.K_m),
        star=dataclasses.replace(case.star, K=perturbed(case.star.K))), s=10)
    assert np.linalg.norm(U_p - U) <= 1e-10 * np.linalg.norm(U)


def test_loaded_node_removal_with_bc_change(baseline):
    cloud = baseline.cloud
    loaded = _right_column(cloud)
    gone = loaded[len(loaded) // 2]
    kept = cloud.ids[cloud.ids != gone]
    coords = cloud.coords[cloud.ids != gone]
    bc = cantilever_bc(NodeCloud(ids=kept, coords=coords, dim=cloud.dim))
    assert all(n != gone for n, _, _ in bc.point_loads)
    mod = Modification(removed_ids={gone}, bc_change=bc)
    case = _check_case(baseline, mod)
    assert case.influence is not None


def _interleaved_2d(small_model):
    """small_model with even ids, and two added nodes with odd ids."""
    cloud, grid, mat, _ = small_model
    even = NodeCloud(ids=2 * cloud.ids, coords=cloud.coords, dim=2)
    mod = Modification(added_ids=(21, 77),
                       added_coords=[[2.5, 1.5], [6.5, 3.5]])
    return (even, grid, mat, cantilever_bc(even)), mod


def _interleaved_3d():
    """The 3D L-frame with even ids; its fillet nodes get odd ids spread
    over the initial range."""
    cloud, grid, mat, bc, mod = demos.l_frame_3d()
    even = NodeCloud(ids=2 * cloud.ids, coords=cloud.coords, dim=3)
    bc = BoundaryConditions(
        fixed_dofs=tuple((2 * n, a) for n, a in bc.fixed_dofs),
        point_loads=tuple((2 * n, a, v) for n, a, v in bc.point_loads))
    odd = 2 * np.linspace(1, cloud.n_nodes - 2,
                          len(mod.added_ids)).astype(int) + 1
    return (even, grid, mat, bc), Modification(
        added_ids=tuple(odd), added_coords=mod.added_coords)


def _refuse_factorize(*_):
    raise AssertionError("prepare_modified must reuse the initial factor")


def _refuse_reassembly(*_, **__):
    raise AssertionError("prepare_modified must not reassemble the grid")


@pytest.mark.parametrize("dim", [2, 3])
def test_insertion_with_interleaved_ids(small_model, monkeypatch, dim):
    model, mod = (_interleaved_2d(small_model) if dim == 2
                  else _interleaved_3d())
    base = full_analysis(*model)
    ids = base.cloud.ids
    assert all(ids.min() < i < ids.max() for i in mod.added_ids)
    with monkeypatch.context() as m:
        m.setattr(pipeline, "factorize", _refuse_factorize)
        case = prepare_modified(base, mod)
    _check_case(base, mod, case)
    K = case.star.K.toarray()
    L0 = np.asarray(case.factor)
    assert np.abs(L0 @ L0.T - K).max() <= 1e-13 * np.abs(K).max()
    # the lifted factor is the plain scatter of the initial one
    perm = case.dof_map.dofs_of(np.sort(ids))
    ref = np.eye(case.dof_map.n_dofs)
    ref[np.ix_(perm, perm)] = np.asarray(base.factor)
    assert np.array_equal(L0, ref)


def test_insertion_lift_memory_stays_near_the_lifted_band():
    """Lifting the baseline for a 3-node insertion holds at most 2.5 times
    the bytes of the lifted band at its peak.  Shuffled ids widen the band
    to about n, so the band, not the sparse stiffness, is the largest array
    the lift makes; a lift that builds band-sized index arrays exceeds the
    bound."""
    rng = np.random.default_rng(3)
    lattice = jittered_cloud(rng, 24, 12, jitter=0.2)
    cloud = NodeCloud(ids=rng.permutation(lattice.n_nodes),
                      coords=lattice.coords, dim=2)
    base = full_analysis(cloud, grid_for(cloud, pad=0.3),
                         MaterialModel(100.0, 0.3), cantilever_bc(cloud))
    n = cloud.n_nodes
    mod = Modification(added_ids=(n, n + 1, n + 2),
                       added_coords=[[11.5, 5.5], [6.5, 6.5], [17.5, 3.5]])
    _, dof_map = apply_modification(base.cloud, mod, base.bc)
    tracemalloc.start()
    try:
        _, _, factor, _ = pipeline._lift(base, dof_map, base.material)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factor.n == base.factor.n + 6
    assert factor.ab.shape[0] >= 0.9 * factor.n
    assert peak <= 2.5 * factor.ab.nbytes


def _coo_lift(A, perm, unit):
    """The lift P A P^T + ``unit`` through a COO scatter, the reference for
    the CSR arrays :func:`pipeline._lift` builds directly."""
    A = A.tocoo()
    N = unit.shape[0]
    return (sp.csr_matrix((A.data, (perm[A.row], perm[A.col])), shape=(N, N))
            + unit).tocsr()


def _appended(small_model):
    cloud, grid, mat, bc = small_model
    n = int(cloud.ids.max()) + 1
    return (cloud, grid, mat, bc), Modification(
        added_ids=(n, n + 1, n + 2),
        added_coords=[[2.5, 1.5], [6.5, 3.5], [4.5, 2.5]])


@pytest.mark.parametrize("edit", ["removal", "appended", "interleaved",
                                  "material", "bc"])
def test_prepare_modified_eliminates_once(small_model, monkeypatch, edit):
    """An edit applies boundary conditions once, to the modified model:
    the lifted K* is the baseline's BC-applied K, so an insertion does not
    eliminate the baseline's BCs again."""
    cloud, _, _, bc = small_model
    model, mod = small_model, {
        "removal": Modification(removed_ids={_interior_node(cloud)}),
        "material": Modification(material_change=MaterialModel(250.0, 0.25)),
        "bc": Modification(bc_change=BoundaryConditions(
            fixed_dofs=bc.fixed_dofs + ((_interior_node(cloud), 1),),
            point_loads=bc.point_loads, tractions=bc.tractions)),
    }.get(edit)
    if edit == "appended":
        model, mod = _appended(small_model)
    elif edit == "interleaved":
        model, mod = _interleaved_2d(small_model)
    base = full_analysis(*model)
    calls = []

    def counted(*args):
        calls.append(args)
        return apply_bcs(*args)

    monkeypatch.setattr(pipeline, "apply_bcs", counted)
    case = prepare_modified(base, mod)
    assert len(calls) == 1
    assert calls[0][1] is case.bc and calls[0][2] is case.cloud_mod


@pytest.mark.parametrize("ids", ["appended", "interleaved-2d",
                                 "interleaved-3d"])
def test_lifted_stiffness_equals_the_coo_scatter(small_model, ids):
    """The lifted raw K is a renumbering: its CSR arrays equal those of the
    COO scatter, entry for entry, and it shares the baseline's data.  The
    lifted K* is bitwise the scatter of the baseline's BC-applied K plus a
    unit diagonal on the DOFs the initial cloud does not carry, the matrix
    the lifted factor factors."""
    model, mod = {"appended": lambda: _appended(small_model),
                  "interleaved-2d": lambda: _interleaved_2d(small_model),
                  "interleaved-3d": _interleaved_3d}[ids]()
    base = full_analysis(*model)
    _, dof_map = apply_modification(base.cloud, mod, base.bc)
    perm = dof_map.dofs_of(base.system.dof_map.node_ids)
    N = dof_map.n_dofs
    absent = np.setdiff1d(np.arange(N), perm)
    unit = sp.csr_matrix((np.ones(len(absent)), (absent, absent)),
                         shape=(N, N))
    star, K_raw, _, _ = pipeline._lift(base, dof_map, base.material)
    assert np.shares_memory(K_raw.data, base.raw.K.data)
    for got, ref in ((star.K, _coo_lift(base.system.K, perm, unit)),
                     (K_raw, _coo_lift(base.raw.K, perm,
                                       sp.csr_matrix((N, N))))):
        assert got.shape == ref.shape and got.has_canonical_format
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr))


def test_natural_order_lift_memory_stays_near_the_lifted_band():
    """On the natural-order 48 x 30 plate the lifted K*, not the band,
    dominates a 3-node insertion's lift; the lifted raw K shares the
    baseline's data, so the results hold 2.2 times the bytes of the lifted
    band, and so does the peak (2.8 times when both matrices were lifted
    with unit rows, 3.7 times through a COO scatter)."""
    cloud = jittered_cloud(np.random.default_rng(5), 48, 30, jitter=0.0)
    base = full_analysis(cloud, grid_for(cloud), MaterialModel(100.0, 0.3),
                         cantilever_bc(cloud))
    n = cloud.n_nodes
    mod = Modification(added_ids=(n, n + 1, n + 2),
                       added_coords=[[20.5, 10.5], [30.5, 15.5], [10.5, 5.5]])
    _, dof_map = apply_modification(base.cloud, mod, base.bc)
    tracemalloc.start()
    try:
        star, _, factor, _ = pipeline._lift(base, dof_map, base.material)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factor.n == base.factor.n + 6
    assert star.K.nnz > factor.ab.size / 2
    assert peak <= 2.5 * factor.ab.nbytes


def _half_bandwidth(K):
    coo = K.tocoo()
    return int(np.max(np.abs(coo.row - coo.col), initial=0))


def test_production_path_builds_no_dense_factor(monkeypatch):
    """The baseline and the reanalysis of a removal and of an insertion,
    and IFU's public phases on them, run on the band of the factor alone,
    which holds at most (b + 1) n doubles for the half-bandwidth b of the
    matrix it factors."""
    def dense(*_, **__):
        raise AssertionError("a dense n x n factor was built")

    monkeypatch.setattr(CholeskyFactor, "__array__", dense)
    cloud, grid, mat, bc, hole = demos.plate_with_hole()
    base = full_analysis(cloud, grid, mat, bc)
    # two nodes at cell centres near the plate's middle, ids appended
    n = int(cloud.ids.max()) + 1
    insertion = Modification(added_ids=(n, n + 1),
                             added_coords=[[49.0, 23.0], [53.0, 27.0]])
    assert base.factor.ab.size \
        <= (_half_bandwidth(base.system.K) + 1) * base.factor.n
    for mod in (hole, insertion):
        case = prepare_modified(base, mod)
        assert case.factor.ab.size \
            <= (_half_bandwidth(case.star.K) + 1) * case.factor.n
        _, _, diag = run_ifu(case)
        assert diag["n_d"] > 0 and diag["solve_residual"] <= 1e-9
        S_d = ifu.unbalanced_set(
            ifu.measurement(case.K_m, case.star.K,
                            ifu.residual(case.K_m, case.F, case.U_star)),
            ifu_default_tol(case))
        assert len(S_d) == diag["n_d"]
        L_mod, V = ifu.constrain_factor(case.factor, S_d)
        assert L_mod.ab.shape == case.factor.ab.shape
        _, rel = ifu.fundamental_solutions(
            L_mod, V, ifu.constraint_rhs(case.K_m, S_d))
        assert rel <= 1e-9
        _, _, diag = run_ca(case)
        assert diag["rank"] >= 1


def _record_calls(monkeypatch, source, name, calls):
    """Replace ``source.name`` wherever an mkfree module holds it by a
    wrapper that logs (name, cloud, number of points) of each call; for
    ``evaluate_batch``, the number of points it evaluates, those with a
    non-empty support."""
    fn = getattr(source, name)

    def recording(points, cloud, *args, **kwargs):
        n = len(np.asarray(points).reshape(-1, cloud.dim))
        if name == "evaluate_batch":
            n = int(np.count_nonzero(args[0].sizes))
        calls.append((name, cloud, n))
        return fn(points, cloud, *args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("mkfree")
                and getattr(module, name, None) is fn):
            monkeypatch.setattr(module, name, recording)


def test_edits_search_and_evaluate_only_the_modified_cloud(monkeypatch):
    """full_analysis evaluates the grid once, and its node-point state is
    one more pass over the nodes, on first use.  prepare_modified never
    searches or evaluates the baseline cloud: its side of the screen, of
    the delta and of recovery comes from the baseline's states.  An edit
    out of reach of the tractions (a removal at x = 3 of a plate loaded at
    x = 24) evaluates no traction point; the fill, next to the loaded
    edge, assembles the load again."""
    cloud, grid, mat, bc, fill = demos.notch_fill()
    calls = []
    _record_calls(monkeypatch, assembly, "active_supports", calls)
    _record_calls(monkeypatch, interp, "evaluate_batch", calls)
    _record_calls(monkeypatch, interp, "evaluate_at", calls)
    base = full_analysis(cloud, grid, mat, bc)
    active = np.count_nonzero(base.raw.state.sup.sizes)
    assert [n for name, _, n in calls if name == "evaluate_batch"] \
        == [active]
    assert sum(name == "evaluate_at" for name, _, _ in calls) \
        == 2 * len(bc.tractions)
    calls.clear()
    assert (base.nodes.sup.sizes > 0).sum() == cloud.n_nodes
    assert calls == [("active_supports", cloud, cloud.n_nodes),
                     ("evaluate_batch", cloud, cloud.n_nodes)]
    removal = Modification(removed_ids={int(cloud.ids[40]),
                                        int(cloud.ids[41])})
    for mod, reload in ((fill, True), (removal, False)):
        calls.clear()
        case = prepare_modified(base, mod)
        assert calls and all(c is case.cloud_mod for _, c, _ in calls)
        assert ("evaluate_batch", case.cloud_mod, np.count_nonzero(
            case.influence.modified_supports.sizes)) in calls
        assert sum(name == "evaluate_at" for name, _, _ in calls) \
            == reload * 2 * len(bc.tractions)
        evaluated = sum(n for name, _, n in calls if name == "evaluate_batch")
        assert evaluated < active / 4
    calls.clear()
    base.fields()
    assert calls == []


def _assembled_load(case):
    """The BC-applied modified load, assembled on the modified cloud."""
    F = assemble_load(case.cloud_mod, case.bc, case.dof_map, case.baseline.cfg)
    return apply_bcs(StiffnessSystem(K=case.K_m, F=F, dof_map=case.dof_map),
                     case.bc, case.cloud_mod).F


@pytest.mark.parametrize("edit", ["removal", "insertion", "material"])
def test_load_out_of_reach_is_the_baseline_load(monkeypatch, edit):
    """On the tension plate loaded at x = 19, edits near x = 4 are out of
    reach of every traction point: the load is the baseline's, lifted, with
    no traction point evaluated, and it equals the load assembled on the
    modified cloud entry for entry."""
    cloud, grid, mat, bc, _ = loaded_edge_cut()
    base = full_analysis(cloud, grid, mat, bc)
    x, y = cloud.coords.T
    mod = {"removal": Modification(
               removed_ids=set(cloud.ids[(x == 4) & (np.abs(y - 5) < 2)])),
           "insertion": Modification(added_ids=(1000, 7000),
                                     added_coords=[[4.5, 5.5], [3.5, 2.5]]),
           "material": Modification(
               material_change=MaterialModel(500.0, 0.2))}[edit]

    def refuse(*_, **__):
        raise AssertionError("an out-of-reach edit assembled the load")

    with monkeypatch.context() as m:
        m.setattr(pipeline, "assemble_load", refuse)
        case = prepare_modified(base, mod)
    assert np.array_equal(case.F, _assembled_load(case))
    _check_case(base, mod, case)


def test_load_within_reach_is_assembled_again(monkeypatch):
    """A removal at x = 17, two pitches from the loaded edge x = 19, is
    within reach of its traction points but leaves material under them:
    the load is assembled on the modified cloud."""
    cloud, grid, mat, bc, _ = loaded_edge_cut()
    base = full_analysis(cloud, grid, mat, bc)
    x, y = cloud.coords.T
    mod = Modification(removed_ids={int(cloud.ids[(x == 17) & (y == 5)][0])})
    calls = []

    def recording(cloud_mod, *args):
        calls.append(cloud_mod)
        return assemble_load(cloud_mod, *args)

    monkeypatch.setattr(pipeline, "assemble_load", recording)
    case = prepare_modified(base, mod)
    assert calls == [case.cloud_mod]
    assert np.array_equal(case.F, _assembled_load(case))
    _check_case(base, mod, case)


def test_baseline_state_is_read_only_and_reused_unchanged():
    cloud, grid, mat, bc, mod = demos.notch_fill()
    base = full_analysis(cloud, grid, mat, bc)
    state = base.raw.state
    sup = state.sup
    for a in (state.grads, sup.ptr, sup.rows, state.reach):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        state.grads[0, 0] = 0.0
    assert state.grads.shape == (len(sup.rows), cloud.dim)
    first, second = (prepare_modified(base, mod).K_m for _ in range(2))
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(first, attr), getattr(second, attr))


def test_traction_on_removed_material_is_refused():
    """A cut into the loaded edge leaves tractions without material under
    them: their load would still be integrated through grown supports, so
    prepare_modified refuses the edit, naming the first such traction.
    Boundary conditions that drop those tractions make it valid."""
    cloud, grid, mat, bc, mod = loaded_edge_cut()
    base = full_analysis(cloud, grid, mat, bc)
    with pytest.raises(ValidationError, match=r"traction \[19.0, 3.0\] -> "
                       r"\[19.0, 4.0\] acts off the material"):
        prepare_modified(base, mod)
    kept = BoundaryConditions(
        fixed_dofs=bc.fixed_dofs,
        tractions=[tr for tr in bc.tractions if not 3 <= tr.start[1] < 8])
    case = prepare_modified(base, Modification(removed_ids=mod.removed_ids,
                                               bc_change=kept))
    assert case.F.reshape(-1, 2)[:, 0].sum() == pytest.approx(6.0)


def test_refused_load_costs_no_update(monkeypatch):
    """The modified load is validated before the lift and the local
    update: a cut into the loaded edge is refused without reaching
    either."""
    cloud, grid, mat, bc, mod = loaded_edge_cut()
    base = full_analysis(cloud, grid, mat, bc)

    def unreachable(*_, **__):
        raise AssertionError("the refused edit reached the update")

    monkeypatch.setattr(pipeline, "local_delta", unreachable)
    monkeypatch.setattr(pipeline, "_lift", unreachable)
    with pytest.raises(ValidationError, match="acts off the material"):
        prepare_modified(base, mod)


def _notch_with_3d_material():
    cloud, grid, _, bc, _ = demos.notch_fill()
    return cloud, grid, MaterialModel(500.0, 0.3, mode="solid_3d"), bc


def _frame_with_plane_material():
    cloud, grid, _, bc, _ = demos.l_frame_3d()
    return cloud, grid, MaterialModel(500.0, 0.3), bc


def _notch_with_3d_grid():
    cloud, grid, mat, bc, _ = demos.notch_fill()
    grid3 = BackgroundGrid(origin=np.zeros(3), cell_size=np.ones(3),
                           counts=grid.counts + (1,))
    return cloud, grid3, mat, bc


@pytest.mark.parametrize("model, match", [
    (_notch_with_3d_material, "material mode"),
    (_frame_with_plane_material, "material mode"),
    (_notch_with_3d_grid, "grid dimensionality"),
])
def test_full_analysis_refuses_a_dimension_mismatch(model, match):
    """A material or grid of another dimension than the cloud is a
    ValidationError, as it is for a model file."""
    with pytest.raises(ValidationError, match=match):
        full_analysis(*model())


def test_prepare_modified_refuses_a_material_of_another_dimension():
    cloud, grid, mat, bc, _ = demos.notch_fill()
    base = full_analysis(cloud, grid, mat, bc)
    solid = MaterialModel(500.0, 0.3, mode="solid_3d")
    with pytest.raises(ValidationError, match="material mode"):
        prepare_modified(base, Modification(material_change=solid))


@pytest.fixture(scope="module")
def notch_case():
    cloud, grid, mat, bc, mod = demos.notch_fill()
    return prepare_modified(full_analysis(cloud, grid, mat, bc), mod)


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_ifu_tolerance_is_checked(notch_case, tol):
    """A negative, NaN or infinite IFU tolerance is a ValidationError, not
    a plain ValueError or an empty unbalanced set reported as a numerical
    failure."""
    with pytest.raises(ValidationError, match="IFU tolerance"):
        run_ifu(notch_case, tol)


@pytest.mark.parametrize("counts", [[0, 3], [1.5, 3], [3, True], []])
def test_ca_sweep_checks_every_count(notch_case, counts):
    """Every basis count of a sweep is an integer >= 1: a zero count is
    not an empty result, and a fractional one is not a TypeError."""
    with pytest.raises(ValidationError, match="basis count"):
        next(pipeline.ca_sweep(notch_case, counts))


def _scaled_plate_removal(E, load):
    """The 24 x 12 tension plate with Young's modulus E and its traction
    scaled by ``load``, prepared for the removal of its 9 nodes at
    |x - 12| <= 1, |y - 6| <= 1."""
    cloud, grid, _, bc = demos._tension_plate(24, 12, 1.0)
    bc = dataclasses.replace(bc, tractions=tuple(
        dataclasses.replace(t, q=load * t.q) for t in bc.tractions))
    base = full_analysis(cloud, grid, MaterialModel(E, 0.3), bc)
    x, y = cloud.coords.T
    block = cloud.ids[(np.abs(x - 12) <= 1) & (np.abs(y - 6) <= 1)]
    return prepare_modified(base, Modification(removed_ids=set(block)))


@pytest.mark.parametrize("E, load", [(1e-9, 1.0), (1e-3, 1.0), (1e10, 1.0),
                                     (1e15, 1.0), (1e3, 1e9)])
def test_the_units_of_E_and_loads_set_no_threshold(E, load):
    """The unit rows of decoupled DOFs hold a 1.0 with no unit.  Neither
    factorize's pivot test nor IFU's default tolerance reads them as the
    problem's scale, so a full analysis and an IFU edit solve at any E or
    load scale, with the unbalanced set of E = 1e3."""
    case = _scaled_plate_removal(E, load)
    U, _, diag = run_ifu(case)
    U_ref, _, _ = run_full_modified(case)
    assert np.linalg.norm(U - U_ref) <= 1e-10 * np.linalg.norm(U_ref)
    assert diag["n_d"] == run_ifu(_scaled_plate_removal(1e3, 1.0))[2]["n_d"]


@pytest.mark.parametrize("cfg", [MeshlessConfig(alpha=2.5),
                                 MeshlessConfig(theta=0.5)],
                         ids=["alpha-2.5", "theta-0.5"])
@pytest.mark.parametrize("edit", ["removal", "insertion"])
def test_a_non_default_config_reaches_every_pass(cfg, edit):
    """prepare_modified at a non-default MeshlessConfig: the edited node
    state equals the one built from scratch, K_m the BC-applied global
    reassembly, and IFU's fields those of a full analysis of the modified
    cloud, all at that config."""
    cloud, grid, mat, bc = demos._tension_plate(16, 10, 1.0)
    base = full_analysis(cloud, grid, mat, bc, cfg)
    mod = {"removal": Modification(removed_ids={_interior_node(cloud)}),
           "insertion": Modification(added_ids=(500, 501),
                                     added_coords=[[6.5, 4.5], [8.5, 3.5]]),
           }[edit]
    case = _check_case(base, mod)
    ref = node_state(case.cloud_mod, cfg)
    for a, b in ((case.nodes.sup.ptr, ref.sup.ptr),
                 (case.nodes.sup.rows, ref.sup.rows),
                 (case.nodes.grads, ref.grads), (case.nodes.reach, ref.reach)):
        assert np.array_equal(a, b)
    fields = run_ifu(case)[1]
    full = full_analysis(case.cloud_mod, grid, mat, bc, cfg).fields()
    assert np.array_equal(fields.node_ids, full.node_ids)
    for name in ("displacements", "stress"):
        a, b = getattr(fields, name), getattr(full, name)
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b), name
