"""The public surface: every name a module exports exists, and so does every
function the benchmark's traced run wraps, so a cut that leaves one behind
fails here, naming it, instead of deep inside a traced run.  A value of the
wrong type given to a public constructor or method raises ValidationError."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import mkfree
from mkfree import demos
from mkfree.errors import ValidationError
from mkfree.model import (BackgroundGrid, BoundaryConditions, MaterialModel,
                          Modification, NodeCloud, Traction)
from mkfree.pipeline import full_analysis, prepare_modified, run_ca, run_ifu


def _traced() -> dict:
    """``TRACED`` of perfbench/spans.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_exported_name_exists():
    names = ["mkfree"] + [f"mkfree.{m.name}"
                          for m in pkgutil.iter_modules(mkfree.__path__)]
    missing = []
    for name in names:
        mod = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(mod, "__all__", ())
                    if not hasattr(mod, attr)]
    assert not missing, f"exported but not defined: {missing}"


def test_every_traced_function_exists():
    missing = [f"mkfree.{short}.{fname}"
               for short, fnames in _traced().items() for fname in fnames
               if not callable(getattr(importlib.import_module(
                   f"mkfree.{short}"), fname, None))]
    assert not missing, f"traced by perfbench but not defined: {missing}"


@pytest.fixture(scope="module")
def notch_case():
    cloud, grid, mat, bc, mod = demos.notch_fill()
    return prepare_modified(full_analysis(cloud, grid, mat, bc), mod)


_WRONG_TYPES = {
    "E-string": lambda _: MaterialModel("5", 0.3),
    "nu-string": lambda _: MaterialModel(5.0, "0.3"),
    "E-none": lambda _: MaterialModel(None, 0.3),
    "traction": lambda _: Traction(start=[0, "a"], end=[0, 1], q=[1, 0]),
    "cloud": lambda _: NodeCloud(ids=[0, 1], coords=[["a", 0], [1, 1]],
                                 dim=2),
    "added-coords": lambda _: Modification(added_ids=(7,),
                                           added_coords=[["a", 0]]),
    "grid-origin": lambda _: BackgroundGrid(origin=[0, "a"],
                                            cell_size=[1, 1], counts=(2, 2)),
    "fixed-triple": lambda _: BoundaryConditions(fixed_dofs=((1, 0, 3),)),
    "fixed-scalar": lambda _: BoundaryConditions(fixed_dofs=(1,)),
    "load-string": lambda _: BoundaryConditions(point_loads=((1, 0, "x"),)),
    "ca-s-float": lambda case: run_ca(case, s=1.5),
    "ca-s-bool": lambda case: run_ca(case, s=True),
    "ca-s-string": lambda case: run_ca(case, s="3"),
    "ifu-tol-string": lambda case: run_ifu(case, "a"),
}


@pytest.mark.parametrize("call", list(_WRONG_TYPES.values()),
                         ids=list(_WRONG_TYPES))
def test_wrong_typed_value_is_validation_error(notch_case, call):
    with pytest.raises(ValidationError):
        call(notch_case)
