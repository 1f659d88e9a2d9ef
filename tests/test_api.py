"""The public surface: every name a module exports exists, and so does every
function the benchmark's traced run wraps, so a cut that leaves one behind
fails here, naming it, instead of deep inside a traced run."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import mkfree


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
