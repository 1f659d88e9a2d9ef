"""mkfree: meshless linear elastostatics with moving-Kriging shape functions
and fast structural reanalysis (reduced-basis and exact factorization-update
methods) for locally modified node clouds."""

import os as _os


def _positive(value: str | None) -> int | None:
    """``value`` as a positive integer, or None."""
    try:
        n = int(value)
    except (TypeError, ValueError):
        return None
    return n if n > 0 else None


# MESHLESS_THREADS caps the BLAS/OpenMP worker count: each pool variable
# becomes the smaller of its own positive value and the cap.  A pool reads
# its variable when its library loads, so this caps only the libraries
# loaded after this package (numpy imported first keeps its pool).  A cap
# that is not a positive integer is ignored.
_t = _positive(_os.environ.get("MESHLESS_THREADS"))
if _t:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ[_var] = str(min(_t, _positive(_os.environ.get(_var))
                                    or _t))

from .config import DEFAULT_CONFIG, MeshlessConfig
from .errors import (ConditioningError, MkfreeError, NumericalError,
                     RigidBodyError, SupportDeficiencyError, ValidationError)
from .model import (BackgroundGrid, BoundaryConditions, DofMap, MaterialModel,
                    Modification, NodeCloud, Traction, apply_modification,
                    identity_dof_map, load_model, load_modification)
from .pipeline import (Baseline, ModifiedCase, full_analysis, prepare_modified,
                       run_ca, run_full_modified, run_ifu)
from .recovery import FieldSolution, error_metrics, recover_fields, von_mises

__all__ = [
    "MeshlessConfig", "DEFAULT_CONFIG",
    "MkfreeError", "ValidationError", "NumericalError",
    "SupportDeficiencyError", "ConditioningError", "RigidBodyError",
    "NodeCloud", "BackgroundGrid", "MaterialModel", "Traction",
    "BoundaryConditions", "Modification", "DofMap",
    "apply_modification", "identity_dof_map", "load_model",
    "load_modification",
    "Baseline", "ModifiedCase", "full_analysis", "prepare_modified",
    "run_ca", "run_ifu", "run_full_modified",
    "FieldSolution", "recover_fields", "von_mises", "error_metrics",
]

__version__ = "0.1.0"
