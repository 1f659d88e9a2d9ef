"""Runtime knobs shared by interpolation, assembly, and reanalysis."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class MeshlessConfig:
    """Parameters of the interpolation and quadrature machinery.

    alpha   scale factor of the support radius (d_m = alpha * d_c)
    theta   Gaussian correlation parameter, units 1/length^2

    The fixed constants of the kernel live beside their one reader:
    ``assembly.ACTIVITY_FACTOR`` (which Gauss points integrate), and in
    ``interp`` the one-shot radius growth of a support that captures fewer
    nodes than the polynomial basis size, the trace(R^-1) limit and the
    residual tolerance of the interpolation systems.
    """

    alpha: float = 3.0
    theta: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "theta"):
            if not 0 < getattr(self, name) < float("inf"):
                raise ValidationError(f"{name} must be finite and positive")


DEFAULT_CONFIG = MeshlessConfig()
