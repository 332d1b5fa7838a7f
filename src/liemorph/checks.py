"""The one verdict type: a named residual held against a tolerance.

Every numeric identity the package verifies ends as a ``Check``.  The pass
rule is the same everywhere: the residual is finite and at most the
tolerance, so a NaN or inf residual never passes.

``DEFAULT_TOLERANCES`` is the one table of named tolerances.  Library
functions default their reported tolerances from it, and the CLI's
``tolerances`` config block and ``--tol NAME=VALUE`` override it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOLERANCES = {
    "family": 1e-8,
    "classify": 1e-9,
    "connection": 1e-10,
    "curvature_symmetry": 1e-9,
    "curvature_constant": 1e-7,
    "expected_value": 1e-8,
    "dilation": 1e-9,
    "minimality": 1e-10,
    "nonexistence_floor": 1e-3,
    "adjoint_structure": 1e-8,
}


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tol", float(self.tol))

    @property
    def passed(self) -> bool:
        return math.isfinite(self.residual) and self.residual <= self.tol


def max_residual(residuals) -> float:
    """Largest of the residuals, 0.0 for none; a NaN among them is returned as NaN.

    Python's ``max(0.0, nan)`` is 0.0, which would let a NaN residual pass.
    """
    return float(np.max([0.0, *residuals]))
