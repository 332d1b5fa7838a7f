"""Harmonic morphisms and conformal foliations on solvable matrix Lie groups.

Everything is a pure function over immutable values; determinism is part of
the contract, so every sampling entry point takes an explicit seed.
"""

__version__ = "0.1.0"

from .algebra import (LieAlgebra, Subspace, center, derived_series, is_abelian,
                      is_nilpotent, is_solvable, lower_central_series,
                      orthonormal_basis, orthonormalize, span)
from .checks import DEFAULT_TOLERANCES, Check
from .constructions import (FirstConstruction, IsotropicBasis,
                            RootGradedAlgebra, RootSpace,
                            damek_ricci_root_graded, first_construction,
                            max_isotropic, max_isotropic_orthogonal_to,
                            restrict_to_xi_perp, second_construction_check,
                            xi_vector)
from .errors import ConstructionError, DomainError, StructureError
from .foliations import (ClassifyResult, DistributionSpec, ScanHit, ScanResult,
                         classify, constant_curvature_certificate, scan_3d,
                         second_forms)
from .geometry import (ConnectionTable, curvature, gl_connection_term,
                       is_constant_curvature, koszul, sectional)
from .groups import (MatrixRealization, build_damek_ricci, build_G3,
                     build_Galpha, build_H, build_K, build_N, build_S,
                     exp_matrix, sample_points)
from .jets import (CurveJet, Frame, Jet2, Polynomial, ScalarField, derivs,
                   fd_check, holomorphic_post, kappa, laplacian, log_diag,
                   linear_combination, matrix_entry, pairing, random_polynomial,
                   verify_family)
