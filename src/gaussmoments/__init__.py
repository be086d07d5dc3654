"""Exact computational algebra for Gaussian mixture moment varieties."""

from .moments import (CumulantVector, GaussianParams, MixtureParams,
                      MomentVector, cumulants_to_moments, mixture_moments,
                      moment_polynomials, moments_to_cumulants, multi_indices,
                      univariate_moments)
from .polyring import Polynomial, PolyRing
from .recovery import (RecoveryError, RecoveryInput, degenerate_mean_test,
                       recover)
from .secant import (DEFAULT_PRIME, DefectRow, RankCertificate, SecantProblem,
                     census, conjecture_eleven_defect, defect_identity_d3,
                     defect_row, degree_formula_sec2_g1,
                     degree_formula_sec2_x, degree_formula_sec3_x,
                     dim_formula_d3)

__all__ = [
    "CumulantVector", "GaussianParams", "MixtureParams", "MomentVector",
    "Polynomial", "PolyRing",
    "DefectRow", "RankCertificate", "SecantProblem", "DEFAULT_PRIME",
    "RecoveryError", "RecoveryInput",
    "census", "conjecture_eleven_defect", "cumulants_to_moments",
    "defect_identity_d3", "defect_row", "degenerate_mean_test",
    "degree_formula_sec2_g1", "degree_formula_sec2_x", "degree_formula_sec3_x",
    "dim_formula_d3", "mixture_moments", "moment_polynomials",
    "moments_to_cumulants", "multi_indices", "recover", "univariate_moments",
]

__version__ = "0.1.0"
