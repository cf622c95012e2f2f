"""Fractional Q-curvature scattering solver and Heintze-Karcher verification
lab on rotationally symmetric conformally compact Einstein models."""

__version__ = "0.1.0"

from .special_fn import (GAMMA_MAX, GAMMA_MIN, QCurvParams, d_gamma,
                         hk_constant, sphere_q_value, sphere_volume)
from .model_geometry import ModelSpace, mean_curvature_exact
from .scattering import (FrobeniusBranch, MatchingError, ScatteringResult,
                         frobenius_branches, match_and_q, solve_case,
                         solve_interior)
from .jet_algebra import (IntegralClass, Jet, Prop21Certificate,
                          expand_normal_form, verify_prop21)
from .compactification import (CompactifiedGeometry, GeometryError,
                               build_adapted, build_lee, residual_suite)
from .hk_verifier import (VerificationReport, asymptotic_ratio,
                          defect_identity, verify_adapted, verify_cla,
                          verify_lee)

__all__ = [
    "__version__",
    "GAMMA_MAX", "GAMMA_MIN", "QCurvParams", "d_gamma",
    "hk_constant", "sphere_q_value", "sphere_volume",
    "ModelSpace", "mean_curvature_exact",
    "FrobeniusBranch", "MatchingError", "ScatteringResult",
    "frobenius_branches", "match_and_q", "solve_case", "solve_interior",
    "IntegralClass", "Jet", "Prop21Certificate", "expand_normal_form",
    "verify_prop21",
    "CompactifiedGeometry", "GeometryError", "build_adapted",
    "build_lee", "residual_suite",
    "VerificationReport", "asymptotic_ratio", "defect_identity",
    "verify_adapted", "verify_cla", "verify_lee",
]
