"""Fractional Q-curvature scattering solver and Heintze-Karcher verification
lab on rotationally symmetric conformally compact Einstein models."""

__version__ = "0.1.0"

from .special_fn import (GAMMA_MAX, GAMMA_MIN, QCurvParams, d_gamma, gamma_fn,
                         hk_constant, sphere_q_oracle, sphere_q_value,
                         sphere_volume)
from .model_geometry import ModelSpace, frame, mean_curvature_exact, model_validate
from .scattering import (FrobeniusBranch, MatchingError, RadialProfile,
                         ResonanceError, ScatteringResult, frobenius_branch,
                         frobenius_coefficients, lee_potential_exact,
                         match_and_q, solve_case, solve_interior)
from .jet_algebra import (IntegralClass, Jet, Poly, Prop21Certificate,
                          UnsupportedIntegralError, boundary_integral,
                          expand_normal_form, jet_combine, verify_prop21)
from .compactification import (CompactifiedGeometry, GeometryError,
                               HessianSplit, build_adapted, build_lee,
                               hessian_split, residual_suite)
from .hk_verifier import (TailSpec, VerificationReport, asymptotic_ratio,
                          defect_identity, verify_adapted, verify_cla,
                          verify_lee)

__all__ = [
    "__version__",
    "GAMMA_MAX", "GAMMA_MIN", "QCurvParams", "d_gamma", "gamma_fn",
    "hk_constant", "sphere_q_oracle", "sphere_q_value", "sphere_volume",
    "ModelSpace", "frame", "mean_curvature_exact", "model_validate",
    "FrobeniusBranch", "MatchingError", "RadialProfile", "ResonanceError",
    "ScatteringResult", "frobenius_branch", "frobenius_coefficients",
    "lee_potential_exact",
    "match_and_q", "solve_case", "solve_interior",
    "IntegralClass", "Jet", "Poly", "Prop21Certificate",
    "UnsupportedIntegralError", "boundary_integral", "expand_normal_form",
    "jet_combine", "verify_prop21",
    "CompactifiedGeometry", "GeometryError", "HessianSplit", "build_adapted",
    "build_lee", "hessian_split", "residual_suite",
    "TailSpec", "VerificationReport", "asymptotic_ratio", "defect_identity",
    "verify_adapted", "verify_cla", "verify_lee",
]
