"""Numerical curvature, Riccati-equation, and polynomial-constraint toolkit for 3-manifolds."""

from .curvature import (
    CurvaturePack,
    RankReport,
    curvature_pack,
    identity_residuals,
    jacobi_op,
    pack_at,
    ricci_rank,
)
from .exprjet import Jet4, eval_jet, parse_expr
from .metrics import MetricJet, MetricSpec, builtin, custom, metric_jets
from .obstruction import ObstructionValues, fibonacci_directions, obstruction_values
from .polyclass import ConstraintInstance, classify, tilde_transform, verify_constraint
from .riccati import GeodesicPath, integrate_geodesic, integrate_riccati

__all__ = [
    "ConstraintInstance",
    "CurvaturePack",
    "GeodesicPath",
    "Jet4",
    "MetricJet",
    "MetricSpec",
    "ObstructionValues",
    "RankReport",
    "builtin",
    "classify",
    "curvature_pack",
    "custom",
    "eval_jet",
    "fibonacci_directions",
    "identity_residuals",
    "integrate_geodesic",
    "integrate_riccati",
    "jacobi_op",
    "metric_jets",
    "obstruction_values",
    "pack_at",
    "parse_expr",
    "ricci_rank",
    "tilde_transform",
    "verify_constraint",
]

__version__ = "0.1.0"
