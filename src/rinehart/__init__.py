"""Exact symbolic geometry of Rinehart spaces over commutative ground rings.

Everything is computed in polynomial algebras (or their quotients by a
principal ideal) with exact coefficient arithmetic, so every verified
identity is a proof, not a numerical observation.
"""

from .errors import (ArityMismatch, DegreeOverflow, IdealMismatch, MetricNotMusical,
                     NotAUnit, NotEuclidean, NotTangent, ParseError, RinehartError,
                     RingMismatch, SpaceMismatch, TwoNotAUnit, ValidationError)
from .hypersurface import (HypersurfaceSpace, InducedConnection, is_tangent, make_sphere,
                           project_normal, project_tangent, quotient_equal,
                           second_fundamental_form, spanning_fields, verify_space_form)
from .parse import parse_poly, parse_scalar, parse_vector
from .poly import (Poly, PrincipalIdeal, QuotientElem, UnitStatus,
                   divide_exact, divmod_poly, format_poly, normal_form,
                   sum_products, unit_status)
from .rings import (GroundScalar, PrimeField, QuadExt, Rationals,
                    RingDescriptor, ring_from_json)
from .space import (EuclideanConnection, KoszulConnection, Report, RinehartSpace,
                    ambient_derivative, check_constant_curvature, check_levi_civita,
                    curvature, derive, differential, gradient, lie_bracket)
from .tensors import (Metric, OneForm, VectorField, flat, inner,
                      in_maximal_ideal_submodule, pairing, sharp)

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch", "DegreeOverflow", "EuclideanConnection", "GroundScalar",
    "HypersurfaceSpace", "IdealMismatch", "InducedConnection", "KoszulConnection", "Metric",
    "MetricNotMusical", "NotAUnit", "NotEuclidean", "NotTangent", "OneForm", "ParseError",
    "Poly", "PrimeField", "PrincipalIdeal", "QuadExt", "QuotientElem", "Rationals", "Report",
    "RinehartError", "RinehartSpace", "RingDescriptor", "RingMismatch", "SpaceMismatch",
    "TwoNotAUnit", "UnitStatus", "ValidationError", "VectorField", "ambient_derivative",
    "check_constant_curvature", "check_levi_civita", "curvature", "derive", "differential",
    "divide_exact", "divmod_poly", "flat", "format_poly", "gradient",
    "in_maximal_ideal_submodule", "inner", "is_tangent", "lie_bracket", "make_sphere",
    "normal_form", "pairing", "parse_poly", "parse_scalar", "parse_vector", "project_normal",
    "project_tangent", "quotient_equal", "ring_from_json", "second_fundamental_form", "sharp",
    "spanning_fields", "sum_products", "unit_status", "verify_space_form",
]
