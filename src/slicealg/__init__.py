"""Slice-function calculus over finite-dimensional real alternative *-algebras."""

from .algebra import (
    EXACT, FLOAT, AlgebraError, AlgebraMismatch, AlgebraSpec, ConeReport,
    Element, NotInvertible, ScalarModeMismatch, UnknownAlgebra, abs_q,
    associator, commutator, cone_membership, conj, imag_part, in_center,
    in_central_cone, in_nucleus, invert, is_zero_divisor, make_builtin, mul,
    norm, real_part, trace, try_invert, verify_axioms,
)
from .complexify import ComplexifiedSpec, c_involution, complex_conj, complexify
from .division import (
    NonAssociativeAlgebra, OnZeroSetOfNormal, Quotient, product_pointwise,
    quotient_eval, reciprocal, reciprocal_eval, t_map,
)
from .parsing import ParseError, format_element, format_poly, parse_element, parse_poly
from .slicefn import (
    CallableStem, NotTame, PolyStem, SliceFunction, binomial, constant, evaluate,
    from_callable, is_slice_preserving, is_tame, normal, poly,
    product_eval_formula, regularity_residual, rep_two_points, slice_conjugate,
    slice_product, spherical_derivative, spherical_value, x_poly,
)
from .zeroset import (
    AFFINE_SET, EMPTY, FULL_SPHERE, POINT, POINT_PAIR, PredictionReport,
    SphereRef, SphereZeroClass, ZeroReport, candidate_spheres, classify_sphere,
    full_zero_set, product_zero_predict, r3_sphere_structure, report_to_json,
    so_sphere_structure, zeros_on_sphere,
)

__all__ = [name for name in dir() if not name.startswith("_")]
