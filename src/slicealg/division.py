"""Reciprocals and quotients of slice functions.

A tame f has the reciprocal f^{-.} = N(f)^{-.} . f^c away from V(N(f)); it is
kept symbolic (a Quotient) and evaluated pointwise, since it is generally not
polynomial.  On associative algebras the conjugation map T_f gives closed
pointwise formulas for products and quotients; on non-associative algebras
those routines refuse to run and the associator-corrected formula in slicefn
is the supported path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    DEFAULT_TOL, AlgebraError, Element, NotInvertible, try_invert,
)
from .slicefn import (  # NotTame is re-exported for division callers
    NotTame, SliceFunction, _tame_normal, evaluate, slice_conjugate,
    slice_product,
)


class OnZeroSetOfNormal(AlgebraError):
    pass


class NonAssociativeAlgebra(AlgebraError):
    pass


@dataclass(frozen=True)
class Quotient:
    """Symbolic f^{-.} . g with f tame; evaluated as N(f)(x)^{-1} (f^c . g)(x)."""

    numerator_conj: SliceFunction
    normal: SliceFunction
    g: SliceFunction | None = None

    def __call__(self, x: Element, tol=DEFAULT_TOL) -> Element:
        nfx = evaluate(self.normal, x, tol)
        nf_inv = try_invert(nfx, tol)
        if nf_inv is None:
            raise OnZeroSetOfNormal(f"N(f) vanishes (or is singular) at {x!r}")
        top = self.numerator_conj if self.g is None else \
            slice_product(self.numerator_conj, self.g)
        return nf_inv * evaluate(top, x, tol)


def reciprocal(f: SliceFunction, tol=DEFAULT_TOL) -> Quotient:
    nf = _tame_normal(f, tol)
    return Quotient(slice_conjugate(f), nf)


def reciprocal_eval(f: SliceFunction, x: Element, tol=DEFAULT_TOL) -> Element:
    """f^{-.}(x) = (N(f)(x))^{-1} f^c(x) for tame f and x off V(N(f))."""
    return reciprocal(f, tol)(x, tol)


def reciprocal_function(f: SliceFunction, tol=DEFAULT_TOL) -> SliceFunction:
    """f^{-.} as a slice function with a callable stem on {N(f) != 0}.

    The stem is G = N^{-1} F^c with N = n1 + iota n2 real-pair valued, so
    G1 = (n1 F1^c + n2 F2^c)/(n1^2 + n2^2) and G2 = (n1 F2^c - n2 F1^c)/(same);
    exact at rational stem arguments.
    """
    nf = _tame_normal(f, tol)
    from .slicefn import _as_stem_evaluator, from_callable
    nf_ev = _as_stem_evaluator(nf)
    fc_ev = _as_stem_evaluator(slice_conjugate(f))

    def ev(a, b):
        n1e, n2e = nf_ev(a, b)
        f1, f2 = fc_ev(a, b)
        n1, n2 = n1e.coeffs[0], n2e.coeffs[0]
        den = n1 * n1 + n2 * n2
        if den == 0:
            raise OnZeroSetOfNormal(f"N(f) vanishes on the sphere ({a}, {b})")
        inv_den = 1.0 / den if isinstance(den, float) else Fraction(1, 1) / den
        return (n1 * f1 + n2 * f2) * inv_den, (n1 * f2 - n2 * f1) * inv_den

    dom = None if f.is_poly else f.stem.domain
    kind = "unknown" if f.is_poly else f.stem.domain_kind
    return from_callable(f.algebra, ev, domain=dom, domain_kind=kind,
                         check_symmetry=False)


def t_map(f: SliceFunction, x: Element, tol=DEFAULT_TOL) -> Element:
    """T_f(x) = f^c(x)^{-1} x f^c(x); a sphere-preserving conjugation.

    Requires an associative algebra and tame f (tameness makes n(f^c(x))
    commute with x, which keeps the image on the sphere S_x); its inverse is
    T_{f^c}.
    """
    if not f.algebra.is_associative:
        raise NonAssociativeAlgebra("T_f is only defined on associative algebras")
    _tame_normal(f, tol)
    return _t_map(f, x, tol)


def _t_map(f, x, tol):
    """T_f(x) for an f already known to be tame."""
    fcx = evaluate(slice_conjugate(f), x, tol)
    fcx_inv = try_invert(fcx, tol)
    if fcx_inv is None:
        raise NotInvertible("f^c(x) is not invertible")
    return (fcx_inv * x) * fcx


def quotient_eval(f: SliceFunction, g: SliceFunction, x: Element,
                  tol=DEFAULT_TOL) -> Element:
    """(f^{-.} . g)(x) = f(T_f(x))^{-1} g(T_f(x)) on associative algebras."""
    if not f.algebra.is_associative:
        raise NonAssociativeAlgebra("quotient formula needs an associative algebra")
    nf = _tame_normal(f, tol)
    if try_invert(evaluate(nf, x, tol), tol) is None:
        raise OnZeroSetOfNormal(f"N(f) vanishes (or is singular) at {x!r}")
    y = _t_map(f, x, tol)
    fy = evaluate(f, y, tol)
    fy_inv = try_invert(fy, tol)
    if fy_inv is None:
        raise NotInvertible("f(T_f(x)) is not invertible")
    return fy_inv * evaluate(g, y, tol)


def product_pointwise(f: SliceFunction, g: SliceFunction, x: Element,
                      tol=DEFAULT_TOL) -> Element:
    """(f.g)(x) = f(x) g(f(x)^{-1} x f(x)) for tame f with f(x) invertible."""
    if not f.algebra.is_associative:
        raise NonAssociativeAlgebra("pointwise product formula needs associativity")
    _tame_normal(f, tol)
    fx = evaluate(f, x, tol)
    fx_inv = try_invert(fx, tol)
    if fx_inv is None:
        raise NotInvertible("f(x) is not invertible; use the slice product directly")
    y = (fx_inv * x) * fx
    return fx * evaluate(g, y, tol)
