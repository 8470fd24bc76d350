"""Stem functions and slice functions.

A polynomial stem F(z) = sum z^m a_m with coefficients a_m in A induces the
slice function f(x) = sum x^m a_m on the quadratic cone.  A callable stem
carries an evaluator (alpha, beta) -> (F1, F2) instead.  The slice product is
coefficient convolution for polynomial stems and the pointwise stem product in
A_C otherwise; both agree where they overlap.

Slice functions are immutable values; callable evaluators must be pure, which
makes every operation here safe for concurrent use.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    EXACT, FLOAT, DEFAULT_TOL, AlgebraError, AlgebraMismatch, Element,
    OutsideQuadraticCone, associator, conj, exact_sqrt, invert, norm, trace,
)
from .complexify import complexify


class DomainError(AlgebraError):
    pass


def _as_float_element(x: Element) -> Element:
    if x.mode == FLOAT:
        return x
    return x.algebra.element([float(c) for c in x.coeffs], FLOAT)


def in_quadratic_cone(x: Element, tol=DEFAULT_TOL) -> bool:
    """Lightweight Q_A membership test (no invertibility machinery)."""
    if x.is_real(tol if x.mode == FLOAT else 0.0):
        return True
    t = trace(x)
    n = norm(x)
    if x.mode == EXACT:
        if not (t.is_real() and n.is_real()):
            return False
        return 4 * n.coeffs[0] > t.coeffs[0] ** 2
    if not (t.is_real(tol) and n.is_real(tol)):
        return False
    return 4 * n.coeffs[0] > t.coeffs[0] ** 2 + tol


def decompose_qa(x: Element, tol=DEFAULT_TOL):
    """x in Q_A as (alpha, im(x), beta_sq) with x = alpha + im(x), n(im) = beta_sq."""
    if not in_quadratic_cone(x, tol):
        raise OutsideQuadraticCone(f"{x!r} is outside the quadratic cone")
    half = Fraction(1, 2) if x.mode == EXACT else 0.5
    alpha = half * trace(x).coeffs[0]
    im = x - x.algebra.from_scalar(alpha, x.mode)
    beta_sq = norm(x).coeffs[0] - alpha * alpha
    return alpha, im, beta_sq


class PolyStem:
    """F(z) = sum z^m a_m, coefficients in the base algebra."""

    def __init__(self, cspec, coeffs):
        self.cspec = cspec
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        base = cspec.base
        for a in coeffs:
            if a.algebra is not base:
                raise AlgebraMismatch("stem coefficient from the wrong algebra")
        modes = {a.mode for a in coeffs}
        if len(modes) > 1:
            raise AlgebraError("stem coefficients must share one scalar mode")
        self.mode = modes.pop() if modes else EXACT
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None


class CallableStem:
    """A stem given by an evaluator (alpha, beta) -> (F1, F2).

    The evaluator must be pure and the domain predicate closed under
    beta -> -beta; stem symmetry is spot-checked on a deterministic grid.
    domain_kind is constructor-supplied metadata ('slice', 'product' or
    'unknown'), never inferred.
    """

    GRID_POINTS = 64

    def __init__(self, cspec, evaluator, domain=None, domain_kind="unknown",
                 check_symmetry=True, tol=DEFAULT_TOL):
        self.cspec = cspec
        self.evaluator = evaluator
        self.domain = domain or (lambda a, b: True)
        self.domain_kind = domain_kind
        self.mode = None  # determined per evaluation
        if check_symmetry:
            self._check_symmetry(tol)

    def _check_symmetry(self, tol):
        def both_signs(a, b):
            return self.domain(a, b) and self.domain(a, -b)

        for a, b in _sample_grid(both_signs, self.GRID_POINTS):
            f1p, f2p = self.evaluator(a, b)
            f1m, f2m = self.evaluator(a, -b)
            ok1 = (f1p - f1m).is_zero(tol)
            ok2 = (f2p + f2m).is_zero(tol)
            if not (ok1 and ok2):
                raise AlgebraError("callable stem violates the stem symmetry "
                                   f"F(conj z) = conj F(z) at ({a}, {b})")


class SliceFunction:
    """A slice function, wrapping a polynomial or callable stem."""

    def __init__(self, stem):
        self.stem = stem

    @property
    def cspec(self):
        return self.stem.cspec

    @property
    def algebra(self):
        return self.stem.cspec.base

    @property
    def is_poly(self):
        return isinstance(self.stem, PolyStem)

    def coefficients(self):
        if not self.is_poly:
            raise AlgebraError("not a polynomial stem")
        return self.stem.coeffs

    def __add__(self, other):
        if not isinstance(other, SliceFunction):
            return NotImplemented
        if self.is_poly and other.is_poly:
            a, b = list(self.stem.coeffs), list(other.stem.coeffs)
            n = max(len(a), len(b))
            z = self.algebra.zero(self.stem.mode)
            a += [z] * (n - len(a))
            b += [z] * (n - len(b))
            return SliceFunction(PolyStem(self.cspec, [x + y for x, y in zip(a, b)]))
        return _pointwise_combine(self, other, lambda p, q: (p[0] + q[0], p[1] + q[1]))

    def __neg__(self):
        if self.is_poly:
            return SliceFunction(PolyStem(self.cspec, [-a for a in self.stem.coeffs]))
        ev = self.stem.evaluator
        return SliceFunction(CallableStem(
            self.cspec, lambda a, b: tuple(-c for c in ev(a, b)),
            self.stem.domain, self.stem.domain_kind, check_symmetry=False))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SliceFunction):
            return slice_product(self, other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, SliceFunction):
            return NotImplemented
        if self.is_poly and other.is_poly:
            return (self.cspec is other.cspec
                    and self.stem.coeffs == other.stem.coeffs)
        return self is other

    def __hash__(self):
        if self.is_poly:
            return hash((id(self.cspec), self.stem.coeffs))
        return id(self)

    def __repr__(self):
        from .parsing import format_poly
        if self.is_poly:
            return format_poly(self)
        return f"<slice function ({self.stem.domain_kind} callable stem) over {self.algebra.name}>"


# -- constructors --------------------------------------------------------------

def poly(alg, coeffs, mode=EXACT) -> SliceFunction:
    """Polynomial slice function from low-order-first coefficients.

    Scalars are promoted to real elements of alg.
    """
    cspec = complexify(alg)
    elems = []
    for c in coeffs:
        if isinstance(c, Element):
            elems.append(c)
        else:
            elems.append(alg.from_scalar(c, mode))
    return SliceFunction(PolyStem(cspec, elems))


def x_poly(alg, mode=EXACT) -> SliceFunction:
    return poly(alg, [alg.zero(mode), alg.one(mode)], mode)


def constant(a: Element) -> SliceFunction:
    return SliceFunction(PolyStem(complexify(a.algebra), [a]))


def binomial(a: Element) -> SliceFunction:
    """The slice function x - a."""
    return poly(a.algebra, [-a, a.algebra.one(a.mode)])


def from_callable(alg, evaluator, domain=None, domain_kind="unknown",
                  check_symmetry=True) -> SliceFunction:
    return SliceFunction(CallableStem(complexify(alg), evaluator, domain,
                                      domain_kind, check_symmetry))


# -- stem component evaluation ---------------------------------------------------

def _poly_components(coeffs, alpha, beta):
    """(F1, F2) of a polynomial stem at z = alpha + i beta."""
    if not coeffs:
        return None, None
    alg = coeffs[0].algebra
    mode = coeffs[0].mode
    f1 = alg.zero(mode)
    f2 = alg.zero(mode)
    p, q = (1, 0) if mode == EXACT else (1.0, 0.0)
    for a in coeffs:
        f1 = f1 + p * a
        f2 = f2 + q * a
        p, q = alpha * p - beta * q, alpha * q + beta * p
    return f1, f2


def _poly_vs_ds(coeffs, alpha, beta_sq):
    """(v_s f, f'_s) at a sphere given by (alpha, beta^2); exact in those data.

    With P_m = Re(z^m), Q_m = Im(z^m)/beta, the recurrence P' = a P - b^2 Q,
    Q' = P + a Q only involves alpha and beta^2.
    """
    if not coeffs:
        return None, None
    exact_params = (isinstance(alpha, (int, Fraction))
                    and isinstance(beta_sq, (int, Fraction)))
    if coeffs[0].mode == EXACT and not exact_params:
        coeffs = tuple(_as_float_element(a) for a in coeffs)
    alg = coeffs[0].algebra
    mode = coeffs[0].mode
    vs = alg.zero(mode)
    ds = alg.zero(mode)
    p, q = (1, 0) if mode == EXACT else (1.0, 0.0)
    for a in coeffs:
        vs = vs + p * a
        ds = ds + q * a
        p, q = alpha * p - beta_sq * q, p + alpha * q
    return vs, ds


def sphere_values(f: SliceFunction, alpha, beta_sq, beta=None):
    """(v_s f, f'_s) on the sphere alpha + beta*S_A.

    Polynomial stems only need (alpha, beta^2); callable stems need beta itself.
    """
    if f.is_poly:
        if not f.stem.coeffs:
            z = f.algebra.zero(EXACT)
            return z, z
        return _poly_vs_ds(f.stem.coeffs, alpha, beta_sq)
    if beta is None:
        beta = _sqrt_scalar(beta_sq)
    if not f.stem.domain(alpha, beta):
        raise DomainError(f"({alpha}, {beta}) is outside the stem domain")
    f1, f2 = f.stem.evaluator(alpha, beta)
    if isinstance(beta, float) and f1.mode == EXACT:
        f1, f2 = _as_float_element(f1), _as_float_element(f2)
    if beta == 0:
        raise DomainError("spherical derivative data requires beta != 0")
    inv_beta = Fraction(1, 1) / beta if f2.mode == EXACT else 1.0 / beta
    return f1, inv_beta * f2


def _sqrt_scalar(s):
    if isinstance(s, (int, Fraction)):
        r = exact_sqrt(Fraction(s))
        if r is not None:
            return r
    return float(s) ** 0.5


# -- evaluation -----------------------------------------------------------------

def evaluate(f: SliceFunction, x: Element, tol=DEFAULT_TOL) -> Element:
    """f(x) for x in the quadratic cone.

    Polynomial stems evaluate as sum x^m a_m with exact iterated powers
    (unambiguous by power-associativity); callable stems decompose x as
    alpha + beta J and return F1 + J F2.
    """
    if x.algebra is not f.algebra:
        raise AlgebraMismatch("point from the wrong algebra")
    if not in_quadratic_cone(x, tol):
        raise OutsideQuadraticCone(f"{x!r} is outside the quadratic cone")
    if f.is_poly:
        coeffs = f.stem.coeffs
        if not coeffs:
            return x.algebra.zero(x.mode)
        if f.stem.mode != x.mode:
            if x.mode == FLOAT:
                coeffs = tuple(_as_float_element(a) for a in coeffs)
            else:
                x = _as_float_element(x)
        out = None
        xp = x.algebra.one(x.mode)
        for a in coeffs:
            term = xp * a
            out = term if out is None else out + term
            xp = xp * x
        return out
    return _evaluate_callable(f, x, tol)


def _evaluate_callable(f, x, tol):
    alpha, im, beta_sq = decompose_qa(x, tol)
    stem = f.stem
    if (x.mode == EXACT and isinstance(beta_sq, Fraction)) or isinstance(beta_sq, int):
        beta = exact_sqrt(Fraction(beta_sq))
    else:
        beta = None
    if beta is None:
        beta = float(beta_sq) ** 0.5
        alpha = float(alpha)
        im = _as_float_element(im)
    if beta == 0:
        return _evaluate_callable_real(f, alpha, x.mode, tol)
    if not stem.domain(alpha, beta):
        raise DomainError(f"({alpha}, {beta}) is outside the stem domain")
    f1, f2 = stem.evaluator(alpha, beta)
    if im.mode != f1.mode:
        f1, f2 = _as_float_element(f1), _as_float_element(f2)
        im = _as_float_element(im)
        beta = float(beta)
    j = (Fraction(1, 1) / beta if im.mode == EXACT else 1.0 / beta) * im
    return f1 + j * f2


def _evaluate_callable_real(f, alpha, mode, tol):
    stem = f.stem
    alg = f.algebra
    if not stem.domain(alpha, 0):
        raise DomainError(f"({alpha}, 0) is outside the stem domain")
    f1, f2 = stem.evaluator(alpha, 0)
    seeds = alg.sa_basis_indices
    if not seeds:
        if not f2.is_zero(tol):
            raise AlgebraError("F2 does not vanish at a real point and S_A is empty")
        return f1
    vals = []
    for idx in seeds[:2]:
        j = alg.basis_element(idx, f1.mode)
        vals.append(f1 + j * f2)
    if len(vals) == 2 and not (vals[0] - vals[1]).is_zero(tol):
        raise AlgebraError("stem symmetry broken: value at a real point depends on J")
    return vals[0]


# -- spherical value and derivative ----------------------------------------------

def spherical_value(f: SliceFunction, x: Element, tol=DEFAULT_TOL) -> Element:
    """v_s f(x) = (f(x) + f(x^c)) / 2; constant on each sphere."""
    alpha, im, beta_sq = decompose_qa(x, tol)
    if f.is_poly:
        vs, _ = _poly_vs_ds_or_zero(f, alpha, beta_sq, x.mode)
        return vs
    half = Fraction(1, 2) if x.mode == EXACT else 0.5
    return half * (evaluate(f, x, tol) + evaluate(f, conj(x), tol))


def spherical_derivative(f: SliceFunction, x: Element, tol=DEFAULT_TOL) -> Element:
    """f'_s(x) = im(x)^{-1} (f(x) - f(x^c)) / 2; needs x outside the reals."""
    alpha, im, beta_sq = decompose_qa(x, tol)
    if im.is_zero(tol if x.mode == FLOAT else 0.0):
        raise DomainError("spherical derivative is undefined at real points")
    if f.is_poly:
        _, ds = _poly_vs_ds_or_zero(f, alpha, beta_sq, x.mode)
        return ds
    half = Fraction(1, 2) if x.mode == EXACT else 0.5
    return invert(im, tol) * (half * (evaluate(f, x, tol) - evaluate(f, conj(x), tol)))


def _poly_vs_ds_or_zero(f, alpha, beta_sq, mode):
    if not f.stem.coeffs:
        z = f.algebra.zero(mode)
        return z, z
    vs, ds = _poly_vs_ds(f.stem.coeffs, alpha, beta_sq)
    return vs, ds


# -- conjugate, product, normal ---------------------------------------------------

def slice_conjugate(f: SliceFunction) -> SliceFunction:
    """f^c, induced by F^c(z) = F1^c(z) + iota F2^c(z)."""
    if f.is_poly:
        return SliceFunction(PolyStem(f.cspec, [conj(a) for a in f.stem.coeffs]))
    ev = f.stem.evaluator
    return SliceFunction(CallableStem(
        f.cspec, lambda a, b: tuple(conj(c) for c in ev(a, b)),
        f.stem.domain, f.stem.domain_kind, check_symmetry=False))


def slice_product(f: SliceFunction, g: SliceFunction) -> SliceFunction:
    """f . g, induced by the pointwise stem product FG in A_C.

    Polynomial x polynomial is exact coefficient convolution
    (a.b)_k = sum_{i+j=k} a_i b_j; the stem variable is central so the
    ordering of coefficients is the only thing that matters.
    """
    if f.cspec is not g.cspec:
        raise AlgebraMismatch("slice product across different algebras")
    if f.is_poly and g.is_poly:
        a, b = f.stem.coeffs, g.stem.coeffs
        if not a or not b:
            return SliceFunction(PolyStem(f.cspec, []))
        mode = a[0].mode
        if b[0].mode != mode:
            raise AlgebraError("mixed scalar modes in slice product")
        out = [f.algebra.zero(mode) for _ in range(len(a) + len(b) - 1)]
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return SliceFunction(PolyStem(f.cspec, out))
    return _pointwise_combine(
        f, g, lambda p, q: (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]))


def _pointwise_combine(f, g, op):
    """Combine two stems pointwise; used for callable (or mixed) operands."""
    fe = _as_stem_evaluator(f)
    ge = _as_stem_evaluator(g)
    fd = f.stem.domain if not f.is_poly else None
    gd = g.stem.domain if not g.is_poly else None

    def domain(a, b):
        return (fd is None or fd(a, b)) and (gd is None or gd(a, b))

    kinds = {f.stem.domain_kind if not f.is_poly else None,
             g.stem.domain_kind if not g.is_poly else None} - {None}
    kind = kinds.pop() if len(kinds) == 1 else "unknown"
    return SliceFunction(CallableStem(
        f.cspec, lambda a, b: op(fe(a, b), ge(a, b)), domain, kind,
        check_symmetry=False))


def _as_stem_evaluator(f):
    if f.is_poly:
        coeffs = f.stem.coeffs
        alg = f.algebra

        def ev(a, b, _coeffs=coeffs, _alg=alg):
            if not _coeffs:
                z = _alg.zero(EXACT if isinstance(a, (int, Fraction)) else FLOAT)
                return z, z
            cs = _coeffs
            if not isinstance(a, (int, Fraction)) and cs[0].mode == EXACT:
                cs = tuple(_as_float_element(c) for c in cs)
            return _poly_components(cs, a, b)

        return ev
    return f.stem.evaluator


def normal(f: SliceFunction) -> SliceFunction:
    """N(f) = f . f^c."""
    return slice_product(f, slice_conjugate(f))


# -- predicates -------------------------------------------------------------------

def is_slice_preserving(f: SliceFunction, tol=DEFAULT_TOL) -> bool:
    """Whether F1 and F2 are real-valued (all coefficients real, for polynomials)."""
    if f.is_poly:
        return all(a.is_real(tol if f.stem.mode == FLOAT else 0.0)
                   for a in f.stem.coeffs)
    for a, b in _sample_grid(f.stem.domain):
        f1, f2 = f.stem.evaluator(a, b)
        t = tol if f1.mode == FLOAT else 0.0
        if not (f1.is_real(t) and f2.is_real(t)):
            return False
    return True


class NotTame(AlgebraError):
    pass


def _tame_normal(f: SliceFunction, tol=DEFAULT_TOL) -> SliceFunction:
    """N(f) if f is tame (N(f) slice preserving and equal to N(f^c)), else NotTame.

    The one place that builds N(f) and N(f^c) and decides tameness.  Exact
    and coefficientwise for polynomial stems; for callable stems the verdict
    is heuristic (checked on the deterministic sample grid).
    """
    nf = normal(f)
    nfc = normal(slice_conjugate(f))
    if f.is_poly:
        tame = is_slice_preserving(nf) and nf == nfc
    else:
        tame = is_slice_preserving(nf, tol) and all(
            _same_values(nf.stem.evaluator(a, b), nfc.stem.evaluator(a, b), tol)
            for a, b in _sample_grid(f.stem.domain))
    if not tame:
        raise NotTame("the slice function is not tame: N(f) must be slice "
                      "preserving and equal to N(f^c)")
    return nf


def _same_values(p, q, tol):
    t = tol if p[0].mode == FLOAT else 0.0
    return (p[0] - q[0]).is_zero(t) and (p[1] - q[1]).is_zero(t)


def is_tame(f: SliceFunction, tol=DEFAULT_TOL) -> bool:
    """N(f) slice preserving and equal to N(f^c) (see _tame_normal)."""
    try:
        _tame_normal(f, tol)
    except NotTame:
        return False
    return True


def _sample_grid(domain, n=64):
    """Up to n stem arguments (alpha, beta > 0) inside domain, from a fixed draw."""
    import random
    rng = random.Random(0)
    found = 0
    for _ in range(n * 4):
        if found >= n:
            return
        a = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4]))
        b = Fraction(rng.randint(1, 8), rng.choice([1, 2]))
        if domain(a, b):
            found += 1
            yield a, b


# -- representation formulas -------------------------------------------------------

def rep_two_points(fy: Element, y: Element, fz: Element, z: Element,
                   target_i: Element, tol=DEFAULT_TOL) -> Element:
    """Value forced at alpha + beta*I by sliceness, from values at two sphere points.

    Implements f(x) = (I-K)((J-K)^{-1} f(y)) - (I-J)((J-K)^{-1} f(z)) for
    y = alpha+beta*J, z = alpha+beta*K; the beta factors cancel against the
    imaginary parts, so only beta itself (for the target) is ever rooted.
    """
    ay, imy, bsy = decompose_qa(y, tol)
    az, imz, bsz = decompose_qa(z, tol)
    exact = y.mode == EXACT
    if exact:
        if ay != az or bsy != bsz:
            raise AlgebraError("y and z do not lie on a common sphere")
    else:
        if abs(ay - az) > tol or abs(bsy - bsz) > tol:
            raise AlgebraError("y and z do not lie on a common sphere")
    ti = trace(target_i)
    ni = norm(target_i)
    one = target_i.algebra.one(target_i.mode)
    if exact:
        if not (ti.is_zero() and ni == one):
            raise AlgebraError("target I is not in S_A")
    else:
        if not (ti.is_zero(tol) and (ni - one).is_zero(tol)):
            raise AlgebraError("target I is not in S_A")
    d = imy - imz
    dinv = invert(d, tol)  # J - K invertible, scaled by beta
    beta = _sqrt_scalar(bsy)
    if isinstance(beta, float) and exact:
        imy, imz = _as_float_element(imy), _as_float_element(imz)
        fy, fz = _as_float_element(fy), _as_float_element(fz)
        target_i = _as_float_element(target_i)
        dinv = _as_float_element(dinv)
    bi = beta * target_i
    return (bi - imz) * (dinv * fy) - (bi - imy) * (dinv * fz)


def product_eval_formula(f: SliceFunction, g: SliceFunction, x: Element,
                         mode="general", tol=DEFAULT_TOL) -> Element:
    """(f.g)(x) by the closed pointwise formula, without forming the product stem.

    general:      f(x) v_s g(x) + im(x)(f(x) g'_s(x)) - (im(x), f'_s(x), g(x^c))
    associative:  f(x) v_s g(x) + im(x) f(x) g'_s(x)   [associative algebras only]
    """
    if mode not in ("general", "associative"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "associative" and not f.algebra.is_associative:
        raise AlgebraError("associative mode on a non-associative algebra")
    alpha, im, beta_sq = decompose_qa(x, tol)
    if im.is_zero(tol if x.mode == FLOAT else 0.0):
        raise DomainError("the product formulas require a non-real point")
    fx = evaluate(f, x, tol)
    vs_g = spherical_value(g, x, tol)
    ds_g = spherical_derivative(g, x, tol)
    main = fx * vs_g + im * (fx * ds_g)
    if mode == "associative":
        return main
    ds_f = spherical_derivative(f, x, tol)
    gxc = evaluate(g, conj(x), tol)
    return main - associator(im, ds_f, gxc)


def regularity_residual(f: SliceFunction, z, h=1e-4) -> float:
    """Finite-difference magnitude of dF/d(conj z) at z = (alpha, beta).

    Polynomial stems are holomorphic by construction and return exactly 0.
    """
    if f.is_poly:
        return 0.0
    alpha, beta = float(z[0]), float(z[1])
    stem = f.stem
    for da, db in ((h, 0), (-h, 0), (0, h), (0, -h)):
        if not stem.domain(alpha + da, beta + db):
            raise DomainError("difference stencil leaves the stem domain")

    def ev(a, b):
        f1, f2 = stem.evaluator(a, b)
        return _as_float_element(f1), _as_float_element(f2)

    f1pa, f2pa = ev(alpha + h, beta)
    f1ma, f2ma = ev(alpha - h, beta)
    f1pb, f2pb = ev(alpha, beta + h)
    f1mb, f2mb = ev(alpha, beta - h)
    da1 = [(p - m) / (2 * h) for p, m in zip(f1pa.coeffs, f1ma.coeffs)]
    da2 = [(p - m) / (2 * h) for p, m in zip(f2pa.coeffs, f2ma.coeffs)]
    db1 = [(p - m) / (2 * h) for p, m in zip(f1pb.coeffs, f1mb.coeffs)]
    db2 = [(p - m) / (2 * h) for p, m in zip(f2pb.coeffs, f2mb.coeffs)]
    # dF/d(conj z) = ((F1_a - F2_b) + iota (F2_a + F1_b)) / 2
    re = [(u - v) / 2 for u, v in zip(da1, db2)]
    im = [(u + v) / 2 for u, v in zip(da2, db1)]
    return max(max((abs(c) for c in re), default=0.0),
               max((abs(c) for c in im), default=0.0))
