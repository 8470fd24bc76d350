"""Finite-dimensional real alternative *-algebras given by structure constants.

An AlgebraSpec bundles a multiplication table e_i e_j = sum_k c[i][j][k] e_k,
a linear involution x -> x^c, and cached structural flags.  Elements are
coefficient vectors over a spec, with exact rational scalars by default and
float64 as an opt-in mode for numeric root finding downstream.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg

EXACT = "exact"
FLOAT = "float"

DEFAULT_TOL = 1e-9

CLIFFORD_DIM_CAP = 64


class AlgebraError(Exception):
    pass


class UnknownAlgebra(AlgebraError):
    pass


class AlgebraMismatch(AlgebraError):
    pass


class ScalarModeMismatch(AlgebraError):
    pass


class NotInvertible(AlgebraError):
    pass


class OutsideQuadraticCone(AlgebraError):
    pass


def _is_exact_scalar(x):
    return isinstance(x, (int, Fraction))


class AlgebraSpec:
    """A unital real algebra with a *-involution, via structure constants.

    table[i][j] is a tuple of (k, coef) pairs meaning e_i e_j = sum coef*e_k.
    involution is a dense d x d rational matrix sigma with e_i^c = sum_k
    sigma[i][k] e_k.  Instances are immutable after construction and safe to
    share across threads; all operations on them are pure.
    """

    def __init__(self, name, basis_names, table, involution, *, family=None,
                 params=None, singular=None):
        self.name = name
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        self.table = table
        self.involution = tuple(tuple(row) for row in involution)
        self.family = family
        self.params = params
        self.known_singular = singular
        self._index = {nm: i for i, nm in enumerate(self.basis_names)}
        self._validate()

    # -- construction-time checks (unital axiom + involution axioms) --------

    def _validate(self):
        d = self.dim
        if self.basis_names[0] != "1":
            raise AlgebraError("first basis element must be named '1'")
        for j in range(d):
            if self.table[0][j] != ((j, 1),) or self.table[j][0] != ((j, 1),):
                raise AlgebraError(f"{self.name}: e_0 is not a two-sided identity")
        w = self._star_witness()
        if w is not None:
            raise AlgebraError(f"{self.name}: involution axioms fail at {w}")

    def _star_witness(self):
        """First failure of the involution axioms on the basis, or None."""
        d = self.dim
        sig = self.involution
        if list(sig[0]) != [1 if k == 0 else 0 for k in range(d)]:
            return ("fixes-reals",)
        for i in range(d):
            ei_cc = [sum(sig[i][m] * sig[m][k] for m in range(d) if sig[i][m])
                     for k in range(d)]
            if ei_cc != [1 if k == i else 0 for k in range(d)]:
                return ("involutive", i)
        for i in range(d):
            for j in range(d):
                lhs = self._conj_vec(self._mul_basis_vec(i, j))
                rhs = self._mul_vec(self._conj_basis(j), self._conj_basis(i))
                if lhs != rhs:
                    return ("antihomomorphism", i, j)
        return None

    # -- raw vector arithmetic ----------------------------------------------

    def _zero_vec(self):
        return [0] * self.dim

    def _mul_basis_vec(self, i, j):
        out = self._zero_vec()
        for k, c in self.table[i][j]:
            out[k] += c
        return out

    def _conj_basis(self, i):
        return list(self.involution[i])

    def _mul_vec(self, a, b):
        out = [0] * self.dim
        table = self.table
        nz_b = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = table[i]
            for j, bj in nz_b:
                for k, c in row[j]:
                    out[k] += ai * bj * c
        return out

    def _conj_vec(self, a):
        out = [0] * self.dim
        sig = self.involution
        for i, ai in enumerate(a):
            if ai:
                for k, s in enumerate(sig[i]):
                    if s:
                        out[k] += ai * s
        return out

    # -- element factory ------------------------------------------------------

    def element(self, coeffs, mode=None):
        coeffs = list(coeffs)
        if len(coeffs) != self.dim:
            raise AlgebraError(f"expected {self.dim} coefficients, got {len(coeffs)}")
        if mode is None:
            mode = EXACT if all(_is_exact_scalar(c) for c in coeffs) else FLOAT
        if mode == EXACT and not all(_is_exact_scalar(c) for c in coeffs):
            raise ScalarModeMismatch("non-rational coefficients in exact mode")
        if mode == FLOAT:
            coeffs = [float(c) for c in coeffs]
        return Element(self, tuple(coeffs), mode)

    def zero(self, mode=EXACT):
        return self.element([0] * self.dim, mode)

    def one(self, mode=EXACT):
        return self.element([1] + [0] * (self.dim - 1), mode)

    def basis_element(self, i, mode=EXACT):
        c = [0] * self.dim
        c[i] = 1
        return self.element(c, mode)

    def from_scalar(self, r, mode=None):
        c = [0] * self.dim
        c[0] = r
        return self.element(c, mode)

    def basis_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAlgebra(f"unknown basis name {name!r} in {self.name}") from None

    # -- multiplication operators as matrices --------------------------------

    def left_mult_matrix(self, x):
        """Matrix of y -> x*y in the basis (rows indexed by output coord)."""
        d = self.dim
        m = [[0] * d for _ in range(d)]
        for i, xi in enumerate(x.coeffs):
            if xi:
                for j in range(d):
                    for k, c in self.table[i][j]:
                        m[k][j] += xi * c
        return m

    def right_mult_matrix(self, x):
        """Matrix of y -> y*x in the basis."""
        d = self.dim
        m = [[0] * d for _ in range(d)]
        for j, xj in enumerate(x.coeffs):
            if xj:
                for i in range(d):
                    for k, c in self.table[i][j]:
                        m[k][i] += xj * c
        return m

    # -- cached structural flags ----------------------------------------------

    def _assoc_basis_sparse(self, i, j, k):
        """(e_i, e_j, e_k) as a sparse {index: coef} dict; O(#terms) work."""
        table = self.table
        acc = {}
        for m, c in table[i][j]:
            for n, c2 in table[m][k]:
                acc[n] = acc.get(n, 0) + c * c2
        for m, c in table[j][k]:
            for n, c2 in table[i][m]:
                acc[n] = acc.get(n, 0) - c * c2
        return {n: c for n, c in acc.items() if c}

    @cached_property
    def is_associative(self):
        d = self.dim
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if self._assoc_basis_sparse(i, j, k):
                        return False
        return True

    @cached_property
    def is_alternative(self):
        """Linearized alternativity on basis triples.

        (x,y,z)+(y,x,z) = 0 and (x,y,z)+(x,z,y) = 0 on a basis are equivalent
        to (x,x,y) = (y,x,x) = 0 for all x,y by bilinearity in characteristic 0.
        """
        return self._alternativity_witness() is None

    def _alternativity_witness(self):
        d = self.dim
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    aijk = self._assoc_basis_sparse(i, j, k)
                    if _sparse_add(aijk, self._assoc_basis_sparse(j, i, k)):
                        return (i, j, k, "left")
                    if _sparse_add(aijk, self._assoc_basis_sparse(i, k, j)):
                        return (i, j, k, "right")
        return None

    def _intersect_kernel(self, kernel, constraint):
        """Shrink a spanning set to the part annihilated by a linear map.

        constraint(v) returns a d-vector; the returned basis spans
        {sum c_m kernel_m : constraint of the combination = 0}.  Applying
        constraints blockwise keeps every nullspace solve small.
        """
        if not kernel:
            return kernel
        images = [constraint(v) for v in kernel]
        if all(all(c == 0 for c in img) for img in images):
            return kernel
        mat = [[img[comp] for img in images] for comp in range(self.dim)]
        coords = linalg.nullspace(mat)
        out = []
        for cv in coords:
            vec = [0] * self.dim
            for cm, kb in zip(cv, kernel):
                if cm:
                    vec = [a + cm * b for a, b in zip(vec, kb)]
            out.append(vec)
        return out

    @cached_property
    def nucleus_basis(self):
        """Basis of {r : (r, x, y) = 0 for all x, y}, by kernel intersection."""
        d = self.dim
        if self.is_associative:
            return [self.basis_element(i) for i in range(d)]
        kernel = [_unit(d, m) for m in range(d)]
        for i in range(d):
            for j in range(d):
                if not kernel:
                    break
                kernel = self._intersect_kernel(
                    kernel, lambda v, i=i, j=j: self._assoc_vec(v, i, j))
        return [self.element(v) for v in kernel]

    def _assoc_vec(self, v, i, j):
        d = self.dim
        lhs = self._mul_vec(self._mul_vec(v, _unit(d, i)), _unit(d, j))
        rhs = self._mul_vec(v, self._mul_basis_vec(i, j))
        return [a - b for a, b in zip(lhs, rhs)]

    @cached_property
    def center_basis(self):
        d = self.dim
        kernel = [list(e.coeffs) for e in self.nucleus_basis]
        for i in range(d):
            if not kernel:
                break
            def comm(v, i=i):
                xv = self._mul_vec(v, _unit(d, i))
                vx = self._mul_vec(_unit(d, i), v)
                return [a - b for a, b in zip(xv, vx)]
            kernel = self._intersect_kernel(kernel, comm)
        return [self.element(v) for v in kernel]

    @cached_property
    def is_compatible(self):
        """Whether the trace function lands in the nucleus."""
        return self._compat_witness() is None

    def _compat_witness(self):
        if self.is_associative:
            return None
        for i in range(self.dim):
            t = trace(self.basis_element(i))
            if not in_nucleus(t):
                return i
        return None

    @cached_property
    def sa_basis_indices(self):
        """Indices of basis elements that lie in S_A (imaginary units)."""
        out = []
        for i in range(self.dim):
            b = self.basis_element(i)
            if trace(b).is_zero() and norm(b) == self.one():
                out.append(i)
        return tuple(out)

    def __repr__(self):
        return f"AlgebraSpec({self.name}, dim={self.dim})"


def _unit(d, i):
    v = [0] * d
    v[i] = 1
    return v


def _vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def _sparse_add(a, b):
    out = dict(a)
    for n, c in b.items():
        out[n] = out.get(n, 0) + c
    return {n: c for n, c in out.items() if c}


class Element:
    """A coefficient vector over an AlgebraSpec; a pure value."""

    __slots__ = ("algebra", "coeffs", "mode")

    def __init__(self, algebra, coeffs, mode):
        self.algebra = algebra
        self.coeffs = coeffs
        self.mode = mode

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch(
                f"mixed algebras: {self.algebra.name} vs {other.algebra.name}")
        if self.mode != other.mode:
            raise ScalarModeMismatch(f"mixed scalar modes: {self.mode} vs {other.mode}")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        return Element(self.algebra,
                       tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                       self.mode)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        return Element(self.algebra,
                       tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
                       self.mode)

    def __neg__(self):
        return Element(self.algebra, tuple(-a for a in self.coeffs), self.mode)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            out = self.algebra._mul_vec(self.coeffs, other.coeffs)
            return Element(self.algebra, tuple(out), self.mode)
        if _is_exact_scalar(other) or isinstance(other, float):
            return self._scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if _is_exact_scalar(other) or isinstance(other, float):
            return self._scale(other)
        return NotImplemented

    def _scale(self, s):
        if self.mode == EXACT and not _is_exact_scalar(s):
            raise ScalarModeMismatch("float scalar on exact element")
        return Element(self.algebra, tuple(s * a for a in self.coeffs), self.mode)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be non-negative integers")
        out = self.algebra.one(self.mode)
        for _ in range(n):
            out = out * self  # power-associativity makes the order immaterial
        return out

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self.algebra is other.algebra and self.mode == other.mode
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def __hash__(self):
        return hash((id(self.algebra), self.coeffs, self.mode))

    def is_zero(self, tol=0.0):
        if self.mode == EXACT:
            return all(c == 0 for c in self.coeffs)
        t = tol or DEFAULT_TOL
        return all(abs(c) <= t for c in self.coeffs)

    def is_real(self, tol=0.0):
        if self.mode == EXACT:
            return all(c == 0 for c in self.coeffs[1:])
        t = tol or DEFAULT_TOL
        return all(abs(c) <= t for c in self.coeffs[1:])

    def __repr__(self):
        from .parsing import format_element
        return format_element(self)


# -- basic operations ---------------------------------------------------------

def mul(a: Element, b: Element) -> Element:
    return a * b


def conj(x: Element) -> Element:
    out = x.algebra._conj_vec(x.coeffs)
    return Element(x.algebra, tuple(out), x.mode)


def trace(x: Element) -> Element:
    return x + conj(x)


def norm(x: Element) -> Element:
    return x * conj(x)


def associator(x: Element, y: Element, z: Element) -> Element:
    return (x * y) * z - x * (y * z)


def commutator(x: Element, y: Element) -> Element:
    return x * y - y * x


def real_part(x: Element) -> Element:
    half = Fraction(1, 2) if x.mode == EXACT else 0.5
    return half * trace(x)


def imag_part(x: Element) -> Element:
    return x - real_part(x)


def try_invert(x: Element, tol=DEFAULT_TOL):
    """Two-sided inverse of x, or None.

    Solves both L_x y = 1 and z R_x = 1 and verifies; invertibility of n(x)
    alone would only certify a one-sided inverse.
    """
    alg = x.algebra
    one = alg.one(x.mode)
    if x.mode == EXACT:
        sol = linalg.solve_affine(alg.left_mult_matrix(x), list(one.coeffs))
        if sol is None:
            return None
        y = alg.element(sol[0])
        if x * y != one or y * x != one:
            return None
        return y
    import numpy as np
    m = np.array(alg.left_mult_matrix(x), dtype=float)
    if np.linalg.cond(m) > 1.0 / tol:
        return None
    y = alg.element(list(np.linalg.solve(m, np.array(one.coeffs, dtype=float))), FLOAT)
    if not (x * y - one).is_zero(tol) or not (y * x - one).is_zero(tol):
        return None
    return y


def invert(x: Element, tol=DEFAULT_TOL) -> Element:
    y = try_invert(x, tol)
    if y is None:
        raise NotInvertible(f"{x!r} is not invertible in {x.algebra.name}")
    return y


def is_zero_divisor(x: Element, tol=DEFAULT_TOL):
    """(left, right): whether x*y = 0, resp. y*x = 0, has a nonzero solution y."""
    if x.is_zero(tol):
        raise AlgebraError("zero divisor test requires a nonzero element")
    alg = x.algebra
    if x.mode == EXACT:
        left = bool(linalg.nullspace(alg.left_mult_matrix(x)))
        right = bool(linalg.nullspace(alg.right_mult_matrix(x)))
        return left, right
    import numpy as np
    def _singular(m):
        s = np.linalg.svd(np.array(m, dtype=float), compute_uv=False)
        return s[-1] <= tol * max(1.0, s[0])
    return _singular(alg.left_mult_matrix(x)), _singular(alg.right_mult_matrix(x))


def in_nucleus(x: Element) -> bool:
    alg = x.algebra
    d = alg.dim
    xv = list(x.coeffs)
    for i in range(d):
        xei = alg._mul_vec(xv, _unit(d, i))
        for j in range(d):
            lhs = alg._mul_vec(xei, _unit(d, j))
            rhs = alg._mul_vec(xv, alg._mul_basis_vec(i, j))
            if lhs != rhs:
                return False
    return True


def in_center(x: Element) -> bool:
    if not in_nucleus(x):
        return False
    alg = x.algebra
    d = alg.dim
    xv = list(x.coeffs)
    for i in range(d):
        if alg._mul_vec(xv, _unit(d, i)) != alg._mul_vec(_unit(d, i), xv):
            return False
    return True


@dataclass(frozen=True)
class ConeReport:
    in_QA: bool
    in_NA: bool
    in_CA: bool
    in_SA: bool
    is_zero_divisor_left: bool
    is_zero_divisor_right: bool
    is_invertible: bool
    trace: Element
    norm: Element


def _is_real_nonzero(e: Element, tol):
    if e.mode == EXACT:
        return e.is_real() and e.coeffs[0] != 0
    return e.is_real(tol) and abs(e.coeffs[0]) > tol


def in_central_cone(x: Element, tol=DEFAULT_TOL) -> bool:
    """Whether n(x) and n(x^c) are invertible central elements (or x = 0)."""
    if x.is_zero(tol if x.mode == FLOAT else 0.0):
        return True
    for e in (norm(x), norm(conj(x))):
        if e.is_real(tol if x.mode == FLOAT else 0.0):
            # reals are central and invertible iff nonzero
            c = e.coeffs[0]
            if (abs(c) <= tol) if x.mode == FLOAT else (c == 0):
                return False
            continue
        if not in_center(e) or try_invert(e, tol) is None:
            return False
    return True


def cone_membership(x: Element, tol=DEFAULT_TOL) -> ConeReport:
    alg = x.algebra
    t = trace(x)
    n = norm(x)
    nc = norm(conj(x))
    zero = x.is_zero(tol)
    exact = x.mode == EXACT

    in_na = zero or (_is_real_nonzero(n, tol) and _is_real_nonzero(nc, tol))

    in_ca = in_central_cone(x, tol)

    if x.is_real(tol):
        in_qa = True
    elif t.is_real(tol) and n.is_real(tol):
        tt, nn = t.coeffs[0], n.coeffs[0]
        in_qa = 4 * nn > tt * tt if exact else 4 * nn > tt * tt + tol
    else:
        in_qa = False

    one = alg.one(x.mode)
    if exact:
        in_sa = t.is_zero() and n == one
    else:
        in_sa = t.is_zero(tol) and (n - one).is_zero(tol)

    inv = try_invert(x, tol) is not None
    if zero:
        zl = zr = False
    else:
        zl, zr = is_zero_divisor(x, tol)
    return ConeReport(in_QA=in_qa, in_NA=in_na, in_CA=in_ca, in_SA=in_sa,
                      is_zero_divisor_left=zl, is_zero_divisor_right=zr,
                      is_invertible=inv, trace=t, norm=n)


def abs_q(x: Element, tol=DEFAULT_TOL):
    """|x| = sqrt(n(x)) for x in the quadratic cone; exact when a perfect square."""
    if not cone_membership(x, tol).in_QA:
        raise OutsideQuadraticCone(f"{x!r} is not in the quadratic cone")
    n = norm(x).coeffs[0]
    if x.mode == EXACT:
        s = exact_sqrt(Fraction(n))
        if s is not None:
            return s
        return float(n) ** 0.5
    return float(n) ** 0.5


def exact_sqrt(q: Fraction):
    """Exact square root of a non-negative rational, or None."""
    import math
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


# -- axiom verification -------------------------------------------------------

def _random_sparse(alg, rng, nterms=4, bound=5):
    v = [0] * alg.dim
    for _ in range(nterms):
        v[rng.randrange(alg.dim)] = rng.randint(-bound, bound)
    return alg.element(v)


def moufang_residuals(x, a, y):
    """The three Moufang identity residuals; all zero in an alternative algebra."""
    r1 = ((x * a) * x) * y - x * (a * (x * y))
    r2 = y * ((x * a) * x) - ((y * x) * a) * x
    r3 = (x * y) * (a * x) - (x * (y * a)) * x
    return r1, r2, r3


def verify_axioms(spec: AlgebraSpec, method="auto", samples=10000, seed=0):
    """Check alternativity, the involution axioms and compatibility.

    dim <= 16 gets exhaustive basis checks (with the Moufang identities in
    polarized multilinear form on basis quadruples); larger algebras are
    checked on `samples` random sparse rational triples.  Failures are
    reported as witnesses, not raised.
    """
    if method == "auto":
        method = "exhaustive" if spec.dim <= 16 else "randomized"
    witnesses = []

    star_w = spec._star_witness()
    star_ok = star_w is None
    if star_w is not None:
        witnesses.append({"identity": "star", "at": star_w})

    if method == "exhaustive":
        alt_w = spec._alternativity_witness()
        alternative = alt_w is None
        if alt_w is not None:
            witnesses.append({"identity": "alternativity", "at": alt_w})
        moufang = True
        if alternative:
            moufang = _moufang_polarized_exhaustive(spec, witnesses)
    else:
        rng = random.Random(seed)
        alternative = True
        moufang = True
        zero = spec.zero()
        for _ in range(samples):
            x = _random_sparse(spec, rng)
            y = _random_sparse(spec, rng)
            a = _random_sparse(spec, rng)
            if associator(x, x, y) != zero or associator(y, x, x) != zero:
                alternative = False
                witnesses.append({"identity": "alternativity", "at": (x, y)})
                break
            r1, r2, r3 = moufang_residuals(x, a, y)
            if not (r1.is_zero() and r2.is_zero() and r3.is_zero()):
                moufang = False
                witnesses.append({"identity": "moufang", "at": (x, a, y)})
                break
            cx = conj(x * y) - conj(y) * conj(x)
            if not cx.is_zero():
                star_ok = False
                witnesses.append({"identity": "star", "at": (x, y)})
                break

    cw = spec._compat_witness()
    compatible = cw is None
    if cw is not None:
        witnesses.append({"identity": "compatibility",
                          "witness": trace(spec.basis_element(cw)),
                          "basis": spec.basis_names[cw]})
    return {"alternative": alternative, "star": star_ok, "moufang": moufang,
            "compatible": compatible, "witnesses": witnesses, "method": method}


def _moufang_polarized_exhaustive(spec, witnesses):
    """First Moufang identity, polarized in x, on all basis quadruples.

    (x1 a x2 + x2 a x1) y = x1 (a (x2 y)) + x2 (a (x1 y)); with alternativity
    already verified, this linearization certifies the identity exactly.
    """
    d = spec.dim
    basis = [_unit(d, i) for i in range(d)]
    mb = spec._mul_basis_vec
    mv = spec._mul_vec
    for i1 in range(d):
        for a in range(d):
            x1a = mb(i1, a)
            for i2 in range(i1, d):
                x2a = mb(i2, a)
                lhs_core = _vec_add(mv(x1a, basis[i2]), mv(x2a, basis[i1]))
                for y in range(d):
                    lhs = mv(lhs_core, basis[y])
                    rhs = _vec_add(
                        mv(basis[i1], mv(basis[a], mb(i2, y))),
                        mv(basis[i2], mv(basis[a], mb(i1, y))))
                    if lhs != rhs:
                        witnesses.append({"identity": "moufang", "at": (i1, a, i2, y)})
                        return False
    return True


# -- builtin algebras ---------------------------------------------------------

def _table_from_dict(d, dim):
    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            row.append(tuple(sorted(d.get((i, j), ()))))
        table.append(tuple(row))
    return tuple(table)


_QUAT = {}  # (i, j) -> (k, sign) for basis 1,i,j,k
for _i in range(4):
    _QUAT[(0, _i)] = (_i, 1)
    _QUAT[(_i, 0)] = (_i, 1)
for _i, _j, _k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
    _QUAT[(_i, _i)] = (0, -1)
    _QUAT[(_i, _j)] = (_k, 1)
    _QUAT[(_j, _i)] = (_k, -1)


def _quaternion_table():
    return {(i, j): ((k, s),) for (i, j), (k, s) in _QUAT.items()}


def _cayley_like(name, sign_ll, invol_l_sign):
    """Doubling of H with (l p)(l q) = sign_ll * q p^c and (p+lq)^c = p^c + invol_l_sign*l q."""
    d = 4
    conj4 = [1, -1, -1, -1]

    def bmul(i, j):  # quaternion basis product as (k, s)
        return _QUAT[(i, j)]

    prods = {}
    for i in range(8):
        for j in range(8):
            pi, pl = i % 4, i >= 4
            qj, ql = j % 4, j >= 4
            if not pl and not ql:
                k, s = bmul(pi, qj)
                prods[(i, j)] = ((k, s),)
            elif not pl and ql:
                # p (l q) = l (p^c q)
                k, s = bmul(pi, qj)
                prods[(i, j)] = ((k + 4, s * conj4[pi]),)
            elif pl and not ql:
                # (l p) q = l (q p)
                k, s = bmul(qj, pi)
                prods[(i, j)] = ((k + 4, s),)
            else:
                # (l p)(l q) = sign_ll * q p^c
                k, s = bmul(qj, pi)
                prods[(i, j)] = ((k, sign_ll * s * conj4[pi]),)
    names = ["1", "i", "j", "k", "l", "li", "lj", "lk"]
    invol = [[0] * 8 for _ in range(8)]
    for m in range(4):
        invol[m][m] = conj4[m]
        invol[m + 4][m + 4] = invol_l_sign
    return AlgebraSpec(name, names, _table_from_dict(prods, 8), invol,
                       family="doubling")


def _dual_table(base_names, base_table, base_invol, name):
    """A + eps A with eps^2 = 0, eps central, conj componentwise."""
    d = len(base_names)
    prods = {}
    for i in range(2 * d):
        for j in range(2 * d):
            pi, pe = i % d, i >= d
            qj, qe = j % d, j >= d
            if pe and qe:
                prods[(i, j)] = ()
            else:
                shift = d if (pe or qe) else 0
                prods[(i, j)] = tuple((k + shift, c) for k, c in base_table[pi][qj])
    names = list(base_names) + ["eps" + (n if n != "1" else "") for n in base_names]
    invol = [[0] * 2 * d for _ in range(2 * d)]
    for i in range(d):
        for k in range(d):
            invol[i][k] = base_invol[i][k]
            invol[i + d][k + d] = base_invol[i][k]
    return AlgebraSpec(name, names, _table_from_dict(prods, 2 * d), invol,
                       family="dual", singular=True)


def _clifford_spec(p, q, name=None, basis_rename=None):
    n = p + q
    if 2 ** n > CLIFFORD_DIM_CAP:
        raise AlgebraError(f"CL({p},{q}) exceeds the dim-{CLIFFORD_DIM_CAP} cap")
    subsets = [()]
    for size in range(1, n + 1):
        subsets.extend(itertools.combinations(range(1, n + 1), size))
    index = {s: i for i, s in enumerate(subsets)}
    dim = len(subsets)

    def mul_subsets(s, t):
        seq = list(s) + list(t)
        sign = 1
        # bubble sort counting transpositions of distinct generators
        changed = True
        while changed:
            changed = False
            for a in range(len(seq) - 1):
                if seq[a] > seq[a + 1]:
                    seq[a], seq[a + 1] = seq[a + 1], seq[a]
                    sign = -sign
                    changed = True
        # contract equal adjacent pairs with the generator's square
        out = []
        a = 0
        while a < len(seq):
            if a + 1 < len(seq) and seq[a] == seq[a + 1]:
                sign *= 1 if seq[a] <= p else -1
                a += 2
            else:
                out.append(seq[a])
                a += 1
        return tuple(out), sign

    prods = {}
    for s in subsets:
        for t in subsets:
            r, sign = mul_subsets(s, t)
            prods[(index[s], index[t])] = ((index[r], sign),)

    if basis_rename:
        names = basis_rename
    else:
        names = ["1"] + ["e" + "".join(str(x) for x in s) for s in subsets[1:]]
    invol = [[0] * dim for _ in range(dim)]
    for s, i in index.items():
        invol[i][i] = 1 if len(s) % 4 in (0, 3) else -1
    nm = name or f"cl-{p}-{q}"
    return AlgebraSpec(nm, names, _table_from_dict(prods, dim), invol,
                       family="clifford", params=(p, q),
                       singular=(p >= 1))


def _normalize_id(name):
    return name.strip().lower().replace("(", "-").replace(")", "").replace(",", "-").replace("_", "-")


@lru_cache(maxsize=None)
def _builtin_cached(key):
    if key == "c":
        return _clifford_spec(0, 1, name="C", basis_rename=["1", "i"])
    if key == "h":
        invol = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        return AlgebraSpec("H", ["1", "i", "j", "k"],
                           _table_from_dict(_quaternion_table(), 4), invol,
                           family="quaternion")
    if key == "o":
        return _cayley_like("O", sign_ll=-1, invol_l_sign=-1)
    if key == "so":
        return _cayley_like("SO", sign_ll=+1, invol_l_sign=-1)
    if key == "so-alt":
        return _cayley_like("SO_ALT", sign_ll=+1, invol_l_sign=+1)
    if key == "sc":
        return _clifford_spec(1, 0, name="SC")
    if key == "sh":
        return _clifford_spec(1, 1, name="SH")
    if key == "dr":
        return _dual_table(["1"], ((((0, 1),),),), [[1]], "DR")
    if key == "dc":
        c = _builtin_cached("c")
        return _dual_table(c.basis_names, c.table, c.involution, "DC")
    if key == "dh":
        h = _builtin_cached("h")
        return _dual_table(h.basis_names, h.table, h.involution, "DH")
    if key.startswith("cl-"):
        parts = key.split("-")
        if len(parts) != 3 or not parts[1].isdigit() or not parts[2].isdigit():
            raise UnknownAlgebra(f"bad Clifford id {key!r}; expected cl-p-q")
        return _clifford_spec(int(parts[1]), int(parts[2]))
    if key.startswith("r") and key[1:].isdigit():
        return _clifford_spec(0, int(key[1:]))
    raise UnknownAlgebra(f"unknown algebra id {key!r}")


def make_builtin(name, p=None, q=None) -> AlgebraSpec:
    """Build (and cache) a builtin algebra by id.

    Ids: C, H, O, SC, SH, DR, DC, DH, SO, SO_ALT, cl-p-q (p+q <= 6), Rn.
    Case-insensitive; make_builtin("CL", p, q) is also accepted.
    """
    key = _normalize_id(str(name))
    if key == "cl":
        if p is None or q is None:
            raise UnknownAlgebra("CL requires parameters p, q")
        if p < 0 or q < 0:
            raise UnknownAlgebra("CL parameters must be non-negative")
        key = f"cl-{p}-{q}"
    if key.startswith("r") and key[1:].isdigit():
        key = f"cl-0-{int(key[1:])}"
    return _builtin_cached(key)


BUILTIN_IDS = ("C", "H", "O", "SC", "SH", "DR", "DC", "DH", "SO", "SO_ALT")
