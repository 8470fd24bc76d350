"""Zero-set computation and classification for slice functions.

full_zero_set computes each stage once: N(f) and N(f^c), tameness (else
NotTame), one factorization of N(f) over Q giving both the candidate spheres
and the complex roots, then one classifier per sphere.  The classifier's
prefix (real point, float, f'_s = 0, f'_s invertible) is shared; only the
exact singular-derivative branch is refined on SO and CL(0,3).

On a sphere alpha + beta*S_A the values of f are a1 + I*a2 with a1 = v_s f,
a2 = beta * f'_s, so zeros correspond to solutions of I*a2 = -a1 inside S_A.
Substituting u = beta*I turns everything into data that only involves alpha
and beta^2, both rational for exact spheres: the linear part is solved
exactly, and the remaining S_A constraints (t(u) = 0 linear, n(u) = beta^2
quadratic, realness of n included componentwise) are reduced by repeatedly
absorbing constraints that become affine on the current flat.  Residual
genuinely-quadratic constraints on a flat of dimension >= 2 are reported as
the flat plus a caveat (with exactly verified mined witnesses); dimension 0
and 1 are resolved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import linalg, roots
from .algebra import (
    DEFAULT_TOL, EXACT, FLOAT, AlgebraError, Element, cone_membership, conj,
    exact_sqrt, make_builtin, norm, trace, try_invert,
)
from .slicefn import (  # NotTame is re-exported for zero-set callers
    NotTame, SliceFunction, _as_float_element, _tame_normal, evaluate,
    normal, slice_conjugate, slice_product, sphere_values,
)

EMPTY = "Empty"
POINT = "Point"
POINT_PAIR = "PointPair"
AFFINE_SET = "AffineSet"
FULL_SPHERE = "FullSphere"
UNCLASSIFIED = "Unclassified"


class NormalIdenticallyZero(AlgebraError):
    pass


class WrongAlgebra(AlgebraError):
    pass


@dataclass(frozen=True)
class SphereRef:
    """The sphere alpha + beta*S_A; beta = 0 denotes the real point alpha.

    beta_sq carries exact sphere data even when beta itself is irrational;
    classification only ever needs (alpha, beta^2).
    """

    alpha: object
    beta: object
    beta_sq: object = None

    def __post_init__(self):
        if float(self.beta) < 0:
            raise ValueError("beta must be non-negative")
        if self.beta_sq is None:
            bs = self.beta * self.beta
            object.__setattr__(self, "beta_sq", bs)

    @property
    def is_exact(self):
        return (isinstance(self.alpha, (int, Fraction))
                and isinstance(self.beta_sq, (int, Fraction)))

    @property
    def is_real_point(self):
        return self.beta == 0


@dataclass(frozen=True)
class SphereZeroClass:
    """Classification of V(f) on one sphere.

    witnesses are verified zeros.  For infinite zero sets, affine_base and
    affine_directions describe the affine flat {y : (im(y)-im(y0)) f'_s = 0,
    t-constraints}; when caveats mention residual quadratic constraints the
    flat is an upper bound for the zero locus rather than the locus itself.
    """

    kind: str
    witnesses: tuple = ()
    affine_base: Element | None = None
    affine_directions: tuple = ()
    affine_dim: int | None = None
    companion_witnesses: tuple | None = None
    caveats: tuple = ()


@dataclass(frozen=True)
class ZeroReport:
    function: SliceFunction
    normal_coeffs: tuple
    spheres: tuple  # of (SphereRef, multiplicity, SphereZeroClass)
    normal_roots: tuple
    caveats: tuple = ()


# -- generic per-sphere classification ------------------------------------------


def zeros_on_sphere(f: SliceFunction, s: SphereRef, tol=DEFAULT_TOL) -> SphereZeroClass:
    """Classify V(f) on the sphere s (exact when the sphere data is rational)."""
    return _classify(f, s, tol, _generic_singular)


def _classify(f, s, tol, singular):
    """The one classifier: real point, float, ds = 0, ds invertible, singular ds.

    Exact when the sphere data is rational and the stem exact.  singular is
    the algebra's exact singular-derivative branch (see _singular_branch).
    """
    exact = s.is_exact and (not f.is_poly or f.stem.mode == EXACT)
    if s.is_real_point:
        x = f.algebra.from_scalar(s.alpha if exact else float(s.alpha))
        if evaluate(f, x, tol).is_zero(0.0 if exact else tol):
            return SphereZeroClass(POINT, witnesses=(x,))
        return SphereZeroClass(EMPTY)
    vs = None
    if exact:
        alpha, beta_sq = Fraction(s.alpha), Fraction(s.beta_sq)
        beta = None if f.is_poly else exact_sqrt(beta_sq)
        if f.is_poly or beta is not None:
            vs, ds = sphere_values(f, alpha, beta_sq, beta)
    if vs is None or vs.mode != EXACT:
        return _classify_float(f, s, tol)
    if ds.is_zero():
        return SphereZeroClass(FULL_SPHERE if vs.is_zero() else EMPTY)
    ds_inv = try_invert(ds)
    if ds_inv is None:
        return singular(f, alpha, beta_sq, vs, ds, tol)
    u = -(vs * ds_inv)
    if not _on_sphere_exact(u, beta_sq):
        return SphereZeroClass(EMPTY)
    y = f.algebra.from_scalar(alpha) + u
    _assert_zero(f, y)
    return SphereZeroClass(POINT, witnesses=(y,))


def _generic_singular(f, alpha, beta_sq, vs, ds, tol):
    """Singular spherical derivative: solve u*ds = -vs with S_A constraints."""
    alg = f.algebra
    right_zd = bool(linalg.nullspace(alg.right_mult_matrix(ds)))
    cls = _affine_case(f, alg, alpha, beta_sq, vs, ds, tol)
    if not right_zd and cls.kind in (POINT_PAIR, AFFINE_SET):
        # injective right multiplication admits at most one solution
        raise AlgebraError("inconsistent zero-divisor structure")
    return cls


def _on_sphere_exact(u, beta_sq):
    return trace(u).is_zero() and norm(u) == u.algebra.from_scalar(beta_sq)


def _assert_zero(f, y, tol=0.0):
    val = evaluate(f, y)
    if not val.is_zero(tol):
        raise AlgebraError(f"internal: classified witness {y!r} does not vanish")


def _linear_system_for_sphere(alg, vs, ds):
    """Rows/rhs of {u * ds = -vs, t(u) = 0} over the coefficient space."""
    d = alg.dim
    rows = [list(r) for r in alg.right_mult_matrix(ds)]
    rhs = [-c for c in vs.coeffs]
    sig = alg.involution
    for k in range(d):
        rows.append([(1 if i == k else 0) + sig[i][k] for i in range(d)])
        rhs.append(Fraction(0))
    return rows, rhs


def _affine_case(f, alg, alpha, beta_sq, vs, ds, tol):
    sol = linalg.solve_affine(*_linear_system_for_sphere(alg, vs, ds))
    if sol is None:
        return SphereZeroClass(EMPTY)
    p, dirs = sol
    p, dirs, status = _reduce_by_quadrics(alg, p, dirs, beta_sq)
    if status == "empty":
        return SphereZeroClass(EMPTY)
    k = len(dirs)
    base = alg.from_scalar(alpha) + alg.element(p)
    if status == "clean":
        if k == 0:
            _assert_zero(f, base)
            return SphereZeroClass(POINT, witnesses=(base,))
        for v in dirs:
            _assert_zero(f, base + alg.element(v))
        return SphereZeroClass(
            AFFINE_SET, witnesses=(base,), affine_base=base,
            affine_directions=tuple(alg.element(v) for v in dirs), affine_dim=k)
    # genuinely quadratic residue
    constraints = _quadric_constraints(alg, p, dirs, beta_sq)
    if k == 1:
        return _solve_univariate(f, alg, alpha, p, dirs[0], constraints, tol)
    witnesses = _mine_witnesses(f, alg, alpha, p, dirs, constraints)
    return SphereZeroClass(
        AFFINE_SET, witnesses=tuple(witnesses), affine_base=base,
        affine_directions=tuple(alg.element(v) for v in dirs), affine_dim=k,
        caveats=("residual quadratic sphere constraints on a dim-%d flat; the "
                 "flat is an upper bound for the zero locus" % k,))


def _quadric_constraints(alg, p, dirs, beta_sq):
    """Per-component scalar quadratics of n(p + sum t_m V_m) - beta^2."""
    d = alg.dim
    k = len(dirs)
    pc = alg._conj_vec(p)
    vcs = [alg._conj_vec(v) for v in dirs]
    const = alg._mul_vec(p, pc)
    const[0] -= beta_sq
    lin = []
    for m in range(k):
        lm = [a + b for a, b in zip(alg._mul_vec(p, vcs[m]),
                                    alg._mul_vec(dirs[m], pc))]
        lin.append(lm)
    quad = {}
    for m in range(k):
        for n in range(m, k):
            q = alg._mul_vec(dirs[m], vcs[n])
            if n > m:
                q = [a + b for a, b in zip(q, alg._mul_vec(dirs[n], vcs[m]))]
            quad[(m, n)] = q
    constraints = []
    for comp in range(d):
        c = const[comp]
        l = [lin[m][comp] for m in range(k)]
        q = {mn: vec[comp] for mn, vec in quad.items() if vec[comp] != 0}
        if c == 0 and not any(l) and not q:
            continue
        constraints.append((c, l, q))
    return constraints


def _reduce_by_quadrics(alg, p, dirs, beta_sq):
    """Absorb quadric components that are affine on the current flat.

    Returns (p, dirs, status) with status 'empty', 'clean' (all constraints
    identically satisfied) or 'quadratic' (genuine quadrics remain).
    """
    while True:
        constraints = _quadric_constraints(alg, p, dirs, beta_sq)
        if not constraints:
            return p, dirs, "clean"
        rows, rhs = [], []
        genuine = 0
        for c, l, q in constraints:
            if q:
                genuine += 1
                continue
            if not any(l):
                if c != 0:
                    return p, dirs, "empty"
                continue
            rows.append(l)
            rhs.append(-c)
        if not rows:
            return p, dirs, ("quadratic" if genuine else "clean")
        sol = linalg.solve_affine(rows, rhs)
        if sol is None:
            return p, dirs, "empty"
        tp, tdirs = sol
        p = _shift(alg, p, dirs, tp)
        dirs = [_combine(alg, dirs, w) for w in tdirs]


def _shift(alg, p, dirs, t):
    out = list(p)
    for tm, v in zip(t, dirs):
        if tm:
            out = [a + tm * b for a, b in zip(out, v)]
    return out


def _combine(alg, dirs, w):
    out = [Fraction(0)] * alg.dim
    for wm, v in zip(w, dirs):
        if wm:
            out = [a + wm * b for a, b in zip(out, v)]
    return out


def _eval_constraint(con, t):
    c, l, q = con
    val = c + sum(lm * tm for lm, tm in zip(l, t))
    for (m, n), coef in q.items():
        val += coef * t[m] * t[n]
    return val


def _solve_univariate(f, alg, alpha, p, v, constraints, tol):
    """Common roots of scalar quadratics a t^2 + b t + c along a line."""
    polys = []
    for c, l, q in constraints:
        a = q.get((0, 0), Fraction(0))
        b = l[0] if l else Fraction(0)
        polys.append((a, b, c))
    common = None
    for a, b, c in polys:
        if a == 0 and b == 0:
            if c != 0:
                return SphereZeroClass(EMPTY)
            continue
        if a == 0:
            rs = {Fraction(-c, b)} if b else set()
        else:
            disc = b * b - 4 * a * c
            if disc < 0:
                return SphereZeroClass(EMPTY)
            sq = exact_sqrt(Fraction(disc))
            if sq is None:
                rs = {("irr", float((-b + float(disc) ** 0.5) / (2 * a))),
                      ("irr", float((-b - float(disc) ** 0.5) / (2 * a)))}
            else:
                rs = {Fraction(-b + sq, 2 * a), Fraction(-b - sq, 2 * a)}
        common = rs if common is None else _intersect_roots(common, rs)
        if not common:
            return SphereZeroClass(EMPTY)
    if common is None:
        # no effective constraint: the whole line solves the system
        base = alg.from_scalar(alpha) + alg.element(p)
        return SphereZeroClass(AFFINE_SET, witnesses=(base,), affine_base=base,
                               affine_directions=(alg.element(v),), affine_dim=1)
    witnesses = []
    caveats = []
    for r in sorted(common, key=_root_key):
        if isinstance(r, tuple):  # irrational root held as float
            u = [float(a) + r[1] * float(b) for a, b in zip(p, v)]
            y = alg.from_scalar(float(alpha), FLOAT) + alg.element(u, FLOAT)
            if evaluate(f, y).is_zero(tol):
                witnesses.append(y)
                caveats.append("witness has irrational parameters; reported in floats")
        else:
            u = _shift(alg, p, [v], [r])
            y = alg.from_scalar(alpha) + alg.element(u)
            _assert_zero(f, y)
            witnesses.append(y)
    kind = {0: EMPTY, 1: POINT, 2: POINT_PAIR}.get(len(witnesses), POINT_PAIR)
    return SphereZeroClass(kind, witnesses=tuple(witnesses),
                           caveats=tuple(dict.fromkeys(caveats)))


def _root_key(r):
    return float(r[1]) if isinstance(r, tuple) else float(r)


def _intersect_roots(r1, r2):
    out = set()
    for a in r1:
        for b in r2:
            if isinstance(a, tuple) or isinstance(b, tuple):
                fa = a[1] if isinstance(a, tuple) else float(a)
                fb = b[1] if isinstance(b, tuple) else float(b)
                if abs(fa - fb) <= 1e-9 * max(1.0, abs(fa)):
                    out.add(a if isinstance(a, tuple) else b)
            elif a == b:
                out.add(a)
    return out


_MINE_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                Fraction(-1, 2), Fraction(2), Fraction(-2))


def _mine_witnesses(f, alg, alpha, p, dirs, constraints, cap=8):
    """Deterministic small-grid search for exact points on the residual quadrics."""
    import itertools
    k = len(dirs)
    if k <= 3:
        grid = itertools.product(_MINE_VALUES, repeat=k)
    else:
        axis = [tuple(Fraction(0) for _ in range(k))]
        for m in range(k):
            for val in _MINE_VALUES[1:]:
                t = [Fraction(0)] * k
                t[m] = val
                axis.append(tuple(t))
        grid = axis
    out = []
    seen = set()
    for t in grid:
        if len(out) >= cap:
            break
        if all(_eval_constraint(con, t) == 0 for con in constraints):
            u = _shift(alg, p, dirs, list(t))
            y = alg.from_scalar(alpha) + alg.element(u)
            if y.coeffs in seen:
                continue
            seen.add(y.coeffs)
            _assert_zero(f, y)
            out.append(y)
    return out


def _classify_float(f, s, tol=DEFAULT_TOL):
    import numpy as np
    alpha = float(s.alpha)
    beta = float(s.beta)
    beta_sq = float(s.beta_sq)
    vs, ds = sphere_values(f, alpha, beta_sq, beta)
    vs, ds = _as_float_element(vs), _as_float_element(ds)
    alg = f.algebra
    scale = max(1.0, max(abs(c) for c in vs.coeffs), max(abs(c) for c in ds.coeffs))
    mtol = max(tol, 1e-7) * scale
    if ds.is_zero(tol * scale):
        if vs.is_zero(tol * scale):
            return SphereZeroClass(FULL_SPHERE)
        return SphereZeroClass(EMPTY)
    m = np.array([[float(v) for v in row] for row in alg.right_mult_matrix(ds)])
    rhs = -np.array([float(c) for c in vs.coeffs])
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[-1] > tol * max(1.0, svals[0]):
        u = np.linalg.solve(m, rhs)
        uel = alg.element(list(u), FLOAT)
        on_sphere = (trace(uel).is_zero(mtol)
                     and abs(float(norm(uel).coeffs[0]) - beta_sq)
                     <= mtol * max(1.0, beta_sq)
                     and all(abs(c) <= mtol * max(1.0, beta_sq)
                             for c in norm(uel).coeffs[1:]))
        if on_sphere:
            y = alg.from_scalar(alpha, FLOAT) + uel
            if evaluate(f, y).is_zero(mtol):
                return SphereZeroClass(POINT, witnesses=(y,))
        return SphereZeroClass(EMPTY)
    # singular derivative: solve u*ds = -vs together with t(u) = 0
    sig = alg.involution
    trows = np.array([[(1.0 if i == k else 0.0) + float(sig[i][k])
                       for i in range(alg.dim)] for k in range(alg.dim)])
    full = np.vstack([m, trows])
    frhs = np.concatenate([rhs, np.zeros(alg.dim)])
    sol, _, rk, _ = np.linalg.lstsq(full, frhs, rcond=None)
    if not np.allclose(full @ sol, frhs, atol=1e-7 * max(1.0, scale)):
        return SphereZeroClass(EMPTY)
    return SphereZeroClass(
        AFFINE_SET, affine_base=alg.from_scalar(alpha, FLOAT)
        + alg.element(list(sol), FLOAT),
        affine_dim=int(full.shape[1] - rk),
        caveats=("float-mode classification with a singular spherical "
                 "derivative; flat data is approximate and the remaining "
                 "sphere constraints are unresolved",))


# -- specialized routines ----------------------------------------------------------


def _require_algebra(f, key, opname):
    if f.algebra is not make_builtin(key):
        raise WrongAlgebra(f"{opname} requires the {key} algebra")


def _split_octonion(x):
    """(p, q) quaternion halves of a split-octonion (or octonion) element."""
    h = make_builtin("H")
    return h.element(x.coeffs[:4], x.mode), h.element(x.coeffs[4:], x.mode)


def _join_octonion(alg, p, q):
    return alg.element(list(p.coeffs) + list(q.coeffs), p.mode)


def _qdot(u, v):
    """Euclidean inner product re(u v^c) on quaternions."""
    return sum(a * b for a, b in zip(u.coeffs, v.coeffs))


def so_sphere_structure(f: SliceFunction, s: SphereRef, tol=DEFAULT_TOL) -> SphereZeroClass:
    """Zero classification on split-octonion spheres with the closed-form 2-plane.

    When the spherical derivative c + l d is a zero divisor and a zero
    y0 = alpha + (w + l q) exists, the zero set on the sphere is the affine
    2-plane {y0 + a + l(-c^{-1} a^c d)} over imaginary quaternions a subject to
    one linear condition; the direction space is computed exactly.
    """
    _require_algebra(f, "so", "so_sphere_structure")
    return classify_sphere(f, s, tol)


def _so_singular(f, alpha, beta_sq, vs, ds, tol):
    """Split-octonion refinement of the exact singular-derivative branch."""
    alg = f.algebra
    c, d = _split_octonion(ds)
    # zero divisor case: find one zero via the exact linear machinery
    sol = linalg.solve_affine(*_linear_system_for_sphere(alg, vs, ds))
    if sol is None:
        return SphereZeroClass(EMPTY)
    p0, dirs = sol
    p0, dirs, status = _reduce_by_quadrics(alg, p0, dirs, beta_sq)
    if status == "empty":
        return SphereZeroClass(EMPTY)
    if status != "clean":
        raise AlgebraError("split-octonion sphere system did not reduce to a flat")
    u0 = alg.element(p0)
    base = alg.from_scalar(alpha) + u0
    _assert_zero(f, base)
    # closed-form 2-plane through u0 = w + l q
    h = make_builtin("H")
    w, q = _split_octonion(u0)
    c_inv = try_invert(c)
    ims = [h.basis_element(i) for i in (1, 2, 3)]
    # n(u0 + a + lb) - beta^2 = 2(<w,a> - <q,b>) with b = -c^{-1} a^c d,
    # since |a| = |b| on the annihilator; one linear condition on Im H
    lam = []
    for a in ims:
        b = -((c_inv * conj(a)) * d)
        lam.append(_qdot(w, a) - _qdot(q, b))
    rows = [lam]
    kernel = linalg.nullspace(rows)
    if len(kernel) == 3:
        raise AlgebraError("degenerate direction condition on the 2-plane")
    directions = []
    for kv in kernel:
        a = h.element([0] + [x for x in kv])
        b = -((c_inv * conj(a)) * d)
        directions.append(_join_octonion(alg, a, b))
    for dvec in directions:
        _assert_zero(f, base + dvec)
    return SphereZeroClass(
        AFFINE_SET, witnesses=(base,), affine_base=base,
        affine_directions=tuple(directions), affine_dim=len(directions))


_R2_INDICES = (0, 1, 2, 4)  # 1, e1, e2, e12 inside CL(0,3)


def r3_sphere_structure(f: SliceFunction, s: SphereRef, tol=DEFAULT_TOL) -> SphereZeroClass:
    """Zero classification over CL(0,3) via its two central idempotents.

    With ds a zero divisor, ds lives in one of the ideals (1 +- e123)R_2; the
    canonical commuting witness pair is y = alpha + k0, z = alpha -+ k0*e123
    for the unique quaternion-like k0 solving k0 * ds = -vs, and the zeros of
    f^c on the same sphere are the h-conjugates of y^c, z^c.
    """
    _require_algebra(f, "cl-0-3", "r3_sphere_structure")
    return classify_sphere(f, s, tol)


def _r3_singular(f, alpha, beta_sq, vs, ds, tol):
    """CL(0,3) refinement of the exact singular-derivative branch."""
    alg = f.algebra
    e123 = alg.basis_element(7)
    half = Fraction(1, 2)
    p_plus = half * (alg.one() + e123)
    p_minus = half * (alg.one() - e123)
    ds_plus, ds_minus = ds * p_plus, ds * p_minus
    if ds_plus.is_zero() == ds_minus.is_zero():
        raise AlgebraError("CL(0,3) spherical derivative is not of the "
                           "expected zero-divisor form")
    free_idem = p_minus if ds_minus.is_zero() else p_plus
    sign = 1 if ds_minus.is_zero() else -1  # ds in (1 + sign*e123) R_2
    if not (vs * free_idem).is_zero():
        return SphereZeroClass(EMPTY)
    # unique k0 in R_2 with k0 * ds = -vs
    rmat = alg.right_mult_matrix(ds)
    rows = [[rmat[k][i] for i in _R2_INDICES] for k in range(alg.dim)]
    sol = linalg.solve_affine(rows, [-cc for cc in vs.coeffs])
    if sol is None:
        return SphereZeroClass(EMPTY)
    kvec, kern = sol
    if kern:
        raise AlgebraError("CL(0,3) canonical witness is not unique")
    kc = [Fraction(0)] * alg.dim
    for idx, val in zip(_R2_INDICES, kvec):
        kc[idx] = val
    k0 = alg.element(kc)
    if not (trace(k0).is_zero() and norm(k0) == alg.from_scalar(beta_sq)):
        return SphereZeroClass(EMPTY)
    # y lifts k0 into both ideals, z flips the free one: k0(p_det - p_free)
    y = alg.from_scalar(alpha) + k0
    z = alg.from_scalar(alpha) + sign * (k0 * e123)
    _assert_zero(f, y)
    _assert_zero(f, z)
    if (y * z) != (z * y):
        raise AlgebraError("internal: witness pair fails to commute")
    # h-factor of ds = (1 + sign*e123) h, h in R_2^*
    hc = [Fraction(0)] * alg.dim
    for idx in _R2_INDICES:
        hc[idx] = ds.coeffs[idx]
    h = alg.element(hc)
    if (alg.one() + sign * e123) * h != ds:
        raise AlgebraError("CL(0,3) zero divisor does not factor as (1 +- e123) h")
    h_inv = try_invert(h)
    fc = slice_conjugate(f)
    companions = []
    for wit in (y, z):
        cw = (h_inv * conj(wit)) * h
        _assert_zero(fc, cw)
        companions.append(cw)
    return SphereZeroClass(
        POINT_PAIR, witnesses=(y, z), companion_witnesses=tuple(companions),
        caveats=("canonical commuting pair; with a zero-divisor derivative "
                 "the full sphere intersection can be larger (see the generic "
                 "classification)",))


def classify_sphere(f: SliceFunction, s: SphereRef, tol=DEFAULT_TOL) -> SphereZeroClass:
    """Per-sphere classification with the algebra's singular-derivative refinement."""
    cls = _classify(f, s, tol, _singular_branch(f.algebra))
    if f.algebra is make_builtin("so") and f.is_poly and not normal(f).stem.coeffs:
        cls = replace(cls, caveats=cls.caveats + (_NORMAL_ZERO_CAVEAT,))
    return cls


_NORMAL_ZERO_CAVEAT = ("N(f) is identically zero: the zero set is not "
                       "characterized by the normal function")


def _singular_branch(alg):
    """The exact singular-derivative branch for alg: a refinement or the generic one."""
    if alg is make_builtin("so"):
        return _so_singular
    if alg is make_builtin("cl-0-3"):
        return _r3_singular
    return _generic_singular


# -- candidate spheres and full zero sets -------------------------------------------


def _normal_factors(f, tol):
    """(N(f), its factors over Q) for a tame polynomial; None factors if N(f) = 0."""
    if not f.is_poly:
        raise AlgebraError("zero sets require a polynomial stem")
    nf = _tame_normal(f, tol)
    coeffs = roots._trimmed(a.coeffs[0] for a in nf.stem.coeffs)
    return nf, roots._factor_rational(coeffs) if coeffs else None


def _sphere_refs(factors):
    return [(SphereRef(alpha, beta, beta_sq), mult)
            for alpha, beta, beta_sq, mult, _ in roots._spheres(factors)]


def candidate_spheres(f: SliceFunction, tol=DEFAULT_TOL):
    """Spheres that can meet V(f), from the roots of N(f), with multiplicities."""
    _, factors = _normal_factors(f, tol)
    if factors is None:
        raise NormalIdenticallyZero("N(f) vanishes identically")
    return _sphere_refs(factors)


def full_zero_set(f: SliceFunction, tol=DEFAULT_TOL) -> ZeroReport:
    """Zero-set report for a tame polynomial: candidate spheres + classification."""
    nf, factors = _normal_factors(f, tol)
    if factors is None:
        return ZeroReport(function=f, normal_coeffs=(), spheres=(),
                          normal_roots=(), caveats=(_NORMAL_ZERO_CAVEAT,))
    singular = _singular_branch(f.algebra)  # N(f) != 0: no SO caveat check
    spheres = []
    caveats = []
    for ref, mult in _sphere_refs(factors):
        cls = _classify(f, ref, tol, singular)
        caveats.extend(cls.caveats)
        spheres.append((ref, mult, cls))
    return ZeroReport(function=f, normal_coeffs=nf.stem.coeffs,
                      spheres=tuple(spheres),
                      normal_roots=tuple(roots._complex_roots(factors)),
                      caveats=tuple(dict.fromkeys(caveats)))


def zero_survey(f: SliceFunction, tol=DEFAULT_TOL) -> dict:
    """Heuristic sphere survey for functions that are not tame.

    Candidate spheres come from the component polynomials of f, N(f) and
    N(f^c); each candidate is then classified exactly, so every reported
    witness is sound, but spheres outside the candidate set are not excluded.
    """
    from .parsing import format_element, format_poly, format_scalar
    if not f.is_poly:
        raise AlgebraError("the sphere survey requires a polynomial stem")
    cands = {}
    seen_any = False
    for g in (f, normal(f), normal(slice_conjugate(f))):
        coeffs = g.stem.coeffs
        if not coeffs:
            continue
        d = g.algebra.dim
        for comp in range(d):
            pc = [Fraction(a.coeffs[comp]) if a.mode == EXACT else a.coeffs[comp]
                  for a in coeffs]
            if all(c == 0 for c in pc):
                continue
            seen_any = True
            if len(pc) == 1:
                continue  # nonzero constant component: no roots
            for alpha, beta, beta_sq, mult, exact in roots.sphere_data_from_poly(pc):
                key = (str(alpha), str(beta_sq))
                cands.setdefault(key, SphereRef(alpha, beta, beta_sq))
    spheres = []
    caveats = ["heuristic sphere survey: the function is not tame, so spheres "
               "outside the candidate set are not excluded"]
    for ref in sorted(cands.values(), key=lambda r: (float(r.alpha), float(r.beta))):
        cls = classify_sphere(f, ref, tol)
        caveats.extend(cls.caveats)
        if cls.kind == EMPTY:
            continue
        spheres.append({
            "alpha": format_scalar(ref.alpha),
            "beta": format_scalar(ref.beta),
            "multiplicity": None,
            "kind": cls.kind,
            "witnesses": [format_element(w) for w in cls.witnesses],
            "affine_dim": cls.affine_dim,
        })
    if not seen_any:
        caveats.append("the zero function vanishes everywhere")
    return {"function": format_poly(f), "normal_poly": [],
            "spheres": spheres, "caveats": list(dict.fromkeys(caveats))}


# -- zeros of slice products ---------------------------------------------------------


@dataclass(frozen=True)
class PredictionReport:
    predicted: SphereZeroClass
    formula_witness: Element | None
    actual: SphereZeroClass
    agrees: bool | None
    inclusion_only: bool
    case: str
    reason: str = ""


def product_zero_predict(f: SliceFunction, g: SliceFunction, s: SphereRef,
                         tol=DEFAULT_TOL) -> PredictionReport:
    """Predict V(f.g) on a sphere from the factor classifications.

    Uses the strongest applicable rule: the associative classification (exact
    sets), the compatible one, or the general candidate formulas (inclusions,
    resolved by exact membership checks).  The prediction is compared with a
    direct classification of the product.
    """
    alg = f.algebra
    h = slice_product(f, g)
    actual = classify_sphere(h, s, tol)

    def report(predicted, case, witness=None, inclusion=False, reason=""):
        return PredictionReport(predicted, witness, actual,
                                _prediction_agrees(predicted, actual, inclusion),
                                inclusion, case, reason)

    def unclassified(reason):
        return PredictionReport(SphereZeroClass(UNCLASSIFIED), None, actual,
                                None, False, "none", reason)

    if s.is_real_point:
        x = alg.from_scalar(Fraction(s.alpha) if s.is_exact else float(s.alpha))
        fv, gv = evaluate(f, x, tol), evaluate(g, x, tol)
        zero_tol = 0.0 if s.is_exact else tol
        if fv.is_zero(zero_tol) or gv.is_zero(zero_tol):
            return report(SphereZeroClass(POINT, witnesses=(x,)), "real-point")
        normals = _tame_normal_pair(f, g, tol)
        if normals is not None and not any(
                evaluate(n, x, tol).is_zero(zero_tol) for n in normals):
            return report(SphereZeroClass(EMPTY), "real-point-normal")
        return unclassified("no rule for a real point with nonvanishing factors")

    sf = classify_sphere(f, s, tol)
    sg = classify_sphere(g, s, tol)
    if sf.kind == FULL_SPHERE or sg.kind == FULL_SPHERE:
        return report(SphereZeroClass(FULL_SPHERE), "sphere-inclusion")
    if sf.kind not in (EMPTY, POINT) or sg.kind not in (EMPTY, POINT):
        return unclassified("factor zero set on the sphere is neither empty "
                            "nor a single point")
    if not s.is_exact:
        return unclassified("prediction formulas are implemented for exact spheres")

    alpha, beta_sq = Fraction(s.alpha), Fraction(s.beta_sq)
    vs_f, ds_f = sphere_values(f, alpha, beta_sq)
    vs_g, ds_g = sphere_values(g, alpha, beta_sq)
    vs_h, ds_h = sphere_values(h, alpha, beta_sq)
    y = sf.witnesses[0] if sf.kind == POINT else None
    z = sg.witnesses[0] if sg.kind == POINT else None
    a0 = alg.from_scalar(alpha)
    cones_ok = all(cone_membership(v, tol).in_CA for v in (ds_f, ds_g, ds_h))

    if alg.is_associative and cones_ok:
        if y is not None and z is None:
            return report(SphereZeroClass(POINT, witnesses=(y,)), "associative-2")
        if y is None and z is not None:
            fcz = evaluate(slice_conjugate(f), z, tol)
            rep_c = cone_membership(fcz, tol)
            if rep_c.in_CA and rep_c.is_invertible:
                w = (try_invert(fcz, tol) * z) * fcz
                return report(SphereZeroClass(POINT, witnesses=(w,)),
                              "associative-3", witness=w)
            return unclassified("f^c(z) is not in the invertible central cone")
        if y is not None and z is not None:
            if conj(y) * ds_f == ds_f * z:
                return report(SphereZeroClass(FULL_SPHERE), "associative-4a")
            return report(SphereZeroClass(POINT, witnesses=(y,)), "associative-4b")
        # both empty: fall through to the tame rule below
    if y is None and z is None:
        normals = _tame_normal_pair(f, g, tol)
        if normals is not None and not any(
                _vanishes_on_sphere(n, alpha, beta_sq) for n in normals):
            return report(SphereZeroClass(EMPTY), "tame-normal")
        return unclassified("no rule: both factors nonvanishing and normals "
                            "do not separate the sphere")

    # general (or compatible) candidate formulas; need (f.g)'_s invertible or zero
    im_y = (y - a0) if y is not None else None
    im_z = (z - a0) if z is not None else None
    if ds_h.is_zero():
        dsf_inv = try_invert(ds_f, tol) is not None
        dsg_inv = try_invert(ds_g, tol) is not None
        if (y is not None and dsf_inv) or (z is not None and dsg_inv):
            return report(SphereZeroClass(FULL_SPHERE), "general-a")
        return unclassified("(f.g)'_s vanishes but no factor derivative is invertible")
    dsh_inv = try_invert(ds_h, tol)
    if dsh_inv is None:
        return unclassified("(f.g)'_s is neither zero nor invertible")
    if y is not None and z is None:
        w = ((y * ds_f) * vs_g - ((y * im_y) * ds_f) * ds_g) * dsh_inv
        case = "compatible-2" if alg.is_compatible and cones_ok else "general-2b"
    elif y is None and z is not None:
        w = (vs_f * (z * ds_g) - ds_f * ((z * im_z) * ds_g)) * dsh_inv
        case = "compatible-3" if alg.is_compatible and cones_ok else "general-3b"
    else:
        nx = alg.from_scalar(alpha * alpha + beta_sq)
        w = (nx * (ds_f * ds_g) - (y * ds_f) * (z * ds_g)) * dsh_inv
        case = "compatible-4b" if alg.is_compatible and cones_ok else "general-4b"
    u_w = w - a0
    if _on_sphere_exact(u_w, beta_sq) and evaluate(h, w, tol).is_zero():
        predicted = SphereZeroClass(POINT, witnesses=(w,))
    else:
        predicted = SphereZeroClass(EMPTY)
    return report(predicted, case, witness=w, inclusion=True)


def _tame_normal_pair(f, g, tol):
    """(N(f), N(g)) when f and g are tame polynomials, else None."""
    if not (f.is_poly and g.is_poly):
        return None
    try:
        return _tame_normal(f, tol), _tame_normal(g, tol)
    except NotTame:
        return None


def _vanishes_on_sphere(g, alpha, beta_sq):
    vs, ds = sphere_values(g, alpha, beta_sq)
    return vs.is_zero() and ds.is_zero()


def _prediction_agrees(predicted, actual, inclusion_only):
    if predicted.kind == UNCLASSIFIED:
        return None
    if inclusion_only and predicted.kind == POINT and actual.kind == EMPTY:
        return True
    if predicted.kind != actual.kind:
        return False
    if predicted.kind in (EMPTY, FULL_SPHERE):
        return True
    return _witness_sets_match(predicted.witnesses, actual.witnesses)


def _witness_sets_match(ws1, ws2, tol=1e-7):
    if len(ws1) != len(ws2):
        return False
    used = [False] * len(ws2)
    for a in ws1:
        hit = False
        for i, b in enumerate(ws2):
            if used[i]:
                continue
            if a.mode == EXACT and b.mode == EXACT:
                ok = a == b
            else:
                ok = all(abs(float(x) - float(y)) <= tol
                         for x, y in zip(a.coeffs, b.coeffs))
            if ok:
                used[i] = True
                hit = True
                break
        if not hit:
            return False
    return True


# -- serialization --------------------------------------------------------------------


def report_to_json(report: ZeroReport) -> dict:
    from .parsing import format_element, format_poly, format_scalar
    spheres = []
    for ref, mult, cls in report.spheres:
        spheres.append({
            "alpha": format_scalar(ref.alpha),
            "beta": format_scalar(ref.beta),
            "multiplicity": mult,
            "kind": cls.kind,
            "witnesses": [format_element(w) for w in cls.witnesses],
            "affine_dim": cls.affine_dim,
        })
    return {
        "function": format_poly(report.function) if report.function.is_poly
        else repr(report.function),
        "normal_poly": [format_element(c) for c in report.normal_coeffs],
        "spheres": spheres,
        "caveats": list(report.caveats),
    }
