"""The three in-process workloads: seeded inputs, the timed call, exact gates.

Op `i` of a workload takes its inputs from a generator seeded with
(workload, seed, i), so a seed always gives the same corpus.  Ops cycle
through a fixed list of cells (kind, algebra, degree); the seed picks only
the coefficients, so every cycle has the same mix of work.

Every op is checked by gates that do not rely on the code path that produced
the result: witnesses are evaluated, identities are compared exactly,
inverses are multiplied back, and structural answers are recomputed from
their definitions (with numpy ranks standing in for exact singularity).
"""

from __future__ import annotations

import random
from fractions import Fraction

import hostspeed
import slicealg as sa
from slicealg.algebra import exact_sqrt
from slicealg.complexify import complexify


def op_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


# -- canonical text (digest input) ----------------------------------------------


def canon_scalar(c):
    if isinstance(c, (int, Fraction)):
        return str(Fraction(c))
    return "0" if abs(c) < 1e-12 else format(c, ".6g")


def canon_element(x):
    return "[" + ",".join(canon_scalar(c) for c in x.coeffs) + "]"


def canon_poly(f):
    return "(" + ";".join(canon_element(a) for a in f.stem.coeffs) + ")"


# -- seeded sampling ----------------------------------------------------------------


def rat(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))


def nonzero_rat(rng):
    while True:
        r = rat(rng)
        if r:
            return r


def element(alg, rng, density):
    """An element with `density` nonzero coordinates at distinct places."""
    v = [Fraction(0)] * alg.dim
    for k in rng.sample(range(alg.dim), min(density, alg.dim)):
        v[k] = nonzero_rat(rng)
    return alg.element(v)


class Facts:
    """Basis elements of one algebra that the samplers build on."""

    def __init__(self, alg):
        one, zero = alg.one(), alg.zero()
        basis = [alg.basis_element(b) for b in range(alg.dim)]
        self.alg = alg
        self.sphere_seeds = alg.sa_basis_indices
        squares = [e * e for e in basis]
        # e_b with e_b^c = -e_b and e_b^2 real: a + s e_b has a real norm
        self.rotors = [b for b in range(1, alg.dim)
                       if sa.conj(basis[b]) == -basis[b] and squares[b].is_real()]
        self.unipotent = [b for b in range(1, alg.dim) if squares[b] == one]
        self.nilpotent = [b for b in range(1, alg.dim) if squares[b] == zero]


def sphere_point(facts, rng):
    """An exact point of S_A: a basis unit J turned by a^{-1} J a, with
    a = r + s e_b and e_b anticommuting with J, so it has two terms."""
    alg = facts.alg
    j = alg.basis_element(rng.choice(facts.sphere_seeds))
    turners = [alg.basis_element(b) for b in facts.rotors]
    turners = [e for e in turners if e * j == -(j * e)]
    if not turners:
        return j
    a = alg.from_scalar(nonzero_rat(rng)) + nonzero_rat(rng) * rng.choice(turners)
    n = a * sa.conj(a)
    if n.coeffs[0] == 0:
        return j
    cand = ((sa.conj(a) * (1 / n.coeffs[0])) * j) * a
    if sa.trace(cand).is_zero() and sa.norm(cand) == alg.one():
        return cand
    return j


def normal_cone_constant(facts, rng):
    """r + s e_b with e_b^c = -e_b and e_b^2 real: n(c) = n(c^c) = r^2 - s^2 e_b^2."""
    alg = facts.alg
    while True:
        c = alg.from_scalar(nonzero_rat(rng)) + nonzero_rat(rng) * alg.basis_element(
            rng.choice(facts.rotors))
        n = sa.norm(c)
        if n.is_real() and n.coeffs[0] != 0:
            return c


def qa_point(facts, rng):
    """(alpha, beta, alpha + beta J) with rational beta > 0."""
    alpha = rat(rng)
    beta = abs(nonzero_rat(rng))
    return alpha, beta, facts.alg.from_scalar(alpha) + beta * sphere_point(facts, rng)


def tame_poly(facts, rng, degree):
    """c0 (x - q1) c1 (x - q2) ... (x - q_degree) with q_m in Q_A and c0, c1 in
    the normal cone: tame on every compatible algebra.  The shape is fixed, so
    that ops of one cell differ only in their coefficients."""
    while True:
        f = sa.constant(normal_cone_constant(facts, rng))
        for m in range(degree):
            f = sa.slice_product(f, sa.binomial(qa_point(facts, rng)[2]))
            if m == 0:
                f = sa.slice_product(f, sa.constant(normal_cone_constant(facts, rng)))
        if sa.is_tame(f):
            return f


def random_poly(facts, rng, degree):
    return sa.poly(facts.alg, [element(facts.alg, rng, min(facts.alg.dim, 3))
                               for _ in range(degree + 1)])


def zero_divisor(facts, rng):
    """(1 +- u) h or h (1 +- u) with u^2 = 1, or u h with u^2 = 0."""
    alg = facts.alg
    while True:
        if facts.unipotent:
            u = alg.basis_element(rng.choice(facts.unipotent))
            c = alg.one() + u if rng.random() < 0.5 else alg.one() - u
        else:
            c = alg.basis_element(rng.choice(facts.nilpotent))
        h = element(alg, rng, 2)
        c = c * h if rng.random() < 0.5 else h * c
        if not c.is_zero():
            return c


# -- exact helpers for the gates ------------------------------------------------------


def _poly_remainder(num, den):
    """num mod den, for low-order-first Fraction polynomials."""
    num = list(num)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        if c:
            for m, d in enumerate(den):
                num[k + m] -= c * d
    return num[:len(den) - 1]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def numpy_singular(rows):
    import numpy as np
    m = np.array([[float(c) for c in r] for r in rows])
    return int(np.linalg.matrix_rank(m)) < len(rows)


def mult_matrices(x):
    """(L_x, R_x) built column by column from products with basis units."""
    alg = x.algebra
    basis = [alg.basis_element(j) for j in range(alg.dim)]
    left_cols = [(x * e).coeffs for e in basis]
    right_cols = [(e * x).coeffs for e in basis]
    return [list(r) for r in zip(*left_cols)], [list(r) for r in zip(*right_cols)]


def central_cone_by_definition(x):
    """x = 0, or n(x) and n(x^c) are both invertible central elements."""
    if x.is_zero():
        return True
    alg = x.algebra
    basis = [alg.basis_element(j) for j in range(alg.dim)]
    for e in (sa.norm(x), sa.norm(sa.conj(x))):
        if e.is_real():
            if e.coeffs[0] == 0:
                return False
            continue
        if any(e * b != b * e for b in basis):
            return False
        if not alg.is_associative and any(
                sa.associator(e, b, c) != alg.zero() for b in basis for c in basis):
            return False
        if numpy_singular(mult_matrices(e)[0]):
            return False
    return True


# -- workloads -----------------------------------------------------------------------------


class Workload:
    """One workload: cells, setup, input maker, timed call, gates, canon text."""

    name = ""
    cells = ()
    algebras = ()
    complexified = ()
    timed_ops = 0  # ops in the corpus of an untraced run
    traced_ops = 0  # ops in the corpus of a traced run
    probe_ref_s = hostspeed.REF_S

    def __init__(self, seed):
        self.seed = seed
        self.facts = {}
        self.build_s = {}

    def setup(self, clock):
        """Build algebras, complexifications and structural caches."""
        for name in self.algebras:
            alg = sa.make_builtin(name)
            alg.is_associative  # a cached flag: fill it before any op is timed
            self.facts[name] = Facts(alg)
        for name in self.complexified:
            t0 = clock()
            complexify(sa.make_builtin(name))
            self.build_s[name] = clock() - t0

    def cell(self, index):
        return self.cells[index % len(self.cells)]

    def probe(self, clock):
        """The host-speed probe that scales this workload's calls."""
        return hostspeed.probe(clock)

    def fresh_pass(self):
        """Drop caches that would let a repeated pass reuse earlier results."""

    def make(self, index):
        raise NotImplementedError

    def run(self, inp, span):
        raise NotImplementedError

    def check(self, inp, out):
        """Gate problems (list of strings) and the count of witnesses checked."""
        raise NotImplementedError

    def canon(self, inp, out):
        raise NotImplementedError

    def describe(self, inp):
        raise NotImplementedError

    def counts(self, inp, out):
        """Exact per-op counts that a traced run sums."""
        return {}

    def replay(self, inp, out, span):
        """Traced runs only: the op's stages, called again from outside."""


# zeros ---------------------------------------------------------------------------------


ZERO_ALGS = ("H", "SH", "DH", "O", "SO", "cl-0-3", "cl-0-4")
PLANTED_ALGS = ("SO", "SH", "DH", "cl-0-3", "cl-0-4")


def _zeros_cells():
    """34 cells: degrees 2-5 over ZERO_ALGS (cl-0-4 to degree 3), SO at
    degree 5 three times, one cl-0-5 polynomial and five planted pairs.

    The mix holds op_p95_ms steady between seeds: at degrees 4-5 the cl-0-4
    times, and the cl-0-5 times at any count above one, spread up to
    fourfold between inputs and sat right at p95.  SO at degree 5 (~9% of
    ops) is the costliest cell with a narrow spread, so p95 falls among it."""
    cells = []
    for k, degree in enumerate((2, 3, 4, 5)):
        cells += [("full", a, degree) for a in ZERO_ALGS if a != "cl-0-4" or degree <= 3]
        if degree == 5:
            cells += [("full", "SO", 5)] * 2
        cells.append(("planted", PLANTED_ALGS[k], 0))
    return tuple(cells + [("full", "cl-0-5", 2), ("planted", PLANTED_ALGS[4], 0)])


class Zeros(Workload):
    name = "zeros"
    cells = _zeros_cells()
    algebras = ZERO_ALGS + ("cl-0-5",)
    complexified = algebras
    timed_ops = 6 * len(cells)
    traced_ops = 2 * len(cells)

    def setup(self, clock):
        super().setup(clock)
        from slicealg import roots
        t0 = clock()  # the first factorization imports sympy
        roots.sphere_data_from_poly([Fraction(-2), Fraction(0), Fraction(0), Fraction(1)])
        self.first_factor_s = clock() - t0

    def fresh_pass(self):
        from sympy.core.cache import clear_cache
        clear_cache()  # sympy memoizes; a repeated factorization would be cheaper

    def make(self, index):
        kind, name, degree = self.cell(index)
        rng = op_rng(self.name, self.seed, index)
        facts = self.facts[name]
        if kind == "full":
            return {"kind": kind, "alg": name, "f": tame_poly(facts, rng, degree)}
        alpha, beta, q = qa_point(facts, rng)
        f = sa.slice_product(sa.binomial(q), sa.constant(zero_divisor(facts, rng)))
        if rng.random() < 1 / 3:
            f = sa.slice_product(f, sa.binomial(qa_point(facts, rng)[2]))
        return {"kind": kind, "alg": name, "f": f,
                "sphere": sa.SphereRef(alpha, beta, beta * beta)}

    def run(self, inp, span):
        if inp["kind"] == "full":
            with span("zeroset.full_zero_set"):
                return sa.full_zero_set(inp["f"])
        with span("zeroset.classify_sphere"):
            return sa.classify_sphere(inp["f"], inp["sphere"])

    def spheres(self, inp, out):
        if inp["kind"] == "full":
            return [(ref, mult, cls) for ref, mult, cls in out.spheres]
        return [(inp["sphere"], None, out)]

    def check(self, inp, out):
        f = inp["f"]
        problems = []
        checked = 0
        for ref, _, cls in self.spheres(inp, out):
            checked += _check_sphere(f, ref, cls, problems)
        if inp["kind"] == "full":
            _check_normal_divisibility(out, problems)
        return problems, checked

    def counts(self, inp, out):
        spheres = self.spheres(inp, out)
        return {"spheres": len(spheres),
                "spheres_exact": sum(1 for ref, _, _ in spheres if ref.is_exact),
                "caveated": sum(1 for _, _, cls in spheres if cls.caveats)}

    def canon(self, inp, out):
        parts = []
        if inp["kind"] == "full":
            parts.append("N" + "".join(canon_element(a) for a in out.normal_coeffs))
        for ref, mult, cls in self.spheres(inp, out):
            wit = sorted(canon_element(w) for w in cls.witnesses)
            parts.append(f"{canon_scalar(ref.alpha)}|{canon_scalar(ref.beta_sq)}|"
                         f"{mult}|{cls.kind}|{','.join(wit)}|{cls.affine_dim}")
        return "\n".join(parts)

    def describe(self, inp):
        text = f"{inp['kind']}:{inp['alg']}:{canon_poly(inp['f'])}"
        if "sphere" in inp:
            s = inp["sphere"]
            text += f"@{canon_scalar(s.alpha)},{canon_scalar(s.beta_sq)}"
        return text

    def replay(self, inp, out, span):
        from sympy.core.cache import clear_cache
        from slicealg import roots
        f = inp["f"]
        if inp["kind"] == "full":
            # the op has just factored N(f); sympy's cache would make the
            # replayed factorization look cheaper than it is
            clear_cache()
            with span("replay.stages"):
                with span("slicefn.normal"):
                    nf = sa.normal(f)
                with span("slicefn.normal"):
                    sa.normal(sa.slice_conjugate(f))
                coeffs = [Fraction(a.coeffs[0]) for a in nf.stem.coeffs]
                if coeffs:
                    with span("roots.sphere_data_from_poly"):
                        roots.sphere_data_from_poly(coeffs)
                    with span("roots.complex_roots"):
                        roots.complex_roots(coeffs)
                for ref, _, cls in out.spheres:
                    with span("zeroset.classify_sphere." + cls.kind):
                        sa.classify_sphere(f, ref)
            with span("slicefn.is_tame"):
                sa.is_tame(f)
            clear_cache()
            with span("zeroset.candidate_spheres"):
                sa.candidate_spheres(f)
        else:
            with span("zeroset.classify_sphere." + out.kind):
                sa.classify_sphere(f, inp["sphere"])


def _on_sphere(ref, w):
    """Trace and norm of w - alpha match the sphere (alpha, beta^2)."""
    alg = w.algebra
    if w.mode == sa.EXACT:
        u = w - alg.from_scalar(Fraction(ref.alpha))
        return (sa.trace(u).is_zero()
                and sa.norm(u) == alg.from_scalar(Fraction(ref.beta_sq)))
    u = w - alg.from_scalar(float(ref.alpha), sa.FLOAT)
    return (sa.trace(u).is_zero(1e-6)
            and (sa.norm(u) - alg.from_scalar(float(ref.beta_sq), sa.FLOAT)).is_zero(1e-6))


def _vanishes(f, w):
    val = sa.evaluate(f, w)
    return val.is_zero() if val.mode == sa.EXACT else val.is_zero(1e-6)


def _check_sphere(f, ref, cls, problems):
    """Gate one sphere's classification; returns the number of points checked."""
    where = f"sphere ({canon_scalar(ref.alpha)}, {canon_scalar(ref.beta_sq)}) {cls.kind}"
    points = list(cls.witnesses)
    if cls.kind == sa.AFFINE_SET and not cls.caveats:
        points += [cls.affine_base + v for v in cls.affine_directions]
        if len(cls.affine_directions) != cls.affine_dim:
            problems.append(f"{where}: affine_dim disagrees with the directions")
    for w in points:
        if not _vanishes(f, w):
            problems.append(f"{where}: f does not vanish at {canon_element(w)}")
        if not _on_sphere(ref, w):
            problems.append(f"{where}: {canon_element(w)} is off the sphere")
    for w in cls.companion_witnesses or ():
        if not _vanishes(sa.slice_conjugate(f), w):
            problems.append(f"{where}: f^c does not vanish at {canon_element(w)}")
    expected = {sa.POINT: 1, sa.POINT_PAIR: 2, sa.EMPTY: 0}.get(cls.kind)
    if expected is not None and len(set(cls.witnesses)) != expected:
        problems.append(f"{where}: {len(cls.witnesses)} witnesses")
    if cls.kind == sa.FULL_SPHERE and ref.is_exact:
        beta = exact_sqrt(Fraction(ref.beta_sq))
        if beta:  # a rational radius gives exact points to test
            alg = f.algebra
            for j in alg.sa_basis_indices[:2]:
                w = alg.from_scalar(Fraction(ref.alpha)) + beta * alg.basis_element(j)
                if not _vanishes(f, w):
                    problems.append(f"{where}: f does not vanish at {canon_element(w)}")
                points.append(w)
    return len(points)


def _check_normal_divisibility(rep, problems):
    """Each exact sphere's factor, to its multiplicity, divides N(f)."""
    if not all(a.is_real() for a in rep.normal_coeffs):
        problems.append("N(f) is not slice preserving")
        return
    nf = [Fraction(a.coeffs[0]) for a in rep.normal_coeffs]
    prod = [Fraction(1)]
    for ref, mult, _ in rep.spheres:
        if not ref.is_exact:
            continue
        a, b2 = Fraction(ref.alpha), Fraction(ref.beta_sq)
        factor = [-a, Fraction(1)] if b2 == 0 else [a * a + b2, -2 * a, Fraction(1)]
        for _ in range(mult):
            prod = _poly_mul(prod, factor)
    if nf and any(_poly_remainder(nf, prod)):
        problems.append("the exact sphere factors do not divide N(f)")


# identities -----------------------------------------------------------------------------


IDENTITY_CELLS = (
    [("pointwise", a) for a in ("H", "SH", "cl-0-3")]
    + [("general", a) for a in ("O", "SO")]
    + [("tmap", a) for a in ("C", "H", "SH", "DC", "DH", "cl-0-3")]
    + [("nmul", a) for a in ("C", "H", "O", "SH", "DC", "DH", "SO", "cl-0-3")]
    + [("norm", a) for a in ("C", "SC", "DR", "H", "SH", "DC", "O", "SO",
                             "SO_ALT", "DH", "cl-0-3")])


# The two costliest checks always run at degree 3 (7% of the ops), so that
# op_p95_ms falls within one cell: at degrees 1-3 their times straddled p95
# and it spread by ~15% between seeds.
TMAP_AT_DEGREE_3 = {("tmap", "cl-0-3"), ("tmap", "DH")}


def _interleave(cells):
    """Round-robin over kinds, so that any prefix mixes every kind."""
    by_kind = {}
    for c in cells:
        by_kind.setdefault(c[0], []).append(c)
    out = []
    queues = list(by_kind.values())
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return tuple(out)


class Identities(Workload):
    name = "identities"
    cells = _interleave(IDENTITY_CELLS)
    algebras = tuple(dict.fromkeys(a for _, a in IDENTITY_CELLS))
    complexified = tuple(a for a in algebras if a != "SO_ALT")
    timed_ops = 15 * len(cells)
    traced_ops = 2 * len(cells)

    def make(self, index):
        kind, name = self.cell(index)
        rng = op_rng(self.name, self.seed, index)
        facts = self.facts[name]
        alg = facts.alg
        inp = {"kind": kind, "alg": name, "refusals": 0}
        if kind == "norm":
            pair = []
            while len(pair) < 2:
                x = element(alg, rng, min(alg.dim, 4))
                if sa.in_central_cone(x):
                    pair.append(x)
            inp["x"], inp["y"] = pair
            return inp
        # degrees follow the cycle number, so that every seed has the same mix
        cycle = index // len(self.cells)
        degree = 3 if (kind, name) in TMAP_AT_DEGREE_3 else 1 + cycle % 3
        if kind == "nmul":
            inp["f"] = tame_poly(facts, rng, 1 + cycle % 2)
            inp["g"] = tame_poly(facts, rng, 1 + (cycle // 2) % 2)
            return inp
        while True:
            f = tame_poly(facts, rng, degree)
            x = qa_point(facts, rng)[2]
            inp.update(f=f, x=x)
            if kind == "general":
                inp["g"] = random_poly(facts, rng, 1 + (cycle // 3) % 3)
                return inp
            if kind == "pointwise":
                inp["g"] = random_poly(facts, rng, 1 + (cycle // 3) % 3)
                if sa.try_invert(sa.evaluate(f, x)) is not None:
                    return inp
                continue
            # tmap: keep inputs on which T_f and the quotient are defined
            try:
                sa.t_map(f, x)
                sa.quotient_eval(f, f, x)
                return inp
            except sa.AlgebraError:
                inp["refusals"] += 1

    def run(self, inp, span):
        kind = inp["kind"]
        if kind == "norm":
            x, y = inp["x"], inp["y"]
            nx, ny = sa.norm(x), sa.norm(y)
            return (sa.norm(x * y), nx * ny, ny * nx, sa.norm(y * x))
        if kind == "nmul":
            f, g = inp["f"], inp["g"]
            with span("slicefn.slice_product"):
                fg = sa.slice_product(f, g)
            with span("slicefn.normal"):
                lhs = sa.normal(fg)
            with span("slicefn.normal"):
                nf = sa.normal(f)
            with span("slicefn.normal"):
                ng = sa.normal(g)
            with span("slicefn.slice_product"):
                rhs = sa.slice_product(nf, ng)
            return (lhs, rhs)
        f, x = inp["f"], inp["x"]
        if kind == "tmap":
            with span("division.t_map"):
                y = sa.t_map(f, x)
            with span("division.t_map"):
                back = sa.t_map(sa.slice_conjugate(f), y)
            with span("division.quotient_eval"):
                q = sa.quotient_eval(f, f, x)
            return (back, x, q, f.algebra.one(), y)
        g = inp["g"]
        if kind == "pointwise":
            with span("division.product_pointwise"):
                lhs = sa.product_pointwise(f, g, x)
        else:
            with span("slicefn.product_eval_formula"):
                lhs = sa.product_eval_formula(f, g, x, "general")
        with span("slicefn.slice_product"):
            fg = sa.slice_product(f, g)
        with span("slicefn.evaluate"):
            rhs = sa.evaluate(fg, x)
        return (lhs, rhs)

    def counts(self, inp, out):
        return {"refusals": inp["refusals"]}

    def check(self, inp, out):
        kind = inp["kind"]
        if kind == "tmap":
            back, x, q, one = out[:4]
            ok = back == x and q == one
        else:
            ok = all(v == out[0] for v in out[1:])
        return ([] if ok else [f"{kind} identity fails on {inp['alg']}"]), 0

    def canon(self, inp, out):
        kind = inp["kind"]
        if kind == "tmap":
            return canon_element(out[4])
        if kind == "nmul":
            return canon_poly(out[0])
        return canon_element(out[0])

    def describe(self, inp):
        parts = [inp["kind"], inp["alg"]]
        for key in ("f", "g", "x", "y"):
            if key in inp:
                v = inp[key]
                parts.append(canon_poly(v) if key in ("f", "g") else canon_element(v))
        return ":".join(parts)

    def replay(self, inp, out, span):
        kind = inp["kind"]
        if kind == "norm":
            return
        f = inp["f"]
        g = inp["g"] if "g" in inp else sa.slice_conjugate(f)
        if "x" in inp:
            with span("slicefn.evaluate"):
                fx = sa.evaluate(f, inp["x"])
            with span("algebra.try_invert"):
                sa.try_invert(fx)
        with span("slicefn.slice_product"):
            sa.slice_product(f, g)


# structure ---------------------------------------------------------------------------


ELEMENT_DENSITY = {8: 8, 16: 8, 32: 6, 64: 5}
RANDOMIZED_SAMPLES = 40


def _structure_cells():
    verify = [("verify_axioms", a, "exhaustive")
              for a in ("O", "SO_ALT", "DH", "cl-0-3", "cl-0-4")]
    verify += [("verify_axioms", a, "randomized") for a in ("cl-0-5", "cl-0-6", "cl-3-3")]
    # thrice per cycle: the slowest op is then ~10% of the ops, so op_p95_ms
    # falls amid one deterministic query instead of between two kinds of op
    verify += [("verify_axioms", "cl-0-4", "exhaustive")] * 2
    sizes = ("O", "cl-0-3", "cl-0-4", "cl-0-5", "cl-0-6", "cl-3-3")
    inv = [("try_invert", a, None) for a in sizes]
    zd = [("is_zero_divisor", a, None) for a in sizes]
    icc = [("in_central_cone", a, None) for a in ("O", "DH", "cl-0-4", "cl-0-5", "cl-0-6")]
    cone = [("cone_membership", a, None) for a in ("O", "cl-0-3", "cl-0-4", "cl-0-5")]
    return _interleave(verify + inv + zd + icc + cone)


class Structure(Workload):
    name = "structure"
    cells = _structure_cells()
    algebras = tuple(dict.fromkeys(a for _, a, _ in cells))
    timed_ops = 3 * len(cells)
    traced_ops = len(cells)

    def make(self, index):
        kind, name, method = self.cell(index)
        rng = op_rng(self.name, self.seed, index)
        facts = self.facts[name]
        alg = facts.alg
        inp = {"kind": kind, "alg": name}
        if kind == "verify_axioms":
            inp.update(method=method, seed=rng.randrange(10 ** 6))
        elif kind == "is_zero_divisor" and facts.unipotent:
            inp["x"] = zero_divisor(facts, rng)
        else:
            inp["x"] = element(alg, rng, ELEMENT_DENSITY[alg.dim])
        return inp

    def run(self, inp, span):
        kind = inp["kind"]
        with span("algebra." + kind):
            if kind == "verify_axioms":
                return sa.verify_axioms(sa.make_builtin(inp["alg"]), method=inp["method"],
                                        samples=RANDOMIZED_SAMPLES, seed=inp["seed"])
            return getattr(sa, kind)(inp["x"])

    def check(self, inp, out):
        kind, name = inp["kind"], inp["alg"]
        problems = []
        if kind == "verify_axioms":
            want = {"alternative": True, "star": True, "moufang": True,
                    "compatible": name != "SO_ALT", "method": inp["method"]}
            got = {k: out[k] for k in want}
            if got != want:
                problems.append(f"verify_axioms({name}) flags {got}")
            if name == "SO_ALT":
                alg = sa.make_builtin(name)
                l2 = 2 * alg.basis_element(alg.basis_index("l"))
                if not any(w.get("identity") == "compatibility" and w.get("witness") == l2
                           for w in out["witnesses"]):
                    problems.append("SO_ALT lacks the compatibility witness t(l) = 2l")
            return problems, 0
        x = inp["x"]
        alg = x.algebra
        left, right = mult_matrices(x)
        sing_l, sing_r = numpy_singular(left), numpy_singular(right)
        if kind == "try_invert":
            if out is None:
                if not sing_l:
                    problems.append(f"try_invert gave None on a nonsingular {name} element")
            elif out * x != alg.one() or x * out != alg.one():
                problems.append(f"try_invert result on {name} is not a two-sided inverse")
        elif kind == "is_zero_divisor":
            if tuple(out) != (sing_l, sing_r):
                problems.append(f"is_zero_divisor on {name}: {out}, ranks say "
                                f"{(sing_l, sing_r)}")
        elif kind == "in_central_cone":
            if out != central_cone_by_definition(x):
                problems.append(f"in_central_cone on {name} disagrees with the definition")
        else:
            problems += _check_cone_report(x, out, sing_l, sing_r)
        return problems, 0

    def canon(self, inp, out):
        kind = inp["kind"]
        if kind == "verify_axioms":
            flags = ",".join(f"{k}={out[k]}" for k in
                             ("alternative", "star", "moufang", "compatible", "method"))
            return flags + ";" + ",".join(sorted(w["identity"] for w in out["witnesses"]))
        if kind == "try_invert":
            return "None" if out is None else canon_element(out)
        if kind == "cone_membership":
            return ",".join(f"{k}={getattr(out, k)}" for k in (
                "in_QA", "in_NA", "in_CA", "in_SA", "is_zero_divisor_left",
                "is_zero_divisor_right", "is_invertible")) + canon_element(out.norm)
        return str(out)

    def describe(self, inp):
        if inp["kind"] == "verify_axioms":
            return f"verify:{inp['alg']}:{inp['method']}:{inp['seed']}"
        return f"{inp['kind']}:{inp['alg']}:{canon_element(inp['x'])}"


def _check_cone_report(x, rep, sing_l, sing_r):
    alg = x.algebra
    t, n, nc = sa.trace(x), sa.norm(x), sa.norm(sa.conj(x))
    zero = x.is_zero()

    def real_nonzero(e):
        return e.is_real() and e.coeffs[0] != 0

    if x.is_real():
        in_qa = True
    else:
        in_qa = (t.is_real() and n.is_real()
                 and 4 * n.coeffs[0] > t.coeffs[0] * t.coeffs[0])
    want = {
        "trace": t, "norm": n, "in_QA": in_qa,
        "in_NA": zero or (real_nonzero(n) and real_nonzero(nc)),
        "in_CA": central_cone_by_definition(x),
        "in_SA": t.is_zero() and n == alg.one(),
        "is_invertible": not sing_l,
        "is_zero_divisor_left": sing_l and not zero,
        "is_zero_divisor_right": sing_r and not zero,
    }
    return [f"cone_membership.{k} on {alg.name} disagrees with its definition"
            for k, v in want.items() if getattr(rep, k) != v]


WORKLOADS = {w.name: w for w in (Zeros, Identities, Structure)}
