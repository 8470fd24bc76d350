import json
import random
from fractions import Fraction

import pytest

import slicealg as sa
from slicealg.sampling import random_poly, random_qa_point, random_tame_poly
from slicealg.zeroset import (
    AFFINE_SET, EMPTY, FULL_SPHERE, POINT, POINT_PAIR, NormalIdenticallyZero,
    NotTame, WrongAlgebra, classify_sphere, zero_survey,
)

H = sa.make_builtin("H")
O = sa.make_builtin("O")
SO = sa.make_builtin("SO")
SO_ALT = sa.make_builtin("SO_ALT")
SH = sa.make_builtin("SH")
R3 = sa.make_builtin("cl-0-3")
R4 = sa.make_builtin("cl-0-4")

S01 = sa.SphereRef(Fraction(0), Fraction(1))


def el(alg, name):
    return alg.basis_element(alg.basis_index(name))


class TestZerosOnSphere:
    def test_full_sphere(self):
        f = sa.parse_poly("x^2+1", H)
        assert sa.zeros_on_sphere(f, S01).kind == FULL_SPHERE

    def test_r4_example_spheres(self):
        f = sa.parse_poly("(x-e4)*(1+e123)", R4)
        fc = sa.slice_conjugate(f)
        cls = sa.zeros_on_sphere(f, S01)
        assert cls.kind == POINT and cls.witnesses == (el(R4, "e4"),)
        assert sa.zeros_on_sphere(fc, S01).kind == EMPTY
        nf = sa.normal(f)
        nfc = sa.normal(fc)
        ncls = sa.zeros_on_sphere(nf, S01)
        assert ncls.kind == POINT and ncls.witnesses == (el(R4, "e4"),)
        assert sa.zeros_on_sphere(nfc, S01).kind == FULL_SPHERE

    def test_r3_pair_function_generic_is_honest(self):
        # The independent oracle (exact affine solve + sphere constraints)
        # shows the zero set here is 2-dimensional, not a point pair: the
        # generic routine reports the morezeros flat with verified witnesses.
        f = sa.parse_poly("(x-e1)*(1-e123)", R3)
        cls = sa.zeros_on_sphere(f, S01)
        assert cls.kind == AFFINE_SET
        assert cls.caveats
        found = set(cls.witnesses)
        assert el(R3, "e1") in found and el(R3, "e23") in found
        # brute-force oracle: an extra zero off the canonical pair
        v = R3.element([0, Fraction(1, 2), Fraction(1, 2), 0,
                        0, Fraction(1, 2), Fraction(1, 2), 0])
        assert sa.trace(v).is_zero() and sa.norm(v) == R3.one()
        assert sa.evaluate(f, v).is_zero()

    def test_real_point_spheres(self):
        f = sa.parse_poly("x-2", H)
        assert sa.zeros_on_sphere(f, sa.SphereRef(Fraction(2), Fraction(0))).kind == POINT
        assert sa.zeros_on_sphere(f, sa.SphereRef(Fraction(1), Fraction(0))).kind == EMPTY

    def test_point_on_shifted_sphere(self):
        y = H.from_scalar(Fraction(1, 2)) + 3 * el(H, "k")
        f = sa.binomial(y)
        s = sa.SphereRef(Fraction(1, 2), Fraction(3))
        cls = sa.zeros_on_sphere(f, s)
        assert cls.kind == POINT and cls.witnesses == (y,)

    def test_empty_off_sphere(self):
        f = sa.parse_poly("x-i", H)
        s = sa.SphereRef(Fraction(0), Fraction(2))
        assert sa.zeros_on_sphere(f, s).kind == EMPTY

    def test_irrational_radius_exact_beta_sq(self):
        # N(x - (1+i+j)) = x^2 - 2x + 3: sphere (1, sqrt(2)) has rational beta^2
        y = H.element([1, 1, 1, 0])
        f = sa.binomial(y)
        s = sa.SphereRef(Fraction(1), 2 ** 0.5, beta_sq=Fraction(2))
        cls = sa.zeros_on_sphere(f, s)
        assert cls.kind == POINT and cls.witnesses == (y,)

    def test_witnesses_always_vanish(self):
        rng = random.Random(0)
        for alg in (H, SH, R3, SO):
            done = 0
            while done < 12:
                f = random_tame_poly(alg, rng, max_degree=3)
                if not sa.normal(f).stem.coeffs:
                    continue
                try:
                    spheres = sa.candidate_spheres(f)
                except (NotTame, NormalIdenticallyZero):
                    continue
                for ref, mult in spheres:
                    cls = classify_sphere(f, ref)
                    for w in cls.witnesses:
                        if w.mode == "exact":
                            assert sa.evaluate(f, w).is_zero()
                        else:
                            assert sa.evaluate(f, w).is_zero(1e-6)
                done += 1


class TestSOStructure:
    def test_requires_so(self):
        with pytest.raises(WrongAlgebra):
            sa.so_sphere_structure(sa.parse_poly("x", H), S01)

    def test_point_case_matches_generic(self):
        f = sa.parse_poly("x-i", SO)
        a = sa.so_sphere_structure(f, S01)
        b = sa.zeros_on_sphere(f, S01)
        assert a.kind == b.kind == POINT and a.witnesses == b.witnesses

    def test_two_plane(self):
        f = sa.parse_poly("(x-i)*(1+li)", SO)
        cls = sa.so_sphere_structure(f, S01)
        assert cls.kind == AFFINE_SET and cls.affine_dim == 2
        rng = random.Random(1)
        for _ in range(40):
            t1 = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3]))
            t2 = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3]))
            y = cls.affine_base + t1 * cls.affine_directions[0] \
                + t2 * cls.affine_directions[1]
            assert sa.evaluate(f, y).is_zero()
            assert sa.cone_membership(y - sa.real_part(y)).trace.is_zero()

    def test_two_plane_agrees_with_generic(self):
        f = sa.parse_poly("(x-i)*(1+li)", SO)
        a = sa.so_sphere_structure(f, S01)
        b = sa.zeros_on_sphere(f, S01)
        assert b.kind == AFFINE_SET and b.affine_dim == 2
        assert _same_flat(a, b)

    def test_singular_constant(self):
        one_l = sa.constant(SO.element([1, 0, 0, 0, 1, 0, 0, 0]))
        cls = sa.so_sphere_structure(one_l, S01)
        assert cls.kind == EMPTY
        assert any("identically zero" in c for c in cls.caveats)


def _same_flat(a, b):
    from slicealg import linalg
    if a.affine_dim != b.affine_dim:
        return False
    span_a = [list(d.coeffs) for d in a.affine_directions]
    span_b = [list(d.coeffs) for d in b.affine_directions]
    diff = [p - q for p, q in zip(a.affine_base.coeffs, b.affine_base.coeffs)]
    return (linalg.rank(_cols(span_a + span_b)) == a.affine_dim
            and linalg.in_span(span_a, diff))


def _cols(vectors):
    return [list(c) for c in zip(*vectors)]


class TestR3Structure:
    def test_requires_r3(self):
        with pytest.raises(WrongAlgebra):
            sa.r3_sphere_structure(sa.parse_poly("x", H), S01)

    def test_pair_case(self):
        f = sa.parse_poly("(x-e1)*(1-e123)", R3)
        cls = sa.r3_sphere_structure(f, S01)
        assert cls.kind == POINT_PAIR
        assert set(cls.witnesses) == {el(R3, "e1"), el(R3, "e23")}
        y, z = cls.witnesses
        assert y * z == z * y
        assert set(cls.companion_witnesses) == {-el(R3, "e1"), -el(R3, "e23")}
        fc = sa.slice_conjugate(f)
        for w in cls.companion_witnesses:
            assert sa.evaluate(fc, w).is_zero()

    def test_pair_witnesses_inside_generic_set(self):
        f = sa.parse_poly("(x-e1)*(1-e123)", R3)
        spec = sa.r3_sphere_structure(f, S01)
        gen = sa.zeros_on_sphere(f, S01)
        assert set(spec.witnesses) <= set(gen.witnesses)

    def test_point_case(self):
        f = sa.parse_poly("x-e1", R3)
        cls = sa.r3_sphere_structure(f, S01)
        assert cls.kind == POINT and cls.witnesses == (el(R3, "e1"),)
        assert sa.zeros_on_sphere(f, S01).witnesses == cls.witnesses

    def test_full_and_empty_match_generic(self):
        for expr, want in (("x^2+1", FULL_SPHERE), ("x-e1-1", EMPTY)):
            f = sa.parse_poly(expr, R3)
            assert sa.r3_sphere_structure(f, S01).kind == want
            assert sa.zeros_on_sphere(f, S01).kind == want


class TestCandidateSpheres:
    def test_binomial(self):
        f = sa.parse_poly("x-i", H)
        [(ref, mult)] = sa.candidate_spheres(f)
        assert (ref.alpha, ref.beta, mult) == (0, 1, 1)

    def test_double_sphere(self):
        f = sa.parse_poly("(x-i)*(x-j)", H)
        [(ref, mult)] = sa.candidate_spheres(f)
        assert (ref.alpha, ref.beta, mult) == (0, 1, 2)

    def test_null_binomial_real_roots(self):
        a = SH.one() + el(SH, "e1")  # n(a) = 0, t(a) = 2
        f = sa.binomial(a)
        refs = sa.candidate_spheres(f)
        assert [(r.alpha, r.beta, m) for r, m in refs] == [(0, 0, 1), (2, 0, 1)]

    def test_not_tame_refused(self):
        f = sa.parse_poly("(x-e4)*(1+e123)", R4)
        with pytest.raises(NotTame):
            sa.candidate_spheres(f)

    def test_normal_zero_refused(self):
        one_l = sa.constant(SO.element([1, 0, 0, 0, 1, 0, 0, 0]))
        with pytest.raises(NormalIdenticallyZero):
            sa.candidate_spheres(one_l)

    def test_irrational_sphere_data(self):
        f = sa.parse_poly("x^2+2", H)  # sphere (0, sqrt 2)
        [(ref, mult)] = sa.candidate_spheres(f)
        assert ref.beta_sq == 2 and not isinstance(ref.beta, Fraction)


class TestFullZeroSet:
    def test_absorbed_second_zero(self):
        f = sa.parse_poly("(x-i)*(x-j)", H)
        rep = sa.full_zero_set(f)
        [(ref, mult, cls)] = rep.spheres
        assert cls.kind == POINT and cls.witnesses == (el(H, "i"),)

    def test_constant_times_delta(self):
        f = sa.parse_poly("e1*(x^2+1)", R4)
        rep = sa.full_zero_set(f)
        [(ref, mult, cls)] = rep.spheres
        assert cls.kind == FULL_SPHERE

    def test_constant_one(self):
        rep = sa.full_zero_set(sa.constant(H.one()))
        assert rep.spheres == ()

    def test_normal_zero_caveat_report(self):
        one_l = sa.constant(SO.element([1, 0, 0, 0, 1, 0, 0, 0]))
        rep = sa.full_zero_set(one_l)
        assert rep.spheres == () and rep.caveats

    def test_not_tame_refused(self):
        with pytest.raises(NotTame):
            sa.full_zero_set(sa.parse_poly("(x-e4)*(1+e123)", R4))

    def test_r3_dispatches_to_pair(self):
        f = sa.parse_poly("(x-e1)*(1-e123)", R3)
        # not tame? N(f) = Delta * n(1-e123) has e123 parts: check tameness first
        if sa.is_tame(f):
            rep = sa.full_zero_set(f)
            kinds = {cls.kind for _, _, cls in rep.spheres}
            assert POINT_PAIR in kinds

    def test_json_roundtrip_shape(self):
        f = sa.parse_poly("(x-i)*(x-j)", H)
        rep = sa.report_to_json(sa.full_zero_set(f))
        s = json.dumps(rep, sort_keys=True)
        data = json.loads(s)
        assert data["spheres"][0]["kind"] == POINT
        assert data["spheres"][0]["witnesses"] == ["i"]
        assert data["normal_poly"] == ["1", "0", "2", "0", "1"]

    def test_zero_survey_for_non_tame(self):
        rep = zero_survey(sa.parse_poly("(x-e4)*(1+e123)", R4))
        assert any(s["kind"] == POINT and s["witnesses"] == ["e4"]
                   for s in rep["spheres"])
        assert rep["caveats"]


class TestProductZeroPredict:
    def test_full_sphere_factor(self):
        f = sa.parse_poly("e1", R4)
        g = sa.parse_poly("x^2+1", R4)
        r = sa.product_zero_predict(f, g, S01)
        assert r.predicted.kind == FULL_SPHERE == r.actual.kind and r.agrees

    def test_constant_shift(self):
        f = sa.parse_poly("e1", R4)
        g = sa.parse_poly("x-e2", R4)
        r = sa.product_zero_predict(f, g, S01)
        assert r.predicted.witnesses == (-el(R4, "e2"),)
        assert r.actual.witnesses == (-el(R4, "e2"),) and r.agrees

    def test_camshaft_displacement(self):
        f = sa.parse_poly("x-e1", R4)
        g = sa.parse_poly("x-e2", R4)
        r = sa.product_zero_predict(f, g, S01)
        assert r.case == "associative-4b"
        assert r.predicted.witnesses == (el(R4, "e1"),) and r.agrees

    def test_so_alt_rejected_candidate(self):
        f = sa.parse_poly("x-2*l", SO_ALT)
        g = sa.parse_poly("x-i", SO_ALT)
        r = sa.product_zero_predict(f, g, S01)
        assert r.predicted.kind == EMPTY == r.actual.kind and r.agrees
        want = SO_ALT.element([0, Fraction(-5, 3), 0, 0, Fraction(-4, 3), 0, 0, 0])
        assert r.formula_witness == want
        assert sa.trace(r.formula_witness) == Fraction(-8, 3) * el(SO_ALT, "l")

    def test_full_sphere_from_coalescence(self):
        # f = xl - il, g = x - i over SO: product (x^2+1) l vanishes on S_A
        f = sa.parse_poly("x*l-i*l", SO)
        g = sa.parse_poly("x-i", SO)
        r = sa.product_zero_predict(f, g, S01)
        assert r.actual.kind == FULL_SPHERE
        assert r.predicted.kind in (FULL_SPHERE, POINT) or r.agrees is not False

    def test_real_point_rule(self):
        f = sa.parse_poly("x-2", H)
        g = sa.parse_poly("x-j", H)
        s = sa.SphereRef(Fraction(2), Fraction(0))
        r = sa.product_zero_predict(f, g, s)
        assert r.predicted.kind == POINT and r.agrees

    def test_tame_empty_rule(self):
        f = sa.parse_poly("x-1-i", H)
        g = sa.parse_poly("x-2-j", H)
        r = sa.product_zero_predict(f, g, S01)
        assert r.predicted.kind == EMPTY == r.actual.kind and r.agrees


class TestGlobalInvariants:
    def test_zero_lies_in_conjugate_normal(self):
        # every found zero y has y^c in V(N(f^c))
        rng = random.Random(2)
        done = 0
        while done < 15:
            alg = (H, SH, R3)[done % 3]
            f = random_tame_poly(alg, rng, max_degree=3)
            if not sa.normal(f).stem.coeffs:
                continue
            try:
                rep = sa.full_zero_set(f)
            except (NotTame, NormalIdenticallyZero):
                continue
            nfc = sa.normal(sa.slice_conjugate(f))
            for _, _, cls in rep.spheres:
                for w in cls.witnesses:
                    if w.mode == "exact":
                        assert sa.evaluate(nfc, sa.conj(w)).is_zero()
            done += 1

    def test_compatible_zero_in_normal(self):
        rng = random.Random(3)
        done = 0
        while done < 15:
            alg = (H, SH, R3)[done % 3]
            f = random_tame_poly(alg, rng, max_degree=3)
            if not sa.normal(f).stem.coeffs:
                continue
            rep = sa.full_zero_set(f)
            nf = sa.normal(f)
            for _, _, cls in rep.spheres:
                for w in cls.witnesses:
                    if w.mode == "exact":
                        assert sa.evaluate(nf, w).is_zero()
            done += 1

    def test_product_zeros_under_normals(self):
        # V(f.g) subset V(N(f)) union V(N(g)) for tame f, g
        rng = random.Random(4)
        done = 0
        while done < 12:
            f = random_tame_poly(H, rng, max_degree=2)
            g = random_tame_poly(H, rng, max_degree=2)
            h = sa.slice_product(f, g)
            if not sa.normal(h).stem.coeffs:
                continue
            rep = sa.full_zero_set(h)
            nf, ng = sa.normal(f), sa.normal(g)
            for _, _, cls in rep.spheres:
                for w in cls.witnesses:
                    if w.mode != "exact":
                        continue
                    assert sa.evaluate(nf, w).is_zero() or \
                        sa.evaluate(ng, w).is_zero()
            done += 1

    def test_nonsingular_algebras_have_no_null_polys(self):
        rng = random.Random(5)
        for alg in (H, O, R3):
            for _ in range(20):
                f = random_poly(alg, rng, max_degree=4)
                if all(a.is_zero() for a in f.stem.coeffs):
                    continue
                assert sa.normal(f).stem.coeffs, \
                    f"nonzero poly with vanishing normal over {alg.name}"


class TestPathologicalExamples:
    def test_so_non_circular_conjugate_zero_set(self):
        # f = i - li + x(1-l) has no zeros; f^c vanishes exactly on the
        # (non-circular) set {q - l(i+q^c)} intersected with the cone
        f = sa.parse_poly("i-l*i+x*(1-l)", SO)
        fc = sa.slice_conjugate(f)
        assert not sa.normal(f).stem.coeffs
        assert not sa.normal(fc).stem.coeffs
        rng = random.Random(6)
        H4 = sa.make_builtin("H")
        hits = 0
        for _ in range(60):
            q4 = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(4)]
            a, b = q4[0], q4[1]
            if 2 * b - 1 <= a * a:  # outside the quadratic cone
                continue
            qc = [q4[0], -q4[1], -q4[2], -q4[3]]
            i_plus_qc = [qc[0], qc[1] + 1, qc[2], qc[3]]
            x = SO.element(q4 + [-c for c in i_plus_qc])
            assert sa.evaluate(fc, x).is_zero()
            hits += 1
        assert hits > 5
        for _ in range(25):
            x = random_qa_point(SO, rng)
            assert not sa.evaluate(f, x).is_zero()

    def test_r3_half_slice_zeros_callable(self):
        # f(x) = (e1 - im x/|im x|)(1 - e123): vanishing includes the e1 and
        # e23 half-slices (and more; the factor is a zero divisor)
        e1 = el(R3, "e1")
        fac = R3.one() - el(R3, "e123")

        def ev(a, b):
            sgn = 1 if b > 0 else -1
            return e1 * fac, (-sgn) * fac

        f = sa.from_callable(R3, ev, domain=lambda a, b: b != 0,
                             domain_kind="product")
        for beta in (Fraction(1), Fraction(3, 2)):
            x = beta * e1
            assert sa.evaluate(f, x).is_zero()
            y = beta * el(R3, "e23")
            assert sa.evaluate(f, y).is_zero()
        v = R3.element([0, Fraction(1, 2), Fraction(1, 2), 0,
                        0, Fraction(1, 2), Fraction(1, 2), 0])
        assert sa.evaluate(f, v).is_zero()
        assert not sa.evaluate(f, el(R3, "e2")).is_zero()

    def test_slice_preserving_zero_sets_are_circular(self):
        # zeros of slice preserving polynomials are whole spheres or real points
        rng = random.Random(7)
        for _ in range(15):
            coeffs = [H.from_scalar(Fraction(rng.randint(-4, 4),
                                             rng.choice([1, 2])))
                      for _ in range(rng.randint(2, 5))]
            g = sa.poly(H, coeffs)
            if all(c.is_zero() for c in g.stem.coeffs):
                continue
            assert sa.is_slice_preserving(g)
            rep = sa.full_zero_set(g)
            for ref, _, cls in rep.spheres:
                if ref.is_real_point:
                    assert cls.kind in (POINT, EMPTY)
                else:
                    assert cls.kind in (FULL_SPHERE, EMPTY)


class TestFloatClassification:
    def test_irreducible_sextic_normal(self):
        # x^3 = i + j: N(f) = x^6 + 2 is irreducible over Q, so candidate
        # spheres come from companion eigenvalues and classify in float mode
        i, j = H.basis_element(1), H.basis_element(2)
        f = sa.poly(H, [-(i + j), H.zero(), H.zero(), H.one()])
        rep = sa.full_zero_set(f)
        assert len(rep.spheres) == 3
        radius = 2 ** (1 / 6)
        for ref, mult, cls in rep.spheres:
            assert cls.kind == POINT
            assert abs((float(ref.alpha) ** 2 + float(ref.beta) ** 2)
                       - radius ** 2) < 1e-6
            [w] = cls.witnesses
            assert sa.evaluate(f, w).is_zero(1e-6)
            # all three cube roots live on the slice of i + j
            assert abs(float(w.coeffs[1]) - float(w.coeffs[2])) < 1e-9
            assert abs(float(w.coeffs[3])) < 1e-9

    def test_float_sphere_ref(self):
        f = sa.parse_poly("x-i", H)
        s = sa.SphereRef(1e-12, 1.0 + 1e-13)
        cls = sa.zeros_on_sphere(f, s)
        assert cls.kind == POINT
        assert sa.evaluate(f, cls.witnesses[0]).is_zero(1e-6)


class TestZeroDivisorDerivatives:
    def test_sh_collapses_to_point(self):
        # (x - e2)(1 + e1): the annihilator of 1+e1 is a null plane, and the
        # sphere constraints turn affine on it, pinning the single zero e2
        f = sa.parse_poly("(x-e2)*(1+e1)", SH)
        cls = sa.zeros_on_sphere(f, S01)
        assert cls.kind == POINT and cls.witnesses == (el(SH, "e2"),)

    def test_dh_epsilon_plane(self):
        # (x - i) eps j: adding eps r with r orthogonal to i stays a zero,
        # so the sphere intersection is the 2-plane i + eps span{j, k}
        DH = sa.make_builtin("DH")
        f = sa.parse_poly("(x-i)*epsj", DH)
        cls = sa.zeros_on_sphere(f, S01)
        assert cls.kind == AFFINE_SET and cls.affine_dim == 2
        assert cls.affine_base == el(DH, "i")
        assert set(cls.affine_directions) == {el(DH, "epsj"), el(DH, "epsk")}
        rng = random.Random(0)
        for _ in range(20):
            t1 = Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
            t2 = Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
            y = cls.affine_base + t1 * cls.affine_directions[0] \
                + t2 * cls.affine_directions[1]
            assert sa.evaluate(f, y).is_zero()
            assert sa.cone_membership(y).in_SA


class TestSpecializedGenericAgreement:
    def test_so_random_agreement(self):
        rng = random.Random(21)
        done = 0
        while done < 20:
            f = random_tame_poly(SO, rng, max_degree=3)
            nf = sa.normal(f)
            if not nf.stem.coeffs:
                continue
            try:
                spheres = sa.candidate_spheres(f)
            except Exception:
                continue
            for ref, _ in spheres:
                if not ref.is_exact:
                    continue
                spec = sa.so_sphere_structure(f, ref)
                gen = sa.zeros_on_sphere(f, ref)
                assert spec.kind == gen.kind, (f, ref)
                if spec.kind == POINT:
                    assert spec.witnesses == gen.witnesses
                if spec.kind == AFFINE_SET:
                    assert spec.affine_dim == gen.affine_dim
            done += 1

    def test_r3_agreement_where_sound(self):
        rng = random.Random(22)
        done = 0
        while done < 25:
            f = random_tame_poly(R3, rng, max_degree=3)
            nf = sa.normal(f)
            if not nf.stem.coeffs:
                continue
            try:
                spheres = sa.candidate_spheres(f)
            except Exception:
                continue
            for ref, _ in spheres:
                if not ref.is_exact:
                    continue
                spec = sa.r3_sphere_structure(f, ref)
                gen = sa.zeros_on_sphere(f, ref)
                if spec.kind in (EMPTY, POINT, FULL_SPHERE):
                    assert spec.kind == gen.kind
                    assert spec.witnesses == gen.witnesses
                else:
                    # pair witnesses lie on the generic morezeros flat
                    assert gen.kind == AFFINE_SET
                    from slicealg import linalg
                    span = [list(d.coeffs) for d in gen.affine_directions]
                    for w in spec.witnesses:
                        diff = [a - b for a, b in
                                zip(w.coeffs, gen.affine_base.coeffs)]
                        assert linalg.in_span(span, diff)
            done += 1


class TestCallableClassification:
    def test_half_slice_point_on_unit_sphere(self):
        # f = 1 + (im x/|im x|) i vanishes exactly at +i on the unit sphere
        one = H.one()
        j0 = el(H, "i")

        def ev(a, b):
            sgn = 1 if b > 0 else -1
            return one, sgn * j0

        f = sa.from_callable(H, ev, domain=lambda a, b: b != 0,
                             domain_kind="product")
        cls = sa.zeros_on_sphere(f, S01)
        assert cls.kind == POINT and cls.witnesses == (el(H, "i"),)
        assert sa.evaluate(f, el(H, "i")).is_zero()
        assert not sa.evaluate(f, -el(H, "i")).is_zero()


class TestProductDerivativeIdentities:
    # spherical-derivative formulas for f.g when a factor vanishes on the sphere

    def _factor_with_zero(self, alg, rng):
        y = random_qa_point(alg, rng)
        while sa.imag_part(y).is_zero():
            y = random_qa_point(alg, rng)
        h = random_poly(alg, rng, max_degree=2)
        f = sa.slice_product(sa.binomial(y), h)
        return f, y

    def test_left_factor_zero(self):
        rng = random.Random(31)
        for alg in (H, SO, R3, O):
            done = 0
            while done < 10:
                f, y = self._factor_with_zero(alg, rng)
                if not sa.evaluate(f, y).is_zero():
                    continue  # right factor may kill the zero relation; skip
                g = random_poly(alg, rng, max_degree=2)
                x = y
                ds_h = sa.spherical_derivative(sa.slice_product(f, g), x)
                ds_f = sa.spherical_derivative(f, x)
                vs_g = sa.spherical_value(g, x)
                ds_g = sa.spherical_derivative(g, x)
                im_y = sa.imag_part(y)
                assert ds_h == ds_f * vs_g - (im_y * ds_f) * ds_g
                done += 1

    def test_right_factor_zero(self):
        rng = random.Random(33)
        for alg in (H, SO, R3):
            done = 0
            while done < 10:
                g, z = self._factor_with_zero(alg, rng)
                if not sa.evaluate(g, z).is_zero():
                    continue
                f = random_poly(alg, rng, max_degree=2)
                x = z
                ds_h = sa.spherical_derivative(sa.slice_product(f, g), x)
                vs_f = sa.spherical_value(f, x)
                ds_f = sa.spherical_derivative(f, x)
                ds_g = sa.spherical_derivative(g, x)
                im_z = sa.imag_part(z)
                assert ds_h == vs_f * ds_g - ds_f * (im_z * ds_g)
                done += 1

    def test_both_factors_zero(self):
        rng = random.Random(35)
        for alg in (H, R3):
            done = 0
            while done < 10:
                f, y = self._factor_with_zero(alg, rng)
                if not sa.evaluate(f, y).is_zero():
                    continue
                # g vanishing somewhere else on the same sphere
                alpha = sa.real_part(y)
                from slicealg.sampling import sample_sa
                bsq = sa.norm(sa.imag_part(y)).coeffs[0]
                from slicealg.algebra import exact_sqrt
                b = exact_sqrt(bsq)
                if b is None:
                    continue
                z = alpha + b * sample_sa(alg, rng)
                g = sa.slice_product(sa.binomial(z), random_poly(alg, rng, 1))
                if not sa.evaluate(g, z).is_zero():
                    continue
                x = y
                ds_h = sa.spherical_derivative(sa.slice_product(f, g), x)
                ds_f = sa.spherical_derivative(f, x)
                ds_g = sa.spherical_derivative(g, x)
                assert ds_h == (sa.conj(y) * ds_f) * ds_g - ds_f * (z * ds_g)
                done += 1


class TestPlantedZeros:
    def test_same_sphere_factors(self):
        # (x-y1)(x-y2) with both roots on one sphere: the whole sphere when
        # y2 = y1^c (the normal Delta), otherwise exactly the left root y1
        from slicealg.sampling import sample_sa
        rng = random.Random(61)
        done = 0
        while done < 20:
            alpha = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            beta = Fraction(rng.randint(1, 4), rng.choice([1, 2]))
            j = sample_sa(H, rng)
            k = sample_sa(H, rng)
            y1 = H.from_scalar(alpha) + beta * j
            y2 = H.from_scalar(alpha) + beta * k
            f = sa.slice_product(sa.binomial(y1), sa.binomial(y2))
            s = sa.SphereRef(alpha, beta)
            cls = sa.zeros_on_sphere(f, s)
            if k == -j:
                assert cls.kind == FULL_SPHERE
            else:
                assert cls.kind == POINT and cls.witnesses == (y1,)
            done += 1

    def test_distinct_sphere_factors(self):
        # distinct spheres: the right root is displaced to f1^c(y2)-conjugate
        from slicealg.sampling import random_qa_point
        rng = random.Random(67)
        done = 0
        while done < 20:
            y1 = random_qa_point(H, rng)
            y2 = random_qa_point(H, rng)
            if sa.imag_part(y1).is_zero() or sa.imag_part(y2).is_zero():
                continue
            if sa.real_part(y1) == sa.real_part(y2) and \
                    sa.norm(sa.imag_part(y1)) == sa.norm(sa.imag_part(y2)):
                continue
            f1 = sa.binomial(y1)
            f = sa.slice_product(f1, sa.binomial(y2))
            rep = sa.full_zero_set(f)
            assert len(rep.spheres) == 2
            witnesses = [w for _, _, cls in rep.spheres for w in cls.witnesses]
            assert y1 in witnesses
            f1c_y2 = sa.evaluate(sa.slice_conjugate(f1), y2)
            shifted = (sa.invert(f1c_y2) * y2) * f1c_y2
            assert shifted in witnesses
            for w in witnesses:
                assert sa.evaluate(f, w).is_zero()
            done += 1


def _as_float_poly(f):
    return sa.poly(f.algebra, [f.algebra.element([float(c) for c in a.coeffs], sa.FLOAT)
                               for a in f.stem.coeffs], sa.FLOAT)


class TestFloatExactAgreement:
    def test_so_float_point(self):
        f = sa.parse_poly("x-i", SO, sa.FLOAT)
        [(ref, mult, cls)] = sa.full_zero_set(f).spheres
        assert (ref.alpha, ref.beta, mult) == (0, 1, 1)
        assert cls.kind == POINT
        assert sa.evaluate(f, cls.witnesses[0]).is_zero(1e-9)

    def test_r3_float_zero_divisor_derivative(self):
        f = sa.parse_poly("(x-e1)*(1-e123)", R3, sa.FLOAT)
        cls = classify_sphere(f, S01)
        assert cls == sa.zeros_on_sphere(f, S01)
        assert cls.kind == AFFINE_SET
        assert any("float-mode" in c for c in cls.caveats)

    @pytest.mark.parametrize("alg", [H, O, SO, R3], ids=lambda a: a.name)
    def test_invertible_derivative_kinds(self, alg):
        from slicealg.slicefn import sphere_values
        rng = random.Random(41)
        kinds = set()
        for _ in range(8):
            f = random_tame_poly(alg, rng, max_degree=3)
            if not sa.normal(f).stem.coeffs:
                continue
            ff = _as_float_poly(f)
            for ref, _ in sa.candidate_spheres(f):
                if not ref.is_exact or ref.is_real_point:
                    continue
                _, ds = sphere_values(f, ref.alpha, ref.beta_sq)
                if sa.try_invert(ds) is None:
                    continue
                exact = classify_sphere(f, ref)
                approx = classify_sphere(ff, ref)
                assert approx.kind == exact.kind, (f, ref)
                if exact.kind == POINT:
                    [w] = approx.witnesses
                    assert w.mode == sa.FLOAT
                    assert all(abs(float(a) - b) < 1e-7 for a, b in
                               zip(exact.witnesses[0].coeffs, w.coeffs))
                kinds.add(exact.kind)
        assert POINT in kinds


class TestOneNotTame:
    def test_single_class(self):
        from slicealg import division, slicefn, zeroset
        assert division.NotTame is zeroset.NotTame is slicefn.NotTame is sa.NotTame

    def test_top_level_class_catches_zero_set_errors(self):
        f = sa.parse_poly("(x-e4)*(1+e123)", R4)
        for fn in (sa.full_zero_set, sa.candidate_spheres):
            try:
                fn(f)
            except sa.NotTame:
                continue
            pytest.fail(f"{fn.__name__} accepted a function that is not tame")


class TestComputeOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        from slicealg import roots, slicefn
        counts = {"normal_products": 0, "factorizations": 0}
        product, factor = slicefn.slice_product, roots._factor_rational

        def counting_product(f, g):
            counts["normal_products"] += 1
            return product(f, g)

        def counting_factor(coeffs):
            counts["factorizations"] += 1
            return factor(coeffs)

        # normal() looks slice_product up in slicefn, so every N(f) built
        # anywhere is counted; the zero-set code makes no other slice product
        monkeypatch.setattr(slicefn, "slice_product", counting_product)
        monkeypatch.setattr(roots, "_factor_rational", counting_factor)
        return counts

    def test_full_zero_set(self, calls):
        f = sa.parse_poly("(x-i)*(x-2*j)*(x-1)", SO)
        rep = sa.full_zero_set(f)
        assert len(rep.spheres) == 3
        assert calls == {"normal_products": 2, "factorizations": 1}

    def test_t_map_and_quotient(self, calls):
        f = sa.parse_poly("(x-i)*(x-j+k)", H)
        x = H.element([1, 0, 2, 0])
        sa.t_map(f, x)
        assert calls["normal_products"] == 2
        sa.quotient_eval(f, f, x)
        assert calls["normal_products"] == 4
