"""Command-line front end.

Verbs: algebra, eval, mul, conj, normal, inv, quot, zeros,
predict-product-zeros, verify.  Exit codes: 0 success, 1 domain error,
2 parse error.  All numeric output is in exact rationals unless --float.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .algebra import (
    EXACT, FLOAT, AlgebraError, DEFAULT_TOL, make_builtin, verify_axioms,
)
from .parsing import (
    ParseError, format_element, format_poly, format_scalar, parse_element,
    parse_poly,
)


def _dump(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def build_parser():
    p = argparse.ArgumentParser(prog="slicealg",
                                description="slice-function calculus over "
                                            "alternative *-algebras")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, algebra=True):
        if algebra:
            sp.add_argument("--algebra", required=True, help="algebra id, e.g. "
                            "H, O, SO, SO_ALT, SH, DH, cl-0-3, R4")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--float", dest="float_mode", action="store_true")
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
        sp.add_argument("--seed", type=int,
                        default=int(os.environ.get("SLICEALG_SEED", "0")))

    sp = sub.add_parser("algebra", help="describe an algebra")
    common(sp)

    sp = sub.add_parser("verify", help="run the axiom suite")
    common(sp)
    sp.add_argument("--samples", type=int, default=2000)

    sp = sub.add_parser("eval", help="evaluate a polynomial at a point")
    common(sp)
    sp.add_argument("expr")
    sp.add_argument("--at", required=True)

    sp = sub.add_parser("mul", help="multiply two elements")
    common(sp)
    sp.add_argument("lhs")
    sp.add_argument("rhs")

    sp = sub.add_parser("conj", help="slice conjugate of a polynomial")
    common(sp)
    sp.add_argument("expr")

    sp = sub.add_parser("normal", help="normal function N(f) = f . f^c")
    common(sp)
    sp.add_argument("expr")

    sp = sub.add_parser("inv", help="evaluate the reciprocal f^{-.} at a point")
    common(sp)
    sp.add_argument("expr")
    sp.add_argument("--at", required=True)

    sp = sub.add_parser("quot", help="evaluate the quotient f^{-.} . g at a point")
    common(sp)
    sp.add_argument("f_expr")
    sp.add_argument("g_expr")
    sp.add_argument("--at", required=True)

    sp = sub.add_parser("zeros", help="zero-set report for a polynomial")
    common(sp)
    sp.add_argument("expr")

    sp = sub.add_parser("predict-product-zeros",
                        help="predicted vs actual zeros of f . g on a sphere")
    common(sp)
    sp.add_argument("f_expr")
    sp.add_argument("g_expr")
    sp.add_argument("--sphere", required=True, help="alpha,beta")
    return p


def _parse_sphere(text):
    from .zeroset import SphereRef
    try:
        a, b = text.split(",")
        return SphereRef(Fraction(a.strip()), Fraction(b.strip()))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad sphere spec {text!r}: {e}", 0) from None


def _sphere_class_json(cls):
    return {
        "kind": cls.kind,
        "witnesses": [format_element(w) for w in cls.witnesses],
        "affine_dim": cls.affine_dim,
        "caveats": list(cls.caveats),
    }


def run(args) -> tuple[int, str]:
    mode = FLOAT if args.float_mode else EXACT
    alg = make_builtin(args.algebra)
    verb = args.verb

    if verb == "algebra":
        info = {
            "name": alg.name,
            "dim": alg.dim,
            "basis": list(alg.basis_names),
            "associative": alg.is_associative,
            "alternative": alg.is_alternative,
            "compatible": alg.is_compatible,
            "nucleus_dim": len(alg.nucleus_basis),
            "center_dim": len(alg.center_basis),
        }
        if args.json:
            return 0, _dump(info)
        lines = [f"{k}: {v}" for k, v in info.items()]
        return 0, "\n".join(lines)

    if verb == "verify":
        res = verify_axioms(alg, samples=args.samples, seed=args.seed)
        out = {
            "algebra": alg.name,
            "alternative": res["alternative"],
            "star": res["star"],
            "moufang": res["moufang"],
            "compatible": res["compatible"],
            "method": res["method"],
            "witnesses": [
                {k: (format_element(v) if hasattr(v, "coeffs") else
                     (v if isinstance(v, str) else repr(v)))
                 for k, v in w.items()} for w in res["witnesses"]],
        }
        if args.json:
            return 0, _dump(out)
        lines = [f"{k}: {v}" for k, v in out.items() if k != "witnesses"]
        for w in out["witnesses"]:
            lines.append(f"witness: {w}")
        return 0, "\n".join(lines)

    if verb == "eval":
        f = parse_poly(args.expr, alg, mode)
        x = parse_element(args.at, alg, mode)
        from .slicefn import evaluate
        out = format_element(evaluate(f, x, args.tol))
        return (0, _dump({"value": out})) if args.json else (0, out)

    if verb == "mul":
        a = parse_element(args.lhs, alg, mode)
        b = parse_element(args.rhs, alg, mode)
        out = format_element(a * b)
        return (0, _dump({"value": out})) if args.json else (0, out)

    if verb == "conj":
        from .slicefn import slice_conjugate
        f = slice_conjugate(parse_poly(args.expr, alg, mode))
        out = format_poly(f)
        return (0, _dump({"poly": out})) if args.json else (0, out)

    if verb == "normal":
        from .slicefn import normal
        nf = normal(parse_poly(args.expr, alg, mode))
        out = format_poly(nf)
        return (0, _dump({"poly": out})) if args.json else (0, out)

    if verb == "inv":
        from .division import reciprocal_eval
        f = parse_poly(args.expr, alg, mode)
        x = parse_element(args.at, alg, mode)
        val = reciprocal_eval(f, x, args.tol)
        out = format_element(val)
        return (0, _dump({"value": out})) if args.json else (0, out)

    if verb == "quot":
        from .division import quotient_eval
        f = parse_poly(args.f_expr, alg, mode)
        g = parse_poly(args.g_expr, alg, mode)
        x = parse_element(args.at, alg, mode)
        val = quotient_eval(f, g, x, args.tol)
        out = format_element(val)
        return (0, _dump({"value": out})) if args.json else (0, out)

    if verb == "zeros":
        from .slicefn import NotTame
        from .zeroset import full_zero_set, report_to_json, zero_survey
        f = parse_poly(args.expr, alg, mode)
        try:
            rep = report_to_json(full_zero_set(f, args.tol))
        except NotTame:
            rep = zero_survey(f, args.tol)
        if args.json:
            return 0, _dump(rep)
        lines = [f"function: {rep['function']}"]
        for s in rep["spheres"]:
            w = ", ".join(s["witnesses"]) or "-"
            lines.append(f"sphere ({s['alpha']}, {s['beta']}): {s['kind']}"
                         f" witnesses: {w}")
        for c in rep["caveats"]:
            lines.append(f"caveat: {c}")
        return 0, "\n".join(lines)

    if verb == "predict-product-zeros":
        from .zeroset import product_zero_predict
        f = parse_poly(args.f_expr, alg, mode)
        g = parse_poly(args.g_expr, alg, mode)
        s = _parse_sphere(args.sphere)
        rep = product_zero_predict(f, g, s, args.tol)
        out = {
            "sphere": {"alpha": format_scalar(s.alpha), "beta": format_scalar(s.beta)},
            "case": rep.case,
            "predicted": _sphere_class_json(rep.predicted),
            "actual": _sphere_class_json(rep.actual),
            "agrees": rep.agrees,
            "inclusion_only": rep.inclusion_only,
            "reason": rep.reason,
        }
        if args.json:
            return 0, _dump(out)
        lines = [f"case: {rep.case}",
                 f"predicted: {rep.predicted.kind} "
                 f"{[format_element(w) for w in rep.predicted.witnesses]}",
                 f"actual: {rep.actual.kind} "
                 f"{[format_element(w) for w in rep.actual.witnesses]}",
                 f"agrees: {rep.agrees}"]
        if rep.reason:
            lines.append(f"reason: {rep.reason}")
        return 0, "\n".join(lines)

    raise AlgebraError(f"unknown verb {verb}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code, out = run(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except AlgebraError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
