#!/usr/bin/env python3
"""Zero-set atlas: classify a gallery of polynomials across algebras.

Prints the full zero-set report (candidate spheres from N(f), per-sphere
classification) for a set of functions that exercise every classification
kind, including the singular pathologies.

Usage: python3 scripts/zero_atlas.py [--json]
"""

import argparse
import json

import slicealg as sa
from slicealg.zeroset import full_zero_set, report_to_json, zero_survey

GALLERY = [
    ("H", "x^2+1"),
    ("H", "(x-i)*(x-j)"),
    ("H", "(x-1-2*i)*(x+3)"),
    ("SH", "x-1-e2"),
    ("SO", "(x-i)*(1+li)"),
    ("SO", "1+l"),
    ("cl-0-3", "(x-e1)*(1-e123)"),
    ("R4", "(x-e4)*(1+e123)"),
    ("R4", "e1*(x^2+1)"),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    for alg_id, expr in GALLERY:
        alg = sa.make_builtin(alg_id)
        f = sa.parse_poly(expr, alg)
        try:
            rep = report_to_json(full_zero_set(f))
            tame = True
        except sa.NotTame:
            rep = zero_survey(f)
            tame = False
        if args.json:
            rep["algebra"] = alg_id
            rep["tame"] = tame
            print(json.dumps(rep, sort_keys=True))
            continue
        print(f"[{alg_id:>6}] {expr}  (tame: {tame})")
        if not rep["spheres"]:
            print("         no spheres reported")
        for s in rep["spheres"]:
            wit = ", ".join(s["witnesses"]) or "-"
            extra = f" dim {s['affine_dim']}" if s["affine_dim"] else ""
            print(f"         sphere ({s['alpha']}, {s['beta']}): "
                  f"{s['kind']}{extra}  witnesses: {wit}")
        for c in rep["caveats"]:
            print(f"         caveat: {c}")
        print()


if __name__ == "__main__":
    main()
