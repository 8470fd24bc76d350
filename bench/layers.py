"""Span recorder and the per-layer numbers of a traced run.

Spans are recorded by the benchmark around its own calls into the library's
public functions; nothing inside the library is patched.  A traced run also
runs a fixed set of layer probes (products, solves, complexifications,
parsing, cold CLI children) so that every per-layer metric is reported on
every workload; a layer the workload does not exercise reports 0.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import subprocess
import sys
import time

from clicold import VERB_INPUTS, child_env, contract_problems, input_key, short_hash

MUL_ALGEBRAS = {4: "H", 8: "O", 16: "cl-0-4", 32: "cl-0-5", 64: "cl-0-6"}
SLICEFN = ("normal", "is_tame", "slice_product", "evaluate", "product_eval_formula")
KINDS = ("Empty", "Point", "PointPair", "AffineSet", "FullSphere")

PER_LAYER = (
    [(f"algebra.mul.ns.d{d}", "ns") for d in MUL_ALGEBRAS]
    + [("algebra.try_invert.calls", "count"), ("algebra.try_invert.busy_s", "s"),
       ("algebra.in_central_cone.busy_s", "s"), ("algebra.verify_axioms.busy_s", "s"),
       ("algebra.cone_membership.busy_s", "s")]
    + [(f"linalg.solve_affine.us.d{d}", "us") for d in MUL_ALGEBRAS]
    + [("linalg.solve_affine.calls", "count")]
    + [("complexify.build_s.cl-0-4", "s"), ("complexify.build_s.cl-0-5", "s"),
       ("complexify.build_s.total", "s")]
    + [m for f in SLICEFN for m in ((f"slicefn.{f}.calls", "count"),
                                    (f"slicefn.{f}.busy_s", "s"))]
    + [("division.product_pointwise.busy_s", "s"), ("division.t_map.busy_s", "s"),
       ("division.quotient_eval.busy_s", "s"), ("division.errors", "count")]
    + [("roots.sphere_data_from_poly.busy_s", "s"), ("roots.complex_roots.busy_s", "s"),
       ("roots.first_call_s", "s")]
    + [("zeroset.full_zero_set.busy_s", "s"), ("zeroset.candidate_spheres.busy_s", "s")]
    + [(f"zeroset.classify_sphere.busy_s.{k}", "s") for k in KINDS]
    + [("zeroset.redundancy", "ratio"), ("zeroset.spheres", "count"),
       ("zeroset.spheres_exact", "count"), ("zeroset.caveated", "count"),
       ("zeroset.witnesses_checked", "count")]
    + [("parsing.parse_poly.us", "us"), ("parsing.format_element.us", "us")]
    + [("cli.import_s", "s")] + [(f"cli.cold_ms.{v}", "ms") for v in VERB_INPUTS]
    + [("sampling.corpus_s", "s"), ("trace.overhead", "ratio")])

_UNTRACED = contextlib.nullcontext()


def untraced(name):
    return _UNTRACED


class Spans:
    """In-memory spans: name, op index, parent span, start, end, raised."""

    def __init__(self, clock):
        self.clock = clock
        self.records = []
        self.stack = []
        self.op = None

    @contextlib.contextmanager
    def __call__(self, name):
        rec = {"name": name, "op": self.op,
               "parent": self.stack[-1] if self.stack else None,
               "start": self.clock(), "end": None, "raised": False}
        self.stack.append(len(self.records))
        self.records.append(rec)
        try:
            yield
        except BaseException:
            rec["raised"] = True
            raise
        finally:
            rec["end"] = self.clock()
            self.stack.pop()

    def calls(self, name):
        return sum(1 for r in self.records if r["name"] == name)

    def busy(self, name):
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def dump(self, path):
        with open(path, "w") as fh:
            for r in self.records:
                fh.write(json.dumps(r) + "\n")


def _median_time(fn, reps, clock):
    samples = []
    for _ in range(reps):
        t0 = clock()
        fn()
        samples.append(clock() - t0)
    return statistics.median(samples)


def algebra_probes(seed, clock):
    """Median product time and exact solve time on L_x, per dimension."""
    import random

    import slicealg as sa
    from slicealg import linalg
    from workloads import ELEMENT_DENSITY, element

    out = {}
    for d, name in MUL_ALGEBRAS.items():
        alg = sa.make_builtin(name)
        rng = random.Random(f"probe:{seed}:{d}")
        density = ELEMENT_DENSITY.get(d, d)
        pairs = [(element(alg, rng, density), element(alg, rng, density))
                 for _ in range(16)]
        reps = max(2000 // d, 10)

        def products(pairs=pairs, reps=reps):
            for x, y in pairs:
                for _ in range(reps):
                    x * y

        per_product = _median_time(products, 3, clock) / (len(pairs) * reps)
        out[f"algebra.mul.ns.d{d}"] = per_product * 1e9
        systems = [alg.left_mult_matrix(element(alg, rng, density)) for _ in range(3)]
        rhs = list(alg.one().coeffs)
        solves = [_median_time(lambda m=m: linalg.solve_affine(m, rhs), 1, clock)
                  for m in systems]
        out[f"linalg.solve_affine.us.d{d}"] = statistics.median(solves) * 1e6
    out["linalg.solve_affine.calls"] = 3 * len(MUL_ALGEBRAS)
    return out


def complexify_probes(build_s, clock):
    """Build times of cl-0-4 and cl-0-5 (first build in this process) and the total."""
    import slicealg as sa
    from slicealg.complexify import complexify

    build_s = dict(build_s)
    for name in ("cl-0-4", "cl-0-5"):
        if name not in build_s:
            t0 = clock()
            complexify(sa.make_builtin(name))
            build_s[name] = clock() - t0
    return {"complexify.build_s.cl-0-4": build_s["cl-0-4"],
            "complexify.build_s.cl-0-5": build_s["cl-0-5"],
            "complexify.build_s.total": sum(build_s.values())}


def first_factor_probe(first_factor_s, clock):
    """First exact factorization in this process, lazy sympy import included."""
    if first_factor_s is None:
        from fractions import Fraction

        from slicealg import roots
        t0 = clock()
        roots.sphere_data_from_poly([Fraction(-2), Fraction(0), Fraction(0), Fraction(1)])
        first_factor_s = clock() - t0
    return {"roots.first_call_s": first_factor_s}


def parsing_probes(clock):
    """In-process parse_poly and format_element on the cli-cold inputs."""
    import slicealg as sa

    polys, elements = [], []
    for verb, inputs in VERB_INPUTS.items():
        for argv in inputs:
            alg = sa.make_builtin(argv[1])
            args = [a for a in argv[2:] if not a.startswith("--")]
            at = argv[argv.index("--at") + 1] if "--at" in argv else None
            sphere = argv[argv.index("--sphere") + 1] if "--sphere" in argv else None
            for text in args:
                if text in (at, sphere):
                    continue
                if verb == "mul":
                    elements.append(sa.parse_element(text, alg))
                else:
                    polys.append((text, alg))
            if at is not None:
                elements.append(sa.parse_element(at, alg))
    parse = [_median_time(lambda t=t, a=a: sa.parse_poly(t, a), 20, clock)
             for t, a in polys]
    fmt = [_median_time(lambda x=x: sa.format_element(x), 20, clock) for x in elements]
    return {"parsing.parse_poly.us": statistics.median(parse) * 1e6,
            "parsing.format_element.us": statistics.median(fmt) * 1e6}


def cold_import_s(root, n):
    """Median time from spawn to the end of `import slicealg.cli`, fresh processes."""
    env = child_env(root)
    samples = []
    for _ in range(n):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", "import time, slicealg.cli; print(time.monotonic())"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def cli_probes(cli, cold_ms, digests):
    """cli.import_s, and the cold time of each verb: one child per verb
    unless the run's own ops already timed it.  Each such child is gated
    like a cli-cold op (exit code, stderr, committed stdout digest).
    Returns the metrics, the number of children gated and their failures."""
    out = {"cli.import_s": cold_import_s(cli.root, 3)}
    checked, failures = 0, []
    for verb, inputs in VERB_INPUTS.items():
        samples = cold_ms.get(verb)
        if not samples:
            argv = [verb] + inputs[0]
            t0 = time.perf_counter()
            result = cli.call(argv)
            samples = [(time.perf_counter() - t0) * 1e3]
            problems = contract_problems(result, 0)
            want = digests.get(input_key(argv))
            if want is not None and short_hash(cli.canon(None, result)) != want:
                problems.append("output differs from the committed digest")
            checked += 1
            if problems:
                failures.append(f"cli {input_key(argv)}: {'; '.join(problems)}")
        out[f"cli.cold_ms.{verb}"] = statistics.median(samples)
    return out, checked, failures


def span_metrics(spans, traced):
    """Per-layer numbers read from the traced pass's spans and counts."""
    out = {"algebra.try_invert.calls": spans.calls("algebra.try_invert")}
    for name in ("try_invert", "in_central_cone", "verify_axioms", "cone_membership"):
        out[f"algebra.{name}.busy_s"] = spans.busy(f"algebra.{name}")
    for f in SLICEFN:
        out[f"slicefn.{f}.calls"] = spans.calls(f"slicefn.{f}")
        out[f"slicefn.{f}.busy_s"] = spans.busy(f"slicefn.{f}")
    for f in ("product_pointwise", "t_map", "quotient_eval"):
        out[f"division.{f}.busy_s"] = spans.busy(f"division.{f}")
    out["division.errors"] = traced["counts"].get("refusals", 0)
    for f in ("sphere_data_from_poly", "complex_roots"):
        out[f"roots.{f}.busy_s"] = spans.busy(f"roots.{f}")
    for f in ("full_zero_set", "candidate_spheres"):
        out[f"zeroset.{f}.busy_s"] = spans.busy(f"zeroset.{f}")
    for k in KINDS:
        out[f"zeroset.classify_sphere.busy_s.{k}"] = spans.busy(f"zeroset.classify_sphere.{k}")
    stages = spans.busy("replay.stages")
    out["zeroset.redundancy"] = spans.busy("zeroset.full_zero_set") / stages if stages else 0.0
    for key in ("spheres", "spheres_exact", "caveated"):
        out[f"zeroset.{key}"] = traced["counts"].get(key, 0)
    out["zeroset.witnesses_checked"] = traced["witnesses_checked"]
    out["sampling.corpus_s"] = traced["corpus_s"]
    return out
