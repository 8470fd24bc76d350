"""One fresh benchmark process: set up, time the corpus, report JSON.

Started by run.py; not meant to be run by hand.  The last line of stdout is
a JSON object.  Modes:
  setup   set up and report when the first op could start;
  run     the timed passes (untraced), or with --trace 1 one traced pass
          followed by the layer probes;
  plain   the traced run's ops without tracing, to measure tracing overhead;
  inputs  digest of the inputs of the first --count ops (no timing);
  digest  per-op output digests of every op a run makes (no timing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

from clicold import KNOWN_DEFECTS, CliCold, contract_problems, input_key, short_hash
from hostspeed import Meter, probe
from layers import (
    PER_LAYER, Spans, algebra_probes, cli_probes, complexify_probes,
    first_factor_probe, parsing_probes, span_metrics, untraced,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
clock = time.perf_counter


def make_workload(name, seed):
    if name == "cli-cold":
        return CliCold(seed, ROOT)
    from workloads import WORKLOADS
    return WORKLOADS[name](seed)


def expected_digests(wl):
    """Index -> digest (default seed only), or input key -> digest (cli-cold)."""
    try:
        with open(DIGESTS) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {}, {}
    per_input = data.get("per_input", {}).get(wl.name, {})
    per_op = data.get("per_op", {}).get(wl.name, "") if wl.seed == data.get("seed") else ""
    return dict(enumerate(per_op.split())), per_input


def time_ops(wl, start, count, *, seconds=0, span=untraced, spans=None, digests=({}, {})):
    """Time `count` ops from `start` on and gate their outputs.

    Each op's inputs are made before its clock starts; gates, digests and
    (traced) replays run after it stops.  Later passes repeat the same
    inputs, after the workload has dropped its caches, while one more pass
    still fits in `seconds` from the start of the first.  Every
    timed call is scaled to the reference host speed (hostspeed.py) by the
    probes taken right before and after it, and an op's time is the median of
    its scaled passes.  An op whose output changes between passes fails.
    """
    per_op, per_input = digests
    meter = Meter(clock, wl.probe, wl.probe_ref_s)
    calls, texts, failures, failed_ops, counts = [], [], [], set(), {}
    witnesses = digest_checked = 0
    corpus_s = 0.0
    deadline = time.monotonic() + seconds
    inputs = []
    in_timed = [0.0]  # seconds spent in timed(), probes included

    def fail(k, text):
        if k not in failed_ops:
            failed_ops.add(k)
            failures.append(f"op {start + k} {wl.cell(start + k)}: {text}")

    def timed(inp):
        """(output or exception, call start, call end), probes around it."""
        began = clock()
        meter.tick()
        t0 = clock()
        try:
            out = wl.run(inp, span)
        except Exception as e:  # an unexpected library exception fails the op
            out = e
        t1 = clock()
        meter.tick()
        in_timed[0] += clock() - began
        return out, t0, t1

    wl.fresh_pass()
    for k in range(count):
        i = start + k
        t0 = clock()
        inp = wl.make(i)
        corpus_s += clock() - t0
        inputs.append(inp)
        if spans is not None:
            spans.op = i
        out, t0, t1 = timed(inp)
        calls.append([(t0, t1)])
        if isinstance(out, Exception):
            texts.append(None)
            fail(k, f"{type(out).__name__}: {out}")
            continue
        problems, checked = wl.check(inp, out)
        witnesses += checked
        texts.append(wl.canon(inp, out))
        want = per_input.get(wl.describe(inp)) if per_input else per_op.get(i)
        if want is not None:
            digest_checked += 1
            if short_hash(texts[k]) != want:
                problems.append("output differs from the committed digest")
        if problems:
            fail(k, "; ".join(problems))
        for key, n in wl.counts(inp, out).items():
            counts[key] = counts.get(key, 0) + n
        if spans is not None:
            wl.replay(inp, out, span)
    passes = 1
    last = in_timed[0]  # a repeat pass takes about what pass one spent timing
    while time.monotonic() + last <= deadline:
        passes += 1
        began = time.monotonic()
        wl.fresh_pass()
        for k, inp in enumerate(inputs):
            if texts[k] is None:
                continue
            out, t0, t1 = timed(inp)
            calls[k].append((t0, t1))
            if isinstance(out, Exception):
                fail(k, f"{type(out).__name__} on a repeat: {out}")
            elif wl.canon(inp, out) != texts[k]:
                fail(k, "output differs between passes")
        last = time.monotonic() - began
    lat = [statistics.median((t1 - t0) * meter.scale(t0, t1) for t0, t1 in c)
           for c in calls]
    wall = [statistics.median(t1 - t0 for t0, t1 in c) for c in calls]
    return {"lat": lat, "attempted": len(inputs), "failed": len(failed_ops),
            "failures": failures[:20], "busy_s": sum(lat), "wall_busy_s": sum(wall),
            "probe_s": meter.median_probe(), "calls": calls,
            "probes": [meter.times, meter.probes], "corpus_s": corpus_s,
            "witnesses_checked": witnesses, "digest_checked": digest_checked,
            "counts": counts, "passes": passes}


def peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def known_defects(wl):
    out = []
    for argv, want, what in KNOWN_DEFECTS:
        problems = contract_problems(wl.call(argv), want)
        out.append({"input": input_key(argv), "defect": what,
                    "status": "present: " + "; ".join(problems) if problems else "fixed"})
    return out


def traced_run(wl, seed):
    spans = Spans(clock)
    traced = time_ops(wl, 0, wl.traced_ops, span=spans, spans=spans,
                      digests=expected_digests(wl))
    layers = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    layers.update(span_metrics(spans, traced))
    cold_ms = {}
    if wl.name == "cli-cold":
        for r in spans.records:
            cold_ms.setdefault(r["name"].split(".", 1)[1], []).append(
                (r["end"] - r["start"]) * 1e3)
    layers.update(algebra_probes(seed, clock))
    layers["linalg.solve_affine.calls"] += layers["algebra.try_invert.calls"]
    layers.update(complexify_probes(getattr(wl, "build_s", {}), clock))
    layers.update(first_factor_probe(getattr(wl, "first_factor_s", None), clock))
    layers.update(parsing_probes(clock))
    cli = wl if wl.name == "cli-cold" else CliCold(seed, ROOT)
    cli_layers, cli_checked, cli_failures = cli_probes(cli, cold_ms,
                                                       expected_digests(cli)[1])
    layers.update(cli_layers)
    traced["attempted"] += cli_checked
    traced["failed"] += len(cli_failures)
    traced["failures"] += cli_failures
    traced["known_defects"] = known_defects(cli)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans.dump(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.jsonl"))
    traced["layers"] = layers
    return traced


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--mode", choices=("setup", "run", "plain", "inputs", "digest"),
                   default="run")
    p.add_argument("--count", type=int, default=0, help="ops of --mode inputs")
    args = p.parse_args(argv)

    wl = make_workload(args.workload, args.seed)
    wl.setup(clock)
    result = {"ready_at": time.monotonic(), "ready_probe_s": probe(clock)}
    if args.mode == "inputs":
        h = hashlib.sha256()
        for i in range(args.count):
            h.update(wl.describe(wl.make(i)).encode() + b"\n")
        result["input_digest"] = h.hexdigest()
    elif args.mode == "digest":
        inputs = [wl.make(i) for i in range(max(wl.timed_ops, wl.traced_ops))]
        result["digests"] = [short_hash(wl.canon(inp, wl.run(inp, untraced)))
                             for inp in inputs]
    elif args.mode == "plain":
        result.update(time_ops(wl, 0, wl.traced_ops, digests=expected_digests(wl)))
    elif args.mode == "run" and args.trace:
        result.update(traced_run(wl, args.seed))
    elif args.mode == "run":
        result.update(time_ops(wl, 0, wl.timed_ops, seconds=args.seconds,
                               digests=expected_digests(wl)))
        result["peak_rss_mb"] = peak_rss_mb(wl)
        if wl.name == "cli-cold":
            result["known_defects"] = known_defects(wl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
