"""Run one workload of the slicealg benchmark and print its metrics.

    python3 bench/run.py --workload zeros --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every op runs in a fresh worker process
(bench/worker.py) against the library under src/; this process imports
nothing from it.  With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics, with --trace 1 the per-layer metrics.  Lines
before it print every metric by name with its unit, the run metadata and
any known defects.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from clicold import child_env  # noqa: E402
from hostspeed import CHILD_REF_S, REF_S, child_probe, probe  # noqa: E402
from layers import PER_LAYER, cold_import_s  # noqa: E402

WORKLOADS = ("zeros", "identities", "structure", "cli-cold")
BY_HAND = ("cli-cold",)  # runs, but is too unsteady on a shared host for BENCHMARK.json
SETUP_SAMPLES = 3  # fresh processes whose set-up time gives setup_s's median
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p95_ms", "ms"), ("peak_rss_mb", "MB"))
TIME_LIMIT_S = 170  # the whole run, set-up samples included


def worker(args, deadline, mode="run"):
    """Start one worker; return (its scaled set-up time, its JSON result).

    The set-up time runs from spawn to the worker's readiness, scaled to the
    reference host speed by a probe here before the spawn and one in the
    worker once it is ready.  The worker gets its own process group, so that
    on a timeout the CLI children it may have started are killed with it."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    before = probe(time.perf_counter)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(ROOT), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - spawned, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker ({mode}) ran past the run's time limit") from None
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    speed = REF_S / ((before + res["ready_probe_s"]) / 2)
    return (res["ready_at"] - spawned) * speed, res


def cold_import_scaled_s():
    """One cold `import slicealg.cli`, scaled by child probes before and after it."""
    env = child_env(ROOT)
    before = child_probe(time.perf_counter, env)
    took = cold_import_s(ROOT, 1)
    return took * CHILD_REF_S / ((before + child_probe(time.perf_counter, env)) / 2)


def pin_to_one_cpu():
    """Run this process and every process it starts on one CPU, so that the
    host-speed probe and the timed work (CLI children too) share a CPU."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def version(pkg):
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return None


def end_to_end(res, setup_samples):
    lat_ms = sorted(t * 1e3 for t in res["lat"])
    completed = res["attempted"] - res["failed"]
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": completed / res["busy_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_p95_ms": statistics.quantiles(lat_ms, n=20, method="inclusive")[-1],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "slicealg", "__init__.py")):
        print(f"error: no library source at {os.path.join(ROOT, 'src', 'slicealg')}",
              file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src", "slicealg")], check=True, timeout=120)

    pin_to_one_cpu()
    deadline = time.monotonic() + TIME_LIMIT_S
    setup_samples = []
    if not args.trace:
        if args.workload == "cli-cold":
            setup_samples = [cold_import_scaled_s() for _ in range(2 * SETUP_SAMPLES - 1)]
        else:
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(worker(args, deadline, "setup")[0])
    if args.trace:
        # the traced ops again, untraced, in a fresh process of their own
        plain = worker(args, deadline, "plain")[1]
    setup, res = worker(args, deadline)
    if args.trace:
        res["layers"]["trace.overhead"] = res["busy_s"] / plain["busy_s"] - 1
        for key in ("attempted", "failed", "digest_checked"):
            res[key] += plain[key]
        res["failures"] += plain["failures"]
    elif args.workload != "cli-cold":
        setup_samples.append(setup)

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops": res["attempted"], "git_sha": git_sha(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "sympy": version("sympy"), "nproc": os.cpu_count(),
            "digest_checked": res["digest_checked"], "passes": res.get("passes"),
            "probe_ms": res["probe_s"] * 1e3,
            "wall_ops_per_s": (res["attempted"] - res["failed"]) / res["wall_busy_s"]}
    error_rate = res["failed"] / res["attempted"]
    if args.trace:
        units = dict(PER_LAYER)
        values = res["layers"]
    else:
        units = dict(END_TO_END)
        values = end_to_end(res, setup_samples)
        meta["setup_samples_s"] = setup_samples
    print(f"{args.workload} seed {args.seed}: ops {res['attempted']}, "
          f"failed {res['failed']}, error_rate {error_rate:.4g} (failed/attempted)")
    for name, unit in units.items():
        print(f"  {name:42s} {values[name]:>14.6g} {unit}")
    for d in res.get("known_defects", ()):
        print(f"known defect: {d['input']!r}: {d['defect']} -- {d['status']}")
    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    out_path = os.path.join(ROOT, ".bench_out",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump({"meta": meta, "metrics": values, "failures": res["failures"],
                   "known_defects": res.get("known_defects", []),
                   "op_ms": [t * 1e3 for t in res["lat"]],
                   "calls": res["calls"], "probes": res["probes"]}, fh)
    print(json.dumps({
        "correct": res["failed"] == 0, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
