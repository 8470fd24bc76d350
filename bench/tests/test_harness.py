"""Checks of the benchmark harness itself (not of the library).

    python3 -m pytest -q bench/tests

Each test starts fresh processes, as the benchmark does; the whole file
takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from clicold import child_env  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import BY_HAND, END_TO_END, WORKLOADS  # noqa: E402

IN_PROCESS = ("zeros", "identities", "structure")


def worker(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), *args],
                          env=child_env(ROOT), capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run(workload, seed, seconds=2, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return json.loads(lines[-1]), meta, proc


def input_digest(workload, seed, count):
    return worker("--workload", workload, "--seed", str(seed), "--mode", "inputs",
                  "--count", str(count))["input_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_inputs_in_two_processes(workload):
    count = 24 if workload == "cli-cold" else 40
    first = input_digest(workload, 7, count)
    assert input_digest(workload, 7, count) == first
    assert input_digest(workload, 8, count) != first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_second_seed_passes_every_gate(workload):
    result, meta, _ = run(workload, seed=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == meta["ops"] >= 1
    assert set(result["metrics"]) == {name for name, _ in END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_default_seed_matches_the_committed_digest(workload):
    result, meta, _ = run(workload, seed=0)
    assert result["correct"]
    assert meta["digest_checked"] == result["attempted"]


def test_traced_run_reports_every_layer_metric_and_exact_counts_repeat():
    counts = [name for name, unit in PER_LAYER if unit == "count"]
    first, _, _ = run("zeros", seed=3, trace=1)
    second, _, _ = run("zeros", seed=3, trace=1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {name for name, _ in PER_LAYER}
    assert first["metrics"]["zeroset.spheres"]["value"] > 0
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in WORKLOADS if w not in BY_HAND]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_a_call_is_scaled_by_the_probes_next_to_it():
    from hostspeed import Meter

    now = [0.0]
    probes = iter([2e-3, 4e-3])
    meter = Meter(lambda: now[0], lambda clock: next(probes), ref_s=1e-3)
    meter.tick()
    now[0] = 1.0
    meter.tick()
    assert meter.scale(0.0, 1.0) == pytest.approx(1e-3 / 3e-3)


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "zeros",
                           "--seed", "1", "--seconds", "2", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
