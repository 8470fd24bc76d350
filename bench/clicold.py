"""The `cli-cold` workload: one fresh `python -m slicealg.cli` per op.

Inputs are fixed command lines: two to four per verb, plus parse errors and
domain errors, whose contract is exit 2 or 1 with a one-line message.  This
module imports nothing from the library, so the process that times the
children stays small.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys

import hostspeed

VERB_INPUTS = {
    "algebra": [["--algebra", "SO"], ["--algebra", "cl-0-3", "--json"],
                ["--algebra", "DH"]],
    "verify": [["--algebra", "O"], ["--algebra", "SO_ALT"],
               ["--algebra", "SH", "--json"]],
    "eval": [["--algebra", "H", "x^2+1", "--at", "2+i"],
             ["--algebra", "cl-0-3", "(x-e1)*(1-e123)", "--at", "e23"],
             ["--algebra", "O", "(x-i)*(x-j+l)", "--at", "1/2+k"]],
    "mul": [["--algebra", "O", "1+i", "j+l"], ["--algebra", "SH", "e1+e2", "e1-e12"],
            ["--algebra", "cl-0-4", "e1+e234", "2*e12-e4"]],
    "conj": [["--algebra", "H", "(x-i)*(1+j)"], ["--algebra", "SO", "x^2*(i+l)-lk"],
             ["--algebra", "DH", "(x-eps)*(x+k)"]],
    "normal": [["--algebra", "SO", "(x-i)*(1+li)"], ["--algebra", "H", "(x-i)*(x-j)"],
               ["--algebra", "cl-0-4", "(x-e4)*(1+e123)"]],
    "inv": [["--algebra", "H", "x-i", "--at", "2+j"],
            ["--algebra", "SH", "x^2+e1", "--at", "1+e2"],
            ["--algebra", "cl-0-3", "x-e12", "--at", "1/2+e3"]],
    "quot": [["--algebra", "H", "x-i", "x+j", "--at", "1+k"],
             ["--algebra", "DH", "x-j", "x^2+eps", "--at", "2+i"],
             ["--algebra", "C", "x^2+1", "x-i", "--at", "3"]],
    "zeros": [["--algebra", "H", "x^2+1"], ["--algebra", "SH", "(x-e2)*(x+1)"],
              ["--algebra", "cl-0-3", "(x-e1)*(1-e123)"],
              ["--algebra", "H", "(x-i)*(x-2*j)*(x+1)"]],
    "predict-product-zeros": [
        ["--algebra", "cl-0-4", "e1", "x-e2", "--sphere", "0,1"],
        ["--algebra", "H", "x-i", "x-j", "--sphere", "0,1"],
        ["--algebra", "SO_ALT", "x-2*l", "x-i", "--sphere", "0,1"]],
}

PARSE_ERRORS = [  # contract: exit 2, "parse error: ..." on one line
    ["eval", "--algebra", "H", "x^^2", "--at", "i"],
    ["mul", "--algebra", "H", "2*q", "i"],
    ["eval", "--algebra", "H", "x+1", "--at", "x"],
    ["zeros", "--algebra", "H", "x-1.5"],
    ["predict-product-zeros", "--algebra", "H", "x-i", "x-j", "--sphere", "0,1,2"],
]

DOMAIN_ERRORS = [  # contract: exit 1, "error: ..." on one line
    ["inv", "--algebra", "H", "x^2+1", "--at", "i"],
    ["quot", "--algebra", "O", "x-i", "x+j", "--at", "1+k"],
    ["zeros", "--algebra", "XYZ", "x"],
]

# Inputs on which the library breaks the contract.  Each cli-cold run runs
# them once, outside the timed ops, and reports them on their own line, so
# the defect stays visible without making every run fail.
KNOWN_DEFECTS = [
    (["eval", "--algebra", "H", "1/0", "--at", "i"], 2,
     "ZeroDivisionError traceback instead of a parse error"),
]

# Every run times every command; the seed only sets their order.
COMMANDS = tuple([([verb] + argv, 0) for verb, inputs in VERB_INPUTS.items()
                  for argv in inputs]
                 + [(argv, 2) for argv in PARSE_ERRORS]
                 + [(argv, 1) for argv in DOMAIN_ERRORS])


def short_hash(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def input_key(argv):
    return " ".join(argv)


class CliCold:
    name = "cli-cold"
    timed_ops = traced_ops = len(COMMANDS)
    probe_ref_s = hostspeed.CHILD_REF_S

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root
        self.env = child_env(root)
        order = list(range(len(COMMANDS)))
        random.Random(f"{self.name}:{seed}").shuffle(order)
        self.cells = tuple(COMMANDS[k] for k in order)

    def setup(self, clock):
        # one throwaway child, so that every timed child finds warm bytecode
        self.call(["algebra", "--algebra", "H"])

    def cell(self, index):
        return self.cells[index % len(self.cells)]

    def probe(self, clock):
        return hostspeed.child_probe(clock, self.env)

    def fresh_pass(self):
        pass

    def make(self, index):
        argv, code = self.cell(index)
        return {"verb": argv[0], "argv": argv, "exit": code}

    def call(self, argv):
        proc = subprocess.run([sys.executable, "-m", "slicealg.cli", *argv],
                              env=self.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, inp, span):
        with span("cli." + (inp["verb"] if inp["exit"] == 0 else "malformed")):
            return self.call(inp["argv"])

    def check(self, inp, out):
        return contract_problems(out, inp["exit"]), 0

    def canon(self, inp, out):
        code, stdout, _ = out
        return f"{code}:{hashlib.sha256(stdout.encode()).hexdigest()[:12]}"

    def describe(self, inp):
        return input_key(inp["argv"])

    def counts(self, inp, out):
        return {}

    def replay(self, inp, out, span):
        pass


def contract_problems(out, want_exit):
    code, stdout, stderr = out
    problems = []
    if code != want_exit:
        problems.append(f"exit {code}, expected {want_exit}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if want_exit == 0:
        if not stdout.strip() or stderr:
            problems.append("empty output or stray stderr on success")
    else:
        prefix = "parse error:" if want_exit == 2 else "error:"
        lines = stderr.strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith(prefix):
            problems.append(f"error output is not one '{prefix}' line")
    return problems


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env
