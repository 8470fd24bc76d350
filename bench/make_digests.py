"""Rewrite bench/digests.json from the library under src/.

    python3 bench/make_digests.py

The file holds the canonical-output digest of every op a run of an
in-process workload makes for the default seed, and of every cli-cold
command (for any seed).  Regenerate it only when an output change is intended, and say
so in the change that does it: a run compares every op it reaches against
this file and counts a mismatch as a failed op.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from clicold import COMMANDS, CliCold, input_key  # noqa: E402
from worker import DIGESTS, ROOT, short_hash  # noqa: E402

DEFAULT_SEED = 0


def main():
    cli = CliCold(DEFAULT_SEED, ROOT)
    per_op = {}
    for name in ("zeros", "identities", "structure"):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
             "--seed", str(DEFAULT_SEED), "--mode", "digest"],
            env=cli.env, capture_output=True, text=True, check=True)
        per_op[name] = " ".join(json.loads(proc.stdout.splitlines()[-1])["digests"])
    per_input = {input_key(argv): short_hash(cli.canon(None, cli.call(argv)))
                 for argv, _ in COMMANDS}
    with open(DIGESTS, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "per_op": per_op,
                   "per_input": {"cli-cold": per_input}}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
