"""Regenerate ``perfbench/digests.json``, the benchmark's output oracle.

Runs one repetition of ``sweep_cold`` and ``train_fpraker`` per input
variant and records the sha256 digests of their outputs.  Rerun it only
for a change that is meant to alter simulated results or training
arithmetic; a change that claims only speed must leave every digest as
it is.  Run from the repository root::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from rep import DIGESTS, VARIANTS
from run import run_child

WORKLOADS = ("sweep_cold", "train_fpraker")


def main() -> int:
    root = Path.cwd()
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for variant in range(VARIANTS):
            args = ["--workload", workload, "--seed", str(variant)]
            table[workload][str(variant)] = run_child(root, args, 600.0)["digests"]
            print(f"{workload} variant {variant}: recorded", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
