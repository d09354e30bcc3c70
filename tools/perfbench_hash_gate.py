#!/usr/bin/env python3
"""Check perfbench's end-state hashes against a committed baseline.

perfbench/run.py fails a repetition that misses its seed's end-state
hash, but it learns that hash from its own first run, so a change of
behaviour that stays deterministic still passes it. This gate pins the
hashes: it runs one single-threaded perfbench_fleet per workload at the
baseline's seed and exits nonzero if any end-state hash differs from the
committed one. A change that moves a hash on purpose updates the
baseline (the failure message prints the new value) and says why.

    perfbench_hash_gate.py bench/baselines/PERFBENCH_SEED1.json \\
        [--binary .bench_build/perfbench/perfbench_fleet]

The baseline is {"seed": N, "hashes": {"<workload>": "<hash>", ...}}.
Build the binary first (perfbench/run.py does).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BINARY = os.path.join(ROOT, ".bench_build", "perfbench",
                              "perfbench_fleet")


def fleet_hash(binary, workload, seed):
    """The end-state hash of one perfbench_fleet run."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])["hash"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("--binary", default=DEFAULT_BINARY)
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    seed = baseline["seed"]
    failed = False
    for workload, want in sorted(baseline["hashes"].items()):
        got = fleet_hash(args.binary, workload, seed)
        ok = got == want
        failed = failed or not ok
        print(f"{workload} seed {seed}: {got} "
              f"{'ok' if ok else f'MISMATCH (baseline {want})'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
