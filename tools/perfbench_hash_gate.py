#!/usr/bin/env python3
"""Check perfbench's end-state hashes and simulated figures against a
committed baseline.

perfbench/run.py fails a repetition that misses its seed's end-state
hash, but it learns that hash from its own first run, so a change of
behaviour that stays deterministic still passes it. This gate pins the
outcome: it runs one single-threaded perfbench_fleet per workload at the
baseline's seed and exits nonzero if the end-state hash, or any figure of
the run's "sim" object (committed TPS, latencies, per-layer simulated
figures), differs from the committed one. Simulated figures are exact
for a (workload, seed), so they are compared exactly. A change that
moves one on purpose updates the baseline (the failure message prints
the new value) and says why.

    perfbench_hash_gate.py bench/baselines/PERFBENCH_SEED1.json \\
        [--binary .bench_build/perfbench/perfbench_fleet]

The baseline is {"seed": N, "hashes": {"<workload>": "<hash>", ...},
"sim": {"<workload>": {"<figure>": value, ...}, ...}}.
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


def fleet_run(binary, workload, seed):
    """The JSON result of one perfbench_fleet run."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def sim_mismatches(want, got):
    """Lines naming each simulated figure that differs from the baseline."""
    lines = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            lines.append(f"  sim.{name}: missing (baseline {want[name]!r})")
        elif name not in want:
            lines.append(f"  sim.{name}: {got[name]!r} (not in baseline)")
        elif got[name] != want[name]:
            lines.append(f"  sim.{name}: {got[name]!r} "
                         f"MISMATCH (baseline {want[name]!r})")
    return lines


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
        run = fleet_run(args.binary, workload, seed)
        got = run["hash"]
        ok = got == want
        failed = failed or not ok
        print(f"{workload} seed {seed}: {got} "
              f"{'ok' if ok else f'MISMATCH (baseline {want})'}")
        sim = sim_mismatches(baseline["sim"][workload], run["sim"])
        failed = failed or bool(sim)
        print(f"{workload} seed {seed}: "
              + (f"{len(run['sim'])} sim figures identical" if not sim else
                 f"{len(sim)} of {len(run['sim'])} sim figures differ:"))
        for line in sim:
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
