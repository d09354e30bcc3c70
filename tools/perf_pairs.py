#!/usr/bin/env python3
"""Alternating paired runs of the fleet benchmark on two checkouts.

    perf_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --workload W --seed S \\
        [--pairs 10] [--seconds 16] [--json OUT]

Each pair runs PARENT_CHECKOUT/perfbench/run.py and
CHANGE_CHECKOUT/perfbench/run.py once each, at the same workload, seed
and --seconds, with --trace 0. The side that runs first alternates (the
parent in odd pairs, the change in even ones), so a slow phase of a
shared host lands on both sides alike. run.py builds each checkout's
benchmark before its first repetition, outside the timed work.

For every end-to-end metric of the change's BENCHMARK.json it prints
each side's median and quartiles, the change's wins (a pair the change
is better in; ties count for neither side), the median's move against
the parent's interquartile range, and every pair's two values. It exits
nonzero if a run fails or reports "correct": false. --json writes the
pairs and the summary.

`--self-test` checks the summary and the alternation on synthetic
results, without running anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_metrics(checkout):
    """[(name, better)] of the end-to-end metrics BENCHMARK.json declares."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_checkout(checkout, workload, seed, seconds):
    """The final JSON line of one run.py run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode} "
                           "without a result")
    return json.loads(lines[-1])


def side_order(pair):
    """Which side runs first in 1-based pair `pair`."""
    return ("parent", "change") if pair % 2 == 1 else ("change", "parent")


def run_pairs(pairs, run):
    """`pairs` pairs of results; run(side) gives one side's result."""
    out = []
    for pair in range(1, pairs + 1):
        result = {}
        for side in side_order(pair):
            result[side] = run(side)
        result["first"] = side_order(pair)[0]
        out.append(result)
    return out


def quartiles(values):
    """(q1, median, q3), inclusive method (exact at the sample points)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(results, metrics):
    """Per metric: both sides' quartiles, the change's wins, every pair."""
    summary = {}
    for name, better in metrics:
        parent = [r["parent"]["metrics"][name]["value"] for r in results]
        change = [r["change"]["metrics"][name]["value"] for r in results]
        wins = losses = 0
        for p, c in zip(parent, change):
            if c == p:
                continue
            if (c < p) == (better == "lower"):
                wins += 1
            else:
                losses += 1
        pq = quartiles(parent)
        cq = quartiles(change)
        summary[name] = {
            "better": better,
            "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
            "ratio": cq[1] / pq[1] if pq[1] else None,
            "wins": wins,
            "losses": losses,
            "ties": len(parent) - wins - losses,
            # The median's move in the good direction, and the spread of
            # the parent's runs it must exceed to count as a gain.
            "gain": (pq[1] - cq[1]) if better == "lower" else (cq[1] - pq[1]),
            "parent_iqr": pq[2] - pq[0],
            "pairs": [[p, c] for p, c in zip(parent, change)],
        }
    return summary


def failures(results):
    """Runs that failed their own checks."""
    bad = []
    for i, r in enumerate(results, start=1):
        for side in ("parent", "change"):
            if r[side].get("correct") is not True:
                bad.append(f"pair {i} {side}: not correct")
    return bad


def quartile_cell(q):
    return f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"


def report(summary, results, out):
    """The summary table (gain/IQR: the median's gain over the parent's
    interquartile range), then every pair."""
    print(f"{'metric':20s} {'better':6s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'ratio':>6s} {'wins':>6s} "
          f"{'gain/IQR':>8s}", file=out)
    n = len(results)
    for name, s in summary.items():
        ratio = f"{s['ratio']:.3f}" if s["ratio"] is not None else "-"
        spread = (f"{s['gain'] / s['parent_iqr']:+.1f}"
                  if s["parent_iqr"] else "-")
        wins = f"{s['wins']}/{n}"
        print(f"{name:20s} {s['better']:6s} "
              f"{quartile_cell(s['parent']):>32s} "
              f"{quartile_cell(s['change']):>32s} {ratio:>6s} {wins:>6s} "
              f"{spread:>8s}", file=out)
    print("pairs (parent -> change; * = the change ran first):", file=out)
    for name, s in summary.items():
        cells = []
        for r, (p, c) in zip(results, s["pairs"]):
            mark = "*" if r["first"] == "change" else ""
            cells.append(f"{p:.6g}->{c:.6g}{mark}")
        print(f"  {name:20s} " + " ".join(cells), file=out)


def self_test():
    import io

    metrics = [("host_us_per_txn", "lower"), ("committed_tps", "higher")]
    calls = []
    host = {"parent": iter([30.0, 32.0, 31.0, 29.0, 33.0]),
            "change": iter([24.0, 25.0, 32.0, 23.0, 26.0])}

    def fake(side):
        calls.append(side)
        return {"correct": True, "metrics": {
            "host_us_per_txn": {"value": next(host[side]), "unit": "us"},
            "committed_tps": {"value": 100.0, "unit": "txn/sim-s"}}}

    results = run_pairs(5, fake)
    # The first side alternates, starting with the parent.
    assert calls == ["parent", "change", "change", "parent", "parent",
                     "change", "change", "parent", "parent", "change"], calls
    assert [r["first"] for r in results] == [
        "parent", "change", "parent", "change", "parent"]
    s = summarize(results, metrics)
    h = s["host_us_per_txn"]
    # Pair 3 (31 -> 32) is the one loss.
    assert (h["wins"], h["losses"], h["ties"]) == (4, 1, 0), h
    assert h["parent"] == {"q1": 30.0, "median": 31.0, "q3": 32.0}, h
    assert h["change"] == {"q1": 24.0, "median": 25.0, "q3": 26.0}, h
    assert abs(h["ratio"] - 25.0 / 31.0) < 1e-12
    assert h["gain"] == 6.0 and h["parent_iqr"] == 2.0
    assert h["pairs"][2] == [31.0, 32.0]
    # Equal values are ties, won by neither side.
    t = s["committed_tps"]
    assert (t["wins"], t["losses"], t["ties"]) == (0, 0, 5), t
    # Higher-is-better metrics count a rise as a win.
    up = [{"first": "parent",
           "parent": {"metrics": {"committed_tps": {"value": 10.0}}},
           "change": {"metrics": {"committed_tps": {"value": 11.0}}}}]
    u = summarize(up, [("committed_tps", "higher")])["committed_tps"]
    assert (u["wins"], u["losses"], u["gain"]) == (1, 0, 1.0), u
    # Failed runs are reported.
    assert not failures(results)
    results[1]["change"]["correct"] = False
    assert failures(results) == ["pair 2 change: not correct"]
    buf = io.StringIO()
    report(s, results, buf)
    assert "4/5" in buf.getvalue() and "31->32" in buf.getvalue()
    print("perf_pairs self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", help="the parent's checkout")
    ap.add_argument("change", nargs="?", help="the change's checkout")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=16.0,
                    help="run.py --seconds per run (default 16)")
    ap.add_argument("--json", help="write the pairs and summary here")
    ap.add_argument("--self-test", action="store_true",
                    help="check the summary on synthetic results")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not (args.parent and args.change and args.workload and
            args.seed is not None):
        ap.error("PARENT_CHECKOUT, CHANGE_CHECKOUT, --workload and --seed "
                 "are required")

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    metrics = load_metrics(checkouts["change"])

    def run(side):
        r = run_checkout(checkouts[side], args.workload, args.seed,
                         args.seconds)
        host = r.get("metrics", {}).get("host_us_per_txn", {}).get("value")
        print(f"  {side}: correct={r.get('correct')} "
              f"host_us_per_txn={host}", file=sys.stderr, flush=True)
        return r

    try:
        results = run_pairs(args.pairs, run)
    except (RuntimeError, ValueError) as e:
        print(f"perf_pairs: {e}", file=sys.stderr)
        return 2
    summary = summarize(results, metrics)
    print(f"workload {args.workload} seed {args.seed}: {args.pairs} "
          f"alternating pairs of run.py --seconds {args.seconds:g}")
    report(summary, results, sys.stdout)
    bad = failures(results)
    for b in bad:
        print(f"CHECK FAILED: {b}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "summary": summary,
                       "runs": results}, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
