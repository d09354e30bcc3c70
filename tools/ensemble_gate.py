#!/usr/bin/env python3
"""Seed-ensemble gate for changes that keep behaviour but move bytes.

    ensemble_gate.py PARENT CHANGE --seeds 1-10 \\
        [--expect FIGURE:lower|higher]... --out FILE

Byte-identity is the rule for a cut that can meet it. A cut that
changes which of two simultaneous events runs first (a tie rule, a
bounded buffer) moves every simulated figure a little, and each seed's
run is then one draw from the same distribution, not a fixed value.
This gate compares those distributions. PARENT and CHANGE are built
checkouts: each needs .bench_build/perfbench/perfbench_fleet (what
perfbench/run.py builds) and build/bench/bench_sec4_1_measured_capacity
and build/bench/bench_e16_overload_sweep (cmake -B build -S . && cmake
--build build). The parent must be a commit whose E15 and E16 take a
seed argument.

For every seed, with the side that goes first alternating between
seeds, it runs each side's perfbench_fleet --workload W --seed S --trace
0 on every workload of BENCHMARK.json, bench_sec4_1_measured_capacity S
(E15) and bench_e16_overload_sweep 10 4 S (E16), each bench in a fresh
directory.

A figure is each key of a fleet run's "sim" object (per workload) and
each metric of each E15/E16 report row (per row config). For every
figure, the two sides' means over the n seeds must differ by at most
2 * s * sqrt(2/n), two standard errors of the difference, where s is the
pooled seed-to-seed standard deviation. When s is 0 only equal means
pass. A figure named by --expect (its metric name, on every workload or
row that has it) is a move the change intends: it must move the named
way by more than the bound, and it is reported apart.

It also fails if any fleet run is not correct (a non-empty "errors"),
if the change's "failed" count exceeds the parent's at any seed, or if
a bench's own gate (its exit status) fails on the change at a seed where
it passes on the parent. A gate that fails on both sides is reported
and does not count. --out writes the report: every figure's means,
spread, bound and per-seed values, and every run's checks.

`--self-test` checks the rule on synthetic seeds, without running
anything.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_diff import load_rows  # noqa: E402
from perf_pairs import side_order  # noqa: E402
from perfbench_hash_gate import fleet_run  # noqa: E402

SIDES = ("parent", "change")
FLEET = os.path.join(".bench_build", "perfbench", "perfbench_fleet")
# (name, binary under the checkout, arguments before the seed, report).
BENCHES = (
    ("E15", os.path.join("build", "bench", "bench_sec4_1_measured_capacity"),
     [], "BENCH_E15.json"),
    ("E16", os.path.join("build", "bench", "bench_e16_overload_sweep"),
     ["10", "4"], "BENCH_E16.json"),
)


def parse_seeds(spec):
    """[1, 2, 3, 7] from "1-3,7"."""
    seeds = []
    for part in spec.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    if len(seeds) < 2 or len(set(seeds)) != len(seeds):
        raise SystemExit(f"bad --seeds {spec!r}: need two or more "
                         "distinct seeds")
    return seeds


def parse_expects(specs):
    """{"sim.events_per_txn": "lower", ...} from FIGURE:lower|higher."""
    expects = {}
    for spec in specs:
        name, sep, direction = spec.rpartition(":")
        if not sep or not name or direction not in ("lower", "higher"):
            raise SystemExit(
                f"bad --expect {spec!r}: expected FIGURE:lower|higher")
        expects[name] = direction
    return expects


def run_fleet(binary, workload, seed):
    """One fleet run's JSON, also when the run fails its own checks."""
    try:
        return fleet_run(binary, workload, seed)
    except subprocess.CalledProcessError as e:
        lines = (e.stdout or "").strip().splitlines()
        if not lines:
            return {"correct": False, "errors": [f"exit {e.returncode}"],
                    "failed": 0, "sim": {}}
        return json.loads(lines[-1])


def run_bench(binary, args, report):
    """(exit status, report rows) of one bench run in a fresh directory."""
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([binary] + args, cwd=cwd,
                              stdout=subprocess.DEVNULL)
        path = os.path.join(cwd, report)
        rows = load_rows(path)[1] if os.path.exists(path) else {}
    return proc.returncode, rows


def run_side(checkout, seed, workloads):
    """Every run of one side at one seed."""
    result = {"fleet": {}, "benches": {}}
    for workload in workloads:
        run = run_fleet(os.path.join(checkout, FLEET), workload, seed)
        result["fleet"][workload] = {
            "errors": run.get("errors", []), "failed": run.get("failed", 0),
            "sim": run.get("sim", {})}
    for name, binary, args, report in BENCHES:
        code, rows = run_bench(os.path.join(checkout, binary),
                               args + [str(seed)], report)
        result["benches"][name] = {"exit": code, "rows": rows}
    return result


def collect(checkouts, seeds, workloads, log=sys.stderr):
    """results[side][seed] for every seed, alternating the first side."""
    results = {side: {} for side in SIDES}
    for pair, seed in enumerate(seeds, start=1):
        for side in side_order(pair):
            results[side][seed] = run_side(checkouts[side], seed, workloads)
            print(f"  seed {seed} {side} done", file=log, flush=True)
    return results


def figures_of(result):
    """{(source, group, metric): value} of one side's runs at one seed."""
    out = {}
    for workload, run in result["fleet"].items():
        for metric, value in run["sim"].items():
            out[("perfbench", workload, metric)] = value
    for name, bench in result["benches"].items():
        for config, metrics in bench["rows"].items():
            for metric, value in metrics.items():
                out[(name, config, metric)] = value
    return out


def mean_sd(values):
    m = sum(values) / len(values)
    var = sum((v - m) ** 2 for v in values) / (len(values) - 1)
    return m, math.sqrt(var)


def judge(parent, change, expected=None):
    """One figure's verdict from its per-seed values on both sides."""
    n = len(parent)
    pm, psd = mean_sd(parent)
    cm, csd = mean_sd(change)
    s = math.sqrt((psd ** 2 + csd ** 2) / 2)
    bound = 2 * s * math.sqrt(2 / n)
    move = cm - pm
    if expected is None:
        ok = abs(move) <= bound
    elif expected == "lower":
        ok = move < -bound
    else:
        ok = move > bound
    return {"parent_mean": pm, "change_mean": cm, "move": move,
            "rel_move": move / abs(pm) if pm else None, "pooled_sd": s,
            "bound": bound, "ok": ok, "expected": expected,
            "parent": parent, "change": change}


def evaluate(results, seeds, expects):
    """The verdict on collected results: (report dict, failure lines)."""
    failures = []
    notes = []
    for seed in seeds:
        parent, change = results["parent"][seed], results["change"][seed]
        for side, result in (("parent", parent), ("change", change)):
            for workload, run in result["fleet"].items():
                if run["errors"]:
                    failures.append(f"seed {seed} {side} {workload}: not "
                                    f"correct: {'; '.join(run['errors'])}")
        for workload, run in change["fleet"].items():
            was = parent["fleet"].get(workload, {}).get("failed", 0)
            if run["failed"] > was:
                failures.append(f"seed {seed} {workload}: failed "
                                f"{was} -> {run['failed']}")
        for name in sorted(change["benches"]):
            p_exit = parent["benches"].get(name, {}).get("exit", 0)
            c_exit = change["benches"][name]["exit"]
            if p_exit == 0 and c_exit != 0:
                failures.append(f"seed {seed} {name}: gate fails on the "
                                f"change only (exit {c_exit})")
            elif c_exit != 0 or p_exit != 0:
                notes.append(f"seed {seed} {name}: gate exit parent "
                             f"{p_exit}, change {c_exit} (not counted)")

    per_seed = {side: [figures_of(results[side][s]) for s in seeds]
                for side in SIDES}
    keys = set().union(*per_seed["parent"], *per_seed["change"])
    figures = []
    matched = set()
    for key in sorted(keys):
        source, group, metric = key
        label = f"{source} {group} {metric}"
        parent = [figs.get(key) for figs in per_seed["parent"]]
        change = [figs.get(key) for figs in per_seed["change"]]
        if None in parent + change:
            failures.append(f"{label}: missing at some seed")
            continue
        expected = expects.get(metric)
        if expected:
            matched.add(metric)
        verdict = judge(parent, change, expected)
        verdict.update({"source": source, "group": group, "metric": metric})
        figures.append(verdict)
        if not verdict["ok"]:
            what = (f"expected {expected}, moved {verdict['move']:+.6g}"
                    if expected else f"moved {verdict['move']:+.6g}")
            failures.append(f"{label}: {what} against a bound of "
                            f"{verdict['bound']:.6g}")
    for metric in sorted(set(expects) - matched):
        failures.append(f"--expect {metric}: no such figure")
    report = {
        "seeds": seeds,
        "expect": expects,
        "figures_checked": len(figures),
        "figures_passed": sum(f["ok"] for f in figures),
        "gate_notes": notes,
        "failures": failures,
        "runs": {side: {str(s): {
            "fleet": {w: {"errors": r["errors"], "failed": r["failed"]}
                      for w, r in results[side][s]["fleet"].items()},
            "bench_exit": {b: r["exit"]
                           for b, r in results[side][s]["benches"].items()}}
            for s in seeds} for side in SIDES},
        "figures": figures,
    }
    return report, failures


def dump_report(report, path):
    """The report as JSON, one figure to a line."""
    head = {k: v for k, v in report.items() if k != "figures"}
    text = json.dumps(head, indent=1, sort_keys=True)
    lines = [json.dumps(f, sort_keys=True) for f in report["figures"]]
    text = (text[:-2] + ',\n "figures": [\n  ' + ",\n  ".join(lines) +
            "\n ]\n}\n")
    with open(path, "w") as f:
        f.write(text)


def print_summary(report, out=sys.stdout):
    moves = [f for f in report["figures"] if f["expected"]]
    print(f"{report['figures_passed']} of {report['figures_checked']} "
          f"figures pass over seeds {report['seeds'][0]}.."
          f"{report['seeds'][-1]} ({len(report['seeds'])} seeds)", file=out)
    for f in moves:
        rel = f"{f['rel_move']:+.1%}" if f["rel_move"] is not None else "-"
        print(f"  named move {f['source']} {f['group']} {f['metric']}: "
              f"{f['parent_mean']:.6g} -> {f['change_mean']:.6g} ({rel}), "
              f"bound {f['bound']:.6g}, expected {f['expected']}: "
              f"{'ok' if f['ok'] else 'FAILED'}", file=out)
    others = [f for f in report["figures"]
              if not f["expected"] and f["rel_move"] is not None]
    for f in sorted(others, key=lambda f: -abs(f["rel_move"]))[:5]:
        print(f"  largest relative move: {f['source']} {f['group']} "
              f"{f['metric']}: {f['parent_mean']:.6g} -> "
              f"{f['change_mean']:.6g} ({f['rel_move']:+.2%}, bound "
              f"{f['bound']:.6g})", file=out)
    for note in report["gate_notes"]:
        print(f"  {note}", file=out)
    for line in report["failures"]:
        print(f"FAILED: {line}", file=out)


def self_test():
    import io

    seeds = list(range(1, 11))

    def side(shift, failed=0, errors=(), exits=(0, 0), noise=1.0):
        """Seeds alternating at 100 + shift -/+ noise: s = 1.054 * noise,
        so the bound over 10 seeds is 0.943 * noise."""
        out = {}
        for i, seed in enumerate(seeds):
            v = 100.0 + shift + (noise if i % 2 else -noise)
            out[seed] = {
                "fleet": {"steady": {
                    "errors": list(errors) if i == 3 else [],
                    "failed": failed if i == 5 else 0,
                    "sim": {"committed_tps": v, "flat": 4.0}}},
                "benches": {
                    "E15": {"exit": exits[0] if i == 2 else 0,
                            "rows": {'{"tps": 4}': {"tps": v / 2}}},
                    "E16": {"exit": exits[1] if i == 2 else 0,
                            "rows": {}}}}
        return out

    def gate(parent, change, expects=None):
        return evaluate({"parent": parent, "change": change}, seeds,
                        expects or {})

    # The bound: 2 * s * sqrt(2/n), s the pooled SD.
    v = judge([1.0, 3.0], [2.0, 4.0])
    assert abs(v["pooled_sd"] - math.sqrt(2)) < 1e-12, v
    assert abs(v["bound"] - 2 * math.sqrt(2)) < 1e-12 and v["ok"], v
    # A shift within the bound passes, one beyond it fails (E15's tps,
    # half the value, moves by half and fails too).
    report, bad = gate(side(0), side(0.9))
    assert not bad, bad
    assert report["figures_checked"] == 3, report["figures_checked"]
    report, bad = gate(side(0), side(1.0))
    assert len(bad) == 2 and "steady committed_tps" in bad[1], bad
    # A named move passes only beyond the bound, in its direction.
    _, bad = gate(side(0), side(-3.0), {"committed_tps": "lower"})
    assert len(bad) == 1 and "E15" in bad[0], bad
    _, bad = gate(side(0), side(3.0), {"committed_tps": "lower"})
    assert any("expected lower" in b for b in bad), bad
    _, bad = gate(side(0), side(-0.9), {"committed_tps": "lower"})
    assert any("expected lower" in b for b in bad), bad
    _, bad = gate(side(0), side(0), {"nonesuch": "lower"})
    assert bad == ["--expect nonesuch: no such figure"], bad
    # s = 0: only an exact tie passes.
    assert judge([4.0] * 10, [4.0] * 10)["ok"]
    v = judge([4.0] * 10, [4.5] * 10)
    assert v["pooled_sd"] == 0 and not v["ok"], v
    _, bad = gate(side(0, noise=0), side(0, noise=0))
    assert not bad, bad
    # An incorrect run fails, on either side.
    _, bad = gate(side(0), side(0, errors=["bank totals disagree"]))
    assert len(bad) == 1 and "not correct" in bad[0], bad
    _, bad = gate(side(0, errors=["boom"]), side(0))
    assert len(bad) == 1 and "parent steady" in bad[0], bad
    # More failed transactions on the change fails; fewer does not.
    _, bad = gate(side(0), side(0, failed=2))
    assert len(bad) == 1 and "failed 0 -> 2" in bad[0], bad
    _, bad = gate(side(0, failed=2), side(0))
    assert not bad, bad
    # A bench gate counts only where the parent's passes.
    _, bad = gate(side(0), side(0, exits=(1, 0)))
    assert len(bad) == 1 and "E15: gate fails on the change" in bad[0], bad
    report, bad = gate(side(0, exits=(0, 1)), side(0, exits=(0, 1)))
    assert not bad, bad
    assert report["gate_notes"] == [
        "seed 3 E16: gate exit parent 1, change 1 (not counted)"]
    # A figure missing on one side fails.
    change = side(0)
    del change[4]["fleet"]["steady"]["sim"]["flat"]
    _, bad = gate(side(0), change)
    assert len(bad) == 1 and "flat: missing" in bad[0], bad
    # The report and summary render.
    report, _ = gate(side(0), side(-3.0), {"committed_tps": "lower"})
    buf = io.StringIO()
    print_summary(report, buf)
    assert "named move perfbench steady committed_tps" in buf.getvalue()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "r.json")
        dump_report(report, path)
        with open(path) as f:
            assert len(json.load(f)["figures"]) == 3
    assert parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert parse_expects(["sim.events_per_txn:lower"]) == {
        "sim.events_per_txn": "lower"}
    print("ensemble_gate self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", help="the parent's built checkout")
    ap.add_argument("change", nargs="?", help="the change's built checkout")
    ap.add_argument("--seeds", default="1-10",
                    help="seed list, e.g. 1-10 or 1-5,8 (default 1-10)")
    ap.add_argument("--expect", action="append", default=[],
                    metavar="FIGURE:lower|higher",
                    help="a figure the change is meant to move")
    ap.add_argument("--out", help="write the report here")
    ap.add_argument("--self-test", action="store_true",
                    help="check the rule on synthetic seeds")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not (args.parent and args.change and args.out):
        ap.error("PARENT, CHANGE and --out are required")

    seeds = parse_seeds(args.seeds)
    expects = parse_expects(args.expect)
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    for side, checkout in checkouts.items():
        for binary in [FLEET] + [b[1] for b in BENCHES]:
            if not os.access(os.path.join(checkout, binary), os.X_OK):
                print(f"{side}: {binary} is not built in {checkout}",
                      file=sys.stderr)
                return 2
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    results = collect(checkouts, seeds, workloads)
    report, failures = evaluate(results, seeds, expects)
    report["workloads"] = workloads
    dump_report(report, args.out)
    print_summary(report)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
