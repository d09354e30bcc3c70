#!/usr/bin/env python3
"""The dlog fleet benchmark: one command, three seeded workloads.

Usage (from the repository root):
    python3 perfbench/run.py --workload steady|overload|recovery \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
then runs repetitions of one workload, each in its own single-threaded
process: S seconds' worth on a quiet machine (REP_SECONDS), at least
MIN_REPS. Every repetition of a seed simulates the same thing, so their
simulated figures and end-state hashes must agree exactly. Host CPU per
unit of work is the minimum over repetitions (they execute identical
work, and host interference only adds time); set-up time and memory are
medians. Host times are scaled to a quiet machine by timing a fixed
reference load alongside (REFERENCE_QUIET_S).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and SIGPROF-sampled repetitions and reports the per-layer metrics, and
writes .bench_build/trace/<workload>.json (phase spans, per-module self
and inclusive shares, hottest symbols, and the sampling overhead).

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Human-readable lines above it print every metric with its unit. The exit
code is nonzero, with no JSON line, if the build or a repetition fails;
an incorrect result is reported with "correct": false and exit code 1.
See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
BINARY = os.path.join(BUILD, "perfbench_fleet")

# CPU seconds one repetition of each workload takes on a quiet machine.
# A run makes --seconds / REP_SECONDS repetitions (at least MIN_REPS):
# the count depends on the request only, never on how loaded the machine
# is, so the minimum over them means the same thing in every run.
REP_SECONDS = {"steady": 3.0, "overload": 4.3, "recovery": 1.0}
MIN_REPS = 4
REP_TIMEOUT_S = 150
# Host speed. The shared VM this was built on has minutes-long phases in
# which all CPU work runs up to 1.8x slower, so host times are scaled to a
# quiet machine: each run times the fixed reference load of
# `perfbench_fleet --reference` REFERENCES times between repetitions and
# multiplies host times by REFERENCE_QUIET_S / its fastest timing.
REFERENCES = 6
REFERENCE_QUIET_S = 0.30

MODULES = ("sim", "net", "wire", "client", "server", "storage", "flow", "tp",
           "forest", "epoch", "obs", "harness", "common", "other")
# Modules whose CPU per committed txn / per replayed record is reported.
PER_TXN_MODULES = ("sim", "net", "wire", "client", "server", "storage")
PER_RECORD_MODULES = ("tp", "forest")

# Simulated per-layer figures the fleet binary computes, with units.
SIM_LAYER = {
    "txn_p50_ms": "sim-ms",
    "txn_p99_ms": "sim-ms",
    "sim.events_per_txn": "count/txn",
    "net.bytes_per_txn": "B/txn",
    "net.lan_util": "ratio",
    "wire.bytes_copied_per_record": "B/record",
    "client.records_per_batch": "count",
    "client.resends_per_txn": "count/txn",
    "client.force_p99_ms": "sim-ms",
    "client.init_attempts_per_recovery": "count",
    "server.copies_per_record": "count",
    "server.records_per_track": "count",
    "server.bytes_logged_per_txn": "B/txn",
    "server.cpu_util": "ratio",
    "server.read_rpcs_per_record": "count/record",
    "storage.disk_util": "ratio",
    "storage.tracks_per_txn": "count/txn",
    "flow.shed_per_txn": "count/txn",
    "flow.overload_replies_per_txn": "count/txn",
    "flow.backoffs_per_txn": "count/txn",
    "flow.useful_write_ratio": "ratio",
    "recovery.recover_p50_s": "sim-s",
    "recovery.recover_p95_s": "sim-s",
    "recovery.recover_fail_frac": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench_fleet", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0 and os.path.exists(BINARY)


def run_rep(workload, seed, traced, trace_out=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} rep exited {proc.returncode} "
                           "without a result")
    rep = json.loads(lines[-1])
    if proc.returncode != 0 and rep.get("correct", False):
        raise RuntimeError(f"{workload} rep exited {proc.returncode}")
    return rep


def run_reference():
    proc = subprocess.run([BINARY, "--reference"], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("reference load failed")
    return json.loads(proc.stdout)["reference_cpu_s"]


def per_unit_us(reps, unit):
    """Window CPU per unit of work, from the fastest repetition.

    Repetitions of a seed execute identical work and host interference
    only ever adds time, so the fastest is the least disturbed.
    """
    n = reps[0][unit]
    return min(r["window_cpu_s"] for r in reps) / n * 1e6 if n else 0.0


def check(reps):
    """Every repetition of one seed must be correct and agree exactly."""
    errors = []
    for i, rep in enumerate(reps):
        errors += [f"rep {i}: {e}" for e in rep["errors"]]
    first = reps[0]
    for i, rep in enumerate(reps[1:], start=1):
        if rep["hash"] != first["hash"] or rep["sim"] != first["sim"]:
            errors.append(f"rep {i}: simulated results differ from rep 0 "
                          "at the same seed (nondeterminism)")
    return errors


def shares(traced):
    """Pooled per-module window self/inclusive shares of traced reps."""
    total = sum(r["profile"]["samples"] for r in traced)
    out = {}
    for kind in ("self", "inclusive"):
        out[kind] = {
            m: (sum(r["profile"][kind][m] for r in traced) / total
                if total else 0.0)
            for m in MODULES}
    return total, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=REP_SECONDS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2

    reps = max(MIN_REPS, round(args.seconds / REP_SECONDS[args.workload]))
    untraced, traced, references = [], [], []
    os.makedirs(TRACE_DIR, exist_ok=True)
    rep_trace = os.path.join(TRACE_DIR, f"{args.workload}.rep.json")
    ref_every = -(-reps // REFERENCES)  # spread the references evenly
    try:
        for i in range(reps):
            if i % ref_every == 0:
                references.append(run_reference())
            if not args.trace:
                untraced.append(run_rep(args.workload, args.seed, False))
            elif i % 2 == 0:
                untraced.append(run_rep(args.workload, args.seed, False))
            else:
                # Traced and untraced alternate, so both see the same load.
                traced.append(run_rep(args.workload, args.seed, True,
                                      rep_trace if not traced else None))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(f"perfbench: {e}")
        return 2

    errors = check(untraced + traced)
    first = untraced[0]
    sim = first["sim"]
    speed = REFERENCE_QUIET_S / min(references)
    host_txn = per_unit_us(untraced, "committed") * speed
    host_rec = per_unit_us(untraced, "records_replayed_in_window") * speed

    if args.trace:
        samples, sh = shares(traced)
        traced_txn = per_unit_us(traced, "committed") * speed
        overhead = traced_txn / host_txn - 1 if host_txn else 0.0
        metrics = {k: (sim[k], unit) for k, unit in SIM_LAYER.items()}
        for m in MODULES:
            metrics[f"{m}.cpu_share"] = (sh["self"][m], "share")
        for m in PER_TXN_MODULES:
            metrics[f"{m}.cpu_us_per_txn"] = (sh["self"][m] * host_txn,
                                              "us/txn")
        for m in PER_RECORD_MODULES:
            metrics[f"{m}.cpu_us_per_record"] = (sh["self"][m] * host_rec,
                                                 "us/record")
        metrics["recovery.host_us_per_record"] = (host_rec, "us/record")
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        metrics["trace.samples"] = (float(samples), "count")
        self_sum = sum(sh["self"].values())
        if samples and abs(self_sum - 1.0) > 0.01:
            errors.append(f"module self shares sum to {self_sum:.4f}")
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "untraced_reps": len(untraced),
            "traced_reps": len(traced),
            "host_speed_scale": speed,
            "overhead": {
                "untraced_host_us_per_txn": host_txn,
                "traced_host_us_per_txn": traced_txn,
                "overhead_frac": overhead,
            },
            "window_samples": samples,
            "module_self_share": sh["self"],
            "module_inclusive_share": sh["inclusive"],
        }
        try:
            with open(rep_trace) as f:
                detail = json.load(f)
            report["phases"] = detail["phases"]
            report["phase_module_samples"] = detail["phase_modules"]
            report["window_top_symbols"] = detail["window_top_symbols"]
            os.remove(rep_trace)
        except (OSError, ValueError, KeyError) as e:
            errors.append(f"trace detail unreadable: {e}")
        out_path = os.path.join(TRACE_DIR, f"{args.workload}.json")
        with open(out_path, "w") as f:
            json.dump(report, f, indent=1)
        print(f"trace: {out_path}")
        print(f"trace overhead: {overhead * 100:+.2f}% "
              f"({traced_txn:.3f} vs {host_txn:.3f} us/txn untraced, "
              f"{samples} window samples)")
    else:
        metrics = {
            "host_us_per_txn": (host_txn, "us"),
            "setup_s": (statistics.median(r["setup_cpu_s"]
                                          for r in untraced) * speed, "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                              for r in untraced), "MB"),
            "rss_bytes_per_txn": (statistics.median(
                r["rss_growth_bytes"] / r["committed"] for r in untraced),
                                  "B"),
            "committed_tps": (sim["committed_tps"], "txn/sim-s"),
            "txn_mean_ms": (sim["txn_mean_ms"], "sim-ms"),
            "txn_tail_ms": (sim["txn_tail_ms"], "sim-ms"),
            "goodput_frac": (sim["goodput_frac"], "ratio"),
        }

    print(f"host speed: reference load {min(references):.4f} s CPU vs "
          f"{REFERENCE_QUIET_S} s quiet; host times scaled by {speed:.4f}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(untraced)} untraced + {len(traced)} traced reps, "
          f"{first['committed']:.0f} txns committed per window, "
          f"{sim['txn_samples']:.0f} latency samples")
    if first["recoveries"]:
        print(f"recovery: {first['recoveries']:.0f} crashed clients, "
              f"{first['records_replayed_in_window']:.0f} records replayed "
              f"in the window, p50 {sim['recovery.recover_p50_s']:.2f} s, "
              f"p95 {sim['recovery.recover_p95_s']:.2f} s, fail frac "
              f"{sim['recovery.recover_fail_frac']:.4f}, "
              f"host {host_rec:.3f} us/record")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if not args.trace:
        print("per-layer counts (simulated, exact for the seed):")
        for name, unit in SIM_LAYER.items():
            print(f"  {name:36s} {sim[name]:14.6g} {unit}")
    for e in errors:
        print(f"CHECK FAILED: {e}")

    result = {
        "correct": not errors,
        "attempted": int(first["committed"] + first["failed"] +
                         first["recoveries"]),
        "failed": int(first["failed"] + first["recoveries_failed"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
