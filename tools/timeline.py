#!/usr/bin/env python3
"""Render a telemetry export (obs::TimeSeriesJson) as terminal heatmaps.

One heatmap per selected series suffix, one row per emitting node,
columns downsampled to the terminal width; cell brightness is the
window value on a scale shared by every row of the map. In E18's skewed
placement three of six servers carry the load, and the idle three,
which store no windows, have no row:

    cpu/busy_ns  63w x 250ms  max=1.055e+08
    server-1 |▂▅▇▆▇▇▆▇▇▇▆▇▇▇▇▆▇▆▇█▇▇▇▇▆▆▇▆▆▇▆▅|
    server-2 |▂▄▇▇▆▇▆▇▆▇▇▇██▇▇▆▆▇█▆▆▆▆█▇█▆▇▆▆▆|
    server-3 |▂▄▇▇▆▇▆▇▇▇▆▇▇▇▇▆▆▆▇▇▆▆▇▇▇▆▇▇▇█▇▆|

Usage:
    timeline.py E18_series_skewed.json --suffix cpu/busy_ns \
        --suffix log/force_latency_us/p99 [--width 64]
    timeline.py E18_series_skewed.json --list   # see what's available

Stdlib only; reads the deterministic JSON artifact the benches and the
harness write, so a crash or CI failure can be eyeballed from the
uploaded artifact without any plotting stack.
"""

import argparse
import json
import sys

SHADES = " ▁▂▃▄▅▆▇█"


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return doc["interval_ns"], doc["windows"], doc["series"]


def value_at(series, window):
    """Series value at 1-based `window`, decoding export semantics:
    rates/quantiles are implicitly zero outside the stored range, level
    series hold their last value forward."""
    first = series["first_window"]
    values = series["values"]
    i = window - first
    if i < 0 or not values:
        return 0.0
    if i >= len(values):
        return values[-1] if series["kind"] == "level" else 0.0
    return values[i]


def split_suffix(name, suffix):
    """Row label for `name` given it matches `suffix` ("" if exact)."""
    if name == suffix:
        return name
    return name[: -(len(suffix) + 1)]


def matches(name, suffix):
    return name == suffix or name.endswith("/" + suffix)


def downsample(samples, width):
    """Peak-preserving resample to at most `width` cells."""
    if len(samples) <= width:
        return samples
    cells = []
    for c in range(width):
        lo = c * len(samples) // width
        hi = max(lo + 1, (c + 1) * len(samples) // width)
        cells.append(max(samples[lo:hi]))
    return cells


def render(interval_ns, windows, series, suffix, width, out=sys.stdout):
    rows = []
    for name in sorted(series):
        if matches(name, suffix):
            rows.append((split_suffix(name, suffix), series[name]))
    if not rows:
        print(f"{suffix}: no matching series", file=out)
        return False
    grids = [
        downsample([value_at(s, w) for w in range(1, windows + 1)], width)
        for _, s in rows
    ]
    peak = max(max(g) for g in grids)
    label_w = max(len(label) for label, _ in rows)
    print(f"{suffix}  {windows}w x {interval_ns / 1e6:g}ms  max={peak:g}",
          file=out)
    for (label, _), grid in zip(rows, grids):
        cells = "".join(
            SHADES[min(len(SHADES) - 1,
                       int(v / peak * (len(SHADES) - 1) + 0.5))]
            if peak > 0 else SHADES[0]
            for v in grid)
        print(f"{label:>{label_w}} |{cells}|", file=out)
    return True


def list_suffixes(series, out=sys.stdout):
    """Distinct per-node suffixes with node counts, for discovery."""
    groups = {}
    for name in series:
        head, sep, tail = name.partition("/")
        # Node-qualified series group by what follows the node; global
        # series (health/..., cluster/...) stand alone.
        suffix = tail if sep and "-" in head else name
        groups.setdefault(suffix, set()).add(head if sep else name)
    for suffix in sorted(groups):
        print(f"  {suffix}  ({len(groups[suffix])} series)", file=out)


def self_test():
    doc = {
        "interval_ns": 250000000,
        "windows": 4,
        "series": {
            "server-1/cpu/util": {"kind": "level", "first_window": 1,
                                  "values": [0.9, 0.9]},
            "server-2/cpu/util": {"kind": "level", "first_window": 2,
                                  "values": [0.1]},
            "server-1/ops": {"kind": "rate", "first_window": 1,
                             "values": [5.0]},
        },
    }
    s = doc["series"]
    # Level holds forward past its last stored value; rate decays to 0.
    assert value_at(s["server-1/cpu/util"], 4) == 0.9
    assert value_at(s["server-2/cpu/util"], 1) == 0.0
    assert value_at(s["server-1/ops"], 3) == 0.0
    assert downsample([1, 9, 2, 3], 2) == [9, 3]  # peak-preserving
    import io
    buf = io.StringIO()
    assert render(doc["interval_ns"], doc["windows"], s, "cpu/util", 32,
                  buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 3 and "max=0.9" in lines[0]
    # The loaded server outshades the idle one in every shared window.
    hot, cold = lines[1].split("|")[1], lines[2].split("|")[1]
    assert SHADES.index(hot[-1]) > SHADES.index(cold[-1])
    assert not render(doc["interval_ns"], doc["windows"], s, "nope", 32,
                      buf)
    print("timeline self-test passed")


def main():
    parser = argparse.ArgumentParser(
        description="terminal heatmaps from a TimeSeriesJson export")
    parser.add_argument("export", nargs="?", help="E18_series_*.json etc.")
    parser.add_argument("--suffix", action="append", default=[],
                        help="series suffix to render (repeatable); "
                             "rows are the matching nodes")
    parser.add_argument("--width", type=int, default=64,
                        help="max heatmap columns (default 64)")
    parser.add_argument("--list", action="store_true",
                        help="list available suffixes and exit")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        self_test()
        return 0
    if not args.export:
        parser.error("an export file is required")
    interval_ns, windows, series = load(args.export)
    if args.list or not args.suffix:
        print(f"{args.export}: {windows} windows x "
              f"{interval_ns / 1e6:g}ms, {len(series)} series")
        list_suffixes(series)
        if not args.list:
            print("pick one or more with --suffix")
        return 0
    ok = True
    for i, suffix in enumerate(args.suffix):
        if i > 0:
            print()
        ok = render(interval_ns, windows, series, suffix,
                    max(8, args.width)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
