#!/usr/bin/env bash
# Byte-identity gate for the paper artifacts that report on stdout: E1-E5,
# E7-E9, E11-E13 and E15, the five examples, the BENCH_E4.json and
# BENCH_E5.json reports E4 and E5 also write, and E15's Chrome trace
# (E15_trace.json). E15's stdout holds the critical-path table and the
# trace-invariant summary, so with its trace it pins every obs text
# writer that no BENCH_*.json report carries. Each is a pure function of
# its fixed inputs, so each must match its committed baseline byte for
# byte. E6 prints wall-clock timings and is left out.
#
#   tools/stdout_gate.sh [build-dir] [baseline-dir]
#
# Defaults: build and bench/baselines/stdout. Runs every program in a
# fresh temporary directory, names each artifact that differs from its
# baseline (or whose program fails) and exits 1 if there is one.
set -u

build=$(realpath "${1:-build}")
baselines=$(realpath "${2:-bench/baselines/stdout}")

benches="bench_fig3_4_availability bench_sec3_2_availability_table
  bench_fig3_1_3_3_recovery bench_sec4_1_capacity
  bench_sec5_6_remote_vs_local bench_sec5_2_splitting bench_appendix1_idgen
  bench_sec5_4_load_assignment bench_sec5_3_space_management
  bench_init_wait_time bench_group_commit_ablation
  bench_sec4_1_measured_capacity"
examples="quickstart bank_recovery availability_explorer workstation_cluster
  optical_archive"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
cd "$out" || exit 1

status=0
checked=0
check() {
  checked=$((checked + 1))
  if ! cmp "$baselines/$1" "$1"; then
    echo "DIFFERS: $1"
    status=1
  fi
}
run() {
  if ! "$1" > "$2"; then
    echo "FAILED: $1"
    status=1
  fi
  check "$2"
}

for b in $benches; do run "$build/bench/$b" "$b.txt"; done
for e in $examples; do run "$build/examples/$e" "$e.txt"; done
check BENCH_E4.json
check BENCH_E5.json
check E15_trace.json

if [ "$status" -eq 0 ]; then
  echo "all $checked stdout artifacts match $baselines"
fi
exit "$status"
