#!/usr/bin/env bash
# Line coverage of src/, split by what runs each line: the paper artifacts
# (the 18 benches and 5 examples at their CI arguments, and the three
# perfbench workloads at seed 1), the tests only, or nothing.
#
#   tools/coverage_map.sh [out-file]
#
# Makes a gcc --coverage -O1 build of the repository in a temporary
# directory and runs every artifact there, reading the counts with gcov;
# then runs ctest and reads them again. Prints per src/ module how many
# instrumented lines the artifacts run, how many only the tests run and
# how many run nowhere, then every src/ function only the tests run.
# Writes the same text to out-file when one is given. Needs g++ and the
# gcov of the same version; JOBS (default 4) sets the build parallelism.
#
# perfbench_fleet ends in std::_Exit, which skips the exit handler that
# writes the counts, so the script builds a temporary copy of
# perfbench/fleet.cc that calls __gcov_dump() first. perfbench/ itself is
# never edited.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
out_file=${1:-}
if [[ -n "$out_file" ]]; then out_file=$(realpath -m "$out_file"); fi
jobs=${JOBS:-4}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

configure() {  # configure <source-dir> <build-dir>
  cmake -S "$1" -B "$2" -DCMAKE_CXX_COMPILER=g++ \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g -DNDEBUG" \
    -DCMAKE_CXX_FLAGS="--coverage -fprofile-update=atomic" \
    -DCMAKE_EXE_LINKER_FLAGS="--coverage" > /dev/null
}

echo "building the tree with --coverage in $work" >&2
configure "$repo" "$work/build"
cmake --build "$work/build" -j "$jobs" > /dev/null

# The benchmark's copy: its CMakeLists.txt finds the sources at ../src.
mkdir "$work/perfbench"
ln -s "$repo/src" "$work/src"
cp "$repo"/perfbench/CMakeLists.txt "$repo"/perfbench/sampler.* \
  "$work/perfbench/"
{
  echo 'extern "C" void __gcov_dump(void);'
  sed 's/std::_Exit(/__gcov_dump(); std::_Exit(/' "$repo/perfbench/fleet.cc"
} > "$work/perfbench/fleet.cc"
grep -q '__gcov_dump(); std::_Exit(' "$work/perfbench/fleet.cc" || {
  echo "perfbench/fleet.cc no longer ends in std::_Exit" >&2
  exit 1
}
configure "$work/perfbench" "$work/pbuild"
cmake --build "$work/pbuild" --target perfbench_fleet -j "$jobs" > /dev/null

# An artifact whose own gate fails still counts as run.
run() {
  echo "running $*" >&2
  "$@" > /dev/null 2>&1 || echo "  (exited $?)" >&2
}
mkdir "$work/run"
cd "$work/run"
bench="$work/build/bench"
for b in bench_fig3_4_availability bench_sec3_2_availability_table \
    bench_fig3_1_3_3_recovery bench_sec4_1_capacity \
    bench_sec5_6_remote_vs_local bench_sec5_2_splitting \
    bench_appendix1_idgen bench_sec5_4_load_assignment \
    bench_sec5_3_space_management bench_init_wait_time \
    bench_group_commit_ablation bench_sec4_1_measured_capacity; do
  run "$bench/$b"
done
run "$bench/bench_append_forest"
run "$bench/bench_engine_throughput" 500000 100
run "$bench/bench_e10_simulated_availability" 2000 1
run "$bench/bench_e10_simulated_availability" 2000 4
run "$bench/bench_e16_overload_sweep" 10 1
run "$bench/bench_e16_overload_sweep" 10 4
run "$bench/bench_e17_scale" 400 10 2
run "$bench/bench_e18_health" 24 6 15
for e in quickstart bank_recovery availability_explorer workstation_cluster \
    optical_archive; do
  run "$work/build/examples/$e"
done
for w in steady overload recovery; do
  run "$work/pbuild/perfbench_fleet" --workload "$w" --seed 1 --trace 0
done

# gcov's JSON for every object of the given build trees, one document per
# line. Objects that never ran have no .gcda; their .gcno still lists
# their lines, with zero counts.
collect() {  # collect <out> <build-dir>...
  local out=$1
  shift
  find "$@" -name '*.gcno' | sort | while read -r gcno; do
    (cd "$(dirname "$gcno")" &&
      gcov --json-format --stdout "$(basename "$gcno")" 2> /dev/null)
  done > "$out"
}
echo "reading the artifacts' counts" >&2
collect "$work/artifacts.json" "$work/build" "$work/pbuild"
echo "running ctest" >&2
ctest --test-dir "$work/build" -j "$jobs" > /dev/null ||
  echo "  (some tests failed)" >&2
echo "reading the counts with the tests'" >&2
collect "$work/all.json" "$work/build" "$work/pbuild"

python3 - "$repo/src" "$work/artifacts.json" "$work/all.json" \
  "$(g++ -dumpfullversion)" <<'EOF' | tee ${out_file:+"$out_file"}
import collections
import json
import os
import sys

src = os.path.realpath(sys.argv[1]) + os.sep


names = {}


def load(path):
    """(file, line) -> count for every line and for every function's first
    line, src/ files only, summed over every object that compiles them and
    every template instantiation."""
    lines = collections.Counter()
    funcs = collections.Counter()
    decoder = json.JSONDecoder()
    with open(path) as f:
        for text in f:
            text = text.strip()
            while text:
                doc, end = decoder.raw_decode(text)
                text = text[end:].lstrip()
                cwd = doc.get("current_working_directory", "")
                for entry in doc["files"]:
                    p = os.path.realpath(os.path.join(cwd, entry["file"]))
                    if not p.startswith(src):
                        continue
                    rel = p[len(src):]
                    for line in entry["lines"]:
                        lines[(rel, line["line_number"])] += line["count"]
                    for fn in entry["functions"]:
                        key = (rel, fn["start_line"])
                        funcs[key] += fn["execution_count"]
                        name = fn["demangled_name"]
                        if key not in names or len(name) < len(names[key]):
                            names[key] = name
    return lines, funcs


art_lines, art_funcs = load(sys.argv[2])
all_lines, all_funcs = load(sys.argv[3])

rows = collections.defaultdict(lambda: [0, 0, 0])
for key, count in all_lines.items():
    module = key[0].split(os.sep)[0]
    if art_lines[key] > 0:
        rows[module][0] += 1
    elif count > 0:
        rows[module][1] += 1
    else:
        rows[module][2] += 1

print(f"src/ line coverage by what runs it (g++ {sys.argv[4]} "
      "--coverage -O1)")
print(f"{'module':10} {'artifacts':>10} {'tests-only':>11} "
      f"{'never-run':>10} {'lines':>7}")
total = [0, 0, 0]
for module in sorted(rows):
    r = rows[module]
    total = [a + b for a, b in zip(total, r)]
    print(f"{module:10} {r[0]:10} {r[1]:11} {r[2]:10} {sum(r):7}")
n = sum(total)
print(f"{'total':10} {total[0]:10} {total[1]:11} {total[2]:10} {n:7}")
print(f"{'share':10} {total[0] / n:10.1%} {total[1] / n:11.1%} "
      f"{total[2] / n:10.1%}")

print("\nfunctions only the tests run (file:line function):")
for key in sorted(all_funcs):
    if all_funcs[key] > 0 and art_funcs[key] == 0:
        print(f"  {key[0]}:{key[1]} {names[key]}")
EOF
