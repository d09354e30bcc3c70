#!/usr/bin/env bash
# Pins E17's end-state hash: the hash on the `plain` row that
# bench_e17_scale prints must equal the committed one. The hash covers
# every client's committed/failed/shed counts and every server's records
# written, so a change that keeps behaviour keeps it.
#
#   tools/e17_hash_gate.sh <e17-stdout> [baseline]
#
# <e17-stdout> is the captured stdout of `bench_e17_scale 400 10 2`; the
# baseline defaults to bench/baselines/E17_HASH_400_10_2.txt. Exits 1,
# naming both hashes, if they differ or no plain row is found.
set -u

got=$(awk '$1 == "plain" { print $NF }' "$1")
want=$(cat "${2:-bench/baselines/E17_HASH_400_10_2.txt}")
if [ -z "$got" ] || [ "$got" != "$want" ]; then
  echo "E17 end-state hash ${got:-(no plain row)} differs from baseline $want"
  exit 1
fi
echo "E17 end-state hash $got matches the baseline"
