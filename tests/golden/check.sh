#!/bin/sh
# Reruns one figure bench in quick mode on all cores and compares its
# stdout byte for byte with the committed table.
#
# Usage: tests/golden/check.sh <bench-binary> <golden-table>
# Refresh a table (only when a change is meant to move the figures):
#   SCSQ_BENCH_QUICK=1 build/bench/bench_fig6_p2p > tests/golden/fig6_p2p.txt
set -eu
out=$(mktemp)
trap 'rm -f "$out"' EXIT
env -u SCSQ_BENCH_THREADS SCSQ_BENCH_QUICK=1 "$1" > "$out" 2> /dev/null
if ! cmp -s "$out" "$2"; then
  echo "$(basename "$1") quick-mode table differs from $2:"
  diff "$2" "$out" || true
  exit 1
fi
