#!/bin/sh
# A resolved SCSQ_BATCH_SIZE reaches every engine a bench builds: those
# of run_points and those that ablate_smartsel and linear_road build
# themselves. The harness line of the run record reports the depth the
# sweep's engines ran at, and the table stays the golden one.
#
# Usage: tests/record_batch_size.sh <golden-dir> <bench-binary>...
set -u
golden_dir=$1
shift
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0
for bench in "$@"; do
  table=$golden_dir/$(basename "$bench" | sed 's/^bench_//').txt
  for depth in 1 256; do
    env -u SCSQ_BENCH_THREADS SCSQ_BENCH_QUICK=1 SCSQ_BATCH_SIZE=$depth \
      SCSQ_RECORD="$dir/record.jsonl" timeout 120 "$bench" > "$dir/table.txt" 2> /dev/null
    rc=$?
    if [ "$rc" -ne 0 ] || ! cmp -s "$dir/table.txt" "$table" ||
       ! grep -q "\"kind\":\"harness\",.*\"batch_size\":$depth}" "$dir/record.jsonl"; then
      echo "$(basename "$bench") at SCSQ_BATCH_SIZE=$depth: exit status $rc," \
           "harness line: $(grep '"kind":"harness"' "$dir/record.jsonl")"
      status=1
    fi
  done
done
exit $status
