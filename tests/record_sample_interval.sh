#!/bin/sh
# A resolved SCSQ_SAMPLE_INTERVAL reaches every engine a bench builds:
# those of run_points and those that ablate_smartsel and linear_road
# build themselves. Every sweep point leaves window lines in the run
# record, and the table stays the golden one.
#
# Usage: tests/record_sample_interval.sh <golden-dir> <bench-binary>...
set -u
golden_dir=$1
shift
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0
for bench in "$@"; do
  table=$golden_dir/$(basename "$bench" | sed 's/^bench_//').txt
  env -u SCSQ_BENCH_THREADS SCSQ_BENCH_QUICK=1 SCSQ_SAMPLE_INTERVAL=0.05 \
    SCSQ_RECORD="$dir/record.jsonl" timeout 120 "$bench" > "$dir/table.txt" 2> /dev/null
  rc=$?
  points=$(sed -n 's/^{"kind":"harness","points":\([0-9]*\),.*/\1/p' "$dir/record.jsonl")
  sampled=$(sed -n 's/^{"kind":"window","point":\([0-9]*\),.*/\1/p' "$dir/record.jsonl" |
            sort -un | wc -l)
  if [ "$rc" -ne 0 ] || ! cmp -s "$dir/table.txt" "$table" ||
     [ -z "$points" ] || [ "$sampled" -ne "$points" ]; then
    echo "$(basename "$bench"): exit status $rc, ${points:-no} sweep points," \
         "$sampled of them with window lines"
    status=1
  fi
done
exit $status
