#!/bin/sh
# The run record of a quick Fig. 8 sweep with the sampler and a monitor
# on: stdout must still be the golden table byte for byte, and
# `metrics_diff --record` must validate the record and find at least one
# window, at least one alert, and one metrics and one profile line per
# sweep point.
#
# Usage: tests/record_fig8.sh <bench_fig8_merge> <metrics_diff> <golden-table>
set -u
bench=$1
metrics_diff=$2
golden=$3
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0
fail() {
  echo "$1"
  status=1
}
env -u SCSQ_BENCH_THREADS SCSQ_BENCH_QUICK=1 SCSQ_RECORD="$dir/record.jsonl" \
  SCSQ_SAMPLE_INTERVAL=0.05 \
  SCSQ_MONITOR="above(sum(system.rates('transport.link.bytes')), 1)" \
  timeout 120 "$bench" > "$dir/table.txt" 2> /dev/null || fail "bench exit status $?"
cmp -s "$dir/table.txt" "$golden" || fail "stdout differs from $golden with the record on"
"$metrics_diff" --record "$dir/record.jsonl" > "$dir/report.txt"
rc=$?
summary=$(tail -n 1 "$dir/report.txt")
[ "$rc" -eq 0 ] || fail "metrics_diff --record exit status $rc $(grep '^VIOLATION' "$dir/report.txt")"
points=$(sed -n 's/.*"kind":"harness","points":\([0-9]*\).*/\1/p' "$dir/record.jsonl")
metrics=$(printf '%s\n' "$summary" | sed -n 's/.*: \([0-9]*\) metrics, .*/\1/p')
profiles=$(printf '%s\n' "$summary" | sed -n 's/.* \([0-9]*\) profile(s), .*/\1/p')
windows=$(printf '%s\n' "$summary" | sed -n 's/.* \([0-9]*\) window(s), .*/\1/p')
alerts=$(printf '%s\n' "$summary" | sed -n 's/.* \([0-9]*\) alert(s), .*/\1/p')
[ -n "$points" ] && [ "$points" -gt 0 ] || fail "no harness line with a point count"
[ "${metrics:-x}" = "$points" ] || fail "$metrics metrics lines for $points points"
[ "${profiles:-x}" = "$points" ] || fail "$profiles profiles for $points points"
[ "${windows:-0}" -ge 1 ] || fail "no window in the record"
[ "${alerts:-0}" -ge 1 ] || fail "no alert in the record"
[ "$status" -eq 0 ] || echo "summary: $summary"
exit $status
