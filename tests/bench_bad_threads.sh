#!/bin/sh
# A bad SCSQ_BENCH_THREADS value must end a figure bench with an error
# naming the variable and the value, and exit status 1, never an abort
# and never a silent fallback to some thread count. The bench stops
# before it runs a sweep point, so no worker thread is started.
#
# Usage: tests/bench_bad_threads.sh <bench-binary>
set -u
bench=$1
status=0
check() {
  err=$(env SCSQ_BENCH_QUICK=1 SCSQ_BENCH_THREADS="$1" "$bench" 2>&1 > /dev/null)
  rc=$?
  if [ "$rc" -ne 1 ] || ! printf '%s\n' "$err" | grep -q "SCSQ_BENCH_THREADS.*'$1'"; then
    echo "SCSQ_BENCH_THREADS=$1: exit status $rc, stderr: $err"
    status=1
  fi
}
check 0
check -1
check abc
check 2x
check 1025
exit $status
