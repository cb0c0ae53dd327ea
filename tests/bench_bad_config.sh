#!/bin/sh
# A bad setting must end a figure bench with an error naming the
# variable and the value, and exit status 1: never an abort, never a
# hang, and never a silent fallback to some other value. The settings
# are resolved before the banner, so no sweep point runs and no worker
# thread is started.
#
# Usage: tests/bench_bad_config.sh <bench-binary>
set -u
bench=$1
status=0
check() {
  name=${1%%=*}
  value=${1#*=}
  err=$(env SCSQ_BENCH_QUICK=1 SCSQ_BENCH_THREADS=2 "$1" timeout 20 "$bench" 2>&1 > /dev/null)
  rc=$?
  if [ "$rc" -ne 1 ] || ! printf '%s\n' "$err" | grep -qF "$name" ||
     ! printf '%s\n' "$err" | grep -qF "'$value'"; then
    echo "$1: exit status $rc, stderr: $err"
    status=1
  fi
}
check SCSQ_BENCH_THREADS=0
check SCSQ_BENCH_THREADS=-1
check SCSQ_BENCH_THREADS=abc
check SCSQ_BENCH_THREADS=2x
check SCSQ_BENCH_THREADS=1025
check SCSQ_SAMPLE_INTERVAL=abc
check SCSQ_SAMPLE_INTERVAL=-1
check "SCSQ_MONITOR=extract(nope)"
check SCSQ_BENCH_QUICK=yes
exit $status
