#!/bin/sh
# A query the engine cannot evaluate must end scsql_shell with
# "scsql error: ..." on stderr and exit status 1, never an abort or a
# signal: odd/even/fft over a stream of anything but real arrays (with
# every pull one item deep, SCSQ_BATCH_SIZE=1, and at the default
# depth), an operator on a non-number, an integer result past int64 and
# an integer literal past int64.
#
# Usage: tests/shell_bad_query.sh <scsql_shell-binary>
set -u
shell=$1
status=0
check() {
  err=$(printf '%s\n' "$2" | env $1 "$shell" 2>&1 > /dev/null)
  rc=$?
  if [ "$rc" -ne 1 ] || ! printf '%s\n' "$err" | grep -q '^scsql error: '; then
    echo "$1 $2: exit status $rc, stderr: $err"
    status=1
  fi
}
for fn in odd even fft; do
  check SCSQ_BATCH_SIZE=1 "select $fn(gen_array(3,4));"
  check SCSQ_BENCH_QUICK=1 "select $fn(gen_array(3,4));"
done
check "" "select 'a' + 1;"
check "" "select 2 < 'fe';"
check "" "select -'a';"
check "" "select (0-9223372036854775807-1) / -1;"
check "" "select 9223372036854775807+1;"
check "" "select 99999999999999999999999;"
exit $status
