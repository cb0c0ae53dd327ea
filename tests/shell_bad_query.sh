#!/bin/sh
# A query that applies odd/even/fft to a stream of anything but real
# arrays must end scsql_shell with "scsql error: ..." on stderr and exit
# status 1, never an abort, both with every pull one item deep
# (SCSQ_BATCH_SIZE=1) and at the default depth.
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
exit $status
