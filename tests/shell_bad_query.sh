#!/bin/sh
# A query the engine cannot evaluate must end scsql_shell with
# "scsql error: <line>:<column>: ..." on stderr and exit status 1, never
# an abort or a signal: odd/even/fft over a stream of anything but real
# arrays, an operator, aggregate or numeric builtin on a non-number, an
# integer result past int64, and a literal out of range.
#
# Usage: tests/shell_bad_query.sh <scsql_shell-binary>
set -u
shell=$1
status=0
check() {
  err=$(printf '%s\n' "$1" | "$shell" 2>&1 > /dev/null)
  rc=$?
  if [ "$rc" -ne 1 ] || ! printf '%s\n' "$err" | grep -q '^scsql error: [0-9]*:[0-9]*: '; then
    echo "$1: exit status $rc, stderr: $err"
    status=1
  fi
}
for fn in odd even fft; do
  check "select $fn(gen_array(3,4));"
done
check "select 'a' + 1;"
check "select 2 < 'fe';"
check "select -'a';"
check "select (0-9223372036854775807-1) / -1;"
check "select 9223372036854775807+1;"
check "select 99999999999999999999999;"
check "select sum((3 != 100));"
check "select sum(streamof('a'));"
check "select abs(cwindow('pulsar',2));"
check "select sqrtv(streamof('x'));"
check "select bagsum(cwindow(streamof('a'),1));"
check "select sum(merge({sp(streamof(9223372036854775807),'be'), sp(streamof(1),'be')}));"
check "select 1e999;"
check "select 1e999 - 1e999;"
exit $status
