#!/bin/sh
# A bad setting must end scsql_shell with "scsql error: ..." on stderr
# and exit status 1, never an abort, a hang, or a run with a value it was
# not given. The error names the variable and the value. A bad \watch
# interval prints the usage line and leaves sampling off. Every probe
# runs under `timeout`, so a sample interval that stops the clock fails
# the test instead of hanging it.
#
# Usage: tests/shell_bad_config.sh <scsql_shell-binary>
set -u
shell=$1
query="select extract(b) from sp a, sp b
 where b=sp(streamof(count(extract(a))),'bg',0)
 and a=sp(gen_array(1000,2),'bg',1);"
status=0
check() {
  err=$(printf '%s\n' "$query" | env "$1" timeout 20 "$shell" 2>&1 > /dev/null)
  rc=$?
  if [ "$rc" -ne 1 ] ||
     ! printf '%s\n' "$err" | grep -q "^scsql error: .*${1%%=*}.*'${1#*=}'"; then
    echo "$1: exit status $rc, stderr: $err"
    status=1
  fi
}
check SCSQ_BUFFER_BYTES=0
check SCSQ_SEND_BUFFERS=0
check SCSQ_SAMPLE_INTERVAL=abc
check SCSQ_BUFFER_BYTES=64k
check SCSQ_BUFFER_BYTES=-1
check SCSQ_SEND_BUFFERS=4294967297
check SCSQ_MAX_RESULTS=abc
check SCSQ_SMART_SELECT=yes
check SCSQ_SAMPLE_INTERVAL=nan
check SCSQ_SAMPLE_INTERVAL=inf
check SCSQ_SAMPLE_INTERVAL=1e-300
out=$(printf '\\watch 1e-300\n%s\n' "$query" | timeout 20 "$shell" 2>&1)
rc=$?
if [ "$rc" -ne 0 ] || ! printf '%s\n' "$out" | grep -q '^-- usage: \\watch' ||
   printf '%s\n' "$out" | grep -q '^-- watch'; then
  echo "\\watch 1e-300: exit status $rc, output: $out"
  status=1
fi
exit $status
