#!/usr/bin/env bash
# CI smoke pass: build, run the unit/integration tests, then run every
# bench in quick mode with two sweep worker threads so the parallel
# harness path is exercised on every change.
#
# Usage: tools/ci_smoke.sh [build-dir]     (default: build)
# Env:   SCSQ_TSAN=1 adds -DSCSQ_TSAN=ON (ThreadSanitizer build).
#        SCSQ_ASAN=1 adds -DSCSQ_ASAN=ON (AddressSanitizer + UBSan build;
#        the pooled frame/marshal data plane recycles buffers
#        aggressively, so transport tests under ASAN guard against
#        use-after-recycle).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
CMAKE_ARGS=()
if [[ "${SCSQ_TSAN:-0}" == "1" ]]; then
  CMAKE_ARGS+=(-DSCSQ_TSAN=ON)
fi
if [[ "${SCSQ_ASAN:-0}" == "1" ]]; then
  CMAKE_ARGS+=(-DSCSQ_ASAN=ON)
fi

cmake -B "$BUILD" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD" -j"$(nproc)"
(cd "$BUILD" && ctest --output-on-failure -j"$(nproc)")

export SCSQ_BENCH_QUICK=1
export SCSQ_BENCH_THREADS=2

TMPD=$(mktemp -d)
trap 'rm -rf "$TMPD"' EXIT

# check_record RECORD — metrics_diff --record must validate RECORD (the
# script stops on its exit status); its report is left in RECORD.summary.
check_record() {
  "$BUILD/tools/metrics_diff" --record "$1" > "$1.summary" || {
    cat "$1.summary"; echo "metrics_diff --record rejected $1"; exit 1; }
}

# record_count RECORD KIND — the number of KIND lines in a checked record.
record_count() {
  tail -n 1 "$1.summary" | sed -n "s/.* \([0-9]*\) $2.*/\1/p"
}

# Every bench with the run record on: its table must still be the golden
# one (tables do not depend on the thread count), and the record must
# validate.
for b in fig6_p2p fig8_merge fig15_inbound \
         ablate_coproc ablate_dblbuf ablate_nodesel ablate_smartsel \
         linear_road; do
  echo "== bench_$b (quick, 2 threads, run record) =="
  SCSQ_RECORD="$TMPD/$b.jsonl" "$BUILD/bench/bench_$b" > "$TMPD/$b.txt"
  cmp "$TMPD/$b.txt" "tests/golden/$b.txt" || {
    echo "bench_$b table differs from tests/golden/$b.txt with SCSQ_RECORD set"; exit 1; }
  check_record "$TMPD/$b.jsonl"
  echo "   $(tail -n 1 "$TMPD/$b.jsonl.summary")"
done

# Kernel microbenchmarks: one fast shot each, just to prove they run.
"$BUILD/bench/bench_kernels" --benchmark_filter='BM_(SimulatorEventThroughput|WaitQueueWakeup|ChannelPingPong)' > /dev/null

# Shell smoke: trace + record + \metrics snapshot on a tiny query; the
# trace must be valid JSON, the record must validate with the statement's
# profile line, and \metrics must print its sections.
echo "== scsql_shell trace + record + metrics =="
echo "select extract(b) from sp a, sp b
 where b=sp(streamof(count(extract(a))),'bg',0)
 and a=sp(gen_array(100000,2),'bg',1);
\\metrics" | SCSQ_TRACE="$TMPD/shell_trace.json" SCSQ_RECORD="$TMPD/shell.jsonl" \
  "$BUILD/tools/scsql_shell" > "$TMPD/shell_out.txt"
# The trace export is hand-rolled: the whole document must be valid JSON.
python3 -m json.tool "$TMPD/shell_trace.json" > /dev/null
check_record "$TMPD/shell.jsonl"
[[ "$(record_count "$TMPD/shell.jsonl" "profile")" == "1" ]] || {
  echo "shell record lacks the statement's profile"; exit 1; }
grep -q '# TYPE' "$TMPD/shell_out.txt" || { echo "missing \\metrics output"; exit 1; }

# Profiler smoke: the record run above must leave bench stdout
# byte-identical to a run without it, and hold the attribution
# invariant (attributed seconds sum to elapsed) for every sweep point.
echo "== bench_fig6_p2p profiles in the run record =="
"$BUILD/bench/bench_fig6_p2p" > "$TMPD/fig6_plain.txt" 2> /dev/null
cmp "$TMPD/fig6_plain.txt" "$TMPD/fig6_p2p.txt" || {
  echo "SCSQ_RECORD changed bench stdout"; exit 1; }
echo "   $(record_count "$TMPD/fig6_p2p.jsonl" "profile") profiles hold the attribution" \
     "invariant, stdout byte-identical"

# Shell EXPLAIN ANALYZE smoke on the Fig. 8 merge query: the report must
# show the plan tree, a critical path, and a 100% attribution total.
echo "== scsql_shell explain analyze =="
echo "\\explain analyze select extract(c) from sp a, sp b, sp c
 where c=sp(count(merge({a,b})), 'bg',0)
 and a=sp(gen_array(100000,2),'bg',1)
 and b=sp(gen_array(100000,2),'bg',2);" \
  | "$BUILD/tools/scsql_shell" > "$TMPD/explain_out.txt"
grep -q 'EXPLAIN ANALYZE' "$TMPD/explain_out.txt" || { echo "missing EXPLAIN ANALYZE header"; exit 1; }
grep -q 'critical path:' "$TMPD/explain_out.txt" || { echo "missing critical path"; exit 1; }
grep -Eq 'total +.* 100\.0%' "$TMPD/explain_out.txt" || { echo "attribution does not total 100%"; exit 1; }

# Data-plane microbenchmarks: marshal round-trips and the frame cutter
# must at least run to completion on every change (pool + flat writer
# smoke; perf is tracked separately via BENCH_kernels.json).
echo "== bench_kernels marshal/frame smoke =="
"$BUILD/bench/bench_kernels" --benchmark_filter='BM_(MarshalRoundTrip|FrameCutterCut|FramePoolRecycle)' > /dev/null

# Telemetry-sampler smoke: arming SCSQ_SAMPLE_INTERVAL must leave bench
# stdout byte-identical (the sampler's zero-duration ticks may not
# perturb a single simulated second), the record's windows must validate,
# and metrics_diff --record must hold its exit-code contract: 0 on a
# clean analyze and on a self-diff, 1 on an injected steady-rate
# regression.
echo "== telemetry sampler windows in the run record =="
SCSQ_SAMPLE_INTERVAL=0.05 SCSQ_RECORD="$TMPD/fig6_ts.jsonl" \
  "$BUILD/bench/bench_fig6_p2p" 2> /dev/null > "$TMPD/fig6_sampled.txt"
cmp "$TMPD/fig6_plain.txt" "$TMPD/fig6_sampled.txt" || {
  echo "SCSQ_SAMPLE_INTERVAL changed bench stdout"; exit 1; }
check_record "$TMPD/fig6_ts.jsonl"
"$BUILD/tools/metrics_diff" --record "$TMPD/fig6_ts.jsonl" "$TMPD/fig6_ts.jsonl" > /dev/null
echo "   stdout byte-identical sampler on/off;" \
     "$(record_count "$TMPD/fig6_ts.jsonl" "window") windows validated"
cat > "$TMPD/ts_seed.jsonl" <<'EOF'
{"kind":"header","settings":{}}
{"kind":"window","point":0,"window":0,"t_start":0,"t_end":1,"counters":{"transport.link.bytes{src=a}":{"delta":1000,"rate":1000}}}
{"kind":"window","point":0,"window":1,"t_start":1,"t_end":2,"counters":{"transport.link.bytes{src=a}":{"delta":1000,"rate":1000}}}
{"kind":"window","point":0,"window":2,"t_start":2,"t_end":3,"counters":{"transport.link.bytes{src=a}":{"delta":1000,"rate":1000}}}
EOF
sed 's/1000/400/g' "$TMPD/ts_seed.jsonl" > "$TMPD/ts_regressed.jsonl"
rc=0
"$BUILD/tools/metrics_diff" --record \
  "$TMPD/ts_seed.jsonl" "$TMPD/ts_regressed.jsonl" > /dev/null || rc=$?
[[ "$rc" == "1" ]] || { echo "injected steady-rate regression not flagged (exit $rc)"; exit 1; }
echo "   --record: clean analyze + self-diff exit 0, injected regression exit 1"

# Introspection-monitor smoke: a continuous SCSQL threshold monitor over
# system.metrics must (a) leave bench stdout byte-identical — monitors
# run as zero-duration read-only callbacks at sampler window boundaries
# (DESIGN.md §5.8), (b) leave at least one alert line in the run record,
# and (c) every alert line must be complete under metrics_diff --record.
echo "== introspection monitor alerts in the run record =="
MONITOR_Q="above(sum(system.rates('transport.link.bytes')), 1)"
SCSQ_SAMPLE_INTERVAL=0.05 SCSQ_MONITOR="$MONITOR_Q" SCSQ_RECORD="$TMPD/fig6_mon.jsonl" \
  "$BUILD/bench/bench_fig6_p2p" 2> /dev/null > "$TMPD/fig6_monitored.txt"
cmp "$TMPD/fig6_plain.txt" "$TMPD/fig6_monitored.txt" || {
  echo "SCSQ_MONITOR changed bench stdout"; exit 1; }
check_record "$TMPD/fig6_mon.jsonl"
alerts=$(record_count "$TMPD/fig6_mon.jsonl" "alert")
[[ "${alerts:-0}" -ge 1 ]] || { echo "monitor left no alert in the record"; exit 1; }
grep '^monitor ' "$TMPD/fig6_mon.jsonl.summary"
echo "   stdout byte-identical monitor on/off; $alerts alert(s) validated"

# TSAN pass over the code that still starts threads: the thread pool
# and parallel sweep helpers, the sweep harness (one Simulator per
# worker, shared coroutine-frame chunk registry) and the run record
# under a 4-thread sweep. Skipped when the toolchain
# cannot link a trivial -fsanitize=thread program.
if echo 'int main(){}' | c++ -x c++ -fsanitize=thread -o /dev/null - 2> /dev/null; then
  echo "== util_test + sweep_test + obs_stress_test under ThreadSanitizer =="
  cmake -B "$BUILD-tsan" -S . -DSCSQ_TSAN=ON > /dev/null
  cmake --build "$BUILD-tsan" -j"$(nproc)" \
    --target util_test sweep_test obs_stress_test > /dev/null
  "$BUILD-tsan/tests/util_test"
  "$BUILD-tsan/tests/sweep_test"
  "$BUILD-tsan/tests/obs_stress_test"
else
  echo "== skipping TSAN pass (toolchain lacks ThreadSanitizer) =="
fi

# ASAN + UBSan pass over the transport tests: the pooled frame/marshal
# data plane recycles buffers aggressively, so guard against use-after-
# recycle and buffer overruns; UBSan stops at the first undefined
# operation (signed overflow, a bad shift or cast). Skipped when the
# toolchain cannot link a trivial program with both sanitizers (e.g.
# libasan or libubsan not installed).
if echo 'int main(){}' | c++ -x c++ -fsanitize=address,undefined -o /dev/null - 2> /dev/null; then
  echo "== transport_test + sim, net and shell checks under AddressSanitizer + UBSan =="
  cmake -B "$BUILD-asan" -S . -DSCSQ_ASAN=ON > /dev/null
  cmake --build "$BUILD-asan" -j"$(nproc)" \
    --target transport_test monitor_test \
    sim_queue_fuzz_test properties_test sim_test net_test bench_fig6_p2p \
    bench_fig8_merge bench_fig15_inbound features_test scsql_shell > /dev/null
  "$BUILD-asan/tests/transport_test"
  # Channel waits and Resource::use() park the awaiter itself (no
  # coroutine frame), and torus messages run on compiled paths that the
  # links own: the kernel and network suites check their lifetimes.
  "$BUILD-asan/tests/sim_test"
  "$BUILD-asan/tests/net_test"
  # Fig. 6 waits on a channel twice per torus message, so it wakes more
  # parked awaiters than any other bench; its quick table must still
  # match the golden copy.
  tests/golden/check.sh "$BUILD-asan/bench/bench_fig6_p2p" tests/golden/fig6_p2p.txt
  # Fig. 8 routes through an intermediate co-processor (multi-hop
  # compiled paths) and contends for it (the queued use() path); its
  # quick table must still match the golden copy.
  tests/golden/check.sh "$BUILD-asan/bench/bench_fig8_merge" tests/golden/fig8_merge.txt
  # Fig. 15 is the one run where pipelined TCP links, their delivery
  # callbacks (which carry raw pool-owned frame handles) and the pool
  # meet; its quick table must match the golden copy too.
  tests/golden/check.sh "$BUILD-asan/bench/bench_fig15_inbound" tests/golden/fig15_inbound.txt
  # Stopped queries drop in-flight frames on closed inboxes; the pool
  # keeps owning them, so teardown must stay clean under LeakSanitizer.
  "$BUILD-asan/tests/features_test" --gtest_filter='Stop.*'
  # Pending-event-set fuzz + the zero-alloc frame-pool property under
  # ASAN/LSAN: heap and slab reuse across reset() and coroutine-frame
  # reuse must be clean (no use-after-recycle, no leaked chunks at exit).
  "$BUILD-asan/tests/sim_queue_fuzz_test"
  "$BUILD-asan/tests/properties_test" --gtest_filter='CoroPool.*'
  # Operators, aggregates and numeric builtins on non-numbers, int64
  # overflow and out-of-range literals are scsql errors, and the checked
  # arithmetic itself is UB-free.
  sh tests/shell_bad_query.sh "$BUILD-asan/tools/scsql_shell"
  # Monitor plans are driven by manual coroutine resumption (release/
  # resume/destroy); run the monitor suite under ASAN to catch frame
  # lifetime mistakes.
  "$BUILD-asan/tests/monitor_test"
else
  echo "== skipping ASAN + UBSan pass (toolchain lacks AddressSanitizer or UBSan) =="
fi

# Bench baseline self-check: committed "new" numbers must not regress
# more than 20% against their recorded seeds.
"$BUILD/tools/metrics_diff" --check BENCH_kernels.json

# The repository benchmark (BENCHMARK.json): builds perfbench into
# .bench_build/ and checks, per workload and mode at the small size, that
# the last line is a result carrying every metric BENCHMARK.json names.
# A per-layer metric whose registry names are gone would drop out of the
# traced result without an error; this catches it.
echo "== perfbench self-test =="
python3 perfbench/selftest.py

echo "ci_smoke: OK"
