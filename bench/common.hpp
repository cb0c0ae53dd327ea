// Shared harness for the figure-reproduction benches.
//
// Methodology follows the paper (§3): the bandwidth of a topology is the
// total stream payload divided by the total time to run a finite query,
// and "each experiment was performed five times in order to achieve low
// variance". Simulation runs are deterministic, so the five repetitions
// perturb the cost-model constants by ~1% (seeded) — standing in for the
// run-to-run hardware variation a real measurement would see.
//
// The paper streams 100 x 3 MB arrays per producer. For sub-1KB buffers
// that is hundreds of thousands of simulated messages per run, so the
// workload is scaled down (bandwidth is a steady-state measure and does
// not depend on stream length once past the ramp-up); the scaling is
// printed with each table.
//
// Parallel sweeps: every sweep point runs on its own Simulator with its
// own jittered CostModel, so points are independent and fan out across
// SCSQ_BENCH_THREADS worker threads (default: hardware_concurrency;
// =1 preserves strictly sequential execution). Results are collected in
// point order, so tables are byte-identical regardless of thread count;
// the wall-time/events-per-second harness summary goes to stderr to keep
// stdout comparable.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/scsq.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace scsq::bench {

inline constexpr std::uint64_t kArrayBytes = 3'000'000;  // the paper's 3 MB arrays
inline constexpr int kFullArrays = 100;                  // per producer
inline constexpr int kRepetitions = 5;                   // paper: five runs

/// True when SCSQ_BENCH_QUICK is set: shrink workloads for smoke runs.
bool quick_mode();

/// Sweep worker threads: SCSQ_BENCH_THREADS or hardware_concurrency.
unsigned bench_threads();

/// Number of arrays per producer such that one producer's stream is at
/// most ~200k messages at this buffer size (full size when possible).
int arrays_for_buffer(std::uint64_t buffer_bytes);

/// Perturbs timing constants by ~1% (seeded) to emulate run-to-run
/// hardware variation across repetitions.
hw::CostModel jittered(hw::CostModel cost, std::uint64_t seed);

/// Opt-in capture of observability artifacts from one simulated run:
/// after the run the machine's metrics registry is published and
/// serialized to JSON, and (when want_trace) a Chrome trace is recorded.
/// Capturing happens after sim.run() returns, so timing results and the
/// stdout tables are unaffected.
struct RunCapture {
  bool want_trace = false;       ///< record a Chrome/Perfetto trace of the run
  bool want_profile = false;     ///< capture an EXPLAIN ANALYZE profile JSON
  bool want_timeseries = false;  ///< capture the telemetry sampler's windows
  std::string metrics_json;      ///< registry snapshot (obs JSON export)
  std::string trace_json;        ///< Chrome tracing JSON (when want_trace)
  std::string profile_json;      ///< obs::Profile JSON (when want_profile)
  /// Sampler JSONL, one line per window (empty unless
  /// SCSQ_SAMPLE_INTERVAL armed the sampler for the run).
  std::string timeseries_jsonl;
};

/// Runs one query on a fresh simulated machine; returns Mbit/s of
/// `payload_bytes` over the query's elapsed time. Thread-safe: each call
/// owns its whole simulated environment. `capture`, when non-null, is
/// filled with the run's metrics snapshot (and trace if requested).
double run_query_mbps(const std::string& query, std::uint64_t payload_bytes,
                      const hw::CostModel& cost, std::uint64_t buffer_bytes,
                      int send_buffers, RunCapture* capture = nullptr);

/// Repeats run_query_mbps kRepetitions times with jittered cost models.
/// `capture` applies to the last repetition only (one snapshot per point).
util::Stats repeat_query_mbps(const std::string& query, std::uint64_t payload_bytes,
                              const hw::CostModel& base_cost, std::uint64_t buffer_bytes,
                              int send_buffers, std::uint64_t seed_base,
                              RunCapture* capture = nullptr);

// --- Parallel sweep harness ---

/// One repeat_query_mbps invocation, described as data so a sweep can
/// fan points across threads.
struct QueryPoint {
  std::string query;
  std::uint64_t payload_bytes = 0;
  hw::CostModel cost;
  std::uint64_t buffer_bytes = 0;
  int send_buffers = 1;
  std::uint64_t seed = 0;
};

/// Starts the wall clock / simulated-event accounting for a sweep.
void harness_begin();

/// Prints the harness summary (points, threads, wall seconds, simulated
/// events, events per wall second) for the sweep started by
/// harness_begin. Goes to *stderr*: stdout tables stay byte-identical
/// across thread counts while the perf numbers remain visible.
void harness_end(std::size_t points);

/// Adds externally-run Simulator events to the harness accounting (for
/// benches that drive Scsq directly instead of via run_query_mbps).
void harness_count_events(std::uint64_t events);

/// Full-counter variant: also aggregates wakeups and the peak event-queue
/// depth across sweep points into the harness summary.
void harness_count_perf(const sim::PerfCounters& perf);

/// Maps `fn` over `points` on bench_threads() workers with ordered
/// result collection, bracketed by harness_begin/harness_end.
template <class Point, class Fn>
auto sweep(const std::vector<Point>& points, Fn fn)
    -> std::vector<std::invoke_result_t<Fn&, const Point&>> {
  harness_begin();
  auto results = util::run_sweep(points, std::move(fn), bench_threads());
  harness_end(points.size());
  return results;
}

/// Fans QueryPoints (each = one repeat_query_mbps) across threads;
/// returns Stats in point order.
///
/// Observability side channels (both leave stdout byte-identical):
///  * SCSQ_METRICS_OUT=<path>: appends one JSON-lines record per sweep
///    point — the point's parameters, mean/stdev Mbit/s, and the full
///    metrics-registry snapshot of the point's last repetition (per-link
///    byte counters, frame-latency histograms, per-hop utilization...).
///    The first run_points call of the process truncates the file.
///  * SCSQ_TRACE_OUT=<path>: writes a Chrome/Perfetto trace of the first
///    sweep point's last repetition.
///  * SCSQ_PROFILE_OUT=<path>: appends one JSON-lines record per sweep
///    point — the point's parameters plus the EXPLAIN ANALYZE profile
///    (dataflow nodes/edges, critical path, attribution) of the point's
///    last repetition. First run_points call truncates the file.
///  * SCSQ_TIMESERIES_OUT=<path>: appends the telemetry sampler's
///    windowed time series (obs/sampler.hpp) of each point's last
///    repetition, one JSONL line per window tagged with its point.
///    Requires SCSQ_SAMPLE_INTERVAL to arm the sampler; analyzed by
///    `metrics_diff --timeseries`. First run_points call truncates.
std::vector<util::Stats> run_points(const std::vector<QueryPoint>& points);

// --- Query builders (the paper's SCSQL, parameterized) ---

/// §3.1 point-to-point: a at bg node 1 -> b at bg node 0.
std::string p2p_query(std::uint64_t array_bytes, int arrays);

/// §3.1 stream merging: producers at nodes x and y, consumer at node 0.
/// Sequential placement: (1,2); balanced: (1,4) — Fig. 7.
std::string merge_query(int x, int y, std::uint64_t array_bytes, int arrays);

/// §3.2 inbound Queries 1-6 with n parallel streams.
std::string inbound_query(int query_no, int n, std::uint64_t array_bytes, int arrays);

/// Prints a table header with the standard bench banner.
void print_banner(const char* figure, const char* what);

}  // namespace scsq::bench
