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
//
// Settings: every bench calls configure_from_env() first, which
// resolves the SCSQ_* variables once (exec/config.hpp). The benches
// honor SCSQ_BENCH_QUICK, SCSQ_BENCH_THREADS, SCSQ_SAMPLE_INTERVAL,
// SCSQ_MONITOR, SCSQ_TRACE and SCSQ_RECORD; buffer
// sizes, send buffers and node selection are sweep axes, never read
// from the environment. Every engine a bench runs is built from
// run_config and run by run_points or run_query, so each of those
// settings reaches every run.
#pragma once

#include <cstdio>
#include <functional>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "core/scsq.hpp"
#include "exec/config.hpp"
#include "exec/record.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace scsq::bench {

inline constexpr std::uint64_t kArrayBytes = 3'000'000;  // the paper's 3 MB arrays
inline constexpr int kFullArrays = 100;                  // per producer
inline constexpr int kRepetitions = 5;                   // paper: five runs

/// This process's settings: what configure() installed, else the
/// defaults (full-size workloads, one sweep thread, nothing recorded).
const exec::Settings& settings();

/// Installs `s` as this process's settings and, when s.record_path is
/// set, opens the run record (exec::open_record). Throws scsql::Error when
/// s.monitor is not a valid monitor or the record cannot be opened.
void configure(exec::Settings s);

/// configure(exec::from_env()). A bad setting prints an error naming the
/// variable and the value and exits 1. Every bench calls this first,
/// so a rejected setting stops it before the banner and any sweep.
void configure_from_env();

/// The engine configuration of one bench run: `cost`, plus the resolved
/// SCSQ_SAMPLE_INTERVAL. Every engine a bench builds starts from this.
ScsqConfig run_config(const hw::CostModel& cost);

/// Number of arrays per producer such that one producer's stream is at
/// most ~200k messages at this buffer size (full size when possible).
int arrays_for_buffer(std::uint64_t buffer_bytes);

/// Perturbs timing constants by ~1% (seeded) to emulate run-to-run
/// hardware variation across repetitions.
hw::CostModel jittered(hw::CostModel cost, std::uint64_t seed);

/// Runs `query` on a fresh Scsq built from `cfg` (start it from
/// run_config) and returns the report, the way run_points runs each
/// repetition: the SCSQ_MONITOR query, when set, watches the run, and
/// the run counts in the sweep's harness summary. Inside a sweep() point,
/// `keep` marks the point's last run: the run record keeps that run for
/// the point (its metrics line, with `fields`, then its profile, window
/// and alert lines), and SCSQ_TRACE traces the first point's.
exec::RunReport run_query(const ScsqConfig& cfg, const std::string& query, bool keep,
                          std::initializer_list<exec::Field> fields = {});

// --- Parallel sweep harness ---

/// One point of a run_points sweep, described as data so a sweep can
/// fan points across threads.
struct QueryPoint {
  std::string query;
  std::uint64_t payload_bytes = 0;
  hw::CostModel cost;
  std::uint64_t buffer_bytes = 0;
  int send_buffers = 1;
  std::uint64_t seed = 0;
};

namespace detail {

/// Runs run(i) for every point i of a sweep of `points` points on
/// settings().threads workers, each as that sweep point: the run it keeps
/// (run_query, run_points) becomes the point's record lines, and an
/// scsql::Error it throws stops the point. Then, having read the wall
/// clock so the summary times the runs alone, it writes in point order
/// each point's record lines (or the error line of a failed point) and
/// the harness line that closes the sweep, prints the harness summary
/// (points, threads, wall seconds, simulated events, events per wall
/// second) on *stderr*, so stdout tables stay byte-identical across
/// thread counts, and writes the SCSQ_TRACE document. A failed point
/// then prints its error and exits with status 1.
void sweep_points(std::size_t points, const std::function<void(std::size_t)>& run);

}  // namespace detail

/// Maps `fn` over `points` (detail::sweep_points) with ordered result
/// collection.
template <class Point, class Fn>
auto sweep(const std::vector<Point>& points, Fn fn)
    -> std::vector<std::invoke_result_t<Fn&, const Point&>> {
  std::vector<std::invoke_result_t<Fn&, const Point&>> results(points.size());
  detail::sweep_points(points.size(), [&](std::size_t i) { results[i] = fn(points[i]); });
  return results;
}

/// Fans QueryPoints across threads. Each point runs its query
/// kRepetitions times (2 in quick mode), each on a fresh simulated
/// machine with the point's cost model jittered by its seed, and its
/// Stats (returned in point order) hold the Mbit/s of `payload_bytes`
/// over each run's elapsed time. With SCSQ_RECORD set, a point's metrics
/// line adds its parameters and its mbps_mean and mbps_stdev to the
/// registry of its last repetition.
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
