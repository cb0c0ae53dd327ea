#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "sim/trace.hpp"

namespace scsq::bench {

namespace {

// Simulated events executed by runs since the last harness_begin().
// Relaxed atomic: worker threads only ever add their own run's total.
std::atomic<std::uint64_t> g_sim_events{0};
std::atomic<std::uint64_t> g_wakeups{0};
std::atomic<std::uint64_t> g_peak_queue_depth{0};
std::atomic<std::uint64_t> g_cancel_consumed{0};
std::chrono::steady_clock::time_point g_harness_start;

void append_json_escaped(std::string& out, std::string_view s) {
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

}  // namespace

bool quick_mode() { return std::getenv("SCSQ_BENCH_QUICK") != nullptr; }

unsigned bench_threads() {
  try {
    return util::ThreadPool::default_threads();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
}

int arrays_for_buffer(std::uint64_t buffer_bytes) {
  const int full = quick_mode() ? 10 : kFullArrays;
  // Cap the per-producer message count around 200k.
  const std::uint64_t max_bytes = buffer_bytes * 200'000;
  const int max_arrays = static_cast<int>(std::max<std::uint64_t>(2, max_bytes / kArrayBytes));
  return std::min(full, max_arrays);
}

hw::CostModel jittered(hw::CostModel cost, std::uint64_t seed) {
  util::Rng rng(seed);
  auto j = [&rng] { return rng.jitter(0.01); };
  cost.torus.send_per_packet_s *= j();
  cost.torus.recv_per_packet_s *= j();
  cost.torus.forward_per_packet_s *= j();
  cost.torus.per_message_overhead_s *= j();
  cost.tree.io_forward_per_byte_s *= j();
  cost.tree.compute_recv_per_byte_s *= j();
  cost.ethernet.per_message_overhead_s *= j();
  cost.bg_compute.marshal_per_byte_s *= j();
  cost.linux_node.marshal_per_byte_s *= j();
  return cost;
}

double run_query_mbps(const std::string& query, std::uint64_t payload_bytes,
                      const hw::CostModel& cost, std::uint64_t buffer_bytes,
                      int send_buffers, RunCapture* capture) {
  ScsqConfig cfg;
  cfg.cost = cost;
  cfg.exec.buffer_bytes = buffer_bytes;
  cfg.exec.send_buffers = send_buffers;
  Scsq scsq(cfg);
  sim::Trace trace;
  if (capture && capture->want_trace) scsq.machine().set_trace(&trace);
  auto report = scsq.run(query);
  harness_count_perf(scsq.sim().perf());
  if (capture) {
    // Post-run: snapshotting cannot perturb the simulated timing above.
    scsq.machine().publish_metrics();
    std::ostringstream os;
    scsq.machine().metrics().write_json(os);
    capture->metrics_json = os.str();
    if (capture->want_trace) {
      std::ostringstream ts;
      trace.write_json(ts);
      capture->trace_json = ts.str();
    }
    if (capture->want_profile) {
      capture->profile_json = scsq.engine().profile(report).json();
    }
    if (capture->want_timeseries) {
      // Empty unless SCSQ_SAMPLE_INTERVAL armed the sampler for the run.
      std::ostringstream ts;
      scsq.engine().sampler().write_jsonl(ts);
      capture->timeseries_jsonl = ts.str();
    }
  }
  SCSQ_CHECK(report.elapsed_s > 0.0) << "empty run";
  return static_cast<double>(payload_bytes) * 8.0 / report.elapsed_s / 1e6;
}

util::Stats repeat_query_mbps(const std::string& query, std::uint64_t payload_bytes,
                              const hw::CostModel& base_cost, std::uint64_t buffer_bytes,
                              int send_buffers, std::uint64_t seed_base,
                              RunCapture* capture) {
  util::Stats stats;
  const int reps = quick_mode() ? 2 : kRepetitions;
  for (int rep = 0; rep < reps; ++rep) {
    auto cost = jittered(base_cost, seed_base + static_cast<std::uint64_t>(rep) * 7919);
    RunCapture* rep_capture = (capture && rep == reps - 1) ? capture : nullptr;
    stats.add(run_query_mbps(query, payload_bytes, cost, buffer_bytes, send_buffers,
                             rep_capture));
  }
  return stats;
}

void harness_count_events(std::uint64_t events) {
  g_sim_events.fetch_add(events, std::memory_order_relaxed);
}

void harness_count_perf(const sim::PerfCounters& perf) {
  g_sim_events.fetch_add(perf.events_dispatched, std::memory_order_relaxed);
  g_wakeups.fetch_add(perf.wakeups, std::memory_order_relaxed);
  g_cancel_consumed.fetch_add(perf.cancel_consumed, std::memory_order_relaxed);
  // Running max (no fetch_max before C++26): CAS until ours is not larger.
  std::uint64_t seen = g_peak_queue_depth.load(std::memory_order_relaxed);
  while (perf.peak_queue_depth > seen &&
         !g_peak_queue_depth.compare_exchange_weak(seen, perf.peak_queue_depth,
                                                   std::memory_order_relaxed)) {
  }
}

void harness_begin() {
  g_sim_events.store(0, std::memory_order_relaxed);
  g_wakeups.store(0, std::memory_order_relaxed);
  g_peak_queue_depth.store(0, std::memory_order_relaxed);
  g_cancel_consumed.store(0, std::memory_order_relaxed);
  g_harness_start = std::chrono::steady_clock::now();
}

void harness_end(std::size_t points) {
  const auto elapsed = std::chrono::steady_clock::now() - g_harness_start;
  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  const auto events = g_sim_events.load(std::memory_order_relaxed);
  std::fprintf(stderr,
               "[harness] %zu sweep points on %u thread(s): "
               "%.2f s wall, %llu simulated events, %.2fM events/s, "
               "peak queue depth %llu, %llu wakeups, "
               "%llu cancelled timers\n",
               points, bench_threads(), wall_s,
               static_cast<unsigned long long>(events),
               wall_s > 0.0 ? static_cast<double>(events) / wall_s / 1e6 : 0.0,
               static_cast<unsigned long long>(
                   g_peak_queue_depth.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(g_wakeups.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(
                   g_cancel_consumed.load(std::memory_order_relaxed)));
}

namespace {

// One opener for every JSONL side channel: the first open of the
// process truncates, later opens (a bench with several tables) append,
// and an unopenable path warns once to stderr and drops the write —
// side channels must never fail a bench. `truncated` is the caller's
// per-channel static flag so each channel tracks its own first open.
std::ofstream open_side_channel(const char* path, const char* env_name, bool& truncated) {
  std::ofstream out(path, truncated ? std::ios::app : std::ios::trunc);
  truncated = true;
  if (!out) std::fprintf(stderr, "[harness] cannot open %s=%s\n", env_name, path);
  return out;
}

void write_metrics_jsonl(const char* path, const std::vector<QueryPoint>& points,
                         const std::vector<util::Stats>& stats,
                         const std::vector<RunCapture>& captures) {
  static bool truncated = false;
  std::ofstream out = open_side_channel(path, "SCSQ_METRICS_OUT", truncated);
  if (!out) return;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::string q;
    append_json_escaped(q, p.query);
    std::ostringstream line;
    line << std::setprecision(17);
    line << "{\"point\":" << i << ",\"query\":\"" << q << "\""
         << ",\"payload_bytes\":" << p.payload_bytes
         << ",\"buffer_bytes\":" << p.buffer_bytes
         << ",\"send_buffers\":" << p.send_buffers << ",\"seed\":" << p.seed
         << ",\"mbps_mean\":" << stats[i].mean() << ",\"mbps_stdev\":" << stats[i].stdev()
         << ",\"metrics\":" << captures[i].metrics_json << "}";
    out << line.str() << "\n";
  }
}

void write_profile_jsonl(const char* path, const std::vector<QueryPoint>& points,
                         const std::vector<RunCapture>& captures) {
  static bool truncated = false;
  std::ofstream out = open_side_channel(path, "SCSQ_PROFILE_OUT", truncated);
  if (!out) return;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::string q;
    append_json_escaped(q, p.query);
    out << "{\"point\":" << i << ",\"query\":\"" << q << "\""
        << ",\"payload_bytes\":" << p.payload_bytes
        << ",\"buffer_bytes\":" << p.buffer_bytes
        << ",\"send_buffers\":" << p.send_buffers << ",\"seed\":" << p.seed
        << ",\"profile\":" << captures[i].profile_json << "}\n";
  }
}

// Each sampler line already starts with `{"window":...`; splice the
// sweep point in front so one file carries every point's time series.
void write_timeseries_jsonl(const char* path, const std::vector<RunCapture>& captures) {
  static bool truncated = false;
  std::ofstream out = open_side_channel(path, "SCSQ_TIMESERIES_OUT", truncated);
  if (!out) return;
  for (std::size_t i = 0; i < captures.size(); ++i) {
    std::istringstream lines(captures[i].timeseries_jsonl);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      out << "{\"point\":" << i << ',' << line.substr(1) << '\n';
    }
  }
}

}  // namespace

std::vector<util::Stats> run_points(const std::vector<QueryPoint>& points) {
  const char* metrics_path = std::getenv("SCSQ_METRICS_OUT");
  const char* trace_path = std::getenv("SCSQ_TRACE_OUT");
  const char* profile_path = std::getenv("SCSQ_PROFILE_OUT");
  const char* timeseries_path = std::getenv("SCSQ_TIMESERIES_OUT");
  if (!metrics_path && !trace_path && !profile_path && !timeseries_path) {
    return sweep(points, [](const QueryPoint& p) {
      return repeat_query_mbps(p.query, p.payload_bytes, p.cost, p.buffer_bytes,
                               p.send_buffers, p.seed);
    });
  }

  struct PointOut {
    util::Stats stats;
    RunCapture capture;
  };
  const QueryPoint* first = points.data();
  auto outs = sweep(points, [&](const QueryPoint& p) {
    PointOut out;
    out.capture.want_trace = trace_path != nullptr && &p == first;
    out.capture.want_profile = profile_path != nullptr;
    out.capture.want_timeseries = timeseries_path != nullptr;
    out.stats = repeat_query_mbps(p.query, p.payload_bytes, p.cost, p.buffer_bytes,
                                  p.send_buffers, p.seed, &out.capture);
    return out;
  });

  std::vector<util::Stats> stats;
  std::vector<RunCapture> captures;
  stats.reserve(outs.size());
  captures.reserve(outs.size());
  for (auto& o : outs) {
    stats.push_back(std::move(o.stats));
    captures.push_back(std::move(o.capture));
  }
  if (metrics_path) write_metrics_jsonl(metrics_path, points, stats, captures);
  if (profile_path) write_profile_jsonl(profile_path, points, captures);
  if (timeseries_path) write_timeseries_jsonl(timeseries_path, captures);
  if (trace_path && !captures.empty() && !captures.front().trace_json.empty()) {
    // A trace is one whole JSON document, not JSONL: truncate each time.
    bool trunc_now = false;
    std::ofstream out = open_side_channel(trace_path, "SCSQ_TRACE_OUT", trunc_now);
    if (out) out << captures.front().trace_json;
  }
  return stats;
}

std::string p2p_query(std::uint64_t array_bytes, int arrays) {
  std::ostringstream q;
  q << "select extract(b) from sp a, sp b"
    << " where b=sp(streamof(count(extract(a))),'bg',0)"
    << " and a=sp(gen_array(" << array_bytes << "," << arrays << "),'bg',1);";
  return q.str();
}

std::string merge_query(int x, int y, std::uint64_t array_bytes, int arrays) {
  std::ostringstream q;
  q << "select extract(c) from sp a, sp b, sp c"
    << " where c=sp(count(merge({a,b})), 'bg',0)"
    << " and a=sp(gen_array(" << array_bytes << "," << arrays << "),'bg'," << x << ")"
    << " and b=sp(gen_array(" << array_bytes << "," << arrays << "),'bg'," << y << ");";
  return q.str();
}

std::string inbound_query(int query_no, int n, std::uint64_t array_bytes, int arrays) {
  std::ostringstream q;
  const char* a_alloc = (query_no % 2 == 1) ? "1" : "urr('be')";
  if (query_no <= 2) {
    q << "select extract(c) from bag of sp a, sp b, sp c, integer n"
      << " where c=sp(extract(b), 'bg')"
      << " and b=sp(count(merge(a)), 'bg')"
      << " and a=spv((select gen_array(" << array_bytes << "," << arrays << ")"
      << " from integer i where i in iota(1,n)), 'be', " << a_alloc << ")"
      << " and n=" << n << ";";
  } else {
    const char* b_alloc = (query_no <= 4) ? "inPset(1)" : "psetrr()";
    q << "select extract(c) from bag of sp a, bag of sp b, sp c, integer n"
      << " where c=sp(streamof(sum(merge(b))), 'bg')"
      << " and b=spv((select streamof(count(extract(p))) from sp p where p in a),"
      << " 'bg', " << b_alloc << ")"
      << " and a=spv((select gen_array(" << array_bytes << "," << arrays << ")"
      << " from integer i where i in iota(1,n)), 'be', " << a_alloc << ")"
      << " and n=" << n << ";";
  }
  return q.str();
}

void print_banner(const char* figure, const char* what) {
  (void)bench_threads();  // a bad SCSQ_BENCH_THREADS stops the bench here
  std::printf("=====================================================================\n");
  std::printf("SCSQ reproduction — %s: %s\n", figure, what);
  std::printf("Methodology: bandwidth = payload bytes / simulated query time;\n");
  std::printf("%d repetitions with ~1%% cost jitter (paper: five runs).%s\n",
              quick_mode() ? 2 : kRepetitions,
              quick_mode() ? " [QUICK MODE]" : "");
  std::printf("=====================================================================\n");
}

}  // namespace scsq::bench
