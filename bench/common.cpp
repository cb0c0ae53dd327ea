#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>

#include "sim/trace.hpp"
#include "util/thread_pool.hpp"

namespace scsq::bench {

namespace {

exec::Settings g_settings;
std::ofstream g_record;  // open when SCSQ_RECORD is set

// What a sweep point's runs leave for the harness summary and the run
// record. Each worker writes only the slot of the point it runs;
// sweep_points reads them after the join.
struct PointSlot {
  // The kernel counters of its runs.
  std::uint64_t events = 0, wakeups = 0, cancelled = 0, peak_queue_depth = 0;
  std::string registry;    // the kept run's registry snapshot
  std::string lines;       // record lines: the kept run's, or an error line
  std::string trace_json;  // the first point's kept run, with SCSQ_TRACE
  std::string error;       // the message of the error that stopped it
};
std::vector<PointSlot> g_points;            // one per point of the running sweep
thread_local PointSlot* t_point = nullptr;  // the point this thread runs

// Leads each record line of this thread's point: `"point":3`.
std::string point_tag() {
  return "\"point\":" + std::to_string(t_point - g_points.data());
}

// Whether this thread's point keeps its last run: there is a record to
// write it to, or it is the first point and SCSQ_TRACE is set.
bool keeping() {
  return t_point != nullptr &&
         (g_record.is_open() || (!g_settings.trace_path.empty() && t_point == g_points.data()));
}

}  // namespace

const exec::Settings& settings() { return g_settings; }

void configure(exec::Settings s) {
  if (!s.monitor.empty()) {
    // Rejected here, before any sweep, rather than on a worker thread.
    Scsq probe(s.config);
    exec::register_env_monitor(probe.engine(), s);
  }
  g_record = s.record_path.empty() ? std::ofstream() : exec::open_record(s);
  g_settings = std::move(s);
}

void configure_from_env() {
  try {
    configure(exec::from_env());
  } catch (const scsql::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
}

ScsqConfig run_config(const hw::CostModel& cost) {
  ScsqConfig cfg;
  cfg.cost = cost;
  cfg.exec.sample_interval_s = g_settings.config.exec.sample_interval_s;
  return cfg;
}

int arrays_for_buffer(std::uint64_t buffer_bytes) {
  const int full = g_settings.quick ? 10 : kFullArrays;
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

namespace {

// Adds a finished run to its sweep point's harness accounting (a run
// outside a sweep is in no summary).
void harness_count(Scsq& scsq) {
  if (t_point == nullptr) return;
  const sim::PerfCounters& perf = scsq.sim().perf();
  t_point->events += perf.events_dispatched;
  t_point->wakeups += perf.wakeups;
  t_point->cancelled += perf.cancel_consumed;
  t_point->peak_queue_depth = std::max(t_point->peak_queue_depth, perf.peak_queue_depth);
}

// Runs `query` on a fresh Scsq built from `cfg`. With `keep` (only when
// keeping()), the finished run fills this thread's point slot; taken
// after sim.run() returns, so timing and the tables are unaffected. A
// statement error becomes the point's error line before it propagates.
exec::RunReport run_engine(const ScsqConfig& cfg, const std::string& query, bool keep) {
  Scsq scsq(cfg);
  exec::register_env_monitor(scsq.engine(), g_settings);
  sim::Trace trace;
  const bool traced = keep && !g_settings.trace_path.empty() && t_point == g_points.data();
  if (traced) scsq.machine().set_trace(&trace);
  exec::RunReport report;
  try {
    report = scsq.run(query);
  } catch (const scsql::Error& e) {
    if (t_point != nullptr) t_point->lines += exec::error_line(point_tag(), query, e);
    throw;
  }
  harness_count(scsq);
  if (keep) {
    t_point->registry = exec::registry_json(scsq.machine());
    t_point->lines = exec::run_lines(scsq.engine(), report, point_tag());
    if (traced) {
      std::ostringstream ts;
      trace.write_json(ts);
      t_point->trace_json = ts.str();
    }
  }
  return report;
}

// Puts the metrics line of the kept run, a run of `query`, with `fields`
// before the point's other lines.
void keep_metrics(const std::string& query, std::initializer_list<exec::Field> fields) {
  t_point->lines =
      exec::metrics_line(point_tag(), query, fields, t_point->registry) + t_point->lines;
}

// Runs `query` kRepetitions times (2 in quick mode) with `base_cost`
// jittered per repetition and returns the Mbit/s of `payload_bytes` per
// run. With `keep`, the last repetition is the kept run.
util::Stats repeat_query_mbps(const std::string& query, std::uint64_t payload_bytes,
                              const hw::CostModel& base_cost, std::uint64_t buffer_bytes,
                              int send_buffers, std::uint64_t seed_base, bool keep) {
  util::Stats stats;
  const int reps = g_settings.quick ? 2 : kRepetitions;
  for (int rep = 0; rep < reps; ++rep) {
    ScsqConfig cfg =
        run_config(jittered(base_cost, seed_base + static_cast<std::uint64_t>(rep) * 7919));
    cfg.exec.buffer_bytes = buffer_bytes;
    cfg.exec.send_buffers = send_buffers;
    const auto report = run_engine(cfg, query, keep && rep == reps - 1);
    SCSQ_CHECK(report.elapsed_s > 0.0) << "empty run";
    stats.add(static_cast<double>(payload_bytes) * 8.0 / report.elapsed_s / 1e6);
  }
  return stats;
}

}  // namespace

exec::RunReport run_query(const ScsqConfig& cfg, const std::string& query, bool keep,
                          std::initializer_list<exec::Field> fields) {
  keep = keep && keeping();
  auto report = run_engine(cfg, query, keep);
  if (keep) keep_metrics(query, fields);
  return report;
}

void detail::sweep_points(std::size_t points, const std::function<void(std::size_t)>& run) {
  g_points.assign(points, PointSlot{});
  const auto start = std::chrono::steady_clock::now();
  util::parallel_for(points, g_settings.threads, [&](std::size_t i) {
    struct Scope {  // this thread runs point i until run(i) returns
      explicit Scope(PointSlot& slot) { t_point = &slot; }
      ~Scope() { t_point = nullptr; }
    } scope(g_points[i]);
    try {
      run(i);
    } catch (const scsql::Error& e) {
      g_points[i].error = e.what();
    }
  });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  PointSlot sum;  // the counters of every point
  std::string failed;
  for (const PointSlot& slot : g_points) {
    if (g_record.is_open()) g_record << slot.lines;
    if (failed.empty()) failed = slot.error;
    sum.events += slot.events;
    sum.wakeups += slot.wakeups;
    sum.cancelled += slot.cancelled;
    sum.peak_queue_depth = std::max(sum.peak_queue_depth, slot.peak_queue_depth);
  }
  const double events_per_s = wall_s > 0.0 ? static_cast<double>(sum.events) / wall_s : 0.0;
  if (g_record.is_open()) {
    g_record << exec::harness_line(
                    {{"points", static_cast<double>(points)},
                     {"threads", static_cast<double>(g_settings.threads)},
                     {"wall_s", wall_s},
                     {"events", static_cast<double>(sum.events)},
                     {"events_per_s", events_per_s},
                     {"peak_queue_depth", static_cast<double>(sum.peak_queue_depth)},
                     {"wakeups", static_cast<double>(sum.wakeups)},
                     {"cancelled_timers", static_cast<double>(sum.cancelled)}})
             << std::flush;
  }
  std::fprintf(stderr,
               "[harness] %zu sweep points on %u thread(s): "
               "%.2f s wall, %llu simulated events, %.2fM events/s, "
               "peak queue depth %llu, %llu wakeups, "
               "%llu cancelled timers\n",
               points, g_settings.threads, wall_s, static_cast<unsigned long long>(sum.events),
               events_per_s / 1e6, static_cast<unsigned long long>(sum.peak_queue_depth),
               static_cast<unsigned long long>(sum.wakeups),
               static_cast<unsigned long long>(sum.cancelled));
  if (!failed.empty()) {
    std::fprintf(stderr, "error: %s\n", failed.c_str());
    std::exit(1);
  }
  if (!g_settings.trace_path.empty() && points > 0) {
    // A trace is one whole JSON document, not JSONL: truncate each time.
    std::ofstream out(g_settings.trace_path, std::ios::trunc);
    if (out) {
      out << g_points.front().trace_json;
    } else {
      std::fprintf(stderr, "[harness] cannot open SCSQ_TRACE=%s\n",
                   g_settings.trace_path.c_str());
    }
  }
  g_points.clear();
}

std::vector<util::Stats> run_points(const std::vector<QueryPoint>& points) {
  return sweep(points, [](const QueryPoint& p) {
    const bool keep = keeping();
    auto stats = repeat_query_mbps(p.query, p.payload_bytes, p.cost, p.buffer_bytes,
                                   p.send_buffers, p.seed, keep);
    if (keep) {
      keep_metrics(p.query, {{"payload_bytes", static_cast<double>(p.payload_bytes)},
                             {"buffer_bytes", static_cast<double>(p.buffer_bytes)},
                             {"send_buffers", static_cast<double>(p.send_buffers)},
                             {"seed", static_cast<double>(p.seed)},
                             {"mbps_mean", stats.mean()},
                             {"mbps_stdev", stats.stdev()}});
    }
    return stats;
  });
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
  std::printf("=====================================================================\n");
  std::printf("SCSQ reproduction — %s: %s\n", figure, what);
  std::printf("Methodology: bandwidth = payload bytes / simulated query time;\n");
  std::printf("%d repetitions with ~1%% cost jitter (paper: five runs).%s\n",
              g_settings.quick ? 2 : kRepetitions,
              g_settings.quick ? " [QUICK MODE]" : "");
  std::printf("=====================================================================\n");
}

}  // namespace scsq::bench
