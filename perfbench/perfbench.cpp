// The repository benchmark.
//
// Runs one workload through the public SCSQ facade and prints one JSON
// result line (the last line of stdout):
//   fig6_p2p       the Fig. 6 sweep, one fresh Scsq per query, on a fixed
//                  pool of sweep workers;
//   fig15_inbound  the Fig. 15 sweep, same harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|small] [--reference DIR] [--write-reference]
//             [--spans PATH] [--commit SHA]
//
// The benchmark changes no layer. It measures each layer from outside: host
// time around every call into the facade (Scsq construction,
// scsql::parse_script, Engine::run_statement) and, in the traced run, the
// counters the program exports by name through Machine::publish_metrics()
// and the metrics registry. Every query's output is checked; a failed
// check or a scsql::Error counts as a failed query. perfbench/README.md
// documents the workloads and metrics.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/scsq.hpp"
#include "scsql/parser.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;
using scsq::catalog::Kind;

// Sweep workers, capped by the host's CPU count. Fixed so that wall time
// compares across hosts with at least this many CPUs; three leave one CPU
// of a 4-vCPU host to everything else, so no worker shares its CPU.
constexpr unsigned kSweepWorkers = 3;
// Set-up is repeated this many times before every pass.
constexpr int kSetupsPerPass = 5;
// Seeds offset the figure points' jitter seeds by seed * kSeedStride, so
// seed 0 reproduces bench_fig6_p2p / bench_fig15_inbound exactly.
constexpr std::uint64_t kSeedStride = 1'000'003;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- host speed ----------------------------------------------------------

// The host's speed drifts: on a shared VM, other tenants' load made the
// same query take up to twice as long an hour later, and by a third more
// from one minute to the next, uniformly across queries. speed_probe() is
// a fixed kernel that runs on the calling thread right before each timed
// piece of work: 2000 mallocs of 16-271 bytes, each written once, freed in
// shuffled order. Within a run its time moves with the queries' (see
// README.md), so a time t measured after a probe that took p is reported
// as t * kProbeRefS / p: host seconds on a host where the probe takes
// kProbeRefS.
constexpr double kProbeRefS = 250e-6;
constexpr int kProbeBlocks = 2000;

double speed_probe() {
  thread_local std::vector<void*> blocks(kProbeBlocks);
  const auto t0 = Clock::now();
  std::uint64_t r = 12345;
  for (auto& b : blocks) {
    r = r * 6364136223846793005ull + 1;
    b = std::malloc(16 + (r >> 56));
    static_cast<volatile char*>(b)[0] = 1;
  }
  for (std::size_t i = blocks.size(); i > 1; --i) {
    r = r * 6364136223846793005ull + 1;
    std::swap(blocks[i - 1], blocks[(r >> 33) % i]);
  }
  for (void* b : blocks) std::free(b);
  return since(t0);
}

// --- workloads ---------------------------------------------------------

struct Query {
  std::string text;
  scsq::hw::CostModel cost;
  std::uint64_t buffer_bytes = 64 * 1024;
  int send_buffers = 2;
  std::size_t point = 0;    // index into Workload::points
  int rep = 0;              // repetition of the point
  std::int64_t expect = 0;  // count/sum oracle
};

// One figure point: a table cell, repeated with jittered cost models.
struct Point {
  std::string row;         // table row key: the row's first column
  std::string row_prefix;  // the row's formatted leading columns
  int column = 0;
  std::uint64_t payload_bytes = 0;
  std::string ref_key;     // reference key prefix ("<params>")
};

struct Workload {
  std::string name;
  const char* cell_format = "";  // printf format of one table cell
  std::vector<Point> points;
  std::vector<Query> queries;
};

const std::vector<std::uint64_t> kFig6Buffers = {
    64,    100,   200,    400,    700,    1000,   1500,    2000,    3000,
    5000,  10000, 20000,  50000,  100000, 200000, 500000,  1000000};

void add_reps(Workload& w, const Query& base, std::uint64_t point_seed, std::uint64_t offset) {
  for (int rep = 0; rep < scsq::bench::kRepetitions; ++rep) {
    Query q = base;
    q.rep = rep;
    // Same seed schedule as bench::repeat_query_mbps.
    q.cost = scsq::bench::jittered(scsq::hw::CostModel::lofar(),
                                   point_seed + offset + static_cast<std::uint64_t>(rep) * 7919);
    w.queries.push_back(std::move(q));
  }
}

Workload make_fig6(std::uint64_t seed, bool small) {
  using namespace scsq::bench;
  Workload w;
  w.name = "fig6_p2p";
  w.cell_format = "  %14.1f ± %5.1f";
  const auto buffers = small ? std::vector<std::uint64_t>{200000, 1000000} : kFig6Buffers;
  // Heaviest (smallest-buffer) points first, as in the bench: the FIFO
  // pool then packs them early.
  for (auto buf : buffers) {
    const int arrays = arrays_for_buffer(buf);
    char prefix[64];
    std::snprintf(prefix, sizeof(prefix), "%10llu  %8d", static_cast<unsigned long long>(buf),
                  arrays);
    for (int sb = 1; sb <= 2; ++sb) {
      Point p;
      p.row = std::to_string(buf);
      p.row_prefix = prefix;
      p.column = sb;
      p.payload_bytes = kArrayBytes * static_cast<std::uint64_t>(arrays);
      p.ref_key = std::to_string(buf) + " " + std::to_string(sb);
      Query q;
      q.text = p2p_query(kArrayBytes, arrays);
      q.buffer_bytes = buf;
      q.send_buffers = sb;
      q.point = w.points.size();
      q.expect = arrays;
      w.points.push_back(std::move(p));
      add_reps(w, q, buf * 2 + static_cast<std::uint64_t>(sb), seed * kSeedStride);
    }
  }
  return w;
}

Workload make_fig15(std::uint64_t seed, bool small) {
  using namespace scsq::bench;
  Workload w;
  w.name = "fig15_inbound";
  w.cell_format = "  %9.1f ± %4.1f";
  const int max_n = small ? 2 : 8;
  const int arrays = kFullArrays;
  // Largest n first (the heaviest points), for the same packing reason.
  for (int n = max_n; n >= 1; --n) {
    char prefix[16];
    std::snprintf(prefix, sizeof(prefix), "%4d", n);
    for (int qn = 1; qn <= 6; ++qn) {
      Point p;
      p.row = std::to_string(n);
      p.row_prefix = prefix;
      p.column = qn;
      p.payload_bytes =
          static_cast<std::uint64_t>(n) * kArrayBytes * static_cast<std::uint64_t>(arrays);
      p.ref_key = std::to_string(qn) + " " + std::to_string(n);
      Query q;
      q.text = inbound_query(qn, n, kArrayBytes, arrays);
      q.buffer_bytes = 64 * 1024;
      q.send_buffers = 2;
      q.point = w.points.size();
      q.expect = static_cast<std::int64_t>(n) * arrays;
      w.points.push_back(std::move(p));
      add_reps(w, q, static_cast<std::uint64_t>(qn * 1000 + n), seed * kSeedStride);
    }
  }
  return w;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool small) {
  return name == "fig6_p2p" ? make_fig6(seed, small) : make_fig15(seed, small);
}

// --- output checks -----------------------------------------------------

// p2p: count = arrays. Fig. 15: count (Q1, Q2) or sum of counts (Q3-Q6)
// = n x arrays.
std::string check_output(const Query& q, const scsq::exec::RunReport& r) {
  if (!(r.elapsed_s > 0.0)) return "non-positive simulated elapsed time";
  if (r.results.size() != 1) {
    return "expected one result row, got " + std::to_string(r.results.size());
  }
  const auto& o = r.results.front();
  if (o.kind() != Kind::kInt && o.kind() != Kind::kReal) return "result is not a number";
  if (o.as_number() != static_cast<double>(q.expect)) {
    return "count " + std::to_string(o.as_number()) + " != " + std::to_string(q.expect);
  }
  return {};
}

// --- registry reads (traced run) ---------------------------------------

// Layer counts read by name. A name the registry does not have is simply
// missing from the map, so its metrics read as absent.
using Counts = std::map<std::string, double>;

// The one level among the counts: a maximum, not a running total.
constexpr const char* kPeakDepth = "sim.peak_queue_depth";

const std::string* label(const scsq::obs::Labels& labels, const char* key) {
  for (const auto& l : labels) {
    if (l.key == key) return &l.value;
  }
  return nullptr;
}

Counts read_registry(scsq::hw::Machine& machine) {
  machine.publish_metrics();
  static const std::map<std::string, std::string> kTotals = {
      {"sim.events_dispatched", "sim.events"},
      {"sim.wakeups", "sim.wakeups"},
      {"sim.heap_pushes", "sim.heap_pushes"},
      {"sim.fifo_pushes", "sim.fifo_pushes"},
      {"sim.callbacks_run", "sim.callbacks_run"},
      {"sim.coro.bucket_reused", "coro.reused"},
      {"sim.coro.chunk_allocs", "coro.chunks"},
      {"transport.link.bytes", "transport.bytes"},
      {"transport.link.stalls", "transport.stalls"},
      {"torus.messages", "torus.messages"},
      {"torus.packets", "torus.packets"},
      {"tree.inbound_messages", "tree.inbound_messages"},
      {"transport.frame_pool.acquired", "pool.acquired"},
      {"transport.frame_pool.reused", "pool.reused"},
      {"sim.peak_queue_depth", "sim.peak_queue_depth"},
  };
  Counts c;
  std::map<std::string, std::pair<double, double>> per_rp;  // batches, fill
  const auto& reg = machine.metrics();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const auto e = reg.entry(i);
    const double v = e.counter ? static_cast<double>(e.counter->value())
                     : e.gauge ? e.gauge->value()
                               : 0.0;
    if (e.histogram) continue;
    if (auto it = kTotals.find(e.name); it != kTotals.end()) {
      c[it->second] += v;
    } else if (e.name == "transport.link.frames") {
      c["transport.frames"] += v;
      const std::string* type = label(e.labels, "type");
      c["net.tcp_frames"] += (type && type->rfind("tcp", 0) == 0) ? v : 0.0;
    } else if (e.name == "engine.rp.batches" || e.name == "engine.rp.batch_fill") {
      // Per-RP gauges; a fresh machine holds only this statement's RPs.
      auto& [batches, fill] = per_rp[scsq::obs::metric_key("", e.labels)];
      (e.name == "engine.rp.batches" ? batches : fill) = v;
    }
  }
  for (const auto& [rp, bf] : per_rp) {
    c["plan.batches"] += bf.first;
    c["plan.items"] += static_cast<double>(std::llround(bf.first * bf.second));
  }
  return c;
}

// What one query added: totals as after - before, the peak as read after.
// Keys missing before (the per-RP batch counts) are taken as read.
Counts delta(const Counts& after, const Counts& before) {
  Counts d;
  for (const auto& [key, v] : after) {
    const auto it = before.find(key);
    d[key] = (key == kPeakDepth || it == before.end()) ? v : v - it->second;
  }
  return d;
}

void accumulate(Counts& into, const Counts& add) {
  for (const auto& [key, v] : add) {
    into[key] = key == kPeakDepth ? std::max(into[key], v) : into[key] + v;
  }
}

// --- running queries -----------------------------------------------------

struct Span {
  const char* name;
  double start_s;
  double end_s;
};

struct Outcome {
  std::string error;  // empty = passed every check
  double elapsed_s = 0.0;  // simulated
  std::size_t rp_count = 0;
  double build_s = 0.0;    // host seconds per facade call
  double parse_s = 0.0;
  double run_s = 0.0;
  double probe_s = 0.0;    // speed_probe() right before the query
  double start_s = 0.0;    // root span, host seconds since the run began
  double end_s = 0.0;
  unsigned worker = 0;
  Counts counts;             // traced only
  std::vector<Span> spans;   // traced only
};

// Worker index of the calling thread within the current sweep pass.
std::atomic<unsigned> g_next_worker{0};
thread_local int tl_worker = -1;
unsigned worker_index() {
  if (tl_worker < 0) tl_worker = static_cast<int>(g_next_worker++);
  return static_cast<unsigned>(tl_worker);
}

class QueryRunner {
 public:
  QueryRunner(Clock::time_point t0, bool traced) : t0_(t0), traced_(traced) {}

  // One query on a fresh machine, as in the figure benches.
  Outcome run(const Query& q) const {
    Outcome out;
    out.probe_s = speed_probe();
    out.worker = worker_index();
    out.start_s = now();
    try {
      scsq::ScsqConfig cfg;
      cfg.cost = q.cost;
      cfg.exec.buffer_bytes = q.buffer_bytes;
      cfg.exec.send_buffers = q.send_buffers;
      double a = now();
      scsq::Scsq scsq(cfg);
      double b = now();
      out.build_s = b - a;
      span(out, "core.build", a, b);
      Counts before;
      if (traced_) before = timed_read(scsq.machine(), out);
      a = now();
      const auto statements = scsq::scsql::parse_script(q.text);
      b = now();
      out.parse_s = b - a;
      span(out, "scsql.parse", a, b);
      scsq::exec::RunReport report;
      for (const auto& st : statements) report = scsq.engine().run_statement(st);
      a = now();
      out.run_s = a - b;
      span(out, "exec.run", b, a);
      out.elapsed_s = report.elapsed_s;
      out.rp_count = report.rp_count;
      if (traced_) out.counts = delta(timed_read(scsq.machine(), out), before);
      out.error = check_output(q, report);
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    out.end_s = now();
    return out;
  }

 private:
  double now() const { return since(t0_); }
  void span(Outcome& out, const char* name, double a, double b) const {
    if (traced_) out.spans.push_back({name, a, b});
  }
  Counts timed_read(scsq::hw::Machine& m, Outcome& out) const {
    const double a = now();
    Counts c = read_registry(m);
    span(out, "obs.publish", a, now());
    return c;
  }

  Clock::time_point t0_;
  bool traced_;
};

// --- reference ---------------------------------------------------------

struct Reference {
  std::map<std::string, std::string> table;  // row key -> bench table row
  std::map<std::string, double> elapsed;     // "<params> <rep>" -> seconds
  bool loaded = false;
};

Reference load_reference(const std::string& dir, const std::string& workload) {
  Reference ref;
  std::ifstream table(dir + "/" + workload + ".table");
  std::ifstream elapsed(dir + "/" + workload + ".elapsed");
  if (!table || !elapsed) return ref;
  for (std::string line; std::getline(table, line);) {
    std::istringstream in(line);
    std::string key;
    in >> key;
    const bool data_row = !key.empty() && std::all_of(key.begin(), key.end(), [](unsigned char c) {
      return std::isdigit(c) != 0;
    });
    if (data_row) ref.table[key] = line;
  }
  for (std::string line; std::getline(elapsed, line);) {
    const auto cut = line.rfind(' ');
    if (cut != std::string::npos) {
      ref.elapsed[line.substr(0, cut)] = std::strtod(line.c_str() + cut, nullptr);
    }
  }
  ref.loaded = true;
  return ref;
}

std::string ref_key(const Workload& w, const Query& q) {
  return w.points[q.point].ref_key + " " + std::to_string(q.rep);
}

// The bench's table rows, formatted from one pass's simulated times.
std::map<std::string, std::string> table_rows(const Workload& w,
                                              const std::vector<Outcome>& pass) {
  std::vector<scsq::util::Stats> stats(w.points.size());
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    const auto& q = w.queries[i];
    stats[q.point].add(static_cast<double>(w.points[q.point].payload_bytes) * 8.0 /
                       pass[i].elapsed_s / 1e6);
  }
  std::map<std::string, std::map<int, std::string>> cells;
  std::map<std::string, std::string> rows;
  for (std::size_t p = 0; p < w.points.size(); ++p) {
    char cell[64];
    std::snprintf(cell, sizeof(cell), w.cell_format, stats[p].mean(), stats[p].stdev());
    cells[w.points[p].row][w.points[p].column] = cell;
    rows[w.points[p].row] = w.points[p].row_prefix;
  }
  for (auto& [row, text] : rows) {
    for (const auto& [col, cell] : cells[row]) text += cell;
  }
  return rows;
}

// Fails the queries whose simulated time or table row differs from the
// committed reference.
void check_reference(const Workload& w, const Reference& ref, std::vector<Outcome>& pass) {
  auto fail = [](Outcome& o, std::string why) {
    if (o.error.empty()) o.error = std::move(why);
  };
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    const auto key = ref_key(w, w.queries[i]);
    const auto it = ref.elapsed.find(key);
    if (it == ref.elapsed.end()) {
      fail(pass[i], "no reference for " + key);
    } else if (it->second != pass[i].elapsed_s) {
      char why[160];
      std::snprintf(why, sizeof(why), "elapsed %.17g != reference %.17g at %s",
                    pass[i].elapsed_s, it->second, key.c_str());
      fail(pass[i], why);
    }
  }
  for (const auto& [row, text] : table_rows(w, pass)) {
    const auto it = ref.table.find(row);
    if (it != ref.table.end() && it->second == text) continue;
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      if (w.points[w.queries[i].point].row == row) {
        fail(pass[i], "table row " + row + " differs from the bench table");
      }
    }
  }
}

void write_reference(const std::string& dir, const Workload& w,
                     const std::vector<Outcome>& pass) {
  std::ofstream out(dir + "/" + w.name + ".elapsed");
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    char line[128];
    std::snprintf(line, sizeof(line), "%s %.17g\n", ref_key(w, w.queries[i]).c_str(),
                  pass[i].elapsed_s);
    out << line;
  }
}

// --- statistics and output -------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream s;
  s.precision(17);
  s << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s << (i ? ", " : "") << json_str(metrics[i].name) << ": {\"value\": " << metrics[i].value
      << ", \"unit\": " << json_str(metrics[i].unit) << "}";
  }
  return s.str() + "}";
}

// Peak resident memory of this process image. Not getrusage's ru_maxrss:
// Linux carries that across exec, so it would report the parent's memory
// (run.py's Python) whenever that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  std::fprintf(stderr, "perfbench: no VmHWM in /proc/self/status\n");
  std::exit(1);
}

// Clears every SCSQ_* variable (a leftover SCSQ_SIM_LPS changes fig15's
// cost forty-fold) and returns the ones that were set.
std::vector<std::string> clear_scsq_env() {
  std::vector<std::string> set;
  for (char** e = environ; *e; ++e) {
    if (std::strncmp(*e, "SCSQ_", 5) == 0) set.emplace_back(*e);
  }
  for (const auto& kv : set) unsetenv(kv.substr(0, kv.find('=')).c_str());
  return set;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string reference = "perfbench/reference";
  bool write_reference = false;
  std::string spans = ".bench_build/spans.jsonl";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload fig6_p2p|fig15_inbound "
               "--seed N --seconds S --trace 0|1 [--size full|small] [--reference DIR] "
               "[--write-reference] [--spans PATH] [--commit SHA]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--write-reference") {
      o.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty() || v[0] == '-') usage("--seed must be a whole number");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) usage("--seconds must be positive");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (a == "--size") {
      if (v != "full" && v != "small") usage("--size must be full or small");
      o.small = v == "small";
    } else if (a == "--reference") {
      o.reference = v;
    } else if (a == "--spans") {
      o.spans = v;
    } else if (a == "--commit") {
      o.commit = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload != "fig6_p2p" && o.workload != "fig15_inbound") {
    usage("unknown or missing --workload");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  const auto cleared = clear_scsq_env();
  for (const auto& kv : cleared) std::fprintf(stderr, "[perfbench] cleared %s\n", kv.c_str());
  const Options opt = parse_args(argc, argv);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers = std::min(kSweepWorkers, nproc);

  // Set-up: generate the workload from the seed and load the reference.
  // The reference is read at every seed, so every seed sets up the same
  // work; it is checked at seed 0 only. No query runs here: each pass
  // starts its own sweep workers (util::run_sweep owns its pool). Set-up
  // is repeated before every pass, so its samples span the whole run.
  Workload w;
  Reference ref;
  std::vector<double> setup_s, probe_s;  // per set-up: its time, the probe before it
  auto set_up = [&] {
    for (int s = 0; s < kSetupsPerPass; ++s) {
      probe_s.push_back(speed_probe());
      const auto t0 = Clock::now();
      w = make_workload(opt.workload, opt.seed, opt.small);
      if (!opt.write_reference) {
        ref = load_reference(opt.reference, w.name);
        if (!ref.loaded) usage(("no reference under " + opt.reference).c_str());
      }
      setup_s.push_back(since(t0));
    }
  };

  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  // Measured passes over the whole workload, closed loop, until the next
  // pass would overrun --seconds (at least one). The traced run alternates
  // an untraced and a traced pass, so obs.trace_overhead compares
  // like with like.
  struct Pass {
    bool traced;
    double wall_s;   // the whole pass
    double query_s;  // sum of per-query host time in facade calls
    std::vector<Outcome> outcomes;
  };
  std::vector<Pass> passes;
  std::vector<std::string> span_lines;
  // Read after the first pass: later passes only add allocator slack, and
  // their number depends on the host's speed.
  double rss_mb = 0.0;
  const auto t_measure = Clock::now();
  auto run_pass = [&](bool traced) {
    const QueryRunner runner(t_start, traced);
    Pass p{traced, 0.0, 0.0, {}};
    g_next_worker = 0;
    const auto t0 = Clock::now();
    p.outcomes = scsq::util::run_sweep(
        w.queries, [&](const Query& q) { return runner.run(q); }, workers);
    p.wall_s = since(t0);
    // Every pass, traced ones too, must reproduce the reference exactly.
    if (opt.seed == 0) {
      if (!opt.write_reference) {
        check_reference(w, ref, p.outcomes);
      } else if (passes.empty()) {
        write_reference(opt.reference, w, p.outcomes);
      }
    }
    for (std::size_t i = 0; i < p.outcomes.size(); ++i) {
      const auto& o = p.outcomes[i];
      ++attempted;
      if (!o.error.empty()) {
        ++failed;
        if (errors.size() < 10) errors.push_back(o.error);
      }
      p.query_s += o.build_s + o.parse_s + o.run_s;
      if (!traced) continue;
      const auto& q = w.queries[i];
      const std::size_t id = passes.size() * w.queries.size() + i;
      char head[160];
      std::snprintf(head, sizeof(head),
                    "{\"query\": %zu, \"workload\": \"%s\", \"point\": %zu, \"rep\": %d, "
                    "\"worker\": %u, ",
                    id, w.name.c_str(), q.point, q.rep, o.worker);
      char body[128];
      std::snprintf(body, sizeof(body),
                    "\"span\": \"query\", \"parent\": null, \"start_us\": %.3f, \"end_us\": %.3f}",
                    o.start_s * 1e6, o.end_s * 1e6);
      span_lines.push_back(std::string(head) + body);
      for (const auto& s : o.spans) {
        std::snprintf(body, sizeof(body),
                      "\"span\": \"%s\", \"parent\": \"query\", \"start_us\": %.3f, "
                      "\"end_us\": %.3f}",
                      s.name, s.start_s * 1e6, s.end_s * 1e6);
        span_lines.push_back(std::string(head) + body);
      }
    }
    passes.push_back(std::move(p));
    if (passes.size() == 1) rss_mb = peak_rss_mb();
  };
  double step_s = 0.0;
  do {
    const auto t0 = Clock::now();
    set_up();
    run_pass(false);
    if (opt.trace) run_pass(true);
    step_s = since(t0);
  } while (since(t_measure) + step_s <= opt.seconds);

  // --- end-to-end metrics (untraced passes) ---
  // query_sum is each query's median host time over the passes of one
  // kind, summed; `scaled` puts every time on the reference host speed
  // first (see speed_probe).
  auto query_sum = [&](bool traced, bool scaled) {
    double sum = 0.0;
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      std::vector<double> t;
      for (const auto& p : passes) {
        if (p.traced != traced) continue;
        const auto& o = p.outcomes[i];
        t.push_back((o.end_s - o.start_s) * (scaled ? kProbeRefS / o.probe_s : 1.0));
      }
      sum += median(t);
    }
    return sum;
  };
  std::vector<double> walls, scaled_setup_s;
  for (const auto& p : passes) {
    if (!p.traced) walls.push_back(p.wall_s);
  }
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    scaled_setup_s.push_back(setup_s[i] * kProbeRefS / probe_s[i]);
  }
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"wall_s", query_sum(false, true) / static_cast<double>(workers), "s"},
        {"setup_s", median(scaled_setup_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    // --- per-layer metrics (traced passes) ---
    std::size_t sps = 0, queries = 0;
    double build = 0.0, parse = 0.0, run = 0.0, busy = 0.0, capacity = 0.0;
    Counts counts;
    bool first = true;
    for (const auto& p : passes) {
      if (!p.traced) continue;
      busy += p.query_s;
      capacity += static_cast<double>(workers) * p.wall_s;
      for (const auto& o : p.outcomes) {
        build += o.build_s;
        parse += o.parse_s;
        run += o.run_s;
        ++queries;
        if (first) {
          sps += o.rp_count;
          accumulate(counts, o.counts);
        }
      }
      first = false;
    }
    const double ms_per_query = 1e3 / static_cast<double>(queries);
    const double run_per_pass_s =
        run * static_cast<double>(w.queries.size()) / static_cast<double>(queries);
    metrics = {
        {"core.build_ms", build * ms_per_query, "ms"},
        {"scsql.parse_ms", parse * ms_per_query, "ms"},
        {"exec.run_ms", run * ms_per_query, "ms"},
        {"exec.sps", static_cast<double>(sps), "count"},
        {"exec.us_per_sp", run_per_pass_s / static_cast<double>(sps) * 1e6, "us"},
    };
    // Counts by name: each metric is reported only when its inputs exist.
    auto count = [&](const char* name) {
      if (counts.count(name)) metrics.push_back({name, counts[name], "count"});
    };
    auto ratio = [&](const char* metric, double num, double den, const char* unit) {
      if (den > 0.0) metrics.push_back({metric, num / den, unit});
    };
    auto has = [&](std::initializer_list<const char*> keys) {
      for (const char* k : keys) {
        if (!counts.count(k)) return false;
      }
      return true;
    };
    count("sim.events");
    count("sim.wakeups");
    count("sim.heap_pushes");
    count("sim.fifo_pushes");
    count("sim.callbacks_run");
    count("sim.peak_queue_depth");
    if (has({"sim.events"})) {
      ratio("sim.ns_per_event", run_per_pass_s * 1e9, counts["sim.events"], "ns");
    }
    if (has({"coro.reused", "coro.chunks"})) {
      ratio("sim.coro.reuse_ratio", counts["coro.reused"],
            counts["coro.reused"] + counts["coro.chunks"], "ratio");
    }
    count("transport.frames");
    if (has({"transport.bytes"})) {
      metrics.push_back({"transport.bytes", counts["transport.bytes"], "B"});
    }
    count("transport.stalls");
    if (has({"transport.bytes", "transport.frames"})) {
      ratio("transport.bytes_per_frame", counts["transport.bytes"], counts["transport.frames"],
            "B");
    }
    if (has({"pool.reused", "pool.acquired"})) {
      ratio("transport.frame_pool.reuse_ratio", counts["pool.reused"], counts["pool.acquired"],
            "ratio");
    }
    count("torus.messages");
    count("torus.packets");
    count("tree.inbound_messages");
    count("net.tcp_frames");
    if (has({"plan.items", "plan.batches"})) {
      ratio("plan.batch_fill", counts["plan.items"], counts["plan.batches"], "items/batch");
    }
    ratio("sweep.busy_frac", busy, capacity, "ratio");
    // Like for like: the queries' own time, not the pass's tail.
    metrics.push_back(
        {"obs.trace_overhead", query_sum(true, true) / query_sum(false, true) - 1.0, "ratio"});

    if (std::ofstream out(opt.spans); out) {
      for (const auto& line : span_lines) out << line << "\n";
    } else {
      std::fprintf(stderr, "[perfbench] cannot write spans to %s\n", opt.spans.c_str());
    }
  }

  for (const auto& e : errors) std::fprintf(stderr, "[perfbench] FAILED: %s\n", e.c_str());
  // The run record: everything needed to compare this result with another,
  // and the times as measured, before scaling to the reference host speed.
  std::string cleared_list, pass_walls;
  for (const auto& kv : cleared) cleared_list += (cleared_list.empty() ? "" : ", ") + json_str(kv);
  for (double s : walls) pass_walls += (pass_walls.empty() ? "" : ", ") + std::to_string(s);
  for (const auto& p : passes) {  // probe_us is the median of every probe
    for (const auto& o : p.outcomes) probe_s.push_back(o.probe_s);
  }
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %llu, \"size\": \"%s\", \"nproc\": %u, "
      "\"workers\": %u, \"compiler\": %s, \"build_type\": \"%s\", \"commit\": %s, "
      "\"passes\": %zu, \"queries_per_pass\": %zu, \"setups\": %zu, \"cleared_env\": [%s], "
      "\"probe_us\": %.3f, \"unscaled_wall_s\": %.6f, \"unscaled_setup_s\": %.9f, "
      "\"pass_wall_s\": [%s]}}\n",
      w.name.c_str(), static_cast<unsigned long long>(opt.seed), opt.small ? "small" : "full",
      nproc, workers, json_str(kCompiler).c_str(), PERFBENCH_BUILD_TYPE,
      json_str(opt.commit).c_str(), passes.size(), w.queries.size(), setup_s.size(),
      cleared_list.c_str(), median(probe_s) * 1e6,
      query_sum(false, false) / static_cast<double>(workers), median(setup_s),
      pass_walls.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed, metrics_json(metrics).c_str());
  return 0;
}
