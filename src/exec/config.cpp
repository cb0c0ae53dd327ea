#include "exec/config.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <thread>

#include "scsql/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace scsq::exec {

std::optional<double> parse_interval(std::string_view text) {
  // Unlike strtod, from_chars reads no '+', leading blank or hex prefix;
  // "inf" and "nan" fail the finiteness check, out-of-range values ec.
  double v = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size()) return std::nullopt;
  if (!std::isfinite(v) || v < kMinSampleInterval) return std::nullopt;
  return v;
}

Settings from_env(const EnvLookup& lookup) {
  const auto get = [&lookup](const char* name) -> const char* {
    const char* v = lookup ? lookup(name) : std::getenv(name);
    return v != nullptr && *v != '\0' ? v : nullptr;
  };
  const auto get_uint = [&get](const char* name, std::uint64_t fallback, std::uint64_t lo,
                               std::uint64_t hi) -> std::uint64_t {
    const char* v = get(name);
    if (v == nullptr) return fallback;
    if (const auto n = util::parse_uint(v, lo, hi)) return *n;
    const std::string range = hi == std::numeric_limits<std::uint64_t>::max()
                                  ? "of at least " + std::to_string(lo)
                                  : "from " + std::to_string(lo) + " to " + std::to_string(hi);
    throw scsql::Error(std::string(name) + " must be an integer " + range + ", got '" + v +
                       "'");
  };

  Settings s;
  ExecOptions& exec = s.config.exec;
  if (const char* v = get("SCSQ_SAMPLE_INTERVAL")) {
    const auto interval = parse_interval(v);
    if (!interval) {
      throw scsql::Error(std::string("SCSQ_SAMPLE_INTERVAL must be a finite decimal number "
                                     "of at least 1e-6 simulated seconds, got '") +
                         v + "' (unset the variable to disable sampling)");
    }
    exec.sample_interval_s = *interval;
  }
  if (const char* v = get("SCSQ_MONITOR")) s.monitor = v;
  exec.buffer_bytes = get_uint("SCSQ_BUFFER_BYTES", exec.buffer_bytes, 1,
                               std::numeric_limits<std::uint64_t>::max());
  exec.send_buffers = static_cast<int>(get_uint("SCSQ_SEND_BUFFERS", exec.send_buffers, 1,
                                                std::numeric_limits<int>::max()));
  exec.max_results = static_cast<std::size_t>(
      get_uint("SCSQ_MAX_RESULTS", 0, 0, std::numeric_limits<std::size_t>::max()));
  if (get_uint("SCSQ_SMART_SELECT", 0, 0, 1) == 1) exec.node_selection = NodeSelection::kSpread;
  s.verbose = get_uint("SCSQ_VERBOSE", 0, 0, 1) == 1;
  s.quick = get_uint("SCSQ_BENCH_QUICK", 0, 0, 1) == 1;
  const unsigned cores = std::thread::hardware_concurrency();
  s.threads = static_cast<unsigned>(
      get_uint("SCSQ_BENCH_THREADS", cores == 0 ? 1 : cores, 1, util::ThreadPool::kMaxThreads));
  if (const char* v = get("SCSQ_TRACE")) s.trace_path = v;
  if (const char* v = get("SCSQ_RECORD")) s.record_path = v;
  return s;
}

void register_env_monitor(Engine& engine, const Settings& settings) {
  if (settings.monitor.empty()) return;
  try {
    engine.register_monitor(settings.monitor);
  } catch (const scsql::Error& e) {
    throw scsql::Error("SCSQ_MONITOR='" + settings.monitor + "' is not a monitor: " +
                       e.what());
  }
}

}  // namespace scsq::exec
