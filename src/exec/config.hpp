// The settings of scsql_shell and the figure benches, resolved from the
// environment in one place.
//
// The SCSQ_* environment variables configure only those two kinds of
// program. from_env() reads each of them exactly once, integers through
// util::parse_uint and intervals through parse_interval, and a bad value
// is an scsql::Error naming the variable and the value. An empty value
// means unset. The library never reads the environment: a program that
// embeds it passes ExecOptions.
//
//   SCSQ_SAMPLE_INTERVAL  sampler window in simulated seconds, a finite
//                         decimal >= 1e-6 (default: no sampling)
//   SCSQ_MONITOR          introspection monitor query (DESIGN.md §5.8)
//   SCSQ_BUFFER_BYTES     shell: stream buffer size (default 65536)
//   SCSQ_SEND_BUFFERS     shell: 1 = single, 2 = double buffering (default 2)
//   SCSQ_MAX_RESULTS      shell: stop condition (default 0 = unlimited)
//   SCSQ_SMART_SELECT     shell: 1 = topology-aware node selection
//   SCSQ_VERBOSE          shell: 1 = per-RP table after each query
//   SCSQ_BENCH_QUICK      benches: 1 = small workloads (0 or unset = full)
//   SCSQ_BENCH_THREADS    benches: sweep workers, 1..1024 (default: every core)
//   SCSQ_TRACE            Chrome trace path: the shell's whole session, or
//                         a bench's first sweep point
//   SCSQ_RECORD           run record path (exec/record.hpp)
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "core/scsq.hpp"

namespace scsq::exec {

struct Settings {
  /// The engine's part: sample_interval_s, and for the shell
  /// buffer_bytes, send_buffers, max_results and node_selection.
  ScsqConfig config;
  std::string monitor;      ///< SCSQ_MONITOR, "" = none
  bool quick = false;       ///< SCSQ_BENCH_QUICK
  unsigned threads = 1;     ///< SCSQ_BENCH_THREADS, every core when unset
  bool verbose = false;     ///< SCSQ_VERBOSE
  std::string trace_path;   ///< SCSQ_TRACE, "" = no trace
  std::string record_path;  ///< SCSQ_RECORD, "" = no record
};

/// One variable's value, or nullptr when it is unset.
using EnvLookup = std::function<const char*(const char* name)>;

/// Resolves every SCSQ_* setting from `lookup`, by default the process
/// environment. Throws scsql::Error on the first bad value.
Settings from_env(const EnvLookup& lookup = nullptr);

/// Parses a sample interval: a finite decimal number of simulated
/// seconds ("0.05", "1e-3") of at least kMinSampleInterval. Anything
/// else ("inf", "nan", "0x10", blanks, a sign, trailing text, a smaller
/// value) is nullopt. Shared by SCSQ_SAMPLE_INTERVAL and `\watch`.
std::optional<double> parse_interval(std::string_view text);

/// Registers the SCSQ_MONITOR query on `engine`, when one is set. A query
/// the engine rejects is an scsql::Error naming the variable and the value.
void register_env_monitor(Engine& engine, const Settings& settings);

}  // namespace scsq::exec
