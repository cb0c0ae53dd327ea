// The run record: one JSONL file (SCSQ_RECORD=path) that holds what a
// shell session or a bench measured, beside its stdout.
//
// Every line is a JSON object whose first member is "kind":
//   header   the first line: the resolved settings, host CPUs, compiler
//   metrics  the metrics registry after a bench sweep point's last run
//            or after a shell statement
//   profile  the EXPLAIN ANALYZE profile of the same run
//   window   one per sampler window of that run (SCSQ_SAMPLE_INTERVAL)
//   alert    one per monitor alert of that run (SCSQ_MONITOR)
//   harness  one per bench sweep: points, threads, wall time, events
//   error    one per failed statement: its text, message, line, column
// A sweep point's lines carry "point" (its index in the sweep), a shell
// statement's carry "statement" (its ordinal in the session); the lines
// of one point or statement are consecutive, in the order above. One
// writer writes them, in point order, after the runs, so the record
// changes neither stdout nor the simulated timeline.
// `metrics_diff --record` validates and summarizes a record.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>

#include "exec/config.hpp"
#include "scsql/error.hpp"

namespace scsq::exec {

/// Opens settings.record_path, truncating it, and writes the header line.
/// A path that cannot be opened is an scsql::Error naming SCSQ_RECORD.
std::ofstream open_record(const Settings& settings);

/// One number of a metrics or harness line, written as "name":value
/// (integers are exact up to 2^53).
struct Field {
  std::string_view name;
  double value;
};

/// The machine's metrics registry, published and serialized as JSON.
std::string registry_json(hw::Machine& machine);

/// The metrics line of a run: `tag`, the query text, `fields`, then the
/// registry snapshot `registry` (registry_json) taken after the run.
std::string metrics_line(std::string_view tag, std::string_view query,
                         std::initializer_list<Field> fields, std::string_view registry);

/// The profile, window and alert lines of the run `report` came from,
/// each led by `tag` (`"point":3` or `"statement":2`). Call before the
/// engine runs another statement.
std::string run_lines(Engine& engine, const RunReport& report, std::string_view tag);

/// The error line of a failed statement.
std::string error_line(std::string_view tag, std::string_view text, const scsql::Error& e);

/// The harness line that closes a bench sweep.
std::string harness_line(std::initializer_list<Field> fields);

}  // namespace scsq::exec
