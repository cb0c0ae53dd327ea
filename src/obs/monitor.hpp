// Monitor-alert records and their JSONL form.
//
// A monitor query (Engine::register_monitor) re-runs an introspection
// SQEP over every telemetry window the sampler takes; every row the
// plan emits is one MonitorAlert. Alerts are collected during the
// statement and leave through the run record (exec/record.hpp) after it
// completes, so stdout and the simulated timeline stay untouched. Each
// line starts with `{"alert"` (the splice-anchor convention of
// obs::Sampler::write_jsonl) and carries the monitor name, its query
// text, the window it fired in, and the matched row serialized as JSON.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "catalog/object.hpp"

namespace scsq::obs {

/// One row matched by a monitor query in one sampler window.
struct MonitorAlert {
  std::string monitor;     ///< monitor name ("m1", "m2", ...)
  std::string query;       ///< the monitor's SCSQL text
  std::size_t window = 0;  ///< sampler window index the row fired in
  double t_start = 0.0;    ///< window bounds (simulated seconds)
  double t_end = 0.0;
  std::size_t row = 0;     ///< row index within this monitor x window run
  catalog::Object value;   ///< the matched row (scalar or bag)
};

/// Serializes a catalog object as a JSON value (bags/arrays as arrays,
/// strings escaped, non-finite reals as quoted "inf"/"nan" — the same
/// convention as the sampler's gauge export).
void write_object_json(std::ostream& os, const catalog::Object& value);

/// One JSONL line per alert:
/// {"alert":N,"monitor":"m1","window":W,"t_start":..,"t_end":..,
///  "row":R,"value":...,"query":"..."}
void write_alerts_jsonl(std::ostream& os, const std::vector<MonitorAlert>& alerts);

}  // namespace scsq::obs
