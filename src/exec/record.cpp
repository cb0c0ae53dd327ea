#include "exec/record.hpp"

#include <sstream>
#include <thread>

#include "obs/monitor.hpp"
#include "util/json.hpp"

namespace scsq::exec {

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

// Writes each line of `jsonl` (objects starting with `{`) as a record
// line of `kind`: `{"kind":"<kind>",<tag>,` and the rest of the object.
void splice_lines(std::ostream& os, const char* kind, std::string_view tag,
                  const std::string& jsonl) {
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    os << "{\"kind\":\"" << kind << "\"," << tag << ',' << std::string_view(line).substr(1)
       << '\n';
  }
}

void write_fields(std::ostream& os, std::initializer_list<Field> fields) {
  for (const Field& f : fields) {
    os << ",\"" << f.name << "\":";
    util::json::write_number(os, f.value);
  }
}

}  // namespace

std::ofstream open_record(const Settings& settings) {
  std::ofstream os(settings.record_path, std::ios::trunc);
  if (!os) {
    throw scsql::Error("SCSQ_RECORD: cannot open '" + settings.record_path + "' for writing");
  }
  const ExecOptions& exec = settings.config.exec;
  os.precision(17);
  os << "{\"kind\":\"header\",\"settings\":{\"sample_interval_s\":" << exec.sample_interval_s
     << ",\"monitor\":";
  util::json::write_string(os, settings.monitor);
  os << ",\"buffer_bytes\":" << exec.buffer_bytes << ",\"send_buffers\":" << exec.send_buffers
     << ",\"max_results\":" << exec.max_results << ",\"smart_select\":"
     << (exec.node_selection == NodeSelection::kSpread ? 1 : 0)
     << ",\"verbose\":" << (settings.verbose ? 1 : 0) << ",\"quick\":" << (settings.quick ? 1 : 0)
     << ",\"threads\":" << settings.threads << ",\"trace\":";
  util::json::write_string(os, settings.trace_path);
  os << ",\"record\":";
  util::json::write_string(os, settings.record_path);
  os << "},\"host_cpus\":" << std::thread::hardware_concurrency() << ",\"compiler\":";
  util::json::write_string(os, kCompiler);
  os << "}\n";
  return os;
}

std::string registry_json(hw::Machine& machine) {
  machine.publish_metrics();
  std::ostringstream os;
  machine.metrics().write_json(os);
  return os.str();
}

std::string metrics_line(std::string_view tag, std::string_view query,
                         std::initializer_list<Field> fields, std::string_view registry) {
  std::ostringstream os;
  os << "{\"kind\":\"metrics\"," << tag << ",\"query\":";
  util::json::write_string(os, query);
  write_fields(os, fields);
  os << ",\"metrics\":" << registry << "}\n";
  return os.str();
}

std::string run_lines(Engine& engine, const RunReport& report, std::string_view tag) {
  std::ostringstream os;
  if (report.rp_count > 0) {
    os << "{\"kind\":\"profile\"," << tag << ",\"profile\":" << engine.profile(report).json()
       << "}\n";
  }
  std::ostringstream windows;
  engine.sampler().write_jsonl(windows);
  splice_lines(os, "window", tag, windows.str());
  std::ostringstream alerts;
  obs::write_alerts_jsonl(alerts, engine.monitor_alerts());
  splice_lines(os, "alert", tag, alerts.str());
  return os.str();
}

std::string error_line(std::string_view tag, std::string_view text, const scsql::Error& e) {
  std::ostringstream os;
  os << "{\"kind\":\"error\"," << tag << ",\"text\":";
  util::json::write_string(os, text);
  os << ",\"message\":";
  util::json::write_string(os, e.what());
  os << ",\"line\":" << e.pos().line << ",\"column\":" << e.pos().column << "}\n";
  return os.str();
}

std::string harness_line(std::initializer_list<Field> fields) {
  std::ostringstream os;
  os << "{\"kind\":\"harness\"";
  write_fields(os, fields);
  os << "}\n";
  return os.str();
}

}  // namespace scsq::exec
