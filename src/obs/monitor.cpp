#include "obs/monitor.hpp"

#include <ostream>

#include "util/json.hpp"

namespace scsq::obs {

using util::json::write_escaped;
using util::json::write_number;

void write_object_json(std::ostream& os, const catalog::Object& value) {
  using catalog::Kind;
  switch (value.kind()) {
    case Kind::kNull:
      os << "null";
      return;
    case Kind::kInt:
      os << value.as_int();
      return;
    case Kind::kReal:
      write_number(os, value.as_real());
      return;
    case Kind::kBool:
      os << (value.as_bool() ? "true" : "false");
      return;
    case Kind::kStr:
      os << '"';
      write_escaped(os, value.as_str());
      os << '"';
      return;
    case Kind::kBag: {
      os << '[';
      bool first = true;
      for (const auto& el : value.as_bag()) {
        if (!first) os << ',';
        first = false;
        write_object_json(os, el);
      }
      os << ']';
      return;
    }
    case Kind::kDArray: {
      os << '[';
      bool first = true;
      for (double v : value.as_darray()) {
        if (!first) os << ',';
        first = false;
        write_number(os, v);
      }
      os << ']';
      return;
    }
    case Kind::kCArray: {
      os << '[';
      bool first = true;
      for (const auto& v : value.as_carray()) {
        if (!first) os << ',';
        first = false;
        os << "{\"re\":";
        write_number(os, v.real());
        os << ",\"im\":";
        write_number(os, v.imag());
        os << '}';
      }
      os << ']';
      return;
    }
    case Kind::kSynth:
      os << "{\"synth_bytes\":" << value.as_synth().bytes
         << ",\"seq\":" << value.as_synth().seq << '}';
      return;
    case Kind::kSp: {
      const auto sp = value.as_sp();
      os << "{\"sp\":" << sp.id << ",\"cluster\":\"";
      write_escaped(os, sp.cluster);
      os << "\"}";
      return;
    }
  }
  os << "null";  // unreachable
}

void write_alerts_jsonl(std::ostream& os, const std::vector<MonitorAlert>& alerts) {
  const auto prev_precision = os.precision(17);
  for (std::size_t n = 0; n < alerts.size(); ++n) {
    const MonitorAlert& a = alerts[n];
    os << "{\"alert\":" << n << ",\"monitor\":\"";
    write_escaped(os, a.monitor);
    os << "\",\"window\":" << a.window << ",\"t_start\":" << a.t_start
       << ",\"t_end\":" << a.t_end << ",\"row\":" << a.row << ",\"value\":";
    write_object_json(os, a.value);
    os << ",\"query\":\"";
    write_escaped(os, a.query);
    os << "\"}\n";
  }
  os.precision(prev_precision);
}

}  // namespace scsq::obs
