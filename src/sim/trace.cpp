#include "sim/trace.hpp"

#include <map>
#include <ostream>

#include "util/json.hpp"
#include "util/logging.hpp"

namespace scsq::sim {

void Trace::interval(std::string track, std::string name, Time start, Time end) {
  SCSQ_CHECK(end >= start) << "negative trace interval";
  events_.push_back(Event{std::move(track), std::move(name), start, end - start, 0.0, 0,
                          Kind::kInterval});
}

void Trace::instant(std::string track, std::string name, Time at) {
  events_.push_back(Event{std::move(track), std::move(name), at, 0.0, 0.0, 0, Kind::kInstant});
}

void Trace::flow(std::string from_track, std::string to_track, std::string name, Time start,
                 Time end) {
  SCSQ_CHECK(end >= start) << "negative flow duration";
  const std::uint64_t id = next_flow_id_++;
  events_.push_back(
      Event{std::move(from_track), name, start, 0.0, 0.0, id, Kind::kFlowStart});
  events_.push_back(
      Event{std::move(to_track), std::move(name), end, 0.0, 0.0, id, Kind::kFlowEnd});
}

void Trace::counter(std::string track, std::string name, Time at, double value) {
  events_.push_back(
      Event{std::move(track), std::move(name), at, 0.0, value, 0, Kind::kCounter});
}

double Trace::track_busy_seconds(const std::string& track) const {
  double total = 0;
  for (const auto& e : events_) {
    if (e.kind == Kind::kInterval && e.track == track) total += e.duration;
  }
  return total;
}

using util::json::write_escaped;

void Trace::write_json(std::ostream& os) const {
  // Stable tid per track, in first-appearance order.
  std::map<std::string, int> tids;
  for (const auto& e : events_) {
    tids.emplace(e.track, static_cast<int>(tids.size()) + 1);
  }
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [track, tid] : tids) {
    if (!first) os << ",";
    first = false;
    os << R"({"ph":"M","pid":1,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":")";
    write_escaped(os, track);
    os << "\"}}";
  }
  for (const auto& e : events_) {
    os << ",";
    const int tid = tids.at(e.track);
    switch (e.kind) {
      case Kind::kInterval:
        os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << e.start * 1e6
           << ",\"dur\":" << e.duration * 1e6;
        break;
      case Kind::kInstant:
        os << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << e.start * 1e6
           << ",\"s\":\"t\"";
        break;
      case Kind::kFlowStart:
        os << "{\"ph\":\"s\",\"cat\":\"stream\",\"pid\":1,\"tid\":" << tid
           << ",\"ts\":" << e.start * 1e6 << ",\"id\":" << e.id;
        break;
      case Kind::kFlowEnd:
        // bp:"e" binds the arrow to the enclosing slice at the arrival
        // timestamp instead of the next slice.
        os << "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"stream\",\"pid\":1,\"tid\":" << tid
           << ",\"ts\":" << e.start * 1e6 << ",\"id\":" << e.id;
        break;
      case Kind::kCounter:
        os << "{\"ph\":\"C\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << e.start * 1e6
           << ",\"args\":{\"value\":" << e.value << "}";
        break;
    }
    os << ",\"name\":\"";
    write_escaped(os, e.name);
    os << "\"}";
  }
  os << "]}";
}

}  // namespace scsq::sim
