#include "obs/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "util/json.hpp"
#include "util/logging.hpp"

namespace scsq::obs {

namespace {

using util::json::write_escaped;
using util::json::write_number;

std::string fmt_time(double s) {
  char buf[32];
  if (s >= 1.0 || s == 0.0) {
    std::snprintf(buf, sizeof(buf), "%.3f s", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us", s * 1e6);
  }
  return buf;
}

std::string fmt_bytes(std::uint64_t b) {
  char buf[32];
  if (b >= 10ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", static_cast<double>(b) / (1024.0 * 1024.0));
  } else if (b >= 10ull * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", static_cast<double>(b) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(b));
  }
  return buf;
}

}  // namespace

double ProfileNode::busy_s() const {
  return std::max(0.0, drive_s - recv_wait_s - demarshal_s);
}

double ProfileNode::active_s() const {
  return std::max(0.0, drive_s - recv_wait_s) + marshal_s + send_stall_s;
}

double ProfileEdge::occupancy_s() const {
  return std::max(0.0, transit_s - window_wait_s);
}

double ProfileEdge::packetization_s() const {
  if (wire_bytes <= payload_bytes || wire_bytes == 0) return 0.0;
  return occupancy_s() * static_cast<double>(wire_bytes - payload_bytes) /
         static_cast<double>(wire_bytes);
}

double Attribution::attributed_total_s() const {
  double total = 0.0;
  for (const auto& s : slices) total += s.attributed_s;
  return total;
}

std::vector<std::uint64_t> Profile::critical_path() const {
  if (nodes.empty()) return {};
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < nodes.size(); ++i) index.emplace(nodes[i].rp, i);

  // Edges whose endpoints both exist (hand-built profiles may be sloppy;
  // the engine never is).
  std::vector<int> in_degree(nodes.size(), 0);
  std::vector<std::vector<std::size_t>> out(nodes.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    auto s = index.find(edges[e].src_rp);
    auto d = index.find(edges[e].dst_rp);
    if (s == index.end() || d == index.end() || s->second == d->second) continue;
    out[s->second].push_back(e);
    ++in_degree[d->second];
  }

  // Kahn topological order; smaller RP id first keeps it deterministic.
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (in_degree[i] == 0) ready.push_back(i);
  }
  auto by_rp = [&](std::size_t a, std::size_t b) { return nodes[a].rp > nodes[b].rp; };
  std::sort(ready.begin(), ready.end(), by_rp);  // pop_back yields smallest

  std::vector<double> dist(nodes.size(), 0.0);
  std::vector<std::ptrdiff_t> pred(nodes.size(), -1);
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < nodes.size(); ++i) dist[i] = nodes[i].active_s();
  while (!ready.empty()) {
    const std::size_t n = ready.back();
    ready.pop_back();
    order.push_back(n);
    for (std::size_t e : out[n]) {
      const std::size_t d = index.at(edges[e].dst_rp);
      // cand >= the no-predecessor initial dist[d] always (weights are
      // non-negative), so a consumer's path always comes through some
      // producer; ties break toward the smaller producer RP id.
      const double cand = dist[n] + edges[e].occupancy_s() + nodes[d].active_s();
      const bool tie_smaller_rp =
          cand == dist[d] &&
          (pred[d] < 0 || nodes[n].rp < nodes[static_cast<std::size_t>(pred[d])].rp);
      if (cand > dist[d] || tie_smaller_rp) {
        dist[d] = cand;
        pred[d] = static_cast<std::ptrdiff_t>(n);
      }
      if (--in_degree[d] == 0) {
        ready.push_back(d);
        std::sort(ready.begin(), ready.end(), by_rp);
      }
    }
  }
  if (order.size() != nodes.size()) {
    // Cycle (cannot happen for engine-built profiles): fall back to the
    // heaviest single node rather than looping forever.
    SCSQ_LOG(kWarn) << "profile DAG has a cycle; critical path degraded";
  }

  if (order.empty()) return {};
  // Heaviest endpoint wins; ties toward the smaller RP id.
  std::size_t best = order[0];
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t n = order[i];
    if (dist[n] > dist[best] || (dist[n] == dist[best] && nodes[n].rp < nodes[best].rp)) {
      best = n;
    }
  }

  std::vector<std::uint64_t> path;
  for (std::ptrdiff_t n = static_cast<std::ptrdiff_t>(best); n >= 0; n = pred[static_cast<std::size_t>(n)]) {
    path.push_back(nodes[static_cast<std::size_t>(n)].rp);
    if (path.size() > nodes.size()) break;  // defensive (cycle fallback)
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Attribution Profile::attribution() const {
  Attribution a;
  a.elapsed_s = elapsed_s;

  const auto path = critical_path();
  std::set<std::uint64_t> on_path(path.begin(), path.end());
  std::set<std::pair<std::uint64_t, std::uint64_t>> path_hops;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    path_hops.emplace(path[i], path[i + 1]);
  }

  double compute = 0.0, marshal = 0.0, sender_stall = 0.0;
  for (const auto& n : nodes) {
    if (!on_path.contains(n.rp)) continue;
    compute += n.busy_s();
    marshal += n.marshal_s + n.demarshal_s;
    sender_stall += n.send_stall_s;
  }
  double wire = 0.0, packetization = 0.0;
  for (const auto& e : edges) {
    if (!path_hops.contains({e.src_rp, e.dst_rp})) continue;
    packetization += e.packetization_s();
    wire += e.occupancy_s() - e.packetization_s();
    sender_stall += e.window_wait_s;
  }

  const double setup = std::clamp(setup_s, 0.0, std::max(0.0, elapsed_s));
  const double run = std::max(0.0, elapsed_s - setup);

  struct Raw {
    const char* cause;
    double s;
  };
  const Raw raws[] = {
      {"compute", compute},
      {"marshal", marshal},
      {"link.wire", wire},
      {"link.packetization", packetization},
      {"coproc.switch", std::max(0.0, coproc_switch_s)},
      {"sender.stall", sender_stall},
  };
  double raw_total = 0.0;
  for (const auto& r : raws) raw_total += r.s;

  // Pipeline overlap can make raw cause time exceed the run window;
  // scale shares down then. Undershoot becomes explicit idle time.
  const double scale = raw_total > run && raw_total > 0.0 ? run / raw_total : 1.0;
  const double idle = raw_total < run ? run - raw_total : 0.0;

  auto push = [&](const std::string& cause, double raw, double attributed) {
    AttributionSlice s;
    s.cause = cause;
    s.raw_s = raw;
    s.attributed_s = attributed;
    s.share = elapsed_s > 0.0 ? attributed / elapsed_s : 0.0;
    a.slices.push_back(std::move(s));
  };
  push("setup", setup_s, setup);
  for (const auto& r : raws) push(r.cause, r.s, r.s * scale);
  push("idle", idle, idle);
  return a;
}

void Profile::render_text(std::ostream& os) const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "-- EXPLAIN ANALYZE: %zu stream process(es), %zu connection(s), elapsed %s "
                "(setup %s)\n",
                nodes.size(), edges.size(), fmt_time(elapsed_s).c_str(),
                fmt_time(setup_s).c_str());
  os << buf;

  const auto path = critical_path();
  std::set<std::uint64_t> on_path(path.begin(), path.end());

  std::map<std::uint64_t, const ProfileNode*> by_rp;
  for (const auto& n : nodes) by_rp.emplace(n.rp, &n);
  std::map<std::uint64_t, std::vector<const ProfileEdge*>> incoming;
  std::set<std::uint64_t> has_outgoing;
  for (const auto& e : edges) {
    incoming[e.dst_rp].push_back(&e);
    has_outgoing.insert(e.src_rp);
  }
  for (auto& [rp, in] : incoming) {
    std::sort(in.begin(), in.end(), [](const ProfileEdge* a, const ProfileEdge* b) {
      return a->src_rp < b->src_rp;
    });
  }

  std::set<std::uint64_t> printed;
  // Recursive sink-down plan tree; a node feeding several consumers
  // prints its subtree once and a back-reference afterwards.
  auto print_node = [&](auto&& self, std::uint64_t rp, int depth) -> void {
    const std::string indent(static_cast<std::size_t>(depth) * 4, ' ');
    auto it = by_rp.find(rp);
    if (it == by_rp.end()) return;
    if (printed.contains(rp)) {
      os << indent << "rp#" << rp << " (shown above)\n";
      return;
    }
    printed.insert(rp);
    const ProfileNode& n = *it->second;
    std::snprintf(buf, sizeof(buf),
                  "%srp#%llu %s%s @ %s%s  out=%llu busy=%s marshal=%s demarshal=%s "
                  "stall=%s wait=%s\n",
                  indent.c_str(), static_cast<unsigned long long>(n.rp),
                  n.op.empty() ? "" : n.op.c_str(), n.op.empty() ? "" : "",
                  n.loc.c_str(), on_path.contains(n.rp) ? " [critical]" : "",
                  static_cast<unsigned long long>(n.elements_out),
                  fmt_time(n.busy_s()).c_str(), fmt_time(n.marshal_s).c_str(),
                  fmt_time(n.demarshal_s).c_str(), fmt_time(n.send_stall_s).c_str(),
                  fmt_time(n.recv_wait_s).c_str());
    os << buf;
    std::snprintf(buf, sizeof(buf), "%s  query: %s\n", indent.c_str(), n.query.c_str());
    os << buf;
    for (const ProfileEdge* e : incoming[rp]) {
      std::snprintf(buf, sizeof(buf),
                    "%s  <- rp#%llu [%s] %llu frame(s) %s payload / %s wire, occ=%s "
                    "winwait=%s, latency p50=%s p95=%s p99=%s\n",
                    indent.c_str(), static_cast<unsigned long long>(e->src_rp),
                    e->type.c_str(), static_cast<unsigned long long>(e->frames),
                    fmt_bytes(e->payload_bytes).c_str(), fmt_bytes(e->wire_bytes).c_str(),
                    fmt_time(e->occupancy_s()).c_str(), fmt_time(e->window_wait_s).c_str(),
                    fmt_time(e->latency.p50()).c_str(), fmt_time(e->latency.p95()).c_str(),
                    fmt_time(e->latency.p99()).c_str());
      os << buf;
      self(self, e->src_rp, depth + 1);
    }
  };

  std::vector<std::uint64_t> sinks;
  for (const auto& n : nodes) {
    if (!has_outgoing.contains(n.rp)) sinks.push_back(n.rp);
  }
  std::sort(sinks.begin(), sinks.end());
  for (auto rp : sinks) print_node(print_node, rp, 0);
  // Disconnected leftovers (defensive; engine profiles are connected).
  for (const auto& n : nodes) {
    if (!printed.contains(n.rp)) print_node(print_node, n.rp, 0);
  }

  os << "critical path:";
  if (path.empty()) {
    os << " (none)";
  } else {
    for (std::size_t i = 0; i < path.size(); ++i) {
      os << (i ? " -> " : " ") << "rp#" << path[i];
    }
  }
  os << '\n';

  const Attribution attr = attribution();
  os << "attribution (shares of simulated elapsed time):\n";
  for (const auto& s : attr.slices) {
    std::snprintf(buf, sizeof(buf), "  %-20s %12s  %5.1f%%   (raw %s)\n", s.cause.c_str(),
                  fmt_time(s.attributed_s).c_str(), s.share * 100.0,
                  fmt_time(s.raw_s).c_str());
    os << buf;
  }
  double share_total = 0.0;
  for (const auto& s : attr.slices) share_total += s.share;
  std::snprintf(buf, sizeof(buf), "  %-20s %12s  %5.1f%%\n", "total",
                fmt_time(attr.attributed_total_s()).c_str(), share_total * 100.0);
  os << buf;
}

void Profile::write_json(std::ostream& os) const {
  os << "{\"elapsed_s\":";
  write_number(os, elapsed_s);
  os << ",\"setup_s\":";
  write_number(os, setup_s);
  os << ",\"coproc_switch_s\":";
  write_number(os, coproc_switch_s);

  os << ",\"critical_path\":[";
  const auto path = critical_path();
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) os << ',';
    os << path[i];
  }
  os << ']';

  os << ",\"nodes\":[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& n = nodes[i];
    if (i) os << ',';
    os << "{\"rp\":" << n.rp << ",\"loc\":\"";
    write_escaped(os, n.loc);
    os << "\",\"op\":\"";
    write_escaped(os, n.op);
    os << "\",\"query\":\"";
    write_escaped(os, n.query);
    os << "\",\"is_client\":" << (n.is_client ? "true" : "false")
       << ",\"elements_out\":" << n.elements_out << ",\"bytes_sent\":" << n.bytes_sent
       << ",\"bytes_received\":" << n.bytes_received << ",\"drive_s\":";
    write_number(os, n.drive_s);
    os << ",\"busy_s\":";
    write_number(os, n.busy_s());
    os << ",\"recv_wait_s\":";
    write_number(os, n.recv_wait_s);
    os << ",\"demarshal_s\":";
    write_number(os, n.demarshal_s);
    os << ",\"marshal_s\":";
    write_number(os, n.marshal_s);
    os << ",\"send_stall_s\":";
    write_number(os, n.send_stall_s);
    os << '}';
  }
  os << ']';

  os << ",\"edges\":[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto& e = edges[i];
    if (i) os << ',';
    os << "{\"src\":" << e.src_rp << ",\"dst\":" << e.dst_rp << ",\"type\":\"";
    write_escaped(os, e.type);
    os << "\",\"frames\":" << e.frames << ",\"payload_bytes\":" << e.payload_bytes
       << ",\"wire_bytes\":" << e.wire_bytes << ",\"transit_s\":";
    write_number(os, e.transit_s);
    os << ",\"window_wait_s\":";
    write_number(os, e.window_wait_s);
    os << ",\"occupancy_s\":";
    write_number(os, e.occupancy_s());
    os << ",\"packetization_s\":";
    write_number(os, e.packetization_s());
    os << ",\"latency\":{\"count\":" << e.latency.count() << ",\"min\":";
    write_number(os, e.latency.min());
    os << ",\"max\":";
    write_number(os, e.latency.max());
    os << ",\"mean\":";
    write_number(os, e.latency.mean());
    os << ",\"p50\":";
    write_number(os, e.latency.p50());
    os << ",\"p95\":";
    write_number(os, e.latency.p95());
    os << ",\"p99\":";
    write_number(os, e.latency.p99());
    os << "}}";
  }
  os << ']';

  const Attribution attr = attribution();
  os << ",\"attribution\":{\"slices\":[";
  for (std::size_t i = 0; i < attr.slices.size(); ++i) {
    const auto& s = attr.slices[i];
    if (i) os << ',';
    os << "{\"cause\":\"";
    write_escaped(os, s.cause);
    os << "\",\"raw_s\":";
    write_number(os, s.raw_s);
    os << ",\"attributed_s\":";
    write_number(os, s.attributed_s);
    os << ",\"share\":";
    write_number(os, s.share);
    os << '}';
  }
  os << "],\"attributed_total_s\":";
  write_number(os, attr.attributed_total_s());
  os << "}}";
}

std::string Profile::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace scsq::obs
