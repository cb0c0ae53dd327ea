#include "net/torus_net.hpp"

#include <algorithm>
#include <cmath>

namespace scsq::net {

TorusNetwork::TorusNetwork(sim::Simulator& sim, Torus3D topology, TorusParams params)
    : sim_(&sim), topology_(topology), params_(params) {
  const int n = topology_.node_count();
  coprocs_.reserve(n);
  for (int i = 0; i < n; ++i) {
    coprocs_.push_back(
        std::make_unique<sim::Resource>(sim, 1, "coproc" + std::to_string(i)));
  }
  inbound_streams_.assign(n, 0);
  switch_seconds_by_dst_.assign(static_cast<std::size_t>(n), 0.0);
}

std::uint32_t TorusNetwork::packets_for(std::uint64_t payload_bytes) const {
  if (payload_bytes == 0) return 1;  // control messages still cost a packet
  return static_cast<std::uint32_t>((payload_bytes + params_.packet_bytes - 1) /
                                    params_.packet_bytes);
}

double TorusNetwork::wire_time(std::uint64_t payload_bytes) const {
  // A partially filled final packet occupies a full packet slot.
  return static_cast<double>(packets_for(payload_bytes)) * params_.packet_bytes /
         params_.link_bandwidth_Bps;
}

double TorusNetwork::effective_wire_time(std::uint64_t payload_bytes) const {
  const double cf = cache_factor(payload_bytes);
  const double ramp = (cf - 1.0) / (params_.cache_max_factor - 1.0 + 1e-300);
  return wire_time(payload_bytes) * (1.0 + params_.memory_slowdown_max * ramp);
}

double TorusNetwork::cache_factor(std::uint64_t payload_bytes) const {
  if (payload_bytes <= params_.cache_knee_bytes) return 1.0;
  double octaves = std::log2(static_cast<double>(payload_bytes) /
                             static_cast<double>(params_.cache_knee_bytes));
  double ramp = std::min(1.0, octaves / params_.cache_ramp_octaves);
  return 1.0 + (params_.cache_max_factor - 1.0) * ramp;
}

sim::Resource& TorusNetwork::link(int from, int to) {
  const std::uint64_t key =
      static_cast<std::uint64_t>(from) * static_cast<std::uint64_t>(topology_.node_count()) +
      static_cast<std::uint64_t>(to);
  auto it = links_.find(key);
  if (it == links_.end()) {
    it = links_
             .emplace(key, std::make_unique<sim::Resource>(
                               *sim_, 1,
                               "link" + std::to_string(from) + "->" + std::to_string(to)))
             .first;
  }
  return *it->second;
}

TorusPath TorusNetwork::compile_path(int from, int to) {
  const auto route = topology_.route(from, to);
  TorusPath path;
  path.from = from;
  path.to = to;
  path.src_coproc = &coproc(from);
  path.dst_coproc = &coproc(to);
  path.hops.reserve(route.size() - 1);
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    path.hops.push_back({&link(route[i], route[i + 1]), &coproc(route[i + 1])});
  }
  return path;
}

const TorusPath::Costs& TorusNetwork::costs(const TorusPath& path,
                                            std::uint64_t payload_bytes) const {
  auto& c = path.memo;
  if (path.memo_valid && c.payload_bytes == payload_bytes) return c;
  const int hops = static_cast<int>(path.hops.size());
  const auto npkt = packets_for(payload_bytes);
  const double cf = cache_factor(payload_bytes);
  const double rendezvous = payload_bytes > params_.eager_limit_bytes
                                ? params_.rendezvous_rtt_per_hop_s * std::max(hops, 1)
                                : 0.0;
  c.payload_bytes = payload_bytes;
  c.packets = npkt;
  // Sender co-processor: per-message overhead, rendezvous handshake (the
  // co-processor is busy during the handshake), per-packet handling.
  c.send_hold_s = params_.per_message_overhead_s + rendezvous +
                  npkt * params_.send_per_packet_s * cf;
  c.forward_hold_s = npkt * params_.forward_per_packet_s * cf;
  c.recv_hold_s = npkt * params_.recv_per_packet_s * cf;
  c.wire_s = effective_wire_time(payload_bytes);
  c.rendezvous = rendezvous > 0.0;
  path.memo_valid = true;
  return c;
}

void TorusNetwork::register_inbound_stream(int node) {
  inbound_streams_.at(node) += 1;
}

void TorusNetwork::unregister_inbound_stream(int node) {
  auto& n = inbound_streams_.at(node);
  SCSQ_CHECK(n > 0) << "unregister of absent inbound stream at node " << node;
  n -= 1;
}

double TorusNetwork::switch_seconds() const {
  double total = 0.0;
  for (double s : switch_seconds_by_dst_) total += s;
  return total;
}

void TorusNetwork::publish_metrics(obs::Registry& registry) const {
  registry.counter("torus.messages").set_total(tx_.messages);
  registry.counter("torus.packets").set_total(tx_.packets);
  registry.counter("torus.rendezvous_messages").set_total(tx_.rendezvous_messages);
  registry.counter("torus.payload_bytes").set_total(tx_.payload_bytes);
  registry.gauge("torus.coproc.switch_s").set(switch_seconds());
  const int n = topology_.node_count();
  for (const auto& [key, link] : links_) {
    // Compiled-but-idle links would flood the snapshot with zero rows;
    // publish used links only.
    if (link->busy_seconds() <= 0.0) continue;
    const int from = static_cast<int>(key / static_cast<std::uint64_t>(n));
    const int to = static_cast<int>(key % static_cast<std::uint64_t>(n));
    obs::Labels labels{{"from", std::to_string(from)}, {"to", std::to_string(to)}};
    registry.gauge("torus.link.busy_s", labels).set(link->busy_seconds());
    registry.gauge("torus.link.utilization", labels).set(link->utilization());
  }
  for (int node = 0; node < n; ++node) {
    const double busy = coprocs_[static_cast<std::size_t>(node)]->busy_seconds();
    if (busy <= 0.0) continue;  // 512 idle co-processors would drown the snapshot
    obs::Labels labels{{"node", std::to_string(node)}};
    registry.gauge("torus.coproc.busy_s", labels).set(busy);
    registry.gauge("torus.coproc.utilization", labels)
        .set(coprocs_[static_cast<std::size_t>(node)]->utilization());
  }
}

double TorusNetwork::link_busy_seconds(int from, int to) const {
  const std::uint64_t key =
      static_cast<std::uint64_t>(from) * static_cast<std::uint64_t>(topology_.node_count()) +
      static_cast<std::uint64_t>(to);
  auto it = links_.find(key);
  return it == links_.end() ? 0.0 : it->second->busy_seconds();
}

sim::Task<void> TorusNetwork::transmit(int from, int to, std::uint64_t payload_bytes) {
  const TorusPath path = compile_path(from, to);
  co_await send(path, payload_bytes, nullptr);
}

sim::Task<void> TorusNetwork::send(const TorusPath& path, std::uint64_t payload_bytes,
                                   sim::Resource* send_slots) {
  // A copy: messages of another size may re-memoize the path while this
  // one is in flight.
  const TorusPath::Costs c = costs(path, payload_bytes);
  tx_.messages += 1;
  tx_.packets += c.packets;
  tx_.payload_bytes += payload_bytes;
  if (c.rendezvous) tx_.rendezvous_messages += 1;

  co_await path.src_coproc->use(c.send_hold_s);

  const std::size_t hops = path.hops.size();
  if (hops == 0) {
    // Self-delivery (not used by real queries, but keeps the model total).
    if (send_slots) send_slots->release();
  }

  for (std::size_t i = 0; i < hops; ++i) {
    co_await path.hops[i].link->use(c.wire_s);
    if (i == 0 && send_slots) send_slots->release();
    if (i + 1 < hops) {
      // Store-and-forward through the intermediate node's co-processor.
      co_await path.hops[i].coproc->use(c.forward_hold_s);
    }
  }

  // Receive handling at the destination. With k live inbound streams,
  // interleaved arrivals make the single-threaded co-processor switch
  // sources on an expected (k-1)/k of the messages.
  const int streams = std::max(1, inbound_streams_[path.to]);
  const double switch_cost = params_.source_switch_penalty_s *
                             static_cast<double>(streams - 1) /
                             static_cast<double>(streams);
  switch_seconds_by_dst_[static_cast<std::size_t>(path.to)] += switch_cost;
  co_await path.dst_coproc->use(c.recv_hold_s + switch_cost);
}

}  // namespace scsq::net
