#include "net/ethernet.hpp"

#include <algorithm>
#include <set>

namespace scsq::net {

EthernetFabric::EthernetFabric(sim::Simulator& sim, EthernetParams params)
    : sim_(&sim), params_(params) {}

int EthernetFabric::add_host(std::string name, bool is_ionode) {
  Host h;
  h.name = std::move(name);
  h.is_ionode = is_ionode;
  h.tx = std::make_unique<sim::Resource>(*sim_, 1, h.name + ".tx");
  h.rx = std::make_unique<sim::Resource>(*sim_, 1, h.name + ".rx");
  hosts_.push_back(std::move(h));
  return static_cast<int>(hosts_.size()) - 1;
}

FlowId EthernetFabric::open_flow(int src, int dst) {
  SCSQ_CHECK(src >= 0 && src < host_count()) << "bad src host " << src;
  SCSQ_CHECK(dst >= 0 && dst < host_count()) << "bad dst host " << dst;
  FlowId id = next_flow_++;
  flows_[id] = Flow{src, dst};
  hosts_[dst].inbound_flows += 1;
  ++flows_version_;
  return id;
}

void EthernetFabric::close_flow(FlowId id) {
  auto it = flows_.find(id);
  SCSQ_CHECK(it != flows_.end()) << "close of unknown flow " << id;
  hosts_[it->second.dst].inbound_flows -= 1;
  flows_.erase(it);
  ++flows_version_;
}

int EthernetFabric::distinct_senders_to_ionodes() const {
  if (senders_version_ != flows_version_) {
    std::set<int> senders;
    for (const auto& [id, flow] : flows_) {
      if (hosts_[flow.dst].is_ionode) senders.insert(flow.src);
    }
    senders_to_ionodes_ = static_cast<int>(senders.size());
    senders_version_ = flows_version_;
  }
  return senders_to_ionodes_;
}

double EthernetFabric::sender_imbalance_factor(int src) const {
  const Host& host = hosts_.at(src);
  if (host.imbalance_version == flows_version_) return host.imbalance;
  // Destinations this source currently feeds.
  std::set<int> dsts;
  for (const auto& [id, flow] : flows_) {
    if (flow.src == src) dsts.insert(flow.dst);
  }
  host.imbalance = 1.0;
  if (dsts.size() >= 2) {
    int lo = INT32_MAX, hi = 0;
    for (int d : dsts) {
      lo = std::min(lo, hosts_[d].inbound_flows);
      hi = std::max(hi, hosts_[d].inbound_flows);
    }
    host.imbalance = 1.0 + params_.imbalance_coeff * static_cast<double>(hi - lo);
  }
  host.imbalance_version = flows_version_;
  return host.imbalance;
}

}  // namespace scsq::net
