// Gigabit Ethernet fabric with a TCP throughput model and a flow
// registry (the cluster↔cluster transport of the paper's Fig. 1).
//
// Hosts (back-end nodes, front-end nodes, BlueGene I/O nodes) each own a
// full-duplex NIC modeled as two FIFO resources (tx and rx) held for the
// wire time of each message. TCP protocol overhead is a goodput
// efficiency factor (~0.94 for GigE with standard frames).
//
// Two empirically-motivated penalties reproduce the coordination effects
// the paper reports for Fig. 15 ("coordination problems in the I/O node
// when communicating with many outside nodes"; the n=5 dip for Query 5):
//  * sender imbalance: when one host feeds several receivers whose
//    inbound flow counts are uneven (Query 5 with n=5 streams over 4 I/O
//    nodes), head-of-line blocking among its TCP connections reduces the
//    sender NIC's effective rate by 1/(1 + imbalance_coeff * (max-min));
//  * the global distinct-sender count is exposed so the I/O-node
//    forwarding path (see hw::Machine) can scale its per-byte cost — one
//    back-end sender (Query 5) streams faster than several (Query 6).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace scsq::net {

struct EthernetParams {
  double nic_bandwidth_Bps = 125e6;      // 1 Gbit/s
  double tcp_efficiency = 0.94;          // goodput fraction after TCP/IP overhead
  double per_message_overhead_s = 20e-6; // per stream-buffer syscall + segmentation
  double imbalance_coeff = 0.17;         // sender NIC penalty per unit flow imbalance

  /// Lower bound on the latency of any Ethernet transfer: the
  /// per-message syscall overhead plus one byte of goodput. The TCP
  /// links charge it as the flow-control credit latency (the window slot
  /// of a delivered frame frees this long after delivery).
  double min_link_latency() const {
    return per_message_overhead_s + 1.0 / (nic_bandwidth_Bps * tcp_efficiency);
  }
};

using FlowId = std::uint64_t;

class EthernetFabric {
 public:
  EthernetFabric(sim::Simulator& sim, EthernetParams params);

  EthernetFabric(const EthernetFabric&) = delete;
  EthernetFabric& operator=(const EthernetFabric&) = delete;

  /// Registers a host; returns its id. `is_ionode` marks BlueGene I/O
  /// nodes, which participate in the distinct-sender coordination count.
  int add_host(std::string name, bool is_ionode = false);
  int host_count() const { return static_cast<int>(hosts_.size()); }
  const std::string& host_name(int host) const { return hosts_.at(host).name; }

  /// Opens a TCP connection from `src` to `dst`; must be closed again.
  FlowId open_flow(int src, int dst);
  void close_flow(FlowId id);

  /// Transfers one message over an open flow; completes when the
  /// destination NIC has received all bytes. Per-flow ordering holds
  /// because NIC resources are FIFO.
  sim::Task<void> transfer(FlowId id, std::uint64_t bytes);

  /// Number of distinct source hosts with open flows into I/O-node
  /// hosts (drives the I/O forwarding coordination factor in hw).
  /// Memoized: recomputed only after open_flow/close_flow changed the
  /// flow table, like sender_imbalance_factor().
  int distinct_senders_to_ionodes() const;

  /// Open flows into a given host.
  int flows_into(int host) const { return hosts_.at(host).inbound_flows; }

  /// Sender-side imbalance factor for `src` (>= 1): grows when the hosts
  /// it sends to have uneven inbound flow counts.
  double sender_imbalance_factor(int src) const;

  sim::Resource& tx_nic(int host) { return *hosts_.at(host).tx; }
  sim::Resource& rx_nic(int host) { return *hosts_.at(host).rx; }

  const EthernetParams& params() const { return params_; }

  /// Wire time for `bytes` at TCP goodput rate (before penalty factors).
  double wire_time(std::uint64_t bytes) const {
    return static_cast<double>(bytes) / (params_.nic_bandwidth_Bps * params_.tcp_efficiency);
  }

 private:
  static constexpr std::uint64_t kStale = ~std::uint64_t{0};

  struct Host {
    std::string name;
    bool is_ionode = false;
    int inbound_flows = 0;
    std::unique_ptr<sim::Resource> tx;
    std::unique_ptr<sim::Resource> rx;
    // sender_imbalance_factor(this host), valid at flows_version_ ==
    // imbalance_version.
    mutable double imbalance = 1.0;
    mutable std::uint64_t imbalance_version = kStale;
  };
  struct Flow {
    int src = -1;
    int dst = -1;
  };

  sim::Simulator* sim_;
  EthernetParams params_;
  std::vector<Host> hosts_;
  std::map<FlowId, Flow> flows_;
  FlowId next_flow_ = 1;
  // Bumped by every open_flow/close_flow. The flow aggregates are read
  // per TCP frame but change only per stream, so they are memoized
  // against it.
  std::uint64_t flows_version_ = 0;
  mutable int senders_to_ionodes_ = 0;
  mutable std::uint64_t senders_version_ = kStale;
};

}  // namespace scsq::net
