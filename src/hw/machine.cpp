#include "hw/machine.hpp"

#include "obs/sim_bridge.hpp"

namespace scsq::hw {

LinuxCluster::LinuxCluster(sim::Simulator& sim, net::EthernetFabric& fabric,
                           std::string name, int node_count, const NodeParams& params)
    : name_(std::move(name)), params_(params), cndb_(node_count) {
  for (int i = 0; i < node_count; ++i) {
    cpus_.push_back(std::make_unique<sim::Resource>(
        sim, params.cpu_count, name_ + std::to_string(i) + ".cpu"));
    hosts_.push_back(fabric.add_host(name_ + std::to_string(i), /*is_ionode=*/false));
  }
}

BlueGene::BlueGene(sim::Simulator& sim, net::EthernetFabric& fabric, const CostModel& cost)
    : params_(cost.bg_compute),
      cndb_(cost.compute_node_count(), [&cost](int rank) { return cost.pset_of(rank); }) {
  torus_ = std::make_unique<net::TorusNetwork>(
      sim, net::Torus3D(cost.torus_x, cost.torus_y, cost.torus_z), cost.torus);
  const int psets = cost.io_node_count;
  SCSQ_CHECK(psets * cost.pset_size == cost.compute_node_count())
      << "pset geometry inconsistent: " << psets << " psets of " << cost.pset_size
      << " != " << cost.compute_node_count() << " compute nodes";
  tree_ = std::make_unique<net::TreeNetwork>(sim, psets, cost.compute_node_count(),
                                             cost.tree);
  for (int i = 0; i < cost.compute_node_count(); ++i) {
    cpus_.push_back(
        std::make_unique<sim::Resource>(sim, 1, "bg" + std::to_string(i) + ".cpu"));
  }
  for (int p = 0; p < psets; ++p) {
    io_hosts_.push_back(fabric.add_host("io" + std::to_string(p), /*is_ionode=*/true));
  }
}

Machine::Machine(sim::Simulator& sim, CostModel cost)
    : sim_(&sim),
      cost_(cost),
      fabric_(std::make_unique<net::EthernetFabric>(sim, cost_.ethernet)),
      fe_(std::make_unique<LinuxCluster>(sim, *fabric_, kFrontEnd, cost_.frontend_nodes,
                                         cost_.linux_node)),
      be_(std::make_unique<LinuxCluster>(sim, *fabric_, kBackEnd, cost_.backend_nodes,
                                         cost_.linux_node)),
      bg_(std::make_unique<BlueGene>(sim, *fabric_, cost_)),
      bg_inbound_streams_(static_cast<std::size_t>(cost_.compute_node_count()), 0) {}

bool Machine::has_cluster(const std::string& cluster) const {
  return cluster == kFrontEnd || cluster == kBackEnd || cluster == kBlueGene;
}

Cndb& Machine::cndb(const std::string& cluster) {
  if (cluster == kFrontEnd) return fe_->cndb();
  if (cluster == kBackEnd) return be_->cndb();
  if (cluster == kBlueGene) return bg_->cndb();
  SCSQ_CHECK(false) << "unknown cluster '" << cluster << "'";
  return fe_->cndb();
}

int Machine::node_count(const std::string& cluster) const {
  if (cluster == kFrontEnd) return fe_->node_count();
  if (cluster == kBackEnd) return be_->node_count();
  if (cluster == kBlueGene) return bg_->compute_node_count();
  SCSQ_CHECK(false) << "unknown cluster '" << cluster << "'";
  return 0;
}

// The TCP pipeline schedules two callbacks per frame (transport/driver.hpp):
// the delivery at the source NIC's claimed completion time and the window
// credit one credit latency after delivery. Two links' callbacks can fall
// on bit-identical times, and same-time events run in insertion order.
// Shifting each link's callbacks by a sub-picosecond amount proportional
// to its draw index orders them by timestamp instead. The figures were
// generated with this skew, so it stays: dropping it, or drawing the two
// indices in another order, moves the Fig. 15 elapsed times in their last
// digits (DESIGN.md §5.6). The skew stays ~7 orders of magnitude below
// every modeled cost (microseconds).
constexpr double kOriginTieEps = 1e-13;

double Machine::next_tie_skew() {
  return kOriginTieEps * static_cast<double>(tie_skews_drawn_++);
}

sim::Resource& Machine::cpu_of(const Location& loc) {
  if (loc.cluster == kFrontEnd) return fe_->cpu(loc.node);
  if (loc.cluster == kBackEnd) return be_->cpu(loc.node);
  if (loc.cluster == kBlueGene) return bg_->compute_cpu(loc.node);
  SCSQ_CHECK(false) << "unknown cluster '" << loc.cluster << "'";
  return fe_->cpu(0);
}

const NodeParams& Machine::node_params(const Location& loc) const {
  if (loc.cluster == kBlueGene) return bg_->params();
  if (loc.cluster == kFrontEnd) return fe_->params();
  if (loc.cluster == kBackEnd) return be_->params();
  SCSQ_CHECK(false) << "unknown cluster '" << loc.cluster << "'";
  return fe_->params();
}

int Machine::fabric_host_of(const Location& loc) const {
  if (loc.cluster == kFrontEnd) return fe_->fabric_host(loc.node);
  if (loc.cluster == kBackEnd) return be_->fabric_host(loc.node);
  if (loc.cluster == kBlueGene) return bg_->io_fabric_host(bg_->pset_of(loc.node));
  SCSQ_CHECK(false) << "unknown cluster '" << loc.cluster << "'";
  return 0;
}

void Machine::register_bg_inbound(int rank) {
  bg_inbound_streams_.at(static_cast<std::size_t>(rank)) += 1;
}

void Machine::unregister_bg_inbound(int rank) {
  auto& n = bg_inbound_streams_.at(static_cast<std::size_t>(rank));
  SCSQ_CHECK(n > 0) << "unregister of absent inbound stream at bg rank " << rank;
  n -= 1;
}

double Machine::io_coordination_factor() const {
  int senders = fabric_->distinct_senders_to_ionodes();
  if (senders <= 1) return 1.0;
  return 1.0 + cost_.io_coord_coeff * static_cast<double>(senders - 1);
}

void Machine::publish_metrics() {
  bg_->torus().publish_metrics(metrics_);
  bg_->tree().publish_metrics(metrics_);
  obs::bridge_sim_perf(metrics_, sim_->perf());
  // Frame recycling health: acquired - reused = frames ever freshly
  // constructed. Flat across steady-state streaming = zero-churn.
  metrics_.gauge("transport.frame_pool.acquired", {})
      .set(static_cast<double>(frame_pool_.acquired()));
  metrics_.gauge("transport.frame_pool.reused", {})
      .set(static_cast<double>(frame_pool_.reused()));
  metrics_.gauge("transport.frame_pool.recycled", {})
      .set(static_cast<double>(frame_pool_.recycled()));
  metrics_.gauge("transport.frame_pool.free", {})
      .set(static_cast<double>(frame_pool_.free_frames()));
}

void Machine::set_trace(sim::Trace* trace) {
  trace_ = trace;
  for (int r = 0; r < bg_->compute_node_count(); ++r) {
    bg_->torus().coproc(r).set_trace(trace);
    bg_->compute_cpu(r).set_trace(trace);
    bg_->tree().compute_ingest(r).set_trace(trace);
  }
  for (int p = 0; p < bg_->pset_count(); ++p) {
    bg_->tree().io_cpu(p).set_trace(trace);
    bg_->tree().tree_link(p).set_trace(trace);
  }
  for (auto* cluster : {fe_.get(), be_.get()}) {
    for (int n = 0; n < cluster->node_count(); ++n) {
      cluster->cpu(n).set_trace(trace);
      fabric_->tx_nic(cluster->fabric_host(n)).set_trace(trace);
      fabric_->rx_nic(cluster->fabric_host(n)).set_trace(trace);
    }
  }
  for (int p = 0; p < bg_->pset_count(); ++p) {
    fabric_->tx_nic(bg_->io_fabric_host(p)).set_trace(trace);
    fabric_->rx_nic(bg_->io_fabric_host(p)).set_trace(trace);
  }
}

double Machine::compute_mux_factor(int rank) const {
  int streams = bg_inbound_streams_.at(static_cast<std::size_t>(rank));
  if (streams <= 1) return 1.0;
  return 1.0 + cost_.compute_mux_coeff * static_cast<double>(streams - 1);
}

}  // namespace scsq::hw
