#include "hw/machine.hpp"

#include "obs/sim_bridge.hpp"

namespace scsq::hw {

LinuxCluster::LinuxCluster(sim::Simulator& sim, net::EthernetFabric& fabric,
                           std::string name, int node_count, const NodeParams& params,
                           std::function<sim::Simulator&(int)> node_sim)
    : name_(std::move(name)), params_(params), cndb_(node_count) {
  for (int i = 0; i < node_count; ++i) {
    sim::Simulator& owner = node_sim ? node_sim(i) : sim;
    cpus_.push_back(std::make_unique<sim::Resource>(
        owner, params.cpu_count, name_ + std::to_string(i) + ".cpu"));
    hosts_.push_back(fabric.add_host(name_ + std::to_string(i), /*is_ionode=*/false,
                                     node_sim ? &owner : nullptr));
  }
}

BlueGene::BlueGene(sim::Simulator& sim, net::EthernetFabric& fabric, const CostModel& cost,
                   std::function<sim::Simulator&(int)> rank_sim,
                   std::function<sim::Simulator&(int)> pset_sim)
    : params_(cost.bg_compute),
      cndb_(cost.compute_node_count(), [&cost](int rank) { return cost.pset_of(rank); }) {
  torus_ = std::make_unique<net::TorusNetwork>(
      sim, net::Torus3D(cost.torus_x, cost.torus_y, cost.torus_z), cost.torus, rank_sim);
  const int psets = cost.io_node_count;
  SCSQ_CHECK(psets * cost.pset_size == cost.compute_node_count())
      << "pset geometry inconsistent: " << psets << " psets of " << cost.pset_size
      << " != " << cost.compute_node_count() << " compute nodes";
  tree_ = std::make_unique<net::TreeNetwork>(sim, psets, cost.compute_node_count(),
                                             cost.tree, pset_sim, rank_sim);
  for (int i = 0; i < cost.compute_node_count(); ++i) {
    sim::Simulator& owner = rank_sim ? rank_sim(i) : sim;
    cpus_.push_back(
        std::make_unique<sim::Resource>(owner, 1, "bg" + std::to_string(i) + ".cpu"));
  }
  for (int p = 0; p < psets; ++p) {
    io_hosts_.push_back(fabric.add_host("io" + std::to_string(p), /*is_ionode=*/true,
                                        pset_sim ? &pset_sim(p) : nullptr));
  }
}

Machine::Machine(sim::Simulator& sim, CostModel cost)
    : sim_(&sim), cost_(cost), partition_(make_partition(cost_, 1)) {
  build(sim);
}

Machine::Machine(sim::LpDomain& domain, CostModel cost)
    : sim_(&domain.sim(0)),
      cost_(cost),
      domain_(&domain),
      partition_(make_partition(cost_, domain.lp_count())) {
  SCSQ_CHECK(partition_.lp_count == domain.lp_count())
      << "LpDomain has " << domain.lp_count() << " LPs but this geometry supports at most "
      << partition_.lp_count << " — size the domain with hw::clamp_lp_count";
  // Every cross-LP interaction is floored by the Ethernet per-message
  // overhead: split TCP deliveries complete one full NIC hold (>= the
  // overhead, even for 0-byte EOS frames) after they are announced, and
  // credit returns travel at min_link_latency (> overhead). Cross-pset
  // MPI, whose torus floor is smaller, is refused by the engine when more
  // than one LP drives.
  domain.set_lookahead(cost_.ethernet.per_message_overhead_s);
  build(*sim_);
}

void Machine::build(sim::Simulator& sim) {
  std::function<sim::Simulator&(int)> fe_sim, be_sim, rank_sim, pset_sim;
  if (domain_ != nullptr) {
    fe_sim = [this](int n) -> sim::Simulator& {
      return domain_->sim(partition_.fe_lp.at(static_cast<std::size_t>(n)));
    };
    be_sim = [this](int n) -> sim::Simulator& {
      return domain_->sim(partition_.be_lp.at(static_cast<std::size_t>(n)));
    };
    rank_sim = [this](int rank) -> sim::Simulator& {
      return domain_->sim(partition_.bg_compute_lp.at(static_cast<std::size_t>(rank)));
    };
    pset_sim = [this](int pset) -> sim::Simulator& {
      return domain_->sim(partition_.bg_io_lp.at(static_cast<std::size_t>(pset)));
    };
  }
  fabric_ = std::make_unique<net::EthernetFabric>(sim, cost_.ethernet);
  fe_ = std::make_unique<LinuxCluster>(sim, *fabric_, kFrontEnd, cost_.frontend_nodes,
                                       cost_.linux_node, fe_sim);
  be_ = std::make_unique<LinuxCluster>(sim, *fabric_, kBackEnd, cost_.backend_nodes,
                                       cost_.linux_node, be_sim);
  bg_ = std::make_unique<BlueGene>(sim, *fabric_, cost_, rank_sim, pset_sim);
  bg_inbound_streams_.assign(static_cast<std::size_t>(cost_.compute_node_count()), 0);

  const int lps = domain_ != nullptr ? domain_->lp_count() : 1;
  for (int i = 0; i < lps; ++i) {
    pools_.push_back(std::make_unique<transport::FramePool>());
    if (lps > 1) pools_.back()->set_shared(true);
  }

  if (domain_ != nullptr) {
    // Compile every same-pset MPI route now: that creates each torus link
    // such a route can touch, so the links_ map never mutates while LPs
    // run concurrently (and link identity is independent of the LP count
    // — publish_metrics skips never-used links, keeping snapshots
    // byte-identical across counts). A route leaving its LP would hold
    // foreign resources.
    const int ranks = bg_->compute_node_count();
    for (int a = 0; a < ranks; ++a) {
      for (int b = 0; b < ranks; ++b) {
        if (a != b && bg_->pset_of(a) == bg_->pset_of(b)) {
          const bool single_lp = bg_->torus().compile_path(a, b).single_lp;
          SCSQ_CHECK(single_lp) << "torus route " << a << "->" << b
              << " leaves its LP — the partition must keep routes inside one pset";
        }
      }
    }
  }
}

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

sim::Simulator& Machine::sim_of(const Location& loc) { return lp_sim(lp_of(loc)); }

sim::Simulator& Machine::lp_sim(int lp) {
  if (domain_ == nullptr) {
    SCSQ_CHECK(lp == 0) << "LP " << lp << " on a single-Simulator machine";
    return *sim_;
  }
  return domain_->sim(lp);
}

// Deterministic tie-break for posted events. Two posters delivering at
// bit-identical times into the same Simulator would otherwise resolve by
// FIFO insertion order — which depends on whether each poster is staged
// (cross-LP) or direct (same-LP), i.e. on the LP count. Skewing every
// posted time by a sub-picosecond amount proportional to the poster's
// wiring-order origin id makes the order *timestamp*-determined, and the
// origin numbering is LP-count-invariant because wiring always runs
// single-threaded in the same order. The skew stays ~7 orders of
// magnitude below every modeled cost (microseconds), so it never alters
// which window an event falls into.
constexpr double kOriginTieEps = 1e-13;

Machine::Poster Machine::make_poster(const Location& from, const Location& to) {
  SCSQ_CHECK(domain_ != nullptr) << "make_poster needs the LpDomain constructor";
  const int from_lp = lp_of(from);
  const int to_lp = lp_of(to);
  // Every poster draws an origin id — same-LP ones too — so the
  // numbering (and hence the epsilon skew) is identical at every LP
  // count.
  const std::uint64_t origin = domain_->new_origin();
  const double eps = kOriginTieEps * static_cast<double>(origin);
  if (from_lp == to_lp) {
    // Same LP: schedule directly — no staging, no synchronization. This
    // is also every poster on a 1-LP domain, so the windowed loop runs
    // with zero staged traffic there.
    sim::Simulator* target = &domain_->sim(to_lp);
    return [target, eps](double at, std::function<void()> fn) {
      target->call_at(at + eps, std::move(fn));
    };
  }
  sim::LpDomain* domain = domain_;
  return [domain, to_lp, origin, eps](double at, std::function<void()> fn) {
    domain->post(to_lp, at + eps, origin, std::move(fn));
  };
}

void Machine::freeze_fabric_factors() {
  // Snapshot taken single-threaded (between wiring and the drive phase);
  // drive-phase readers then touch no shared flow state. The snapshot is
  // not refreshed at mid-run disconnects: a run's factors are those of
  // its full wiring, which only matters for queries whose streams end at
  // different times (documented in DESIGN.md §5.9).
  frozen_io_coord_ = io_coordination_factor();
  frozen_mux_.resize(static_cast<std::size_t>(cost_.compute_node_count()));
  for (int r = 0; r < cost_.compute_node_count(); ++r) {
    frozen_mux_[static_cast<std::size_t>(r)] = compute_mux_factor(r);
  }
  frozen_imbalance_.resize(static_cast<std::size_t>(fabric_->host_count()));
  for (int h = 0; h < fabric_->host_count(); ++h) {
    frozen_imbalance_[static_cast<std::size_t>(h)] = fabric_->sender_imbalance_factor(h);
  }
  factors_frozen_ = true;
}

double Machine::sender_imbalance_factor(int host) const {
  if (factors_frozen_) return frozen_imbalance_.at(static_cast<std::size_t>(host));
  return fabric_->sender_imbalance_factor(host);
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
  if (factors_frozen_) return frozen_io_coord_;
  int senders = fabric_->distinct_senders_to_ionodes();
  if (senders <= 1) return 1.0;
  return 1.0 + cost_.io_coord_coeff * static_cast<double>(senders - 1);
}

transport::FramePool& Machine::pool_of(const Location& loc) {
  if (pools_.size() == 1) return *pools_[0];
  return *pools_[static_cast<std::size_t>(lp_of(loc))];
}

sim::PerfCounters Machine::perf_total() const {
  if (domain_ != nullptr) return domain_->perf_total();
  return sim_->perf();
}

void Machine::publish_metrics() {
  bg_->torus().publish_metrics(metrics_);
  bg_->tree().publish_metrics(metrics_);
  obs::bridge_sim_perf(metrics_, perf_total());
  // Frame recycling health: acquired - reused = frames ever freshly
  // constructed. Flat across steady-state streaming = zero-churn. The
  // unlabeled gauges are exact sums over the per-LP shards.
  std::uint64_t acquired = 0, reused = 0, recycled = 0, free_frames = 0;
  for (const auto& pool : pools_) {
    acquired += pool->acquired();
    reused += pool->reused();
    recycled += pool->recycled();
    free_frames += pool->free_frames();
  }
  metrics_.gauge("transport.frame_pool.acquired", {}).set(static_cast<double>(acquired));
  metrics_.gauge("transport.frame_pool.reused", {}).set(static_cast<double>(reused));
  metrics_.gauge("transport.frame_pool.recycled", {}).set(static_cast<double>(recycled));
  metrics_.gauge("transport.frame_pool.free", {}).set(static_cast<double>(free_frames));
  if (pools_.size() > 1) {
    metrics_.gauge("transport.frame_pool.shards", {}).set(static_cast<double>(pools_.size()));
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      obs::Labels labels{{"lp", std::to_string(i)}};
      metrics_.gauge("transport.frame_pool.shard.acquired", labels)
          .set(static_cast<double>(pools_[i]->acquired()));
      metrics_.gauge("transport.frame_pool.shard.recycled", labels)
          .set(static_cast<double>(pools_[i]->recycled()));
    }
  }
}

void Machine::set_trace(sim::Trace* trace) {
  SCSQ_CHECK(trace == nullptr || domain_ == nullptr || domain_->lp_count() == 1)
      << "tracing needs a single LP: the Trace sink is not thread-safe "
      << "(run with SCSQ_SIM_LPS=1 to record traces)";
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
  if (factors_frozen_) return frozen_mux_.at(static_cast<std::size_t>(rank));
  int streams = bg_inbound_streams_.at(static_cast<std::size_t>(rank));
  if (streams <= 1) return 1.0;
  return 1.0 + cost_.compute_mux_coeff * static_cast<double>(streams - 1);
}

int LpPartition::lp_of(const Location& loc) const {
  const auto node = static_cast<std::size_t>(loc.node);
  if (loc.cluster == kBlueGene) return bg_compute_lp.at(node);
  if (loc.cluster == kBackEnd) return be_lp.at(node);
  if (loc.cluster == kFrontEnd) return fe_lp.at(node);
  SCSQ_CHECK(false) << "unknown cluster " << loc.cluster;
  return 0;
}

LpPartition make_partition(const CostModel& cost, int lp_count) {
  const int psets = cost.compute_node_count() / cost.pset_size;
  if (lp_count < 1) lp_count = 1;
  // Psets are the unit of partitioning (the tree network must stay
  // inside one LP), so they are also the LP ceiling.
  if (lp_count > psets) lp_count = psets;

  LpPartition part;
  part.lp_count = lp_count;
  part.torus_lookahead_s = cost.torus.min_link_latency();
  part.ethernet_lookahead_s = cost.ethernet.min_link_latency();
  part.tree_lookahead_s = cost.tree.min_link_latency();

  const auto chunk_of = [lp_count](int index, int total) {
    return index * lp_count / total;
  };
  part.bg_compute_lp.resize(static_cast<std::size_t>(cost.compute_node_count()));
  for (int rank = 0; rank < cost.compute_node_count(); ++rank) {
    part.bg_compute_lp[static_cast<std::size_t>(rank)] = chunk_of(cost.pset_of(rank), psets);
  }
  part.bg_io_lp.resize(static_cast<std::size_t>(psets));
  for (int p = 0; p < psets; ++p) {
    part.bg_io_lp[static_cast<std::size_t>(p)] = chunk_of(p, psets);
  }
  part.be_lp.resize(static_cast<std::size_t>(cost.backend_nodes));
  for (int n = 0; n < cost.backend_nodes; ++n) {
    part.be_lp[static_cast<std::size_t>(n)] = chunk_of(n, cost.backend_nodes);
  }
  part.fe_lp.resize(static_cast<std::size_t>(cost.frontend_nodes));
  for (int n = 0; n < cost.frontend_nodes; ++n) {
    part.fe_lp[static_cast<std::size_t>(n)] = chunk_of(n, cost.frontend_nodes);
  }
  return part;
}

int clamp_lp_count(const CostModel& cost, int lp_count) {
  const int psets = cost.compute_node_count() / cost.pset_size;
  if (lp_count < 1) return 1;
  return lp_count > psets ? psets : lp_count;
}

}  // namespace scsq::hw
