#include "net/tree_net.hpp"

namespace scsq::net {

TreeNetwork::TreeNetwork(sim::Simulator& sim, int pset_count, int compute_count,
                         TreeParams params)
    : sim_(&sim), params_(params) {
  SCSQ_CHECK(pset_count >= 1) << "need at least one pset";
  SCSQ_CHECK(compute_count >= 1) << "need at least one compute node";
  for (int i = 0; i < pset_count; ++i) {
    io_cpus_.push_back(
        std::make_unique<sim::Resource>(sim, 1, "io" + std::to_string(i) + ".cpu"));
    tree_links_.push_back(
        std::make_unique<sim::Resource>(sim, 1, "tree" + std::to_string(i)));
  }
  for (int i = 0; i < compute_count; ++i) {
    ingest_.push_back(
        std::make_unique<sim::Resource>(sim, 1, "cn" + std::to_string(i) + ".ingest"));
  }
}

void TreeNetwork::publish_metrics(obs::Registry& registry) const {
  registry.counter("tree.inbound_messages").set_total(counters_.inbound_messages);
  registry.counter("tree.inbound_bytes").set_total(counters_.inbound_bytes);
  registry.counter("tree.outbound_messages").set_total(counters_.outbound_messages);
  registry.counter("tree.outbound_bytes").set_total(counters_.outbound_bytes);
  for (std::size_t p = 0; p < io_cpus_.size(); ++p) {
    if (io_cpus_[p]->busy_seconds() <= 0.0 && tree_links_[p]->busy_seconds() <= 0.0) {
      continue;
    }
    obs::Labels labels{{"pset", std::to_string(p)}};
    registry.gauge("tree.io_cpu.busy_s", labels).set(io_cpus_[p]->busy_seconds());
    registry.gauge("tree.io_cpu.utilization", labels).set(io_cpus_[p]->utilization());
    registry.gauge("tree.link.busy_s", labels).set(tree_links_[p]->busy_seconds());
    registry.gauge("tree.link.utilization", labels).set(tree_links_[p]->utilization());
  }
  for (std::size_t r = 0; r < ingest_.size(); ++r) {
    const double busy = ingest_[r]->busy_seconds();
    if (busy <= 0.0) continue;
    obs::Labels labels{{"node", std::to_string(r)}};
    registry.gauge("tree.ingest.busy_s", labels).set(busy);
    registry.gauge("tree.ingest.utilization", labels).set(ingest_[r]->utilization());
  }
}

sim::Task<void> TreeNetwork::forward_inbound(int pset, int compute_rank,
                                             std::uint64_t bytes, double io_factor,
                                             double compute_factor) {
  SCSQ_CHECK(io_factor >= 1.0 && compute_factor >= 1.0) << "cost factors must be >= 1";
  counters_.inbound_messages += 1;
  counters_.inbound_bytes += bytes;
  const double b = static_cast<double>(bytes);
  // CIOD copies the payload from its socket into the tree device.
  co_await io_cpu(pset).use(params_.io_per_message_overhead_s +
                            b * params_.io_forward_per_byte_s * io_factor);
  // Tree wire time to the compute node.
  co_await tree_link(pset).use(b / params_.link_bandwidth_Bps);
  // Compute-node ingest (CNK syscall path + copy into the stream buffer).
  co_await compute_ingest(compute_rank)
      .use(params_.compute_per_message_overhead_s +
           b * params_.compute_recv_per_byte_s * compute_factor);
}

sim::Task<void> TreeNetwork::forward_outbound(int pset, int compute_rank,
                                              std::uint64_t bytes, double io_factor) {
  SCSQ_CHECK(io_factor >= 1.0) << "cost factors must be >= 1";
  counters_.outbound_messages += 1;
  counters_.outbound_bytes += bytes;
  const double b = static_cast<double>(bytes);
  co_await compute_ingest(compute_rank)
      .use(params_.compute_per_message_overhead_s + b * params_.compute_recv_per_byte_s);
  co_await tree_link(pset).use(b / params_.link_bandwidth_Bps);
  co_await io_cpu(pset).use(params_.io_per_message_overhead_s +
                            b * params_.io_forward_per_byte_s * io_factor);
}

}  // namespace scsq::net
