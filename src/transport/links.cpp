#include "transport/links.hpp"

namespace scsq::transport {

namespace {

// A new TCP link's pipeline. The two tie-break skews are drawn in two
// statements, credit first: the draw order is part of the simulated
// timeline (hw::Machine::next_tie_skew), and the arguments of one call
// would be evaluated in an unspecified order.
Link::Pipeline tcp_pipeline(hw::Machine& machine) {
  Link::Pipeline p;
  p.credit_latency_s = machine.fabric().params().min_link_latency();
  p.credit_skew_s = machine.next_tie_skew();
  p.delivery_skew_s = machine.next_tie_skew();
  return p;
}

}  // namespace

// ---------------------------------------------------------------------
// MpiLink
// ---------------------------------------------------------------------

MpiLink::MpiLink(hw::Machine& machine, int src_rank, int dst_rank,
                 sim::Channel<Frame*>& inbox)
    : Link(machine.sim(), inbox),
      machine_(&machine),
      dst_(dst_rank),
      path_(machine.bg().torus().compile_path(src_rank, dst_rank)) {
  machine_->bg().torus().register_inbound_stream(dst_);
  registered_ = true;
}

MpiLink::~MpiLink() { unregister(); }

void MpiLink::stream_ended() { unregister(); }

void MpiLink::unregister() {
  if (!registered_) return;
  registered_ = false;
  machine_->bg().torus().unregister_inbound_stream(dst_);
}

std::uint64_t MpiLink::wire_bytes_for(std::uint64_t payload_bytes) const {
  const auto& torus = machine_->bg().torus();
  return static_cast<std::uint64_t>(torus.packets_for(payload_bytes)) *
         torus.params().packet_bytes;
}

sim::Task<void> MpiLink::transmit_one(Frame* frame, sim::Resource& send_slots) {
  return machine_->bg().torus().send(path_, frame->bytes, &send_slots);
}

// ---------------------------------------------------------------------
// TcpToBgLink
// ---------------------------------------------------------------------

TcpToBgLink::TcpToBgLink(hw::Machine& machine, const hw::Location& src, int dst_rank,
                         sim::Channel<Frame*>& inbox)
    : Link(machine.sim(), inbox, tcp_pipeline(machine)),
      machine_(&machine),
      dst_rank_(dst_rank),
      pset_(machine.bg().pset_of(dst_rank)),
      src_host_(machine.fabric_host_of(src)),
      io_host_(machine.bg().io_fabric_host(pset_)) {
  flow_ = machine.fabric().open_flow(src_host_, io_host_);
  flow_open_ = true;
  machine.register_bg_inbound(dst_rank_);
}

TcpToBgLink::~TcpToBgLink() { close_flow(); }

void TcpToBgLink::stream_ended() { close_flow(); }

void TcpToBgLink::close_flow() {
  if (!flow_open_) return;
  flow_open_ = false;
  machine_->fabric().close_flow(flow_);
  machine_->unregister_bg_inbound(dst_rank_);
}

sim::Task<void> TcpToBgLink::src_transmit(Frame* frame, sim::Resource& send_slots) {
  auto& fabric = machine_->fabric();
  const double tx_time = fabric.tx_time(src_host_, frame->bytes);
  // Claim + announce + use share this event: the claimed completion time
  // is bitwise-identical to the clock after use().
  auto& tx = fabric.tx_nic(src_host_);
  const double t1 = tx.claim(tx_time);
  announce_delivery(t1, frame);
  co_await tx.use(tx_time);
  send_slots.release();
}

sim::Task<void> TcpToBgLink::dst_receive(Frame* frame) {
  co_await machine_->fabric().rx_nic(io_host_).use(
      machine_->fabric().wire_time(frame->bytes));
  // The coordination factors are read per message, from the live flow
  // table, so streams opening and closing during a run are reflected
  // (the Fig. 15 mechanisms).
  co_await machine_->bg().tree().forward_inbound(pset_, dst_rank_, frame->bytes,
                                                 machine_->io_coordination_factor(),
                                                 machine_->compute_mux_factor(dst_rank_));
}

// ---------------------------------------------------------------------
// TcpFromBgLink
// ---------------------------------------------------------------------

TcpFromBgLink::TcpFromBgLink(hw::Machine& machine, int src_rank, const hw::Location& dst,
                             sim::Channel<Frame*>& inbox)
    : Link(machine.sim(), inbox, tcp_pipeline(machine)),
      machine_(&machine),
      src_rank_(src_rank),
      pset_(machine.bg().pset_of(src_rank)),
      io_host_(machine.bg().io_fabric_host(pset_)),
      dst_host_(machine.fabric_host_of(dst)) {
  flow_ = machine.fabric().open_flow(io_host_, dst_host_);
  flow_open_ = true;
}

TcpFromBgLink::~TcpFromBgLink() { close_flow(); }

void TcpFromBgLink::stream_ended() { close_flow(); }

void TcpFromBgLink::close_flow() {
  if (!flow_open_) return;
  flow_open_ = false;
  machine_->fabric().close_flow(flow_);
}

sim::Task<void> TcpFromBgLink::src_transmit(Frame* frame, sim::Resource& send_slots) {
  // The source half is the whole outbound tree path (compute egress,
  // tree link, I/O CPU) and the I/O node's NIC transmit; the destination
  // half is the destination host's NIC receive.
  co_await machine_->bg().tree().forward_outbound(pset_, src_rank_, frame->bytes,
                                                  /*io_factor=*/1.0);
  send_slots.release();
  auto& fabric = machine_->fabric();
  const double tx_time = fabric.tx_time(io_host_, frame->bytes);
  auto& tx = fabric.tx_nic(io_host_);
  const double t1 = tx.claim(tx_time);
  announce_delivery(t1, frame);
  co_await tx.use(tx_time);
}

sim::Task<void> TcpFromBgLink::dst_receive(Frame* frame) {
  co_await machine_->fabric().rx_nic(dst_host_).use(
      machine_->fabric().wire_time(frame->bytes));
}

// ---------------------------------------------------------------------
// TcpPlainLink
// ---------------------------------------------------------------------

TcpPlainLink::TcpPlainLink(hw::Machine& machine, const hw::Location& src,
                           const hw::Location& dst, sim::Channel<Frame*>& inbox)
    : Link(machine.sim(), inbox, tcp_pipeline(machine)),
      machine_(&machine),
      src_host_(machine.fabric_host_of(src)),
      dst_host_(machine.fabric_host_of(dst)) {
  flow_ = machine.fabric().open_flow(src_host_, dst_host_);
  flow_open_ = true;
}

TcpPlainLink::~TcpPlainLink() { close_flow(); }

void TcpPlainLink::stream_ended() { close_flow(); }

void TcpPlainLink::close_flow() {
  if (!flow_open_) return;
  flow_open_ = false;
  machine_->fabric().close_flow(flow_);
}

sim::Task<void> TcpPlainLink::src_transmit(Frame* frame, sim::Resource& send_slots) {
  auto& fabric = machine_->fabric();
  const double tx_time = fabric.tx_time(src_host_, frame->bytes);
  auto& tx = fabric.tx_nic(src_host_);
  const double t1 = tx.claim(tx_time);
  announce_delivery(t1, frame);
  co_await tx.use(tx_time);
  send_slots.release();
}

sim::Task<void> TcpPlainLink::dst_receive(Frame* frame) {
  co_await machine_->fabric().rx_nic(dst_host_).use(
      machine_->fabric().wire_time(frame->bytes));
}

// ---------------------------------------------------------------------
// LocalLink
// ---------------------------------------------------------------------

namespace {
// In-memory hand-off between RPs on the same node: a fixed small latency
// standing in for a pipe/shared-buffer copy.
constexpr double kLocalHandoffSeconds = 2.0e-6;
}  // namespace

LocalLink::LocalLink(hw::Machine& machine, sim::Channel<Frame*>& inbox)
    : Link(machine.sim(), inbox) {}

sim::Task<void> LocalLink::transmit_one(Frame*, sim::Resource& send_slots) {
  co_await sim().delay(kLocalHandoffSeconds);
  send_slots.release();
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

namespace {

// Resolves this link's registry handles once, labeled by protocol and
// endpoint locations; the per-frame path in Link::run is then plain adds.
void attach_metrics(Link& link, hw::Machine& machine, const char* type,
                    const hw::Location& src, const hw::Location& dst) {
  auto& registry = machine.metrics();
  const obs::Labels labels{
      {"type", type}, {"src", src.to_string()}, {"dst", dst.to_string()}};
  LinkMetrics m;
  m.frames = &registry.counter("transport.link.frames", labels);
  m.bytes = &registry.counter("transport.link.bytes", labels);
  m.stalls = &registry.counter("transport.link.stalls", labels);
  m.stall_seconds = &registry.gauge("transport.link.stall_s", labels);
  // 1 µs … ~4 s in factor-4 steps: spans a local hand-off up to a badly
  // backpressured cross-cluster frame.
  m.frame_latency = &registry.histogram("transport.link.frame_latency_s", labels,
                                        obs::Histogram::exp_buckets(1e-6, 4.0, 12));
  link.set_metrics(m);
}

}  // namespace

std::unique_ptr<Link> make_link(hw::Machine& machine, const hw::Location& src,
                                const hw::Location& dst, sim::Channel<Frame*>& inbox) {
  const bool src_bg = src.cluster == hw::kBlueGene;
  const bool dst_bg = dst.cluster == hw::kBlueGene;
  std::unique_ptr<Link> link;
  const char* type = nullptr;
  if (src == dst) {
    link = std::make_unique<LocalLink>(machine, inbox);
    type = "local";
  } else if (src_bg && dst_bg) {
    link = std::make_unique<MpiLink>(machine, src.node, dst.node, inbox);
    type = "mpi";
  } else if (!src_bg && dst_bg) {
    link = std::make_unique<TcpToBgLink>(machine, src, dst.node, inbox);
    type = "tcp_to_bg";
  } else if (src_bg && !dst_bg) {
    link = std::make_unique<TcpFromBgLink>(machine, src.node, dst, inbox);
    type = "tcp_from_bg";
  } else {
    link = std::make_unique<TcpPlainLink>(machine, src, dst, inbox);
    type = "tcp";
  }
  attach_metrics(*link, machine, type, src, dst);
  link->set_type(type);
  return link;
}

}  // namespace scsq::transport
