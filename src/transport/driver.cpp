#include "transport/driver.hpp"

#include <algorithm>
#include <type_traits>

namespace scsq::transport {

void Link::start_transmit(Frame* frame, sim::Resource& send_slots) {
  if (pipelined_) {
    sim_->spawn(run_pipelined(frame, send_slots));
    return;
  }
  sim_->spawn(run(frame, send_slots));
}

sim::Task<void> Link::run(Frame* frame, sim::Resource& send_slots) {
  const bool eos = frame->eos;
  const std::uint64_t payload = frame->bytes;
  const double t0 = sim_->now();
  if (window_.in_use() >= window_.capacity()) ++batch_.stalls;
  co_await window_.acquire();
  const double window_wait = sim_->now() - t0;
  co_await transmit_one(frame, send_slots);
  co_await inbox_->send(frame);
  window_.release();
  const double t1 = sim_->now();
  // Scalar accounting batches across the burst of in-flight frames; the
  // histogram observes stay per-frame (quantiles need every sample).
  batch_.frames += 1;
  batch_.payload_bytes += payload;
  batch_.wire_bytes += wire_bytes_for(payload);
  batch_.transit_s += t1 - t0;
  batch_.window_wait_s += window_wait;
  if (metrics_.frame_latency) metrics_.frame_latency->observe(t1 - t0);
  stats_.latency.observe(t1 - t0);
  if (flow_trace_ && !eos) flow_trace_->flow(flow_from_, flow_to_, "frame", t0, t1);
  if (eos) {
    flush_batch();
    stream_ended();
    drained_.set();
  } else if (window_.in_use() == 0) {
    // The burst has fully drained — settle the books while idle.
    flush_batch();
  }
}

void Link::flush_batch() const {
  if (batch_.frames == 0 && batch_.stalls == 0) return;
  stats_.frames += batch_.frames;
  stats_.payload_bytes += batch_.payload_bytes;
  stats_.wire_bytes += batch_.wire_bytes;
  stats_.stalls += batch_.stalls;
  stats_.transit_s += batch_.transit_s;
  stats_.window_wait_s += batch_.window_wait_s;
  if (metrics_.frames) metrics_.frames->inc(batch_.frames);
  if (metrics_.bytes) metrics_.bytes->inc(batch_.payload_bytes);
  if (metrics_.stalls && batch_.stalls) metrics_.stalls->inc(batch_.stalls);
  if (metrics_.stall_seconds) metrics_.stall_seconds->add(batch_.window_wait_s);
  batch_ = StatsBatch{};
}

sim::Task<void> Link::transmit_one(Frame*, sim::Resource&) {
  SCSQ_CHECK(false) << "link type '" << type_ << "' is pipelined, not sequential";
  co_return;
}

sim::Task<void> Link::src_transmit(Frame*, sim::Resource&) {
  SCSQ_CHECK(false) << "link type '" << type_ << "' is sequential, not pipelined";
  co_return;
}

sim::Task<void> Link::dst_receive(Frame*) {
  SCSQ_CHECK(false) << "link type '" << type_ << "' is sequential, not pipelined";
  co_return;
}

void Link::announce_delivery(double at, Frame* frame) {
  auto deliver = [this, frame] { sim_->spawn(dst_run(frame)); };
  // std::function keeps a callable this small inline (no heap closure).
  static_assert(sizeof(deliver) <= 16 && std::is_trivially_copyable_v<decltype(deliver)>);
  sim_->call_at(at + pipeline_.delivery_skew_s, deliver);
}

sim::Task<void> Link::run_pipelined(Frame* frame, sim::Resource& send_slots) {
  frame->queued_at = sim_->now();
  // Same stall test as the sequential path, accounted in dst_run.
  frame->stalled = window_.in_use() >= window_.capacity();
  co_await window_.acquire();
  frame->window_wait = sim_->now() - frame->queued_at;
  co_await src_transmit(frame, send_slots);
}

sim::Task<void> Link::dst_run(Frame* frame) {
  // Read everything first: once the frame is in the inbox the receiver
  // may recycle it.
  const bool eos = frame->eos;
  const std::uint64_t payload = frame->bytes;
  const double t0 = frame->queued_at;
  const double window_wait = frame->window_wait;
  const bool stalled = frame->stalled;
  co_await dst_receive(frame);
  co_await inbox_->send(frame);
  const double t1 = sim_->now();
  batch_.frames += 1;
  batch_.payload_bytes += payload;
  batch_.wire_bytes += wire_bytes_for(payload);
  if (stalled) ++batch_.stalls;
  batch_.transit_s += t1 - t0;
  batch_.window_wait_s += window_wait;
  if (metrics_.frame_latency) metrics_.frame_latency->observe(t1 - t0);
  stats_.latency.observe(t1 - t0);
  if (flow_trace_ && !eos) flow_trace_->flow(flow_from_, flow_to_, "frame", t0, t1);
  // Flow-control credit: the window slot frees one modeled round trip
  // after delivery. The drained event (EOS) rides the same credit.
  const double credit_at = t1 + pipeline_.credit_latency_s;
  sim_->call_at(credit_at + pipeline_.credit_skew_s, [this, eos] {
    window_.release();
    if (eos) drained_.set();
  });
  if (eos) {
    flush_batch();
    stream_ended();
  } else if (batch_.frames >= 16) {
    // Bounded batching: a pipelined link never sees the window drain to
    // zero on the delivery side (the credit round trip keeps slots in
    // flight), so settle the books every 16 frames instead.
    flush_batch();
  }
}

namespace {

FramePool& required_pool(const DriverParams& params) {
  SCSQ_CHECK(params.frame_pool != nullptr) << "sender driver needs a frame pool";
  return *params.frame_pool;
}

}  // namespace

SenderDriver::SenderDriver(sim::Simulator& sim, DriverParams params, sim::Resource& cpu,
                           std::unique_ptr<Link> link)
    : sim_(&sim),
      params_(params),
      cpu_(&cpu),
      link_(std::move(link)),
      cutter_(params.buffer_bytes, required_pool(params)),
      slots_(sim, params.send_buffers, "sendbuf"),
      outbox_(sim, 1) {
  SCSQ_CHECK(link_ != nullptr) << "sender driver needs a link";
  SCSQ_CHECK(params_.send_buffers >= 1) << "need at least one send buffer";
}

void SenderDriver::ensure_drain() {
  // Lazy: spawned at the first push/finish instead of at construction,
  // so an error between wiring and the drive never strands an
  // un-dispatched coroutine start in the queue. The drain's first action
  // is to park on an empty outbox either way, so the simulated timeline
  // is unchanged.
  if (drain_started_) return;
  drain_started_ = true;
  sim_->spawn(drain());
}

sim::Task<void> SenderDriver::push(catalog::Object obj) {
  SCSQ_CHECK(!finishing_) << "push after finish";
  ensure_drain();
  // Entering active production invalidates any armed linger flush (the
  // cut in the timer callback must never interleave with a push).
  ++linger_generation_;
  // Frames are cut one at a time as the outbox takes them: a 3 MB array
  // over small buffers never holds more than one cut frame here, so the
  // frame pool recycles instead of growing by the array's frame count.
  cutter_.push(std::move(obj));
  while (cutter_.has_full()) co_await outbox_.send(cutter_.cut_full());
  arm_linger();
}

void SenderDriver::arm_linger() {
  const std::uint64_t generation = ++linger_generation_;
  if (params_.linger_s <= 0.0 || cutter_.pending_bytes() == 0) return;
  sim_->call_at(sim_->now() + params_.linger_s, [this, generation] {
    if (generation != linger_generation_ || finishing_) return;
    if (cutter_.pending_bytes() == 0) return;
    if (outbox_.size() > 0 || outbox_.closed()) {
      // Downstream is backed up; retry after another linger period.
      sim_->call_at(sim_->now() + params_.linger_s, [this, generation] {
        if (generation == linger_generation_ && !finishing_) arm_linger_fire();
      });
      return;
    }
    arm_linger_fire();
  });
}

void SenderDriver::arm_linger_fire() {
  if (cutter_.pending_bytes() == 0 || outbox_.size() > 0 || outbox_.closed()) {
    arm_linger();  // conditions changed: start over
    return;
  }
  Frame* frame = cutter_.cut_partial();
  SCSQ_CHECK(frame != nullptr) << "linger flush with no pending bytes";
  ++linger_generation_;
  // Capacity-1 outbox with size 0 and not closed: cannot fail.
  SCSQ_CHECK(outbox_.try_send(frame)) << "linger flush enqueue failed";
}

sim::Task<void> SenderDriver::finish() {
  ensure_drain();
  finishing_ = true;
  ++linger_generation_;  // cancel pending flushes
  co_await outbox_.send(cutter_.finish());
  outbox_.close();
  co_await link_->drained().wait();
}

sim::Task<void> SenderDriver::drain() {
  while (auto next = co_await outbox_.recv()) {
    Frame* frame = *next;
    // Wait for a free send buffer: with a single buffer this serializes
    // marshal and transmit; with two, marshal of frame i+1 overlaps the
    // transmission of frame i.
    const double wait_start = sim_->now();
    co_await slots_.acquire();
    stall_seconds_ += sim_->now() - wait_start;
    const double marshal_cost = static_cast<double>(frame->bytes) *
                                params_.marshal_per_byte_s * params_.factor(frame->bytes);
    marshal_seconds_ += marshal_cost;
    co_await cpu_->use(marshal_cost);
    link_->start_transmit(frame, slots_);
  }
}

ReceiverDriver::ReceiverDriver(sim::Simulator& sim, DriverParams params, sim::Resource& cpu)
    : sim_(&sim),
      params_(params),
      cpu_(&cpu),
      inbox_(sim, static_cast<std::size_t>(std::max(params.recv_buffers, 1))) {
  ready_.reserve(kFrameObjectsReserve);
}

sim::Task<std::optional<catalog::Object>> ReceiverDriver::next() {
  while (ready_head_ == ready_.size()) {
    if (eos_) co_return std::nullopt;
    const double wait_start = sim_->now();
    auto received = co_await inbox_.recv();
    wait_seconds_ += sim_->now() - wait_start;
    if (!received) {  // channel force-closed (teardown)
      eos_ = true;
      co_return std::nullopt;
    }
    Frame* frame = *received;
    co_await cpu_->use(charge(*frame));
    materialize(frame);
  }
  auto obj = std::move(ready_[ready_head_]);
  ++ready_head_;
  if (ready_head_ == ready_.size()) {
    ready_.clear();
    ready_head_ = 0;
  }
  co_return std::optional<catalog::Object>(std::move(obj));
}

double ReceiverDriver::charge(const Frame& frame) {
  bytes_ += frame.bytes;
  const double cost =
      static_cast<double>(frame.bytes) * params_.marshal_per_byte_s *
          params_.factor(frame.bytes) +
      static_cast<double>(frame.objects.size()) * params_.alloc_per_object_s;
  demarshal_seconds_ += cost;
  return cost;
}

void ReceiverDriver::materialize(Frame* frame) {
  // ready_ is fully drained here: take the frame's object vector
  // wholesale (O(1) swap) and give the frame our spent one — the two
  // vectors ping-pong their capacity for the life of the stream.
  ready_.clear();
  ready_head_ = 0;
  std::swap(ready_, frame->objects);
  if (frame->eos) eos_ = true;
  frame->pool->recycle(frame);
}

}  // namespace scsq::transport
