// Stream carrier drivers (paper Fig. 3).
//
// Every RP has a sender driver per subscriber and a receiver driver per
// producer. The sender driver marshals result objects into fixed-size
// send buffers and transmits full buffers over a Link (MPI inside the
// BlueGene, TCP between clusters); with double buffering (the default,
// as in the paper's MPI drivers) one buffer is marshaled while the
// other is in flight. The receiver driver buffers incoming frames in a
// bounded inbox (backpressure = flow-control messages) and materializes
// objects for the SQEP operators, charging de-marshal and allocation
// costs to the node's compute CPU.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "catalog/object.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"
#include "transport/frame.hpp"

namespace scsq::transport {

struct DriverParams {
  /// Size of one stream buffer — the x-axis of the paper's Fig. 6/8.
  std::uint64_t buffer_bytes = 64 * 1024;
  /// 1 = single buffering, 2 = double buffering (paper §2.3).
  int send_buffers = 2;
  /// Receiver inbox capacity in frames.
  int recv_buffers = 2;
  /// Marshal/de-marshal CPU cost per byte on this node.
  double marshal_per_byte_s = 1.0e-9;
  /// Cost to materialize one received object.
  double alloc_per_object_s = 1.0e-6;
  /// Buffer-size-dependent CPU cost factor (cache misses); null = 1.0.
  /// Must be a pure function of the size: factor() memoizes it.
  std::function<double(std::uint64_t)> cache_factor;
  /// Linger: a partially filled send buffer is flushed after this much
  /// simulated idle time, so sparse streams (one aggregate per window)
  /// are delivered promptly. 0 disables (flush only when full / at EOS).
  double linger_s = 10e-3;
  /// Frame pool every cut frame comes from (owned by the simulated
  /// machine). Required by SenderDriver.
  FramePool* frame_pool = nullptr;

  /// cache_factor(bytes), evaluated only when the size differs from the
  /// previous call's — every frame but a stream's last has the same size.
  double factor(std::uint64_t bytes) const {
    if (!cache_factor) return 1.0;
    if (!factor_memo_valid_ || bytes != factor_memo_bytes_) {
      factor_memo_value_ = cache_factor(bytes);
      factor_memo_bytes_ = bytes;
      factor_memo_valid_ = true;
    }
    return factor_memo_value_;
  }

 private:
  mutable bool factor_memo_valid_ = false;
  mutable std::uint64_t factor_memo_bytes_ = 0;
  mutable double factor_memo_value_ = 1.0;
};

/// Registry handles one Link reports through — resolved once when the
/// connection is wired (make_link labels them by link type and endpoint
/// locations), then every delivered frame is a few plain adds.
struct LinkMetrics {
  obs::Counter* frames = nullptr;        ///< frames delivered (incl. EOS)
  obs::Counter* bytes = nullptr;         ///< payload bytes delivered
  obs::Counter* stalls = nullptr;        ///< transmissions that found the window full
  obs::Gauge* stall_seconds = nullptr;   ///< total time spent waiting for the window
  obs::Histogram* frame_latency = nullptr;  ///< queue-entry -> inbox-delivery seconds
};

/// Per-link running totals the profiler reads back after a run (the
/// registry metrics above are exporter-facing; these are analysis-facing
/// and include the wire-byte accounting and the LogHistogram the
/// EXPLAIN ANALYZE latency quantiles come from). Scalar fields are
/// updated from a per-burst batch that Link::run flushes when the link
/// window drains or the stream ends (stats() also flushes lazily, so
/// readers always see exact totals); only the histogram observes stay
/// per-frame — quantiles need every sample.
struct LinkStats {
  std::uint64_t frames = 0;         ///< frames delivered (incl. EOS)
  std::uint64_t payload_bytes = 0;  ///< stream payload bytes
  std::uint64_t wire_bytes = 0;     ///< payload rounded to wire granularity
  std::uint64_t stalls = 0;         ///< transmissions that found the window full
  double transit_s = 0.0;           ///< sum of queue-entry -> delivery times
  double window_wait_s = 0.0;       ///< share of transit_s queued on the window
  obs::LogHistogram latency;        ///< per-frame transit seconds
};

/// A transport connection carrying frames from one producer RP to one
/// consumer RP's inbox, in order. Implementations (MPI over the torus,
/// TCP via I/O nodes, node-local) live in transport/links.hpp.
///
/// `window` bounds the frames in flight end-to-end (posted MPI receives
/// / the TCP window): when the consumer stops draining, the pipeline
/// stalls all the way back to the producer instead of queueing unbounded
/// frames inside the network resources.
///
/// A link carries a frame one of two ways. Sequential links (MPI, local)
/// implement transmit_one(): one coroutine per frame runs every hold,
/// hands the frame to the inbox and then frees the window slot; an MPI
/// frame's holds are the torus message itself (net::TorusNetwork::send),
/// so the frame costs that one spawned coroutine and the nested message.
/// Pipelined links (every TCP link) implement src_transmit() and
/// dst_receive(): the source half claims the completion time of the
/// source NIC and schedules the destination half at that time, which
/// hands the frame to the inbox after the receive holds; the window slot
/// frees one credit latency after delivery (the flow-control round trip).
///
/// Frames travel as pool handles (`Frame*`): the link never copies or
/// moves a frame, and once it has handed a frame to the inbox it does
/// not touch it again — the receiver may already have recycled it.
class Link {
 public:
  /// Parameters of a pipelined link. The two skews shift the delivery
  /// and credit callbacks off ties with other links' callbacks
  /// (hw::Machine::next_tie_skew).
  struct Pipeline {
    double credit_latency_s = 0.0;
    double credit_skew_s = 0.0;
    double delivery_skew_s = 0.0;
  };

  /// A sequential link delivering into `inbox`.
  Link(sim::Simulator& sim, sim::Channel<Frame*>& inbox, int window = kDefaultWindow)
      : sim_(&sim), inbox_(&inbox), drained_(sim), window_(sim, window, "linkwin") {}

  /// A pipelined link delivering into `inbox`.
  Link(sim::Simulator& sim, sim::Channel<Frame*>& inbox, const Pipeline& pipeline)
      : Link(sim, inbox) {
    SCSQ_CHECK(pipeline.credit_latency_s > 0.0)
        << "pipelined link needs a positive credit latency";
    pipeline_ = pipeline;
    pipelined_ = true;
  }

  static constexpr int kDefaultWindow = 4;
  virtual ~Link() = default;
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Starts transmitting a frame in the background. The sender holds one
  /// slot of `send_slots` (its send-buffer pool) for the frame; the link
  /// releases it when the send buffer becomes reusable. Frames are
  /// delivered to the consumer inbox in start order.
  void start_transmit(Frame* frame, sim::Resource& send_slots);

  /// Set once the EOS frame has been delivered (safe to tear down).
  sim::Event& drained() { return drained_; }

  /// Attaches registry handles; every delivered frame then updates them.
  void set_metrics(const LinkMetrics& metrics) { metrics_ = metrics; }

  /// Protocol tag ("mpi", "tcp", ...), set by make_link.
  void set_type(std::string type) { type_ = std::move(type); }
  const std::string& type() const { return type_; }

  /// Running per-link totals for the profiler. Flushes any batched
  /// updates first, so the returned totals are always exact.
  const LinkStats& stats() const {
    flush_batch();
    return stats_;
  }

  /// Attaches a trace: every delivered data frame records a flow arrow
  /// from `from_track` (at transmission start) to `to_track` (at inbox
  /// delivery) — the producer→consumer stream hand-off in Perfetto.
  void set_flow_trace(sim::Trace* trace, std::string from_track, std::string to_track) {
    flow_trace_ = trace;
    flow_from_ = std::move(from_track);
    flow_to_ = std::move(to_track);
  }

 protected:
  /// Sequential links: every hold of one frame up to its delivery,
  /// releasing a `send_slots` slot as soon as the send buffer is
  /// reusable; run() then hands the frame to the inbox. The default
  /// aborts (pipelined links never call it).
  virtual sim::Task<void> transmit_one(Frame* frame, sim::Resource& send_slots);

  /// Pipelined links, source half: source-side resource holds only.
  /// Implementations claim() their final capacity-1 source resource,
  /// call announce_delivery() with the claimed completion time *before
  /// suspending* (the claim and its use() must share one event, so claim
  /// order is grant order), then co_await the actual holds. The default
  /// aborts (sequential links never call it).
  virtual sim::Task<void> src_transmit(Frame* frame, sim::Resource& send_slots);

  /// Pipelined links, destination half: receive-side resource holds;
  /// dst_run() then hands the frame to the inbox.
  virtual sim::Task<void> dst_receive(Frame* frame);

  /// Schedules the destination half of a pipelined transmit at absolute
  /// time `at` (the claimed source completion time). The callback
  /// carries only `this` and the frame handle — 16 trivially copyable
  /// bytes, which std::function stores inline — and the frame carries
  /// its own window accounting (Frame::queued_at and friends).
  void announce_delivery(double at, Frame* frame);

  /// Called after the EOS frame is delivered; close flows etc.
  virtual void stream_ended() {}

  /// Bytes a payload occupies on the wire. The default is the payload
  /// itself; the MPI link rounds up to full torus packets (a partially
  /// filled final packet still burns a full packet slot) — the
  /// packetization-waste input to the profiler's attribution.
  virtual std::uint64_t wire_bytes_for(std::uint64_t payload_bytes) const {
    return payload_bytes;
  }

  sim::Simulator& sim() { return *sim_; }

 private:
  /// Sequential: window admission, transmit_one, the inbox hand-off and
  /// the accounting.
  sim::Task<void> run(Frame* frame, sim::Resource& send_slots);
  /// Pipelined source half: window admission, then src_transmit (which
  /// announces the destination half).
  sim::Task<void> run_pipelined(Frame* frame, sim::Resource& send_slots);
  /// Pipelined destination half: dst_receive, the inbox hand-off, then
  /// accounting and the window credit.
  sim::Task<void> dst_run(Frame* frame);

  /// Scalar stats accumulated across a burst of in-flight frames and
  /// applied to stats_/metrics_ in one shot — per-frame delivery used
  /// to pay five counter/gauge updates each; a burst now pays them
  /// once. mutable: stats() flushes lazily from const context.
  struct StatsBatch {
    std::uint64_t frames = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t stalls = 0;
    double transit_s = 0.0;
    double window_wait_s = 0.0;
  };
  void flush_batch() const;

  sim::Simulator* sim_;
  sim::Channel<Frame*>* inbox_;
  sim::Event drained_;
  sim::Resource window_;
  LinkMetrics metrics_;
  mutable LinkStats stats_;
  mutable StatsBatch batch_;
  std::string type_;
  sim::Trace* flow_trace_ = nullptr;
  std::string flow_from_;
  std::string flow_to_;
  bool pipelined_ = false;
  Pipeline pipeline_;
};

class SenderDriver {
 public:
  /// `cpu` is the compute CPU marshal work is charged to.
  SenderDriver(sim::Simulator& sim, DriverParams params, sim::Resource& cpu,
               std::unique_ptr<Link> link);

  /// Appends one object to the stream; suspends for marshal cost and for
  /// buffer availability (this is where single vs. double buffering
  /// changes the timing).
  sim::Task<void> push(catalog::Object obj);

  /// Flushes the partial buffer, sends EOS, and waits until the link has
  /// delivered everything (so the RP may be torn down afterwards).
  sim::Task<void> finish();

  std::uint64_t bytes_sent() const { return cutter_.total_emitted_bytes(); }

  /// Time this sender spent waiting for a free send buffer — the
  /// per-RP stall gauge (nonzero = the stream is transmit-bound).
  double stall_seconds() const { return stall_seconds_; }

  /// Marshal CPU time charged by this sender (profiler input).
  double marshal_seconds() const { return marshal_seconds_; }

  /// The underlying connection (profiler reads its stats/type).
  const Link& link() const { return *link_; }

 private:
  /// Single drainer coroutine: emits frames in cut order (marshal on the
  /// CPU, then hand to the link), serializing pushes and linger flushes.
  /// Spawned lazily at the first push()/finish() — see ensure_drain().
  sim::Task<void> drain();
  void ensure_drain();
  void arm_linger();
  void arm_linger_fire();

  sim::Simulator* sim_;
  DriverParams params_;
  sim::Resource* cpu_;
  std::unique_ptr<Link> link_;
  FrameCutter cutter_;
  sim::Resource slots_;  // send buffers: capacity 1 (single) or 2 (double)
  sim::Channel<Frame*> outbox_;
  std::uint64_t linger_generation_ = 0;
  bool drain_started_ = false;
  bool finishing_ = false;
  double stall_seconds_ = 0.0;
  double marshal_seconds_ = 0.0;
};

class ReceiverDriver {
 public:
  ReceiverDriver(sim::Simulator& sim, DriverParams params, sim::Resource& cpu);

  /// The inbox a Link delivers into.
  sim::Channel<Frame*>& inbox() { return inbox_; }

  /// Next materialized object, or nullopt at end of stream. Charges
  /// de-marshal + allocation cost per received frame.
  sim::Task<std::optional<catalog::Object>> next();

  std::uint64_t bytes_received() const { return bytes_; }

  /// Time spent blocked on an empty inbox (queue-wait; profiler input).
  double wait_seconds() const { return wait_seconds_; }

  /// De-marshal + allocation CPU time charged by this receiver.
  double demarshal_seconds() const { return demarshal_seconds_; }

 private:
  /// Books a received frame's bytes and returns its de-marshal +
  /// allocation CPU cost.
  double charge(const Frame& frame);
  /// Takes the frame's objects into ready_ (which must be drained) and
  /// recycles the frame.
  void materialize(Frame* frame);

  sim::Simulator* sim_;
  DriverParams params_;
  sim::Resource* cpu_;
  sim::Channel<Frame*> inbox_;
  // Materialized objects not yet handed to the operators. Vector + head
  // index instead of a deque: a frame's objects arrive as one bulk
  // move, and the storage resets (keeping capacity) whenever drained.
  std::vector<catalog::Object> ready_;
  std::size_t ready_head_ = 0;
  bool eos_ = false;
  std::uint64_t bytes_ = 0;
  double wait_seconds_ = 0.0;
  double demarshal_seconds_ = 0.0;
};

}  // namespace scsq::transport
