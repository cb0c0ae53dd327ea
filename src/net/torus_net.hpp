// Simulated 3D torus interconnect with per-node communication
// co-processors (BlueGene/L compute-node fabric).
//
// Model, per message (one marshaled stream buffer):
//  * the payload is carried in fixed-size torus packets; a partially
//    filled final packet still occupies a full packet slot on the wire
//    (the paper: "1K is the smallest message size that can be exchanged
//    in the BlueGene 3D torus") — this is what collapses bandwidth for
//    sub-1KB stream buffers in Fig. 6;
//  * the sending node's co-processor is held for per-packet send
//    handling; each directed link on the dimension-ordered route is held
//    for the wire time; each intermediate node's co-processor is held
//    for per-packet forwarding (this is the Fig. 7A "sequential"
//    placement penalty); the destination co-processor is held for
//    per-packet receive handling plus a source-switch cost: with k
//    registered inbound streams, interleaved arrivals make the
//    single-threaded co-processor switch sources on an expected
//    (k-1)/k of the messages, so each message is charged that fraction
//    of the switch penalty (the paper's explanation for merge needing
//    large buffers in Fig. 8: "less frequent switching improves
//    communication");
//  * messages above the eager limit pay a rendezvous handshake
//    round-trip (per hop), one contributor to the decline right of the
//    1 KB peak in Fig. 6;
//  * a cache factor > 1 scales per-packet handling for large buffers
//    ("the drop-off above the 1000-byte buffer size is probably due to
//    cache misses").
//
// Resources are FIFO, so contention (two streams sharing a link, a
// co-processor forwarding someone else's traffic) emerges from the
// simulation rather than being hand-coded per experiment.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace scsq::net {

struct TorusParams {
  double link_bandwidth_Bps = 175e6;       // 1.4 Gbit/s per torus link
  std::uint32_t packet_bytes = 1024;       // minimum torus message size
  double send_per_packet_s = 0.6e-6;       // sender co-processor handling
  double forward_per_packet_s = 1.5e-6;    // intermediate co-processor forward
  double recv_per_packet_s = 1.5e-6;       // receiver co-processor handling
  double per_message_overhead_s = 0.5e-6;  // MPI per-send fixed cost
  std::uint32_t eager_limit_bytes = 1024;  // above this: rendezvous handshake
  double rendezvous_rtt_per_hop_s = 4.0e-6;
  double source_switch_penalty_s = 40.0e-6;  // co-processor source switch
  // Cache-miss growth: handling cost factor ramps from 1.0 at
  // cache_knee_bytes up to cache_max_factor over cache_ramp_octaves
  // doublings of the message size.
  std::uint32_t cache_knee_bytes = 1024;
  double cache_max_factor = 2.5;
  double cache_ramp_octaves = 4.0;
  // Injection slowdown for buffers far beyond the cache: the torus DMA
  // feeds from the memory bus once send buffers no longer fit in cache,
  // reducing effective link rate by up to this fraction (scaled by the
  // same cache ramp). Second contributor to the Fig. 6 decline.
  double memory_slowdown_max = 0.18;

};

/// A route resolved once (TorusNetwork::compile_path): every
/// co-processor and directed link a message holds, in order, plus a memo
/// of the payload-size-dependent costs. A stream compiles its path when it is wired and reuses it for
/// every message, so the per-message work is the resource holds alone.
/// The path must outlive every message sent on it.
struct TorusPath {
  int from = 0;
  int to = 0;
  sim::Resource* src_coproc = nullptr;
  sim::Resource* dst_coproc = nullptr;
  /// One entry per hop: the directed link, then the co-processor of the
  /// node it reaches (store-and-forward on every hop but the last).
  struct Hop {
    sim::Resource* link = nullptr;
    sim::Resource* coproc = nullptr;
  };
  std::vector<Hop> hops;

  /// Size-dependent costs of one message, bitwise equal to evaluating
  /// the model's expressions per message. Recomputed only when the
  /// payload size changes (a stream's frames are all one size but the
  /// last).
  struct Costs {
    std::uint64_t payload_bytes = 0;
    std::uint32_t packets = 0;
    double send_hold_s = 0.0;     ///< overhead + rendezvous + packet handling
    double forward_hold_s = 0.0;  ///< per intermediate co-processor
    double recv_hold_s = 0.0;     ///< before the live source-switch cost
    double wire_s = 0.0;          ///< per link, incl. memory slowdown
    bool rendezvous = false;
  };
  mutable Costs memo;
  mutable bool memo_valid = false;
};

class TorusNetwork {
 public:
  TorusNetwork(sim::Simulator& sim, Torus3D topology, TorusParams params);

  TorusNetwork(const TorusNetwork&) = delete;
  TorusNetwork& operator=(const TorusNetwork&) = delete;

  /// Resolves route(from, to) into a TorusPath, creating any directed
  /// link on it that does not exist yet.
  TorusPath compile_path(int from, int to);

  /// The message coroutine: carries one message of `payload_bytes` along
  /// `path` and completes when the destination co-processor has handled
  /// it. Once the payload has fully left the sending node it releases one
  /// slot of `send_slots` (if non-null): the send buffer is reusable, so
  /// the MPI driver marshals the next buffer while this one is still in
  /// flight when double buffering. The path must outlive the message.
  /// Messages on one path stay ordered (all resources are FIFO).
  sim::Task<void> send(const TorusPath& path, std::uint64_t payload_bytes,
                       sim::Resource* send_slots);

  /// One-off form: compiles the route from `from` to `to`, owns it for
  /// the message, and completes when the destination co-processor has
  /// handled the message.
  sim::Task<void> transmit(int from, int to, std::uint64_t payload_bytes);

  /// Number of full torus packets a payload occupies.
  std::uint32_t packets_for(std::uint64_t payload_bytes) const;

  /// Wire time for one message on one link (full packets).
  double wire_time(std::uint64_t payload_bytes) const;

  /// Wire time including the memory-bus injection slowdown for large
  /// buffers (used by transmissions; wire_time() is the raw link rate).
  double effective_wire_time(std::uint64_t payload_bytes) const;

  /// Cache factor applied to per-packet handling for this message size.
  double cache_factor(std::uint64_t payload_bytes) const;

  const Torus3D& topology() const { return topology_; }
  const TorusParams& params() const { return params_; }

  /// The communication co-processor of a node (capacity 1).
  sim::Resource& coproc(int node) { return *coprocs_.at(node); }

  /// Stream registration: links declare a live inbound stream at `node`
  /// so receive handling can charge the expected source-switch cost.
  void register_inbound_stream(int node);
  void unregister_inbound_stream(int node);
  int inbound_streams(int node) const { return inbound_streams_.at(node); }

  /// Busy seconds of a directed link so far (0 if never used).
  double link_busy_seconds(int from, int to) const;

  /// Cumulative receive co-processor source-switch seconds, machine-wide
  /// (the coproc.switch attribution input of the profiler).
  double switch_seconds() const;

  /// Publishes per-hop utilization and message/packet totals into the
  /// registry: torus.link.busy_s / torus.link.utilization gauges per
  /// *used* directed link (labeled from/to), torus.coproc.busy_s per
  /// busy co-processor, and torus.messages / torus.packets /
  /// torus.rendezvous_messages / torus.payload_bytes counters. The
  /// per-message totals are kept as plain members on the send path
  /// (single increments) and copied over here, so transmissions never
  /// touch the registry.
  void publish_metrics(obs::Registry& registry) const;

 private:
  sim::Resource& link(int from, int to);
  /// The path's memoized costs for a `payload_bytes` message.
  const TorusPath::Costs& costs(const TorusPath& path, std::uint64_t payload_bytes) const;
  sim::Simulator* sim_;
  Torus3D topology_;
  TorusParams params_;
  std::vector<std::unique_ptr<sim::Resource>> coprocs_;
  // Directed links created lazily, keyed by from * node_count + to.
  std::unordered_map<std::uint64_t, std::unique_ptr<sim::Resource>> links_;
  // Live inbound stream count per node (source-switch expectation).
  std::vector<int> inbound_streams_;
  // Cumulative transmit totals. Source-switch seconds are kept per
  // receiving node and summed in node order by switch_seconds().
  struct TxCounters {
    std::uint64_t messages = 0;
    std::uint64_t packets = 0;
    std::uint64_t rendezvous_messages = 0;
    std::uint64_t payload_bytes = 0;
  };
  TxCounters tx_;
  std::vector<double> switch_seconds_by_dst_;
};

}  // namespace scsq::net
