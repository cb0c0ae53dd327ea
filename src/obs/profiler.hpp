// EXPLAIN ANALYZE for SCSQ continuous queries.
//
// A Profile is the measured dataflow DAG of one query run: one node per
// stream process (RP) with its busy/marshal/wait split, one edge per
// producer→consumer stream connection with payload vs. wire bytes and a
// frame-latency LogHistogram. The analysis layer — critical path and
// per-cause time attribution — is pure functions of that data, so tests
// build Profiles by hand and the execution engine fills them from its
// live drivers (Engine::profile).
//
// Attribution taxonomy (DESIGN.md §5.3). Simulated elapsed time is
// decomposed into named causes:
//   setup               bind + wire phases before streams start
//   compute             SQEP operator work (drive time minus waits)
//   marshal             send-side marshal + receive-side de-marshal CPU
//   link.wire           useful-payload share of link occupancy
//   link.packetization  wire minus payload share (1KB-rounded torus
//                       packets: the paper's sub-1KB bandwidth collapse)
//   coproc.switch       receive co-processor source switching (Fig. 8)
//   sender.stall        waits for a free send buffer or link window
//   idle                elapsed time none of the above explains
//
// Raw cause seconds are measured along the *critical path* (heaviest
// node+edge chain through the DAG); because a pipeline overlaps stages,
// their sum can exceed the run time, in which case the attributed
// shares are scaled down proportionally, and when they undershoot the
// remainder is attributed to idle. Either way the invariant holds
// exactly: attributed seconds sum to the simulated elapsed time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace scsq::obs {

/// One stream process (RP) in the measured dataflow DAG.
struct ProfileNode {
  std::uint64_t rp = 0;
  std::string loc;       // "bg:1", "fe:0", ...
  std::string query;     // pretty-printed subquery
  std::string op;        // root SQEP operator name ("count", "gen_array"...)
  bool is_client = false;
  std::uint64_t elements_out = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  double drive_s = 0.0;      // time inside root->next() (includes waits)
  double recv_wait_s = 0.0;  // blocked on an empty inbox (queue-wait)
  double demarshal_s = 0.0;  // receive-side de-marshal + alloc CPU
  double marshal_s = 0.0;    // send-side marshal CPU
  double send_stall_s = 0.0; // waiting for a free send buffer

  /// Pure SQEP compute: drive time with the in-drive waits removed.
  double busy_s() const;
  /// Everything this RP actively did — the critical-path node weight.
  double active_s() const;
};

/// One producer→consumer stream connection.
struct ProfileEdge {
  std::uint64_t src_rp = 0;
  std::uint64_t dst_rp = 0;
  std::string type;  // "mpi", "tcp", "tcp_to_bg", "tcp_from_bg", "local"
  std::uint64_t frames = 0;
  std::uint64_t payload_bytes = 0;
  /// Payload rounded up to the wire granularity (full torus packets for
  /// MPI links); wire - payload is the packetization waste.
  std::uint64_t wire_bytes = 0;
  double transit_s = 0.0;      // sum of frame queue-entry -> delivery
  double window_wait_s = 0.0;  // share of transit waiting for the link window
  LogHistogram latency;        // per-frame transit seconds

  /// Link occupancy excluding window queueing — the edge weight.
  double occupancy_s() const;
  /// Share of occupancy spent moving padding rather than payload.
  double packetization_s() const;
};

/// One attribution slice: a cause, its raw measured seconds, and the
/// seconds of elapsed time attributed to it (see file comment for the
/// normalization rule).
struct AttributionSlice {
  std::string cause;
  double raw_s = 0.0;
  double attributed_s = 0.0;
  double share = 0.0;  // attributed_s / elapsed_s
};

struct Attribution {
  std::vector<AttributionSlice> slices;
  double elapsed_s = 0.0;
  double attributed_total_s() const;
};

class Profile {
 public:
  double elapsed_s = 0.0;
  double setup_s = 0.0;
  /// Machine-wide torus receive-side source-switch seconds.
  double coproc_switch_s = 0.0;
  std::vector<ProfileNode> nodes;
  std::vector<ProfileEdge> edges;

  /// RP ids of the heaviest source→sink chain (node active time + edge
  /// occupancy), in flow order. A DAG with no edges yields the single
  /// heaviest node; empty profile yields an empty path. Ties break
  /// toward smaller RP ids for determinism.
  std::vector<std::uint64_t> critical_path() const;

  /// Per-cause decomposition of elapsed_s; attributed seconds sum to
  /// elapsed_s exactly (the invariant metrics_diff --record checks).
  Attribution attribution() const;

  /// Annotated plan-tree report: the DAG rendered sink-down with
  /// per-node and per-edge measurements, the critical path, and the
  /// attribution table.
  void render_text(std::ostream& os) const;

  /// One JSON object (single line) with nodes, edges (latency quantiles
  /// included), critical path, and attribution.
  void write_json(std::ostream& os) const;
  std::string json() const;
};

}  // namespace scsq::obs
