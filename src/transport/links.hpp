// Concrete stream links over the simulated hardware.
//
// Protocol selection follows the paper exactly: "MPI is always used
// inside the BlueGene as that is the only allowed protocol, while TCP is
// always used when communicating between clusters" (§2.3). BlueGene
// compute nodes cannot open sockets, so TCP to/from a compute node goes
// through its pset's I/O node and the tree network (§2.1).
//
// make_link() picks the right implementation from the endpoint
// locations:
//   bg -> bg               MpiLink          (torus)
//   fe/be -> bg            TcpToBgLink      (NICs -> I/O node -> tree)
//   bg -> fe/be            TcpFromBgLink    (tree -> I/O node -> NICs)
//   fe/be -> fe/be         TcpPlainLink     (NICs)
//   same node              LocalLink        (in-memory hand-off)
#pragma once

#include <memory>

#include "hw/machine.hpp"
#include "transport/driver.hpp"

namespace scsq::transport {

class MpiLink final : public Link {
 public:
  MpiLink(hw::Machine& machine, int src_rank, int dst_rank, sim::Channel<Frame*>& inbox,
          std::uint64_t source_tag);
  ~MpiLink() override;

 protected:
  sim::Task<void> transmit_one(Frame* frame, sim::Resource& send_slots) override;
  void stream_ended() override;
  /// Rounds up to full torus packets: a partially filled final packet
  /// still burns a full 1KB slot (the profiler's packetization waste).
  std::uint64_t wire_bytes_for(std::uint64_t payload_bytes) const override;

 private:
  void unregister();

  hw::Machine* machine_;
  int dst_;
  net::TorusPath path_;  // compiled once; every frame's message reads it
  sim::Channel<Frame*>* inbox_;
  std::uint64_t tag_;
  bool registered_ = false;
};

class TcpToBgLink final : public Link {
 public:
  TcpToBgLink(hw::Machine& machine, const hw::Location& src, int dst_rank,
              sim::Channel<Frame*>& inbox);
  ~TcpToBgLink() override;

 protected:
  sim::Task<void> src_transmit(Frame* frame, sim::Resource& send_slots) override;
  sim::Task<void> dst_receive(Frame* frame) override;
  void stream_ended() override;

 private:
  void close_flow();

  hw::Machine* machine_;
  int dst_rank_;
  int pset_;
  int src_host_;
  int io_host_;
  sim::Channel<Frame*>* inbox_;
  net::FlowId flow_ = 0;
  bool flow_open_ = false;
};

class TcpFromBgLink final : public Link {
 public:
  TcpFromBgLink(hw::Machine& machine, int src_rank, const hw::Location& dst,
                sim::Channel<Frame*>& inbox);
  ~TcpFromBgLink() override;

 protected:
  sim::Task<void> src_transmit(Frame* frame, sim::Resource& send_slots) override;
  sim::Task<void> dst_receive(Frame* frame) override;
  void stream_ended() override;

 private:
  void close_flow();

  hw::Machine* machine_;
  int src_rank_;
  int pset_;
  int io_host_;
  int dst_host_;
  sim::Channel<Frame*>* inbox_;
  net::FlowId flow_ = 0;
  bool flow_open_ = false;
};

class TcpPlainLink final : public Link {
 public:
  TcpPlainLink(hw::Machine& machine, const hw::Location& src, const hw::Location& dst,
               sim::Channel<Frame*>& inbox);
  ~TcpPlainLink() override;

 protected:
  sim::Task<void> src_transmit(Frame* frame, sim::Resource& send_slots) override;
  sim::Task<void> dst_receive(Frame* frame) override;
  void stream_ended() override;

 private:
  void close_flow();

  hw::Machine* machine_;
  int src_host_;
  int dst_host_;
  sim::Channel<Frame*>* inbox_;
  net::FlowId flow_ = 0;
  bool flow_open_ = false;
};

class LocalLink final : public Link {
 public:
  LocalLink(hw::Machine& machine, sim::Channel<Frame*>& inbox);

 protected:
  sim::Task<void> transmit_one(Frame* frame, sim::Resource& send_slots) override;

 private:
  sim::Channel<Frame*>* inbox_;
};

/// Builds the appropriate link between two RP locations. `source_tag`
/// must uniquely identify the producing RP. MPI and local links are
/// sequential; every TCP link is pipelined (see Link).
std::unique_ptr<Link> make_link(hw::Machine& machine, const hw::Location& src,
                                const hw::Location& dst, sim::Channel<Frame*>& inbox,
                                std::uint64_t source_tag);

}  // namespace scsq::transport
