#include <gtest/gtest.h>

#include <set>

#include "net/ethernet.hpp"
#include "net/topology.hpp"
#include "net/torus_net.hpp"
#include "net/tree_net.hpp"
#include "util/rng.hpp"

namespace scsq::net {
namespace {

// ---------------------------------------------------------------------
// Torus3D topology maths
// ---------------------------------------------------------------------

TEST(Torus3D, NodeCountAndRankRoundTrip) {
  Torus3D t(4, 4, 2);
  EXPECT_EQ(t.node_count(), 32);
  for (int r = 0; r < t.node_count(); ++r) {
    EXPECT_EQ(t.rank_of(t.coord_of(r)), r);
  }
}

TEST(Torus3D, RankLayoutXFastest) {
  Torus3D t(4, 4, 4);
  EXPECT_EQ(t.coord_of(0), (TorusCoord{0, 0, 0}));
  EXPECT_EQ(t.coord_of(1), (TorusCoord{1, 0, 0}));
  EXPECT_EQ(t.coord_of(2), (TorusCoord{2, 0, 0}));
  EXPECT_EQ(t.coord_of(4), (TorusCoord{0, 1, 0}));
  EXPECT_EQ(t.coord_of(16), (TorusCoord{0, 0, 1}));
}

TEST(Torus3D, HopDistanceAdjacent) {
  Torus3D t(4, 4, 4);
  EXPECT_EQ(t.hop_distance(0, 1), 1);
  EXPECT_EQ(t.hop_distance(0, 4), 1);
  EXPECT_EQ(t.hop_distance(0, 16), 1);
  EXPECT_EQ(t.hop_distance(0, 0), 0);
}

TEST(Torus3D, HopDistanceUsesWraparound) {
  Torus3D t(4, 4, 4);
  // x=3 is one wrap-hop from x=0, not three.
  EXPECT_EQ(t.hop_distance(0, 3), 1);
  EXPECT_EQ(t.hop_distance(0, 2), 2);
}

TEST(Torus3D, HopDistanceSymmetric) {
  Torus3D t(4, 3, 2);
  util::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    int a = static_cast<int>(rng.uniform_int(0, t.node_count() - 1));
    int b = static_cast<int>(rng.uniform_int(0, t.node_count() - 1));
    EXPECT_EQ(t.hop_distance(a, b), t.hop_distance(b, a));
  }
}

TEST(Torus3D, RouteEndpointsAndLength) {
  Torus3D t(4, 4, 4);
  util::Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    int a = static_cast<int>(rng.uniform_int(0, t.node_count() - 1));
    int b = static_cast<int>(rng.uniform_int(0, t.node_count() - 1));
    auto path = t.route(a, b);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), a);
    EXPECT_EQ(path.back(), b);
    EXPECT_EQ(static_cast<int>(path.size()) - 1, t.hop_distance(a, b));
    // Every step is between torus neighbors.
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      EXPECT_EQ(t.hop_distance(path[j], path[j + 1]), 1);
    }
  }
}

TEST(Torus3D, SequentialPlacementRoutesThroughMiddleNode) {
  // The paper's Fig. 7A: nodes 0,1,2 on a line; traffic 2->0 passes
  // through node 1's co-processor.
  Torus3D t(4, 4, 4);
  auto path = t.route(2, 0);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 2);
  EXPECT_EQ(path[1], 1);
  EXPECT_EQ(path[2], 0);
}

TEST(Torus3D, BalancedPlacementAvoidsMiddleNode) {
  // Fig. 7B: node 4 is a Y-neighbor of node 0; the route is direct.
  Torus3D t(4, 4, 4);
  auto path = t.route(4, 0);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], 4);
  EXPECT_EQ(path[1], 0);
}

TEST(Torus3D, RouteToSelfIsSingleton) {
  Torus3D t(2, 2, 2);
  auto path = t.route(3, 3);
  EXPECT_EQ(path, (std::vector<int>{3}));
}

// ---------------------------------------------------------------------
// TorusNetwork timing model
// ---------------------------------------------------------------------

TorusParams test_params() {
  TorusParams p;
  p.source_switch_penalty_s = 0.0;  // most tests want clean arithmetic
  return p;
}

TEST(TorusNetwork, PacketizationRoundsUp) {
  sim::Simulator sim;
  TorusNetwork net(sim, Torus3D(4, 4, 4), test_params());
  EXPECT_EQ(net.packets_for(1), 1u);
  EXPECT_EQ(net.packets_for(1024), 1u);
  EXPECT_EQ(net.packets_for(1025), 2u);
  EXPECT_EQ(net.packets_for(3 * 1024 * 1024), 3u * 1024u);
  EXPECT_EQ(net.packets_for(0), 1u);  // control message
}

TEST(TorusNetwork, WireTimeChargesFullPackets) {
  sim::Simulator sim;
  TorusNetwork net(sim, Torus3D(4, 4, 4), test_params());
  // 100 bytes occupy a full 1024-byte packet on the wire.
  EXPECT_DOUBLE_EQ(net.wire_time(100), 1024.0 / 175e6);
  EXPECT_DOUBLE_EQ(net.wire_time(2048), 2048.0 / 175e6);
}

TEST(TorusNetwork, CacheFactorRampsAboveKnee) {
  sim::Simulator sim;
  TorusNetwork net(sim, Torus3D(4, 4, 4), test_params());
  EXPECT_DOUBLE_EQ(net.cache_factor(512), 1.0);
  EXPECT_DOUBLE_EQ(net.cache_factor(1024), 1.0);
  EXPECT_GT(net.cache_factor(4096), 1.0);
  EXPECT_LT(net.cache_factor(4096), net.cache_factor(65536));
  // Saturates at the max factor.
  EXPECT_DOUBLE_EQ(net.cache_factor(1u << 30), 2.5);
}

TEST(TorusNetwork, SingleHopTransferTiming) {
  sim::Simulator sim;
  auto p = test_params();
  TorusNetwork net(sim, Torus3D(4, 4, 4), p);
  double done = -1.0;
  sim.spawn([](sim::Simulator& s, TorusNetwork& n, double& out) -> sim::Task<void> {
    co_await n.transmit(1, 0, 1024, /*tag=*/7);
    out = s.now();
  }(sim, net, done));
  sim.run();
  const double expected = p.per_message_overhead_s + p.send_per_packet_s  // sender coproc
                          + 1024.0 / p.link_bandwidth_Bps                 // one hop wire
                          + p.recv_per_packet_s;                          // receiver coproc
  EXPECT_NEAR(done, expected, 1e-12);
}

TEST(TorusNetwork, TwoHopRouteIsSlowerThanOneHop) {
  sim::Simulator sim;
  TorusNetwork net(sim, Torus3D(4, 4, 4), test_params());
  double t_one = -1, t_two = -1;
  sim.spawn([](sim::Simulator& s, TorusNetwork& n, double& a, double& b) -> sim::Task<void> {
    co_await n.transmit(1, 0, 4096, 1);
    a = s.now();
    double start = s.now();
    co_await n.transmit(2, 0, 4096, 2);
    b = s.now() - start;
  }(sim, net, t_one, t_two));
  sim.run();
  EXPECT_GT(t_two, t_one);
}

TEST(TorusNetwork, RendezvousAppliesAboveEagerLimit) {
  sim::Simulator sim;
  auto p = test_params();
  p.cache_max_factor = 1.0;  // isolate the rendezvous effect
  TorusNetwork net(sim, Torus3D(4, 4, 4), p);
  double t_small = -1, t_big = -1;
  sim.spawn([](sim::Simulator& s, TorusNetwork& n, double& a, double& b) -> sim::Task<void> {
    co_await n.transmit(1, 0, 1024, 1);
    a = s.now();
    double start = s.now();
    co_await n.transmit(1, 0, 2048, 1);
    b = s.now() - start;
  }(sim, net, t_small, t_big));
  sim.run();
  // 2048 bytes = 2 packets: without rendezvous the time would be exactly
  // double the per-packet costs; the handshake adds rtt_per_hop.
  auto& p2 = net.params();
  double base_small = p2.per_message_overhead_s + p2.send_per_packet_s +
                      1024.0 / p2.link_bandwidth_Bps + p2.recv_per_packet_s;
  EXPECT_NEAR(t_small, base_small, 1e-12);
  double base_big = p2.per_message_overhead_s + 2 * p2.send_per_packet_s +
                    2048.0 / p2.link_bandwidth_Bps + 2 * p2.recv_per_packet_s;
  EXPECT_NEAR(t_big, base_big + p2.rendezvous_rtt_per_hop_s, 1e-12);
}

TEST(TorusNetwork, SwitchCostScalesWithRegisteredStreams) {
  sim::Simulator sim;
  auto p = test_params();
  p.source_switch_penalty_s = 100e-6;
  TorusNetwork net(sim, Torus3D(4, 4, 4), p);
  double t_single = -1, t_merged = -1;
  sim.spawn([](sim::Simulator& s, TorusNetwork& n, double& single,
               double& merged) -> sim::Task<void> {
    // One registered inbound stream: no switching cost.
    n.register_inbound_stream(0);
    double start = s.now();
    for (int i = 0; i < 4; ++i) co_await n.transmit(1, 0, 1024, 1);
    single = s.now() - start;
    // Two registered streams: each message pays half the penalty
    // (expected switches under interleaving).
    n.register_inbound_stream(0);
    start = s.now();
    for (int i = 0; i < 4; ++i) co_await n.transmit(1, 0, 1024, i % 2 == 0 ? 1 : 2);
    merged = s.now() - start;
    n.unregister_inbound_stream(0);
    n.unregister_inbound_stream(0);
  }(sim, net, t_single, t_merged));
  sim.run();
  EXPECT_NEAR(t_merged - t_single, 4 * 50e-6, 1e-9);
  EXPECT_EQ(net.inbound_streams(0), 0);
}

TEST(TorusNetwork, AsyncTransmitSignalsSenderFreeBeforeDelivery) {
  sim::Simulator sim;
  TorusNetwork net(sim, Torus3D(4, 4, 4), test_params());
  double t_free = -1, t_delivered = -1;
  sim.spawn([](sim::Simulator& s, TorusNetwork& n, double& tf,
               double& td) -> sim::Task<void> {
    sim::Event sender_free(s), delivered(s);
    n.transmit_async(2, 0, 4096, 1, &sender_free, &delivered);
    co_await sender_free.wait();
    tf = s.now();
    co_await delivered.wait();
    td = s.now();
  }(sim, net, t_free, t_delivered));
  sim.run();
  EXPECT_GT(t_free, 0.0);
  EXPECT_GT(t_delivered, t_free);  // 2-hop route: delivery strictly later
}

TEST(TorusNetwork, SharedLinkHalvesThroughput) {
  // Two streams whose routes share link 1->0 (senders at 1 and 2) take
  // about twice as long per stream as two streams on disjoint links
  // (senders at 1 and 4) — the Fig. 8 sequential-vs-balanced mechanism.
  auto run_pair = [](int src_b) {
    sim::Simulator sim;
    auto p = test_params();
    TorusNetwork net(sim, Torus3D(4, 4, 4), p);
    auto stream = [](TorusNetwork& n, int src, std::uint64_t tag) -> sim::Task<void> {
      for (int i = 0; i < 50; ++i) co_await n.transmit(src, 0, 64 * 1024, tag);
    };
    sim.spawn(stream(net, 1, 1));
    sim.spawn(stream(net, src_b, 2));
    return sim.run();
  };
  double t_sequential = run_pair(2);
  double t_balanced = run_pair(4);
  EXPECT_GT(t_sequential, 1.5 * t_balanced);
}

// ---------------------------------------------------------------------
// EthernetFabric
// ---------------------------------------------------------------------

TEST(Ethernet, FlowLifecycle) {
  sim::Simulator sim;
  EthernetFabric fab(sim, EthernetParams{});
  int be = fab.add_host("be1");
  int io = fab.add_host("io1", /*is_ionode=*/true);
  EXPECT_EQ(fab.flows_into(io), 0);
  auto f = fab.open_flow(be, io);
  EXPECT_EQ(fab.flows_into(io), 1);
  EXPECT_EQ(fab.distinct_senders_to_ionodes(), 1);
  fab.close_flow(f);
  EXPECT_EQ(fab.flows_into(io), 0);
  EXPECT_EQ(fab.distinct_senders_to_ionodes(), 0);
}

TEST(Ethernet, DistinctSendersCountsHostsNotFlows) {
  sim::Simulator sim;
  EthernetFabric fab(sim, EthernetParams{});
  int be = fab.add_host("be1");
  int io1 = fab.add_host("io1", true);
  int io2 = fab.add_host("io2", true);
  fab.open_flow(be, io1);
  fab.open_flow(be, io2);
  fab.open_flow(be, io1);
  EXPECT_EQ(fab.distinct_senders_to_ionodes(), 1);
}

TEST(Ethernet, TransferTiming) {
  sim::Simulator sim;
  EthernetParams p;
  EthernetFabric fab(sim, p);
  int a = fab.add_host("a");
  int b = fab.add_host("b");
  auto f = fab.open_flow(a, b);
  double done = -1;
  sim.spawn([](sim::Simulator& s, EthernetFabric& fb, FlowId id, double& t) -> sim::Task<void> {
    co_await fb.transfer(id, 1'000'000);
    t = s.now();
  }(sim, fab, f, done));
  sim.run();
  double wire = 1e6 / (p.nic_bandwidth_Bps * p.tcp_efficiency);
  EXPECT_NEAR(done, p.per_message_overhead_s + 2 * wire, 1e-12);
}

TEST(Ethernet, ImbalanceFactorNeutralCases) {
  sim::Simulator sim;
  EthernetFabric fab(sim, EthernetParams{});
  int be = fab.add_host("be1");
  int io1 = fab.add_host("io1", true);
  int io2 = fab.add_host("io2", true);
  EXPECT_DOUBLE_EQ(fab.sender_imbalance_factor(be), 1.0);  // no flows
  fab.open_flow(be, io1);
  EXPECT_DOUBLE_EQ(fab.sender_imbalance_factor(be), 1.0);  // single dst
  fab.open_flow(be, io2);
  EXPECT_DOUBLE_EQ(fab.sender_imbalance_factor(be), 1.0);  // balanced 1/1
}

TEST(Ethernet, ImbalanceFactorDetectsUnevenLoad) {
  // The Query-5 n=5 situation: one sender, 4 I/O nodes, 5 flows.
  sim::Simulator sim;
  EthernetParams p;
  EthernetFabric fab(sim, p);
  int be = fab.add_host("be1");
  std::vector<int> ios;
  for (int i = 0; i < 4; ++i) ios.push_back(fab.add_host("io" + std::to_string(i), true));
  for (int i = 0; i < 5; ++i) fab.open_flow(be, ios[i % 4]);
  EXPECT_DOUBLE_EQ(fab.sender_imbalance_factor(be), 1.0 + p.imbalance_coeff);
}

TEST(Ethernet, FlowAggregatesMatchRecomputationAfterEveryChange) {
  // Both aggregates are memoized per flow-table change. After every
  // random open or close, each must equal a recomputation from this
  // test's own list of open flows. Flows run among back-end, front-end
  // and I/O-node hosts in both directions, and often repeat one pair,
  // as Fig. 15 Query 1 opens several streams from one back-end node
  // into one pset.
  sim::Simulator sim;
  EthernetParams p;
  EthernetFabric fab(sim, p);
  std::vector<bool> is_ionode;
  for (const char* name : {"be0", "be1", "be2", "fe0", "fe1"}) {
    fab.add_host(name);
    is_ionode.push_back(false);
  }
  for (const char* name : {"io0", "io1", "io2", "io3"}) {
    fab.add_host(name, /*is_ionode=*/true);
    is_ionode.push_back(true);
  }
  const int hosts = fab.host_count();
  struct OpenFlow {
    FlowId id;
    int src;
    int dst;
  };
  std::vector<OpenFlow> open;
  auto expect_aggregates_exact = [&](int step) {
    std::set<int> senders;
    std::vector<int> inbound(static_cast<std::size_t>(hosts), 0);
    for (const auto& f : open) {
      if (is_ionode[static_cast<std::size_t>(f.dst)]) senders.insert(f.src);
      inbound[static_cast<std::size_t>(f.dst)] += 1;
    }
    EXPECT_EQ(fab.distinct_senders_to_ionodes(), static_cast<int>(senders.size()))
        << "step " << step;
    for (int h = 0; h < hosts; ++h) {
      std::set<int> dsts;
      for (const auto& f : open) {
        if (f.src == h) dsts.insert(f.dst);
      }
      double expected = 1.0;
      if (dsts.size() >= 2) {
        int lo = INT32_MAX, hi = 0;
        for (int d : dsts) {
          lo = std::min(lo, inbound[static_cast<std::size_t>(d)]);
          hi = std::max(hi, inbound[static_cast<std::size_t>(d)]);
        }
        expected = 1.0 + p.imbalance_coeff * static_cast<double>(hi - lo);
      }
      EXPECT_EQ(fab.sender_imbalance_factor(h), expected) << "step " << step << ", host " << h;
    }
  };
  util::Rng rng(15);
  for (int step = 0; step < 600; ++step) {
    // Closes get likelier as the table fills, so it keeps churning.
    const bool close =
        !open.empty() && rng.uniform_int(0, 2) < (open.size() > 16 ? 2 : 1);
    if (close) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1));
      fab.close_flow(open[i].id);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (!open.empty() && rng.uniform_int(0, 2) == 0) {
      // Another flow between a pair that already has one.
      const auto& twin = open[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1))];
      const int src = twin.src;
      const int dst = twin.dst;
      open.push_back({fab.open_flow(src, dst), src, dst});
    } else {
      const int src = static_cast<int>(rng.uniform_int(0, hosts - 1));
      int dst = static_cast<int>(rng.uniform_int(0, hosts - 2));
      if (dst >= src) ++dst;
      open.push_back({fab.open_flow(src, dst), src, dst});
    }
    expect_aggregates_exact(step);
  }
}

TEST(Ethernet, NicContentionSharesBandwidth) {
  sim::Simulator sim;
  EthernetParams p;
  p.per_message_overhead_s = 0.0;
  EthernetFabric fab(sim, p);
  int a = fab.add_host("a");
  int b = fab.add_host("b");
  int c = fab.add_host("c");
  auto fab_send = [](EthernetFabric& fb, FlowId id, int msgs) -> sim::Task<void> {
    for (int i = 0; i < msgs; ++i) co_await fb.transfer(id, 1'000'000);
  };
  // Two flows out of the same host 'a' contend for a.tx.
  auto f1 = fab.open_flow(a, b);
  auto f2 = fab.open_flow(a, c);
  sim.spawn(fab_send(fab, f1, 10));
  sim.spawn(fab_send(fab, f2, 10));
  double elapsed = sim.run();
  double wire = 1e6 / (p.nic_bandwidth_Bps * p.tcp_efficiency);
  // 20 MB through one tx NIC: at least 20 wire times.
  EXPECT_GE(elapsed, 20 * wire - 1e-9);
}

// ---------------------------------------------------------------------
// TreeNetwork
// ---------------------------------------------------------------------

TEST(Tree, InboundTiming) {
  sim::Simulator sim;
  TreeParams p;
  TreeNetwork tree(sim, 4, 8, p);
  double done = -1;
  sim.spawn([](sim::Simulator& s, TreeNetwork& t, double& out) -> sim::Task<void> {
    co_await t.forward_inbound(0, 3, 1'000'000, 1.0, 1.0);
    out = s.now();
  }(sim, tree, done));
  sim.run();
  double expected = p.io_per_message_overhead_s + 1e6 * p.io_forward_per_byte_s +
                    1e6 / p.link_bandwidth_Bps + p.compute_per_message_overhead_s +
                    1e6 * p.compute_recv_per_byte_s;
  EXPECT_NEAR(done, expected, 1e-12);
}

TEST(Tree, IoFactorScalesForwardingCost) {
  sim::Simulator sim;
  TreeParams p;
  TreeNetwork tree(sim, 1, 1, p);
  double t1 = -1, t2 = -1;
  sim.spawn([](sim::Simulator& s, TreeNetwork& t, double& a, double& b) -> sim::Task<void> {
    co_await t.forward_inbound(0, 0, 1'000'000, 1.0, 1.0);
    a = s.now();
    double start = s.now();
    co_await t.forward_inbound(0, 0, 1'000'000, 2.0, 1.0);
    b = s.now() - start;
  }(sim, tree, t1, t2));
  sim.run();
  EXPECT_NEAR(t2 - t1, 1e6 * p.io_forward_per_byte_s, 1e-12);
}

TEST(Tree, SharedIoCpuSerializesStreams) {
  sim::Simulator sim;
  TreeParams p;
  TreeNetwork tree(sim, 1, 2, p);
  auto stream = [](TreeNetwork& t, int cn) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) co_await t.forward_inbound(0, cn, 1'000'000, 1.0, 1.0);
  };
  sim.spawn(stream(tree, 0));
  sim.spawn(stream(tree, 1));
  double elapsed = sim.run();
  // 40 MB through one I/O CPU at io_forward_per_byte: lower bound.
  EXPECT_GE(elapsed, 40e6 * p.io_forward_per_byte_s);
}

}  // namespace
}  // namespace scsq::net
