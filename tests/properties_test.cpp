// Property-based and parameterized sweeps over the whole stack:
// invariants that must hold for every buffer size, buffering mode,
// topology, seed and workload — not just the calibrated defaults.
#include <gtest/gtest.h>

#include <sstream>

#include "core/scsq.hpp"
#include "funcs/fft.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "transport/frame.hpp"
#include "transport/marshal.hpp"
#include "util/rng.hpp"

namespace scsq {
namespace {

using catalog::Bag;
using catalog::Object;
using catalog::SynthArray;

// ---------------------------------------------------------------------
// End-to-end invariants across buffer sizes and buffering modes
// ---------------------------------------------------------------------

struct TransportConfig {
  std::uint64_t buffer_bytes;
  int send_buffers;
};

class TransportSweep : public ::testing::TestWithParam<TransportConfig> {};

TEST_P(TransportSweep, P2pCountAndByteConservation) {
  const auto& cfg = GetParam();
  ScsqConfig sc;
  sc.exec.buffer_bytes = cfg.buffer_bytes;
  sc.exec.send_buffers = cfg.send_buffers;
  Scsq scsq(sc);
  auto r = scsq.run(
      "select extract(b) from sp a, sp b "
      "where b=sp(streamof(count(extract(a))),'bg',0) "
      "and a=sp(gen_array(100000,12),'bg',1);");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 12);
  // Byte conservation across the a->b connection.
  for (const auto& rp : r.rps) {
    if (rp.loc == hw::Location{"bg", 0}) {
      EXPECT_GE(rp.bytes_received, 12u * 100'000u);
    }
  }
  // Bandwidth can never exceed the torus link rate.
  const double mbps = 12.0 * 100'000 * 8 / r.elapsed_s / 1e6;
  EXPECT_LE(mbps, 1400.0 + 1e-6) << "faster than the 1.4 Gbit/s torus link";
}

TEST_P(TransportSweep, MergeCountInvariant) {
  const auto& cfg = GetParam();
  ScsqConfig sc;
  sc.exec.buffer_bytes = cfg.buffer_bytes;
  sc.exec.send_buffers = cfg.send_buffers;
  Scsq scsq(sc);
  auto r = scsq.run(
      "select extract(c) from sp a, sp b, sp c "
      "where c=sp(count(merge({a,b})), 'bg',0) "
      "and a=sp(gen_array(50000,7),'bg',1) "
      "and b=sp(gen_array(50000,9),'bg',4);");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 16);
}

INSTANTIATE_TEST_SUITE_P(
    BuffersAndModes, TransportSweep,
    ::testing::Values(TransportConfig{128, 1}, TransportConfig{128, 2},
                      TransportConfig{1000, 1}, TransportConfig{1000, 2},
                      TransportConfig{1024, 2}, TransportConfig{4097, 1},
                      TransportConfig{65536, 2}, TransportConfig{1'000'000, 1},
                      TransportConfig{1'000'000, 2}),
    [](const auto& info) {
      return "buf" + std::to_string(info.param.buffer_bytes) + "x" +
             std::to_string(info.param.send_buffers);
    });

// ---------------------------------------------------------------------
// Inbound queries: totals correct for every (query, n)
// ---------------------------------------------------------------------

class InboundSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(InboundSweep, TotalsAndNicCeiling) {
  const auto [query_no, n] = GetParam();
  std::ostringstream q;
  const char* a_alloc = (query_no % 2 == 1) ? "1" : "urr('be')";
  if (query_no <= 2) {
    q << "select extract(c) from bag of sp a, sp b, sp c, integer n"
      << " where c=sp(extract(b), 'bg') and b=sp(count(merge(a)), 'bg')"
      << " and a=spv((select gen_array(200000,6) from integer i where i in iota(1,n)),"
      << " 'be', " << a_alloc << ") and n=" << n << ";";
  } else {
    const char* b_alloc = (query_no <= 4) ? "inPset(1)" : "psetrr()";
    q << "select extract(c) from bag of sp a, bag of sp b, sp c, integer n"
      << " where c=sp(streamof(sum(merge(b))), 'bg')"
      << " and b=spv((select streamof(count(extract(p))) from sp p where p in a), 'bg', "
      << b_alloc << ")"
      << " and a=spv((select gen_array(200000,6) from integer i where i in iota(1,n)),"
      << " 'be', " << a_alloc << ") and n=" << n << ";";
  }
  Scsq scsq;
  auto r = scsq.run(q.str());
  ASSERT_EQ(r.results.size(), 1u) << q.str();
  EXPECT_EQ(r.results[0].as_int(), 6 * n);
  // Inbound bandwidth cannot exceed n (or 4) back-end NICs at 1 Gbit/s.
  const double mbps = 6.0 * n * 200'000 * 8 / r.elapsed_s / 1e6;
  EXPECT_LE(mbps, std::min(n, 4) * 1000.0);
}

std::vector<std::pair<int, int>> inbound_grid() {
  std::vector<std::pair<int, int>> out;
  for (int q = 1; q <= 6; ++q) {
    for (int n : {1, 3, 5}) out.emplace_back(q, n);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Queries, InboundSweep, ::testing::ValuesIn(inbound_grid()),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param.first) + "n" +
                                  std::to_string(info.param.second);
                         });

// ---------------------------------------------------------------------
// Simulation determinism
// ---------------------------------------------------------------------

TEST(Determinism, IdenticalRunsBitExact) {
  auto run_once = [] {
    Scsq scsq;
    return scsq
        .run("select extract(c) from sp a, sp b, sp c "
             "where c=sp(count(merge({a,b})), 'bg',0) "
             "and a=sp(gen_array(300000,10),'bg',1) "
             "and b=sp(gen_array(300000,10),'bg',2);")
        .elapsed_s;
  };
  const double t1 = run_once();
  const double t2 = run_once();
  EXPECT_EQ(t1, t2);  // bit-exact, not just close
}

// ---------------------------------------------------------------------
// Torus routing properties over many geometries
// ---------------------------------------------------------------------

class TorusGeometry : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TorusGeometry, RoutesAreMinimalNeighborPaths) {
  const auto [x, y, z] = GetParam();
  net::Torus3D t(x, y, z);
  util::Rng rng(static_cast<std::uint64_t>(x * 10000 + y * 100 + z));
  for (int i = 0; i < 100; ++i) {
    int a = static_cast<int>(rng.uniform_int(0, t.node_count() - 1));
    int b = static_cast<int>(rng.uniform_int(0, t.node_count() - 1));
    auto path = t.route(a, b);
    EXPECT_EQ(path.front(), a);
    EXPECT_EQ(path.back(), b);
    EXPECT_EQ(static_cast<int>(path.size()) - 1, t.hop_distance(a, b));
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      EXPECT_EQ(t.hop_distance(path[j], path[j + 1]), 1);
    }
    // Hop distance is bounded by the sum of half-dimensions.
    EXPECT_LE(t.hop_distance(a, b), x / 2 + y / 2 + z / 2 + 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, TorusGeometry,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 2, 2},
                                           std::tuple{4, 4, 2}, std::tuple{8, 8, 8},
                                           std::tuple{5, 3, 7}, std::tuple{16, 1, 1}));

// ---------------------------------------------------------------------
// FrameCutter conservation over random workloads
// ---------------------------------------------------------------------

class CutterSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CutterSeed, ConservesBytesAndObjects) {
  util::Rng rng(GetParam());
  const std::uint64_t buffer = static_cast<std::uint64_t>(rng.uniform_int(1, 10'000));
  transport::FramePool pool;
  transport::FrameCutter cutter(buffer, pool);
  std::uint64_t pushed_bytes = 0;
  std::size_t pushed_objects = 0;
  std::uint64_t frame_bytes = 0;
  std::size_t frame_objects = 0;
  std::uint64_t max_frame = 0;
  const int n = static_cast<int>(rng.uniform_int(1, 200));
  for (int i = 0; i < n; ++i) {
    Object obj{SynthArray{static_cast<std::uint64_t>(rng.uniform_int(0, 50'000)), 0}};
    pushed_bytes += obj.marshaled_size();
    pushed_objects += 1;
    cutter.push(std::move(obj));
    while (cutter.has_full()) {  // cut one frame at a time, as the sender does
      const transport::Frame* f = cutter.cut_full();
      frame_bytes += f->bytes;
      frame_objects += f->objects.size();
      max_frame = std::max(max_frame, f->bytes);
      EXPECT_EQ(f->bytes, buffer);  // all non-final frames are full
    }
  }
  const transport::Frame* last = cutter.finish();
  frame_bytes += last->bytes;
  frame_objects += last->objects.size();
  EXPECT_TRUE(last->eos);
  EXPECT_EQ(frame_bytes, pushed_bytes);
  EXPECT_EQ(frame_objects, pushed_objects);
  EXPECT_LE(max_frame, buffer);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutterSeed,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

// ---------------------------------------------------------------------
// Marshal round-trips over randomly generated object trees
// ---------------------------------------------------------------------

class MarshalSeed : public ::testing::TestWithParam<std::uint64_t> {};

Object random_object(util::Rng& rng, int depth) {
  switch (rng.uniform_int(0, depth > 0 ? 7 : 6)) {
    case 0: return Object{};
    case 1: return Object{rng.uniform_int(-1'000'000, 1'000'000)};
    case 2: return Object{rng.uniform(-1e9, 1e9)};
    case 3: return Object{rng.uniform_int(0, 1) == 1};
    case 4: {
      std::string s(static_cast<std::size_t>(rng.uniform_int(0, 64)), '\0');
      for (auto& c : s) c = static_cast<char>(rng.uniform_int(32, 126));
      return Object{std::move(s)};
    }
    case 5: {
      std::vector<double> a(static_cast<std::size_t>(rng.uniform_int(0, 32)));
      for (auto& v : a) v = rng.uniform(-1, 1);
      return Object{std::move(a)};
    }
    case 6:
      return Object{catalog::SpHandle{static_cast<std::uint64_t>(rng.uniform_int(0, 1000)),
                                      rng.uniform_int(0, 1) ? "bg" : "be"}};
    default: {
      Bag bag;
      const int k = static_cast<int>(rng.uniform_int(0, 5));
      for (int i = 0; i < k; ++i) bag.push_back(random_object(rng, depth - 1));
      return Object{std::move(bag)};
    }
  }
}

TEST_P(MarshalSeed, RoundTripRandomTrees) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Object obj = random_object(rng, 3);
    std::vector<std::uint8_t> buf;
    transport::marshal(obj, buf);
    std::size_t off = 0;
    Object back = transport::unmarshal(buf, off);
    EXPECT_EQ(off, buf.size());
    EXPECT_EQ(back, obj);
    if (obj.kind() != catalog::Kind::kSynth && obj.kind() != catalog::Kind::kBag) {
      EXPECT_EQ(buf.size(), obj.marshaled_size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarshalSeed, ::testing::Range<std::uint64_t>(100, 110));

// ---------------------------------------------------------------------
// FFT identities over random sizes/signals
// ---------------------------------------------------------------------

class FftSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSweep, RadixIdentityAndParseval) {
  const std::size_t n = GetParam();
  util::Rng rng(n);
  std::vector<double> x(n);
  double energy = 0;
  for (auto& v : x) {
    v = rng.uniform(-1, 1);
    energy += v * v;
  }
  auto direct = funcs::fft(x);
  // Radix identity.
  if (n >= 2) {
    auto combined = funcs::radix_combine(funcs::fft(funcs::even(x)),
                                         funcs::fft(funcs::odd(x)));
    ASSERT_EQ(combined.size(), direct.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(combined[i] - direct[i]), 0.0, 1e-8 * static_cast<double>(n));
    }
  }
  // Parseval.
  double fenergy = 0;
  for (const auto& c : direct) fenergy += std::norm(c);
  EXPECT_NEAR(fenergy / static_cast<double>(n), energy, 1e-8 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 32u, 128u, 1024u, 8192u));

// ---------------------------------------------------------------------
// Window reconstruction property
// ---------------------------------------------------------------------

class WindowSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(WindowSweep, TumblingWindowsReconstructStream) {
  const auto [count, size] = GetParam();
  std::ostringstream q;
  q << "select extract(b) from sp a, sp b"
    << " where b=sp(cwindow(extract(a), " << size << "), 'bg')"
    << " and a=sp(iota(1, " << count << "), 'bg');";
  Scsq scsq;
  auto r = scsq.run(q.str());
  // Concatenating the windows must reproduce 1..count exactly.
  std::vector<std::int64_t> flat;
  for (const auto& w : r.results) {
    for (const auto& el : w.as_bag()) flat.push_back(el.as_int());
  }
  ASSERT_EQ(flat.size(), static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) EXPECT_EQ(flat[static_cast<std::size_t>(i)], i + 1);
  // All windows but the last are exactly `size` long.
  for (std::size_t i = 0; i + 1 < r.results.size(); ++i) {
    EXPECT_EQ(r.results[i].as_bag().size(), static_cast<std::size_t>(size));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, WindowSweep,
                         ::testing::Values(std::pair{10, 3}, std::pair{12, 4},
                                           std::pair{1, 5}, std::pair{7, 7},
                                           std::pair{20, 1}, std::pair{100, 17}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.first) + "w" +
                                  std::to_string(info.param.second);
                         });

// --- Coroutine-frame pool: steady-state zero allocation ---

sim::Task<void> pool_hop_task(sim::Simulator& s, int hops) {
  for (int i = 0; i < hops; ++i) co_await s.delay(1e-6);
}

sim::Task<void> pool_parent_task(sim::Simulator& s) {
  // Spawns a child mid-flight so frames of more than one size class
  // churn through the free lists in the same cycle.
  co_await s.delay(1e-6);
  s.spawn(pool_hop_task(s, 2));
  co_await s.delay(1e-6);
}

// After a few warm-up cycles every coroutine frame comes from a free
// list: no new chunk is carved, nothing falls through to operator new.
// ASAN/LSAN runs of this binary (tools/ci_smoke.sh) double-check that
// the recycling is clean, not just quiet.
TEST(CoroPool, SteadyStateSpawnCyclesAllocateNothing) {
  sim::Simulator kernel;
  auto cycle = [&kernel] {
    for (int i = 0; i < 64; ++i) kernel.spawn(pool_hop_task(kernel, 3));
    for (int i = 0; i < 16; ++i) kernel.spawn(pool_parent_task(kernel));
    kernel.run();
    ASSERT_EQ(kernel.live_root_tasks(), 0u);
    kernel.reset();
  };
  for (int warm = 0; warm < 4; ++warm) cycle();
  const sim::CoroPoolStats before = sim::coro_pool_stats();
  for (int hot = 0; hot < 32; ++hot) cycle();
  const sim::CoroPoolStats after = sim::coro_pool_stats();
  EXPECT_EQ(after.chunk_allocs, before.chunk_allocs);
  EXPECT_EQ(after.oversize_allocs, before.oversize_allocs);
  EXPECT_GT(after.bucket_reused, before.bucket_reused);
}

}  // namespace
}  // namespace scsq
