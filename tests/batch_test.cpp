// Batch-at-a-time execution regression suite.
//
// The load-bearing invariant of batch-at-a-time execution: simulated
// time, results, byte counts, and per-RP CPU seconds are identical at
// every SCSQ_BATCH_SIZE. Batching is a host-side optimization of *how*
// the per-item cost charges are folded, never of *what* they add up to.
// These tests pin that invariant for the paper's query shapes (fig6
// point-to-point, fig8 merge trees, fig15 inbound TCP trees) and for
// local pipelines, plus unit tests of the batch plumbing itself
// (ItemBatch recycling, frame-granular receive batching, EOS-mid-batch
// delivery).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "catalog/batch.hpp"
#include "core/scsq.hpp"
#include "env_lookup.hpp"
#include "plan/operators.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "transport/driver.hpp"
#include "transport/frame.hpp"

namespace scsq {
namespace {

using catalog::ItemBatch;
using catalog::Object;

// ---------------------------------------------------------------------
// Engine-level batch invariance
// ---------------------------------------------------------------------

exec::RunReport run_with_batch(const std::string& script, std::size_t batch) {
  ScsqConfig config;
  config.exec.batch_size = batch;
  Scsq scsq(config);
  return scsq.run(script);
}

/// Asserts two reports describe the *same* simulated run: identical
/// results, elapsed time (exact), byte counts, and per-RP CPU seconds
/// (1e-12 — the op_costs audit guarantee).
void expect_same_run(const exec::RunReport& a, const exec::RunReport& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].kind(), b.results[i].kind());
    if (a.results[i].kind() == catalog::Kind::kInt) {
      EXPECT_EQ(a.results[i].as_int(), b.results[i].as_int());
    }
  }
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);  // bitwise, not approximate
  EXPECT_EQ(a.setup_s, b.setup_s);
  EXPECT_EQ(a.stream_bytes, b.stream_bytes);
  ASSERT_EQ(a.rps.size(), b.rps.size());
  for (std::size_t i = 0; i < a.rps.size(); ++i) {
    EXPECT_EQ(a.rps[i].elements_out, b.rps[i].elements_out) << "rp#" << a.rps[i].id;
    EXPECT_EQ(a.rps[i].bytes_sent, b.rps[i].bytes_sent) << "rp#" << a.rps[i].id;
    EXPECT_NEAR(a.rps[i].drive_s, b.rps[i].drive_s, 1e-12) << "rp#" << a.rps[i].id;
    EXPECT_NEAR(a.rps[i].marshal_s, b.rps[i].marshal_s, 1e-12) << "rp#" << a.rps[i].id;
    EXPECT_NEAR(a.rps[i].demarshal_s, b.rps[i].demarshal_s, 1e-12) << "rp#" << a.rps[i].id;
  }
}

void expect_batch_invariant(const std::string& script) {
  const auto base = run_with_batch(script, 1);
  for (std::size_t batch : {std::size_t{16}, std::size_t{256}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    expect_same_run(base, run_with_batch(script, batch));
  }
}

TEST(BatchInvariance, Fig6PointToPoint) {
  // The paper's fig6 shape scaled down: BlueGene producer streaming
  // arrays to a count RP, extracted by the client.
  expect_batch_invariant(
      "select extract(b) from sp a, sp b "
      "where b=sp(streamof(count(extract(a))),'bg',0) "
      "and a=sp(gen_array(30000,20),'bg',1);");
}

TEST(BatchInvariance, Fig8MergeTree) {
  // fig8 shape: several producers merged into one count.
  expect_batch_invariant(
      "select extract(c) from bag of sp a, sp c "
      "where c=sp(count(merge(a)),'bg',0) "
      "and a=spv((select gen_array(1000, 5) "
      "from integer i where i in iota(1,3)), 'bg', {1, 2, 3});");
}

TEST(BatchInvariance, MergeUnevenProducers) {
  // Producers with different stream lengths (3 vs 6 vs 9 items): the
  // merge pump interleaving must not depend on the consumer's pull depth.
  expect_batch_invariant(
      "select extract(c) from bag of sp a, sp c "
      "where c=sp(count(merge(a)),'bg',0) "
      "and a=spv((select gen_array(1000, i * 3) "
      "from integer i where i in iota(1,3)), 'bg', {1, 2, 3});");
}

TEST(BatchInvariance, Fig15InboundMergeTree) {
  // fig15 Q1 shape: back-end producers over TCP into a BlueGene merge
  // tree, so every batch depth drives the pipelined TCP links.
  expect_batch_invariant(
      "select extract(c) from bag of sp a, sp b, sp c, integer n "
      "where c=sp(extract(b), 'bg') "
      "and b=sp(count(merge(a)), 'bg') "
      "and a=spv((select gen_array(20000,3) from integer i where i in iota(1,n)), "
      "'be', 1) "
      "and n=4;");
}

TEST(BatchInvariance, Fig15PsetSpreadMerge) {
  // fig15 Q5 shape: psetrr() spreads the count stage over the psets, so
  // the final merge gathers TCP-fed counts over the torus across psets.
  expect_batch_invariant(
      "select extract(c) from bag of sp a, bag of sp b, sp c, integer n "
      "where c=sp(streamof(sum(merge(b))), 'bg') "
      "and b=spv((select streamof(count(extract(p))) from sp p where p in a), "
      "'bg', psetrr()) "
      "and a=spv((select gen_array(20000,3) from integer i where i in iota(1,n)), "
      "'be', 1) "
      "and n=4;");
}

TEST(BatchInvariance, BackEndToSecondPset) {
  // A back-end producer streaming into pset 1 (bg8) over TCP, its count
  // extracted back to the client.
  expect_batch_invariant(
      "select extract(b) from sp a, sp b "
      "where b=sp(streamof(count(extract(a))),'bg',8) "
      "and a=sp(gen_array(50000,6),'be',1);");
}

TEST(BatchInvariance, LocalCount) {
  // count(gen_array) on one node, extracted by the client: timing must
  // not move with the client's pull depth.
  expect_batch_invariant(
      "select extract(b) from sp b "
      "where b=sp(count(gen_array(1000, 7)), 'be');");
}

TEST(BatchInvariance, SumOverReceivedStream) {
  // sum over a received int stream on the front end.
  expect_batch_invariant(
      "select extract(b) from sp a, sp b "
      "where b=sp(sum(extract(a)), 'fe') "
      "and a=sp(iota(1, 10), 'be');");
}

TEST(BatchInvariance, StatelessOddChain) {
  // An ArrayMap stage (odd) over a received signal stream, with no
  // terminal: array results flow all the way to the client.
  auto run_odd = [](std::size_t batch) {
    ScsqConfig config;
    config.exec.batch_size = batch;
    Scsq scsq(config);
    std::vector<std::vector<double>> arrays;
    for (int k = 0; k < 4; ++k) {
      std::vector<double> x(64);
      for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(k * 100 + i);
      arrays.push_back(std::move(x));
    }
    scsq.register_stream_source("sig", arrays);
    return scsq.run(
        "select extract(b) from sp a, sp b "
        "where b=sp(streamof(odd(extract(a))),'be') "
        "and a=sp(receiver('sig'),'be');");
  };
  const auto base = run_odd(1);
  ASSERT_EQ(base.results.size(), 4u);
  for (std::size_t batch : {std::size_t{16}, std::size_t{256}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    expect_same_run(base, run_odd(batch));
  }
}

TEST(BatchInvariance, EmptyStream) {
  // Zero-item producer: count still emits its 0 and every path must
  // deliver EOS without items.
  expect_batch_invariant(
      "select extract(b) from sp b "
      "where b=sp(count(gen_array(1000, 0)), 'be');");
}

TEST(BatchInvariance, ResultValuesAreCorrect) {
  // Sanity on the actual values, not just cross-batch equality.
  auto r = run_with_batch(
      "select extract(b) from sp a, sp b "
      "where b=sp(sum(extract(a)), 'fe') "
      "and a=sp(iota(1, 10), 'be');",
      256);
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 55);
}

// ---------------------------------------------------------------------
// Batch depth: reporting and the environment knob
// ---------------------------------------------------------------------

TEST(Batching, BatchFillReportedInProfile) {
  // The producer sends its 7 small arrays in one frame, and the client
  // pulls whole batches: its receive node takes all 7 in one batch.
  ScsqConfig config;
  config.exec.batch_size = 256;
  Scsq scsq(config);
  auto r = scsq.run(
      "select extract(b) from sp b "
      "where b=sp(gen_array(1000, 7), 'be');");
  auto profile = scsq.engine().profile(r);
  bool saw_multi_fill = false;
  for (const auto& n : profile.nodes) {
    if (n.batches > 0 && n.mean_batch_fill() > 1.0) saw_multi_fill = true;
  }
  EXPECT_TRUE(saw_multi_fill);
}

TEST(Batching, EnvKnobControlsDefaultBatchSize) {
  // SCSQ_BATCH_SIZE resolves into ExecOptions::batch_size. At 1, every
  // batch the roots deliver holds exactly one item.
  const std::string script =
      "select extract(b) from sp b "
      "where b=sp(streamof(gen_array(1000, 6)), 'be');";
  const auto resolved = [](const char* value) {
    return exec::from_env(env_of({{"SCSQ_BATCH_SIZE", value}})).config.exec.batch_size;
  };
  ASSERT_EQ(resolved("1"), 1u);
  ASSERT_EQ(resolved("256"), 256u);
  EXPECT_EQ(exec::from_env(env_of({})).config.exec.batch_size, 256u);
  auto r1 = run_with_batch(script, resolved("1"));
  auto r256 = run_with_batch(script, resolved("256"));
  expect_same_run(r1, r256);
  for (const auto& rp : r1.rps) {
    if (rp.batches > 0) {
      EXPECT_EQ(rp.batch_items, rp.batches);  // fill 1.0
    }
  }
}

// ---------------------------------------------------------------------
// ItemBatch plumbing
// ---------------------------------------------------------------------

TEST(ItemBatchTest, RecyclesSlotsAcrossResets) {
  ItemBatch batch;
  for (int round = 0; round < 3; ++round) {
    batch.reset();
    EXPECT_TRUE(batch.empty());
    EXPECT_FALSE(batch.eos());
    for (int i = 0; i < 4; ++i) batch.push(Object{i});
    EXPECT_EQ(batch.size(), 4u);
    EXPECT_EQ(batch[3].as_int(), 3);
  }
  // Slot storage grew once and stayed: the zero-churn invariant.
  EXPECT_EQ(batch.slot_capacity(), 4u);
  batch.mark_eos();
  EXPECT_TRUE(batch.eos());
  batch.reset();
  EXPECT_FALSE(batch.eos());
  EXPECT_EQ(batch.slot_capacity(), 4u);
}

// ---------------------------------------------------------------------
// Frame-granular receive batching
// ---------------------------------------------------------------------

sim::Task<void> feed_two_frames(sim::Channel<transport::Frame*>& inbox,
                                transport::FramePool& pool) {
  transport::Frame* f1 = pool.acquire();
  for (int i = 0; i < 3; ++i) f1->objects.emplace_back(std::int64_t{i});
  f1->bytes = 27;
  co_await inbox.send(f1);
  transport::Frame* f2 = pool.acquire();
  for (int i = 3; i < 5; ++i) f2->objects.emplace_back(std::int64_t{i});
  f2->bytes = 18;
  f2->eos = true;
  co_await inbox.send(f2);
}

TEST(ReceiveBatching, NeverCrossesFrameBoundaries) {
  // Two frames of 3 and 2 objects; a max=16 pull must deliver 3 (the
  // first frame only — pulling the second early would release sender
  // backpressure before the per-item path would), then 2 with EOS.
  sim::Simulator sim;
  sim::Resource cpu(sim, 1, "cpu");
  transport::FramePool pool;
  transport::ReceiverDriver driver(sim, transport::DriverParams{}, cpu);
  sim.spawn(feed_two_frames(driver.inbox(), pool));
  std::vector<std::size_t> batch_sizes;
  bool exhausted_at_end = false;
  sim.spawn([](transport::ReceiverDriver& drv, std::vector<std::size_t>& sizes,
               bool& exhausted) -> sim::Task<void> {
    ItemBatch batch;
    while (true) {
      batch.reset();
      const std::size_t n = co_await drv.next_batch(batch, 16);
      if (n == 0) break;
      sizes.push_back(n);
      if (drv.exhausted()) break;
    }
    exhausted = drv.exhausted();
  }(driver, batch_sizes, exhausted_at_end));
  sim.run();
  ASSERT_EQ(batch_sizes.size(), 2u);
  EXPECT_EQ(batch_sizes[0], 3u);
  EXPECT_EQ(batch_sizes[1], 2u);
  EXPECT_TRUE(exhausted_at_end);
  EXPECT_EQ(pool.recycled(), 2u);  // the receiver recycled both handles
}

// ---------------------------------------------------------------------
// Operator-level batch semantics
// ---------------------------------------------------------------------

TEST(OperatorBatching, EosRidesWithFinalItems) {
  // A 5-item source pulled at depth 16: one batch with 5 items and the
  // EOS flag set — no separate empty EOS pull needed.
  sim::Simulator sim;
  sim::Resource cpu(sim, 1, "cpu");
  plan::PlanContext ctx;
  ctx.sim = &sim;
  ctx.cpu = &cpu;
  plan::GenArrayOp op(ctx, 100, 5);
  std::size_t got = 0;
  bool eos = false;
  sim.spawn([](plan::Operator& o, std::size_t& n, bool& e) -> sim::Task<void> {
    ItemBatch batch;
    co_await o.next_batch(batch, 16);
    n = batch.size();
    e = batch.eos();
  }(op, got, eos));
  sim.run();
  EXPECT_EQ(got, 5u);
  EXPECT_TRUE(eos);
}

TEST(OperatorBatching, BatchedGenArrayMatchesPerItemTime) {
  // The aggregated use_repeated hold must land on the bitwise-identical
  // end time of the per-item fold.
  auto run_gen = [](std::size_t depth) {
    sim::Simulator sim;
    sim::Resource cpu(sim, 1, "cpu");
    plan::PlanContext ctx;
    ctx.sim = &sim;
    ctx.cpu = &cpu;
    plan::GenArrayOp op(ctx, 4096, 37);
    std::size_t items = 0;
    sim.spawn([](plan::Operator& o, std::size_t d, std::size_t& n) -> sim::Task<void> {
      if (d <= 1) {
        while (co_await o.next()) ++n;
        co_return;
      }
      ItemBatch batch;
      bool eos = false;
      while (!eos) {
        batch.reset();
        co_await o.next_batch(batch, d);
        n += batch.size();
        eos = batch.eos();
      }
    }(op, depth, items));
    sim.run();
    EXPECT_EQ(items, 37u);
    return sim.now();
  };
  const double per_item = run_gen(1);
  EXPECT_EQ(per_item, run_gen(16));
  EXPECT_EQ(per_item, run_gen(256));
}

TEST(OperatorBatching, BatchSizeOneDeliversOneItemPerPull) {
  sim::Simulator sim;
  sim::Resource cpu(sim, 1, "cpu");
  plan::PlanContext ctx;
  ctx.sim = &sim;
  ctx.cpu = &cpu;
  plan::GenArrayOp op(ctx, 100, 3);
  std::vector<std::size_t> sizes;
  sim.spawn([](plan::Operator& o, std::vector<std::size_t>& out) -> sim::Task<void> {
    ItemBatch batch;
    bool eos = false;
    while (!eos) {
      batch.reset();
      co_await o.next_batch(batch, 1);
      if (!batch.empty()) out.push_back(batch.size());
      eos = batch.eos();
    }
  }(op, sizes));
  sim.run();
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1, 1}));
}

}  // namespace
}  // namespace scsq
