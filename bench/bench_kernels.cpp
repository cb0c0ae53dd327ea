// Microbenchmarks (google-benchmark) for the hot kernels of the engine:
// object marshalling, stream framing, torus routing, FFT, and the
// discrete-event kernel itself. These measure the *reproduction's* own
// code speed (wall clock), unlike the figure benches, which measure
// simulated bandwidth.
#include <benchmark/benchmark.h>

#include "funcs/fft.hpp"
#include "net/topology.hpp"
#include "plan/builder.hpp"
#include "plan/operators.hpp"
#include "sim/channel.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "transport/driver.hpp"
#include "transport/frame.hpp"
#include "transport/marshal.hpp"
#include "util/rng.hpp"

namespace {

using scsq::catalog::Object;

void BM_MarshalDArray(benchmark::State& state) {
  std::vector<double> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<double>(i);
  Object obj{data};
  for (auto _ : state) {
    std::vector<std::uint8_t> buf;
    scsq::transport::marshal(obj, buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(obj.marshaled_size()));
}
BENCHMARK(BM_MarshalDArray)->Arg(1024)->Arg(65536);

void BM_UnmarshalDArray(benchmark::State& state) {
  std::vector<double> data(static_cast<std::size_t>(state.range(0)), 1.5);
  std::vector<std::uint8_t> buf;
  scsq::transport::marshal(Object{data}, buf);
  for (auto _ : state) {
    std::size_t off = 0;
    auto obj = scsq::transport::unmarshal(buf, off);
    benchmark::DoNotOptimize(obj);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_UnmarshalDArray)->Arg(1024)->Arg(65536);

void BM_FrameCutter(benchmark::State& state) {
  const auto buffer = static_cast<std::uint64_t>(state.range(0));
  scsq::transport::FramePool pool;
  for (auto _ : state) {
    scsq::transport::FrameCutter cutter(buffer, pool);
    std::size_t frames = 0;
    for (int i = 0; i < 64; ++i) {
      cutter.push(Object{scsq::catalog::SynthArray{30'000, 0}});
      for (; cutter.has_full(); ++frames) pool.recycle(cutter.cut_full());
    }
    frames += 1;
    pool.recycle(cutter.finish());
    benchmark::DoNotOptimize(frames);
  }
}
BENCHMARK(BM_FrameCutter)->Arg(1000)->Arg(65536);

// Round-trip through the flat MarshalWriter/MarshalReader with the
// encode buffer reused across iterations — the capacity-reuse idiom of
// the data plane. Payloads mirror the stream shapes the figure benches
// push: bags of scalars, bags of strings, a 1 K-element signal array,
// and a nested mixed bag with SynthArray descriptors.
Object make_marshal_payload(const std::string& which) {
  using scsq::catalog::Bag;
  using scsq::catalog::SynthArray;
  if (which == "int") {
    Bag b;
    for (int i = 0; i < 64; ++i) b.emplace_back(i);
    return Object{std::move(b)};
  }
  if (which == "str") {
    Bag b;
    for (int i = 0; i < 64; ++i)
      b.emplace_back(std::string("stream-payload-string-") + std::to_string(i));
    return Object{std::move(b)};
  }
  if (which == "darray") {
    std::vector<double> a(1024);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i) * 0.5;
    return Object{std::move(a)};
  }
  // bag: nested mixed bag
  Bag outer;
  for (int i = 0; i < 16; ++i) {
    Bag inner;
    inner.emplace_back(i);
    inner.emplace_back(0.5 * i);
    inner.emplace_back(std::string("k") + std::to_string(i));
    inner.emplace_back(SynthArray{1000, static_cast<std::uint64_t>(i)});
    outer.emplace_back(std::move(inner));
  }
  return Object{std::move(outer)};
}

void BM_MarshalRoundTrip(benchmark::State& state, const char* which) {
  Object obj = make_marshal_payload(which);
  std::vector<std::uint8_t> buf;
  scsq::transport::MarshalWriter writer(buf);
  // Steady-state decode: every iteration rematerializes into the same
  // object tree (read_into), so warm capacities make the loop
  // allocation-free — the receive-side counterpart of the reused buf.
  Object back;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    buf.clear();
    writer.write(obj);
    scsq::transport::MarshalReader reader(buf);
    reader.read_into(back);
    benchmark::DoNotOptimize(back);
    bytes += buf.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK_CAPTURE(BM_MarshalRoundTrip, int, "int");
BENCHMARK_CAPTURE(BM_MarshalRoundTrip, str, "str");
BENCHMARK_CAPTURE(BM_MarshalRoundTrip, darray, "darray");
BENCHMARK_CAPTURE(BM_MarshalRoundTrip, bag, "bag");

// Many small objects over a small buffer: every cut moves completed
// objects out of the pending queue (the object-churn path). Pool +
// lazy one-frame-at-a-time cutting, as the sender driver runs it.
void BM_FrameCutterCut(benchmark::State& state) {
  scsq::transport::FramePool pool;
  for (auto _ : state) {
    scsq::transport::FrameCutter cutter(100, pool);
    std::size_t objects = 0;
    for (int i = 0; i < 256; ++i) {
      cutter.push(Object{i});
      while (cutter.has_full()) {
        scsq::transport::Frame* f = cutter.cut_full();
        objects += f->objects.size();
        pool.recycle(f);
      }
    }
    scsq::transport::Frame* last = cutter.finish();
    objects += last->objects.size();
    pool.recycle(last);
    benchmark::DoNotOptimize(objects);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_FrameCutterCut);

// Steady-state pool cycle: acquire a frame, fill it, recycle it. After
// warm-up every acquire is served from the free list — this measures
// the zero-churn fast path itself.
void BM_FramePoolRecycle(benchmark::State& state) {
  scsq::transport::FramePool pool;
  for (auto _ : state) {
    scsq::transport::Frame* frame = pool.acquire();
    frame->bytes = 4096;
    frame->objects.emplace_back(scsq::catalog::SynthArray{4096, 0});
    benchmark::DoNotOptimize(frame->objects.data());
    pool.recycle(frame);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FramePoolRecycle);

void BM_TorusRoute(benchmark::State& state) {
  scsq::net::Torus3D torus(8, 8, 8);
  scsq::util::Rng rng(1);
  for (auto _ : state) {
    int a = static_cast<int>(rng.uniform_int(0, torus.node_count() - 1));
    int b = static_cast<int>(rng.uniform_int(0, torus.node_count() - 1));
    auto path = torus.route(a, b);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_TorusRoute);

void BM_Fft(benchmark::State& state) {
  std::vector<double> x(static_cast<std::size_t>(state.range(0)));
  scsq::util::Rng rng(2);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    auto out = scsq::funcs::fft(x);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(4096)->Arg(65536);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    scsq::sim::Simulator sim;
    sim.spawn([](scsq::sim::Simulator& s) -> scsq::sim::Task<void> {
      for (int i = 0; i < 10'000; ++i) co_await s.delay(1e-6);
    }(sim));
    sim.run();
    benchmark::DoNotOptimize(sim.events_dispatched());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_SimulatorEventThroughput);

// Heap path: 256 concurrent timers with staggered deadlines keep the
// event heap ~256 deep, measuring sift-up/down cost per event.
void BM_EventQueueHeapChurn(benchmark::State& state) {
  constexpr int kTimers = 256;
  constexpr int kRounds = 64;
  for (auto _ : state) {
    scsq::sim::Simulator sim;
    for (int t = 0; t < kTimers; ++t) {
      sim.spawn([](scsq::sim::Simulator& s, int timer) -> scsq::sim::Task<void> {
        for (int r = 0; r < kRounds; ++r) {
          co_await s.delay(1e-6 * (1.0 + 0.001 * timer));
        }
      }(sim, t));
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_dispatched());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTimers * kRounds);
}
BENCHMARK(BM_EventQueueHeapChurn);

// Same-timestamp fast path + O(1) notify_one: two coroutines ping-pong
// through a pair of WaitQueues without simulated time ever advancing.
// The responder spawns (and parks) first so no notify is ever dropped.
void BM_WaitQueueWakeup(benchmark::State& state) {
  constexpr int kRounds = 10'000;
  for (auto _ : state) {
    scsq::sim::Simulator sim;
    scsq::sim::WaitQueue ping(sim), pong(sim);
    sim.spawn([](scsq::sim::WaitQueue& p, scsq::sim::WaitQueue& q) -> scsq::sim::Task<void> {
      for (int i = 0; i < kRounds; ++i) {
        co_await q.wait();
        p.notify_one();
      }
    }(ping, pong));
    sim.spawn([](scsq::sim::WaitQueue& p, scsq::sim::WaitQueue& q) -> scsq::sim::Task<void> {
      for (int i = 0; i < kRounds; ++i) {
        q.notify_one();
        co_await p.wait();
      }
    }(ping, pong));
    sim.run();
    benchmark::DoNotOptimize(sim.perf().wakeups);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kRounds * 2);
}
BENCHMARK(BM_WaitQueueWakeup);

// Deep waiter queue drained one grant at a time: the old vector-front
// erase made this quadratic in the number of waiters.
void BM_WaitQueueDeepDrain(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    scsq::sim::Simulator sim;
    scsq::sim::WaitQueue wq(sim);
    for (int i = 0; i < waiters; ++i) {
      sim.spawn([](scsq::sim::WaitQueue& q) -> scsq::sim::Task<void> {
        co_await q.wait();
      }(wq));
    }
    sim.spawn([](scsq::sim::Simulator& s, scsq::sim::WaitQueue& q, int n) -> scsq::sim::Task<void> {
      co_await s.delay(1.0);  // let every waiter park first
      for (int i = 0; i < n; ++i) q.notify_one();
    }(sim, wq, waiters));
    sim.run();
    benchmark::DoNotOptimize(sim.perf().wakeups);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * waiters);
}
BENCHMARK(BM_WaitQueueDeepDrain)->Arg(1024)->Arg(16384);

// Plain-callback path: the std::function bodies live in the reusable
// slab, so steady-state scheduling is allocation-free.
void BM_CallAtCallback(benchmark::State& state) {
  constexpr int kCallbacks = 10'000;
  for (auto _ : state) {
    scsq::sim::Simulator sim;
    std::uint64_t sum = 0;
    for (int i = 0; i < kCallbacks; ++i) {
      sim.call_at(1e-6 * i, [&sum, i] { sum += static_cast<std::uint64_t>(i); });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kCallbacks);
}
BENCHMARK(BM_CallAtCallback);

// Deep pending-event set: a self-rearming timer workload across arrival
// distributions of different shapes. ~1k outstanding timers; each firing
// re-arms until the event budget per iteration is spent. The Simulator
// is reset() between iterations rather than reconstructed, so the warm
// heap and slab storage is reused. The figure workloads never keep more
// than a few dozen timed events pending; these rows show the heap's
// cost at depths they do not reach.
//  * uniform      delays spread over three decades.
//  * spike        delays clustered at one far point with 1us jitter.
//  * bimodal      short/long mixture: near events race far-future parks.
//  * cancel_heavy every firing arms two timers and cancels one pending
//                 one: exercises cancelled-node consumption + slab churn.
struct EventQueueBenchDriver {
  scsq::sim::Simulator& sim;
  scsq::util::Rng rng;
  int remaining;
  int dist;  // 0 uniform, 1 spike, 2 bimodal, 3 cancel_heavy
  std::vector<scsq::sim::Simulator::TimerId> live;
  std::uint64_t fired = 0;

  double next_delay() {
    switch (dist) {
      case 1: return 1e-3 + rng.uniform(0.0, 1e-6);
      case 2: return rng.uniform_int(0, 1) != 0 ? rng.uniform(1e-7, 1e-6)
                                                : rng.uniform(1e-3, 2e-3);
      default: return rng.uniform(1e-6, 1e-3);
    }
  }

  void arm() {
    if (remaining <= 0) return;
    --remaining;
    const auto id = sim.call_at(sim.now() + next_delay(), [this] {
      ++fired;
      if (dist == 3) {
        // Arm two, cancel one pending: net population stays flat while
        // the queue digests a cancelled node per firing. Handles of
        // timers that already fired linger in `live`; the loop purges
        // them (cancel_timer returns false) until a live one dies.
        arm();
        arm();
        while (!live.empty()) {
          const auto victim = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
          const bool was_pending = sim.cancel_timer(live[victim]);
          live[victim] = live.back();
          live.pop_back();
          if (was_pending) break;
        }
      } else {
        arm();
      }
    });
    if (dist == 3) live.push_back(id);
  }
};

void BM_EventQueue(benchmark::State& state, int dist) {
  constexpr int kPopulation = 1024;
  constexpr int kEventsPerIter = 50'000;
  scsq::sim::Simulator sim;
  std::uint64_t fired_total = 0;
  for (auto _ : state) {
    sim.reset();
    EventQueueBenchDriver drv{sim, scsq::util::Rng(42), kEventsPerIter, dist, {}, 0};
    for (int i = 0; i < kPopulation; ++i) drv.arm();
    sim.run();
    fired_total += drv.fired;
    benchmark::DoNotOptimize(sim.events_dispatched());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired_total));
}
BENCHMARK_CAPTURE(BM_EventQueue, uniform, 0);
BENCHMARK_CAPTURE(BM_EventQueue, spike, 1);
BENCHMARK_CAPTURE(BM_EventQueue, bimodal, 2);
BENCHMARK_CAPTURE(BM_EventQueue, cancel_heavy, 3);

// ---------------------------------------------------------------------
// Batch-at-a-time SQEP execution. These measure the host-side cost per
// simulated stream item through real operator pipelines — the per-item
// coroutine tower (depth 1, the pre-batching seed path) against the
// batched/fused path (depth 256). Simulated results and timestamps are
// identical in both modes; only items/s (host wall clock) changes.
// ---------------------------------------------------------------------

constexpr int kPipeFrames = 40;
constexpr int kPipeObjectsPerFrame = 256;

scsq::sim::Task<void> feed_frames(scsq::sim::Channel<scsq::transport::Frame*>& inbox,
                                  scsq::transport::FramePool& pool, int frames,
                                  int objects_per_frame) {
  for (int f = 0; f < frames; ++f) {
    scsq::transport::Frame* fr = pool.acquire();
    fr->objects.reserve(static_cast<std::size_t>(objects_per_frame));
    for (int i = 0; i < objects_per_frame; ++i) {
      fr->objects.emplace_back(static_cast<std::int64_t>(i));
    }
    fr->bytes = static_cast<std::uint64_t>(objects_per_frame) * 9;
    fr->eos = f + 1 == frames;
    co_await inbox.send(fr);
  }
}

/// depth <= 1 drives the exact per-item path (next()); larger depths
/// drive next_batch the way the engine's batched loop does.
scsq::sim::Task<void> drive_operator(scsq::plan::Operator& op, std::size_t depth,
                                     std::uint64_t& items) {
  if (depth <= 1) {
    while (co_await op.next()) ++items;
    co_return;
  }
  scsq::plan::ItemBatch batch;
  bool eos = false;
  while (!eos) {
    batch.reset();
    co_await op.next_batch(batch, depth);
    items += batch.size();
    eos = batch.eos();
  }
}

void BM_OperatorPipeline(benchmark::State& state, const char* mode) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const std::string which = mode;
  std::int64_t items_per_iter = 0;
  for (auto _ : state) {
    scsq::sim::Simulator sim;
    scsq::sim::Resource cpu(sim, 1, "cpu");
    scsq::transport::FramePool pool;
    scsq::plan::PlanContext ctx;
    ctx.sim = &sim;
    ctx.cpu = &cpu;
    ctx.batch_size = depth;
    std::uint64_t items = 0;
    if (which == "passthrough") {
      // streamof over a receive: the minimal stateless chain, fed with
      // frames of small objects (the shape where per-item coroutine
      // towers dominated).
      scsq::transport::ReceiverDriver driver(sim, scsq::transport::DriverParams{}, cpu);
      sim.spawn(feed_frames(driver.inbox(), pool, kPipeFrames, kPipeObjectsPerFrame));
      scsq::plan::PassOp root(std::make_unique<scsq::plan::ReceiveOp>(driver));
      sim.spawn(drive_operator(root, depth, items));
      sim.run();
      items_per_iter = kPipeFrames * kPipeObjectsPerFrame;
    } else if (which == "fused_count") {
      // count(gen_array(...)) through the real builder: per-item it is
      // CountOp over GenArrayOp; at depth > 1 the fusion pass collapses
      // it into one FusedPipelineOp.
      constexpr std::int64_t kGenItems = 10'000;
      ctx.const_eval = [](const scsq::scsql::ExprPtr& e) { return e->literal; };
      auto expr = scsq::scsql::make_call(
          "count", {scsq::scsql::make_call(
                       "gen_array", {scsq::scsql::make_literal(Object{64}),
                                     scsq::scsql::make_literal(Object{kGenItems})})});
      auto root = scsq::plan::build_plan(expr, ctx);
      sim.spawn(drive_operator(*root, depth, items));
      sim.run();
      items = kGenItems;  // one result object; count consumed items
      items_per_iter = kGenItems;
    } else {  // merge
      scsq::transport::ReceiverDriver d1(sim, scsq::transport::DriverParams{}, cpu);
      scsq::transport::ReceiverDriver d2(sim, scsq::transport::DriverParams{}, cpu);
      sim.spawn(feed_frames(d1.inbox(), pool, kPipeFrames, kPipeObjectsPerFrame));
      sim.spawn(feed_frames(d2.inbox(), pool, kPipeFrames, kPipeObjectsPerFrame));
      scsq::plan::MergeOp root(ctx, {&d1, &d2});
      sim.spawn(drive_operator(root, depth, items));
      sim.run();
      items_per_iter = 2 * kPipeFrames * kPipeObjectsPerFrame;
    }
    benchmark::DoNotOptimize(items);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * items_per_iter);
}
BENCHMARK_CAPTURE(BM_OperatorPipeline, passthrough, "passthrough")->Arg(1)->Arg(256);
BENCHMARK_CAPTURE(BM_OperatorPipeline, fused_count, "fused_count")->Arg(1)->Arg(256);
BENCHMARK_CAPTURE(BM_OperatorPipeline, merge, "merge")->Arg(1)->Arg(256);

void BM_ChannelPingPong(benchmark::State& state) {
  for (auto _ : state) {
    scsq::sim::Simulator sim;
    scsq::sim::Channel<int> ch(sim, 1);
    sim.spawn([](scsq::sim::Channel<int>& c) -> scsq::sim::Task<void> {
      for (int i = 0; i < 5'000; ++i) co_await c.send(i);
      c.close();
    }(ch));
    sim.spawn([](scsq::sim::Channel<int>& c) -> scsq::sim::Task<void> {
      while (co_await c.recv()) {
      }
    }(ch));
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 5'000);
}
BENCHMARK(BM_ChannelPingPong);

}  // namespace

BENCHMARK_MAIN();
