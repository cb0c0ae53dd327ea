#include <gtest/gtest.h>

#include <coroutine>
#include <optional>
#include <vector>

#include "sim/channel.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace scsq::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.live_root_tasks(), 0u);
}

TEST(Simulator, DelayAdvancesTime) {
  Simulator sim;
  double seen = -1.0;
  sim.spawn([](Simulator& s, double& out) -> Task<void> {
    co_await s.delay(1.5);
    out = s.now();
  }(sim, seen));
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 1.5);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
  EXPECT_EQ(sim.live_root_tasks(), 0u);
}

TEST(Simulator, ZeroDelayDoesNotSuspend) {
  Simulator sim;
  int steps = 0;
  sim.spawn([](Simulator& s, int& n) -> Task<void> {
    co_await s.delay(0.0);
    ++n;
    co_await s.delay(-1.0);
    ++n;
  }(sim, steps));
  sim.run();
  EXPECT_EQ(steps, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, EventsOrderedByTime) {
  Simulator sim;
  std::vector<int> order;
  auto proc = [](Simulator& s, std::vector<int>& ord, double t, int id) -> Task<void> {
    co_await s.delay(t);
    ord.push_back(id);
  };
  sim.spawn(proc(sim, order, 3.0, 3));
  sim.spawn(proc(sim, order, 1.0, 1));
  sim.spawn(proc(sim, order, 2.0, 2));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, FifoWithinSameTimestamp) {
  Simulator sim;
  std::vector<int> order;
  auto proc = [](std::vector<int>& ord, int id) -> Task<void> {
    ord.push_back(id);
    co_return;
  };
  for (int i = 0; i < 5; ++i) sim.spawn(proc(order, i));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilLimitStopsEarly) {
  Simulator sim;
  bool late_ran = false;
  sim.spawn([](Simulator& s, bool& flag) -> Task<void> {
    co_await s.delay(10.0);
    flag = true;
  }(sim, late_ran));
  sim.run(5.0);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.live_root_tasks(), 1u);
}

TEST(Simulator, CallAtRunsCallback) {
  Simulator sim;
  double at = -1.0;
  sim.call_at(2.0, [&] { at = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(at, 2.0);
}

TEST(Simulator, NestedTaskReturnsValue) {
  Simulator sim;
  int result = 0;
  auto child = [](Simulator& s) -> Task<int> {
    co_await s.delay(1.0);
    co_return 42;
  };
  sim.spawn([](Simulator& s, auto childFn, int& out) -> Task<void> {
    out = co_await childFn(s);
  }(sim, child, result));
  sim.run();
  EXPECT_EQ(result, 42);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(Simulator, NestedTaskPropagatesException) {
  Simulator sim;
  bool caught = false;
  auto child = []() -> Task<int> {
    throw std::runtime_error("boom");
    co_return 0;  // unreachable
  };
  sim.spawn([](auto childFn, bool& flag) -> Task<void> {
    try {
      (void)co_await childFn();
    } catch (const std::runtime_error&) {
      flag = true;
    }
  }(child, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Event, WaitersWakeOnSet) {
  Simulator sim;
  Event ev(sim);
  std::vector<double> wake_times;
  auto waiter = [](Event& e, std::vector<double>& times, Simulator& s) -> Task<void> {
    co_await e.wait();
    times.push_back(s.now());
  };
  sim.spawn(waiter(ev, wake_times, sim));
  sim.spawn(waiter(ev, wake_times, sim));
  sim.spawn([](Simulator& s, Event& e) -> Task<void> {
    co_await s.delay(3.0);
    e.set();
  }(sim, ev));
  sim.run();
  ASSERT_EQ(wake_times.size(), 2u);
  EXPECT_DOUBLE_EQ(wake_times[0], 3.0);
  EXPECT_DOUBLE_EQ(wake_times[1], 3.0);
}

TEST(Event, WaitAfterSetIsImmediate) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  bool ran = false;
  sim.spawn([](Event& e, bool& flag) -> Task<void> {
    co_await e.wait();
    flag = true;
  }(ev, ran));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Channel, SendRecvInOrder) {
  Simulator sim;
  Channel<int> ch(sim, 4);
  std::vector<int> got;
  sim.spawn([](Channel<int>& c) -> Task<void> {
    for (int i = 0; i < 10; ++i) co_await c.send(i);
    c.close();
  }(ch));
  sim.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<void> {
    while (auto v = co_await c.recv()) out.push_back(*v);
  }(ch, got));
  sim.run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(sim.live_root_tasks(), 0u);
}

TEST(Channel, BackpressureBlocksSender) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  std::vector<double> send_times;
  sim.spawn([](Simulator& s, Channel<int>& c, std::vector<double>& times) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await c.send(i);
      times.push_back(s.now());
    }
    c.close();
  }(sim, ch, send_times));
  sim.spawn([](Simulator& s, Channel<int>& c) -> Task<void> {
    while (true) {
      co_await s.delay(1.0);  // slow consumer: one item per second
      auto v = co_await c.recv();
      if (!v) break;
    }
  }(sim, ch));
  sim.run();
  ASSERT_EQ(send_times.size(), 3u);
  // First send fits the buffer at t=0; each later send waits for a recv.
  EXPECT_DOUBLE_EQ(send_times[0], 0.0);
  EXPECT_DOUBLE_EQ(send_times[1], 1.0);
  EXPECT_DOUBLE_EQ(send_times[2], 2.0);
}

TEST(Channel, CloseDrainsBufferedValues) {
  Simulator sim;
  Channel<int> ch(sim, 8);
  std::vector<int> got;
  sim.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<void> {
    co_await c.send(1);
    co_await c.send(2);
    c.close();
    while (auto v = co_await c.recv()) out.push_back(*v);
  }(ch, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Channel, RecvOnClosedEmptyReturnsNullopt) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  ch.close();
  bool got_nullopt = false;
  sim.spawn([](Channel<int>& c, bool& flag) -> Task<void> {
    auto v = co_await c.recv();
    flag = !v.has_value();
  }(ch, got_nullopt));
  sim.run();
  EXPECT_TRUE(got_nullopt);
}

TEST(Channel, TrySendRespectsCapacity) {
  Simulator sim;
  Channel<int> ch(sim, 2);
  EXPECT_TRUE(ch.try_send(1));
  EXPECT_TRUE(ch.try_send(2));
  EXPECT_FALSE(ch.try_send(3));
  EXPECT_EQ(ch.size(), 2u);
}

TEST(Channel, MultipleReceiversEachGetDistinctValues) {
  Simulator sim;
  Channel<int> ch(sim, 2);
  std::vector<int> a, b;
  auto consumer = [](Channel<int>& c, std::vector<int>& out) -> Task<void> {
    while (auto v = co_await c.recv()) out.push_back(*v);
  };
  sim.spawn(consumer(ch, a));
  sim.spawn(consumer(ch, b));
  sim.spawn([](Channel<int>& c) -> Task<void> {
    for (int i = 0; i < 6; ++i) co_await c.send(i);
    c.close();
  }(ch));
  sim.run();
  EXPECT_EQ(a.size() + b.size(), 6u);
  std::vector<int> all = a;
  all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Resource, ExclusiveUseSerializes) {
  Simulator sim;
  Resource res(sim, 1, "cpu");
  std::vector<double> done_times;
  auto worker = [](Simulator& s, Resource& r, std::vector<double>& times) -> Task<void> {
    co_await r.use(2.0);
    times.push_back(s.now());
  };
  sim.spawn(worker(sim, res, done_times));
  sim.spawn(worker(sim, res, done_times));
  sim.spawn(worker(sim, res, done_times));
  sim.run();
  ASSERT_EQ(done_times.size(), 3u);
  EXPECT_DOUBLE_EQ(done_times[0], 2.0);
  EXPECT_DOUBLE_EQ(done_times[1], 4.0);
  EXPECT_DOUBLE_EQ(done_times[2], 6.0);
}

TEST(Resource, CapacityTwoRunsPairsConcurrently) {
  Simulator sim;
  Resource res(sim, 2, "duo");
  std::vector<double> done_times;
  auto worker = [](Simulator& s, Resource& r, std::vector<double>& times) -> Task<void> {
    co_await r.use(2.0);
    times.push_back(s.now());
  };
  for (int i = 0; i < 4; ++i) sim.spawn(worker(sim, res, done_times));
  sim.run();
  ASSERT_EQ(done_times.size(), 4u);
  EXPECT_DOUBLE_EQ(done_times[0], 2.0);
  EXPECT_DOUBLE_EQ(done_times[1], 2.0);
  EXPECT_DOUBLE_EQ(done_times[2], 4.0);
  EXPECT_DOUBLE_EQ(done_times[3], 4.0);
}

TEST(Resource, FifoGrantOrder) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<int> grant_order;
  auto worker = [](Resource& r, std::vector<int>& order, int id) -> Task<void> {
    co_await r.acquire();
    order.push_back(id);
    r.release();
  };
  for (int i = 0; i < 5; ++i) sim.spawn(worker(res, grant_order, i));
  sim.run();
  EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Resource, UtilizationTracksBusyTime) {
  Simulator sim;
  Resource res(sim, 1);
  sim.spawn([](Simulator& s, Resource& r) -> Task<void> {
    co_await r.use(1.0);   // busy [0,1)
    co_await s.delay(1.0); // idle [1,2)
  }(sim, res));
  sim.run();
  EXPECT_NEAR(res.busy_seconds(), 1.0, 1e-12);
  EXPECT_NEAR(res.utilization(), 0.5, 1e-12);
}

TEST(Simulator, ManyProcessesComplete) {
  Simulator sim;
  int done = 0;
  auto proc = [](Simulator& s, int& n, double t) -> Task<void> {
    co_await s.delay(t);
    ++n;
  };
  for (int i = 0; i < 1000; ++i) sim.spawn(proc(sim, done, 0.001 * i));
  sim.run();
  EXPECT_EQ(done, 1000);
  EXPECT_EQ(sim.live_root_tasks(), 0u);
}

TEST(Simulator, DeadlockDetectedAsLiveRoots) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  sim.spawn([](Channel<int>& c) -> Task<void> {
    auto v = co_await c.recv();  // never sent, never closed
    (void)v;
  }(ch));
  sim.run();
  EXPECT_EQ(sim.live_root_tasks(), 1u);
}

// Events landing at the same timestamp through different paths — the
// timed heap and the same-time FIFO fast path — must still dispatch in
// global schedule (seq) order, exactly like the old single
// priority_queue did.
TEST(Simulator, HeapAndFifoMergeFifoWithinTimestamp) {
  Simulator sim;
  std::vector<int> order;
  // Both outer callbacks sit in the heap for t=1.0. The first one
  // schedules a same-time event (FIFO path) that was nevertheless
  // requested *after* the second heap event — so the heap event with the
  // smaller sequence number must run before the FIFO event.
  sim.call_at(1.0, [&] {
    order.push_back(1);
    sim.call_at(sim.now(), [&] { order.push_back(3); });
  });
  sim.call_at(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

// The classic spawn-order test, but across a time hop so the FIFO ring
// is drained, cleared, and refilled at the new timestamp.
TEST(Simulator, FifoOrderSurvivesTimeAdvance) {
  Simulator sim;
  std::vector<int> order;
  auto proc = [](Simulator& s, std::vector<int>& ord, int id) -> Task<void> {
    ord.push_back(id);
    co_await s.delay(2.0);
    ord.push_back(id + 10);
  };
  for (int i = 0; i < 4; ++i) sim.spawn(proc(sim, order, i));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13}));
}

TEST(WaitQueue, NotifyOneWakesInFifoOrderAcrossRefills) {
  Simulator sim;
  WaitQueue wq(sim);
  std::vector<int> order;
  auto waiter = [](WaitQueue& q, std::vector<int>& ord, int id) -> Task<void> {
    co_await q.wait();
    ord.push_back(id);
  };
  for (int i = 0; i < 3; ++i) sim.spawn(waiter(wq, order, i));
  sim.spawn([](Simulator& s, WaitQueue& q, std::vector<int>& ord,
               auto waiterFn) -> Task<void> {
    co_await s.delay(1.0);
    q.notify_one();  // wakes 0; ring head advances past a live tail
    co_await s.delay(1.0);
    // New waiters arriving while older ones are still parked must queue
    // behind them.
    s.spawn(waiterFn(q, ord, 3));
    co_await s.delay(1.0);
    q.notify_one();  // 1
    q.notify_one();  // 2
    q.notify_one();  // 3
  }(sim, wq, order, waiter));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(wq.waiting(), 0u);
}

TEST(WaitQueue, WaitingCountsOnlyLiveWaiters) {
  Simulator sim;
  WaitQueue wq(sim);
  auto waiter = [](WaitQueue& q) -> Task<void> { co_await q.wait(); };
  for (int i = 0; i < 4; ++i) sim.spawn(waiter(wq));
  sim.run();
  EXPECT_EQ(wq.waiting(), 4u);
  wq.notify_one();
  EXPECT_EQ(wq.waiting(), 3u);
  wq.notify_all();
  EXPECT_EQ(wq.waiting(), 0u);
  sim.run();
  EXPECT_EQ(sim.live_root_tasks(), 0u);
}

TEST(Channel, CloseWhileSenderBlockedReleasesSender) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  bool sender_done = false;
  sim.spawn([](Channel<int>& c, bool& done) -> Task<void> {
    co_await c.send(1);  // fills the buffer
    co_await c.send(2);  // blocks: buffer full, nobody receiving
    done = true;         // woken by close(); the value is discarded
  }(ch, sender_done));
  sim.spawn([](Simulator& s, Channel<int>& c) -> Task<void> {
    co_await s.delay(1.0);
    c.close();
  }(sim, ch));
  sim.run();
  EXPECT_TRUE(sender_done);
  EXPECT_EQ(sim.live_root_tasks(), 0u);
  EXPECT_EQ(ch.size(), 1u);  // the first value stays buffered for drain
}

TEST(Simulator, PerfCountersTrackKernelActivity) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  sim.spawn([](Channel<int>& c) -> Task<void> {
    for (int i = 0; i < 10; ++i) co_await c.send(i);
    c.close();
  }(ch));
  sim.spawn([](Simulator& s, Channel<int>& c) -> Task<void> {
    while (true) {
      co_await s.delay(0.001);  // slow consumer forces sender waits
      if (!co_await c.recv()) break;
    }
  }(sim, ch));
  sim.run();
  const PerfCounters& pc = sim.perf();
  EXPECT_EQ(pc.events_dispatched, sim.events_dispatched());
  EXPECT_EQ(pc.channel_sends, 10u);
  EXPECT_EQ(pc.channel_recvs, 10u);
  EXPECT_GT(pc.channel_waits, 0u);   // sender blocked on the full buffer
  EXPECT_GT(pc.wakeups, 0u);
  EXPECT_GT(pc.heap_pushes, 0u);     // the consumer's timed delays
  EXPECT_GT(pc.fifo_pushes, 0u);     // spawn + notify fast-path events
  EXPECT_GE(pc.peak_queue_depth, 2u);
  EXPECT_EQ(pc.events_dispatched, pc.heap_pushes + pc.fifo_pushes);
}

TEST(Simulator, CallAtSlabRecyclesAcrossManyCallbacks) {
  Simulator sim;
  std::uint64_t sum = 0;
  sim.spawn([](Simulator& s, std::uint64_t& total) -> Task<void> {
    for (int i = 0; i < 1000; ++i) {
      s.call_at(s.now() + 0.5, [&total, i] { total += static_cast<std::uint64_t>(i); });
      co_await s.delay(1.0);
    }
  }(sim, sum));
  sim.run();
  EXPECT_EQ(sum, 999u * 1000u / 2u);
  EXPECT_EQ(sim.perf().callbacks_run, 1000u);
}

TEST(Simulator, NextEventTimeTracksQueueState) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.next_event_time(), Simulator::kNoLimit);
  sim.call_at(4.0, [] {});
  sim.call_at(2.0, [] {});
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 2.0);
  sim.run(3.0);
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 4.0);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.next_event_time(), Simulator::kNoLimit);
}

TEST(Simulator, CancelTimerSuppressesCallbackWithoutAdvancingClock) {
  Simulator sim;
  bool fired = false;
  int runs = 0;
  const Simulator::TimerId id = sim.call_at(5.0, [&] { fired = true; });
  sim.call_at(1.0, [&] { ++runs; });
  EXPECT_TRUE(sim.cancel_timer(id));
  EXPECT_FALSE(sim.cancel_timer(id));  // second cancel: already gone
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(runs, 1);
  // The parked node at t=5 was consumed silently: the clock stopped at
  // the last real event and the cancelled node was not dispatched.
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.events_dispatched(), 1u);
}

TEST(Simulator, CancelTimerGenerationGuardsRecycledSlot) {
  Simulator sim;
  int first = 0;
  int second = 0;
  const Simulator::TimerId stale = sim.call_at(1.0, [&] { ++first; });
  sim.run();  // fires; the slab slot is free for re-use
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(sim.cancel_timer(stale));  // already fired
  const Simulator::TimerId fresh = sim.call_at(2.0, [&] { ++second; });
  // Cancelling through the stale handle must not hit the new timer,
  // even if the slab recycled the same slot.
  EXPECT_FALSE(sim.cancel_timer(stale));
  sim.run();
  EXPECT_EQ(second, 1);
  EXPECT_TRUE(fresh.slot == stale.slot ? fresh.gen != stale.gen : true);
}

TEST(Simulator, CancelledTimerNeverBlocksRunCompletion) {
  // A sampler parks a periodic timer past the end of the workload and
  // cancels it at drain; run() must return at the last real event.
  Simulator sim;
  Simulator::TimerId tick{};
  sim.call_at(1.0, [&] { tick = sim.call_at(10.0, [] { FAIL() << "tick ran"; }); });
  sim.call_at(2.0, [&] { EXPECT_TRUE(sim.cancel_timer(tick)); });
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_DOUBLE_EQ(sim.next_event_time(), Simulator::kNoLimit);
}


// ---------------------------------------------------------------------
// Resource::use is the spelled-out acquire / delay / release
// ---------------------------------------------------------------------

// One logged moment of a random process mix: which process, which of
// its holds, when, and the resource state right then.
struct MixRecord {
  int proc = 0;
  int step = 0;
  double t = 0.0;
  int in_use = 0;
  std::size_t queued = 0;
  bool operator==(const MixRecord&) const = default;
};

struct MixLog {
  std::vector<MixRecord> arrivals;  // just before each hold is requested
  std::vector<MixRecord> grants;    // spelled-out form only: slot taken
  std::vector<MixRecord> done;      // just after each hold is released
};

// A process's plan: before each hold, wait `gap` (0 = back to back).
struct MixStep {
  double gap = 0.0;
  double hold = 0.0;
};

Task<void> mix_process(Simulator& sim, Resource& res, std::vector<MixStep> steps, int proc,
                       bool spelled_out, MixLog& log) {
  for (int i = 0; i < static_cast<int>(steps.size()); ++i) {
    const MixStep& step = steps[static_cast<std::size_t>(i)];
    co_await sim.delay(step.gap);
    log.arrivals.push_back({proc, i, sim.now(), res.in_use(), res.queue_length()});
    if (spelled_out) {
      co_await res.acquire();
      log.grants.push_back({proc, i, sim.now(), res.in_use(), res.queue_length()});
      co_await sim.delay(step.hold);
      res.release();
    } else {
      co_await res.use(step.hold);
    }
    log.done.push_back({proc, i, sim.now(), res.in_use(), res.queue_length()});
  }
}

TEST(ResourceUseProperty, SameEventsAsAcquireDelayRelease) {
  // Random process mixes on capacity-1 and capacity-2 resources, with
  // zero holds, one shared hold length and distinct ones, so timestamps
  // tie often. Each mix runs once with co_await use(d) and once with the
  // spelled-out acquire / delay / release: completion times, the grant
  // order, the kernel's counters and the busy integral must all match.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const int capacity = static_cast<int>(rng.uniform_int(1, 2));
    const int procs = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<std::vector<MixStep>> plans(static_cast<std::size_t>(procs));
    for (auto& plan : plans) {
      const int holds = static_cast<int>(rng.uniform_int(1, 8));
      for (int i = 0; i < holds; ++i) {
        MixStep step;
        switch (rng.uniform_int(0, 2)) {
          case 0: step.hold = 0.0; break;
          case 1: step.hold = 0.25; break;
          default: step.hold = rng.uniform(0.01, 1.0); break;
        }
        step.gap = rng.uniform_int(0, 2) == 0 ? 0.0 : 0.125 * rng.uniform_int(1, 4);
        plan.push_back(step);
      }
    }
    auto run = [&](bool spelled_out, MixLog& log, PerfCounters& perf, double& busy) {
      Simulator sim;
      Resource res(sim, capacity, "mix");
      for (int p = 0; p < procs; ++p) {
        sim.spawn(mix_process(sim, res, plans[static_cast<std::size_t>(p)], p, spelled_out,
                              log));
      }
      sim.run();
      EXPECT_EQ(sim.live_root_tasks(), 0u) << "seed " << seed;
      perf = sim.perf();
      busy = res.busy_seconds();
    };
    MixLog awaited, spelled;
    PerfCounters awaited_perf, spelled_perf;
    double awaited_busy = 0.0, spelled_busy = 0.0;
    run(false, awaited, awaited_perf, awaited_busy);
    run(true, spelled, spelled_perf, spelled_busy);

    EXPECT_EQ(awaited.arrivals, spelled.arrivals) << "seed " << seed;
    EXPECT_EQ(awaited.done, spelled.done) << "seed " << seed;
    // Grant order: use() grants every hold at the instant the spelled-out
    // form does (each hold ends at that grant time plus its hold, to the
    // bit), and on one slot the holds end in the spelled-out grant order.
    ASSERT_EQ(spelled.grants.size(), spelled.arrivals.size()) << "seed " << seed;
    for (const MixRecord& g : spelled.grants) {
      const auto& plan = plans[static_cast<std::size_t>(g.proc)];
      const double hold = plan[static_cast<std::size_t>(g.step)].hold;
      const double end = hold > 0.0 ? g.t + hold : g.t;
      bool matched = false;
      for (const MixRecord& d : awaited.done) {
        if (d.proc == g.proc && d.step == g.step) matched = d.t == end;
      }
      EXPECT_TRUE(matched) << "seed " << seed << " proc " << g.proc << " hold " << g.step;
    }
    if (capacity == 1) {
      ASSERT_EQ(awaited.done.size(), spelled.grants.size()) << "seed " << seed;
      for (std::size_t i = 0; i < awaited.done.size(); ++i) {
        EXPECT_EQ(awaited.done[i].proc, spelled.grants[i].proc) << "seed " << seed;
        EXPECT_EQ(awaited.done[i].step, spelled.grants[i].step) << "seed " << seed;
      }
    }
    EXPECT_EQ(awaited_perf.events_dispatched, spelled_perf.events_dispatched) << "seed " << seed;
    EXPECT_EQ(awaited_perf.heap_pushes, spelled_perf.heap_pushes) << "seed " << seed;
    EXPECT_EQ(awaited_perf.fifo_pushes, spelled_perf.fifo_pushes) << "seed " << seed;
    EXPECT_EQ(awaited_perf.wakeups, spelled_perf.wakeups) << "seed " << seed;
    EXPECT_EQ(awaited_perf.peak_queue_depth, spelled_perf.peak_queue_depth) << "seed " << seed;
    EXPECT_EQ(awaited_perf.callbacks_run, spelled_perf.callbacks_run) << "seed " << seed;
    EXPECT_EQ(awaited_busy, spelled_busy) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Channel waits park the awaiter: same events as a slow-path coroutine
// ---------------------------------------------------------------------

// The channel in its earlier form, kept here as the reference: a send
// into a full buffer or a recv from an empty one starts a slow-path
// coroutine that loops on a WaitQueue until its condition holds, then
// resumes the awaiting coroutine from its final suspend. `reparks`
// counts the loop passes after the first: a woken waiter that lost the
// slot or the value to another process.
template <class T>
class SlowPathChannel {
 public:
  SlowPathChannel(Simulator& sim, std::size_t capacity)
      : sim_(&sim), capacity_(capacity), buffer_(capacity), senders_(sim), receivers_(sim) {}

  class [[nodiscard]] SendAwaiter {
   public:
    SendAwaiter(SlowPathChannel& ch, T value) : ch_(&ch), value_(std::move(value)) {}
    SendAwaiter(const SendAwaiter&) = delete;
    SendAwaiter& operator=(const SendAwaiter&) = delete;
    ~SendAwaiter() {
      if (handle_) handle_.destroy();
    }
    bool await_ready() {
      if (ch_->count_ < ch_->capacity_ || ch_->closed_) {
        ch_->deliver(std::move(value_));
        return true;
      }
      return false;
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
      handle_ = ch_->send_slow(std::move(value_)).release();
      handle_.promise().continuation = parent;
      return handle_;
    }
    void await_resume() {}

   private:
    SlowPathChannel* ch_;
    T value_;
    std::coroutine_handle<Task<void>::promise_type> handle_{};
  };

  class [[nodiscard]] RecvAwaiter {
   public:
    explicit RecvAwaiter(SlowPathChannel& ch) : ch_(&ch) {}
    RecvAwaiter(const RecvAwaiter&) = delete;
    RecvAwaiter& operator=(const RecvAwaiter&) = delete;
    ~RecvAwaiter() {
      if (handle_) handle_.destroy();
    }
    bool await_ready() {
      if (ch_->count_ > 0) {
        result_ = ch_->take();
        return true;
      }
      return ch_->closed_;
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
      handle_ = ch_->recv_slow().release();
      handle_.promise().continuation = parent;
      return handle_;
    }
    std::optional<T> await_resume() {
      if (!handle_) return std::move(result_);
      return std::move(*handle_.promise().value);
    }

   private:
    SlowPathChannel* ch_;
    std::optional<T> result_;
    std::coroutine_handle<typename Task<std::optional<T>>::promise_type> handle_{};
  };

  SendAwaiter send(T value) { return SendAwaiter(*this, std::move(value)); }
  RecvAwaiter recv() { return RecvAwaiter(*this); }
  void close() {
    if (closed_) return;
    closed_ = true;
    receivers_.notify_all();
    senders_.notify_all();
  }

  int reparks = 0;

 private:
  void deliver(T&& value) {
    if (closed_) return;
    sim_->count_channel_send();
    std::size_t tail = head_ + count_;
    if (tail >= capacity_) tail -= capacity_;
    buffer_[tail] = std::move(value);
    ++count_;
    receivers_.notify_one();
  }
  T take() {
    T value = std::move(buffer_[head_]);
    if (++head_ == capacity_) head_ = 0;
    --count_;
    sim_->count_channel_recv();
    senders_.notify_one();
    return value;
  }
  Task<void> send_slow(T value) {
    for (int pass = 0; count_ >= capacity_ && !closed_; ++pass) {
      if (pass > 0) ++reparks;
      sim_->count_channel_wait();
      co_await senders_.wait();
    }
    deliver(std::move(value));
  }
  Task<std::optional<T>> recv_slow() {
    for (int pass = 0; count_ == 0; ++pass) {
      if (closed_) co_return std::nullopt;
      if (pass > 0) ++reparks;
      sim_->count_channel_wait();
      co_await receivers_.wait();
    }
    co_return std::optional<T>(take());
  }

  Simulator* sim_;
  std::size_t capacity_;
  bool closed_ = false;
  std::vector<T> buffer_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  WaitQueue senders_;
  WaitQueue receivers_;
};

// One completed channel operation: when, by which process, which value
// (-1: a recv that found the channel closed and drained).
struct ChanRecord {
  double t = 0.0;
  int proc = 0;
  int value = 0;
  bool operator==(const ChanRecord&) const = default;
};

template <class Ch>
Task<void> chan_sender(Simulator& sim, Ch& ch, std::vector<double> gaps, int proc,
                       std::vector<ChanRecord>& log) {
  for (int i = 0; i < static_cast<int>(gaps.size()); ++i) {
    co_await sim.delay(gaps[static_cast<std::size_t>(i)]);
    const int value = proc * 100 + i;
    co_await ch.send(value);
    log.push_back({sim.now(), proc, value});
  }
}

template <class Ch>
Task<void> chan_receiver(Simulator& sim, Ch& ch, std::vector<double> gaps, int proc,
                         std::vector<ChanRecord>& log) {
  for (std::size_t i = 0;; ++i) {
    co_await sim.delay(gaps[i % gaps.size()]);
    const std::optional<int> v = co_await ch.recv();
    log.push_back({sim.now(), proc, v ? *v : -1});
    if (!v) break;
  }
}

template <class Ch>
Task<void> chan_closer(Simulator& sim, Ch& ch, double at) {
  co_await sim.delay(at);
  ch.close();
}

struct ChanMix {
  std::size_t capacity = 1;
  std::vector<std::vector<double>> senders;    // per sender: gap before each send
  std::vector<std::vector<double>> receivers;  // per receiver: gaps, cycled
  double close_at = 0.0;
};

template <class Ch>
void run_chan_mix(const ChanMix& mix, std::vector<ChanRecord>& log, PerfCounters& perf,
                  int* reparks) {
  Simulator sim;
  Ch ch(sim, mix.capacity);
  int proc = 0;
  for (const auto& gaps : mix.senders) sim.spawn(chan_sender(sim, ch, gaps, proc++, log));
  for (const auto& gaps : mix.receivers) sim.spawn(chan_receiver(sim, ch, gaps, proc++, log));
  sim.spawn(chan_closer(sim, ch, mix.close_at));
  sim.run();
  EXPECT_EQ(sim.live_root_tasks(), 0u);
  perf = sim.perf();
  if (reparks != nullptr) {
    if constexpr (requires { ch.reparks; }) *reparks += ch.reparks;
  }
}

TEST(ChannelWaitProperty, SameEventsAsSlowPathCoroutine) {
  // Random mixes of 2-3 senders and 2-3 receivers on capacity-1 and
  // capacity-2 channels. Gaps sit on a 0.25 s grid (zero included), so
  // operations tie constantly: a woken waiter often finds that a process
  // running earlier at the same instant took the slot or the value, and
  // parks again. The close lands partway through and wakes whoever is
  // parked then. Each mix runs on sim::Channel and on the slow-path
  // reference: the logs and the kernel counters must match exactly.
  int reparks = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(seed);
    ChanMix mix;
    mix.capacity = static_cast<std::size_t>(rng.uniform_int(1, 2));
    auto gaps = [&rng](int n) {
      std::vector<double> g;
      for (int i = 0; i < n; ++i) g.push_back(0.25 * static_cast<double>(rng.uniform_int(0, 2)));
      return g;
    };
    const int senders = static_cast<int>(rng.uniform_int(2, 3));
    const int receivers = static_cast<int>(rng.uniform_int(2, 3));
    for (int i = 0; i < senders; ++i) {
      mix.senders.push_back(gaps(static_cast<int>(rng.uniform_int(2, 8))));
    }
    for (int i = 0; i < receivers; ++i) {
      mix.receivers.push_back(gaps(static_cast<int>(rng.uniform_int(1, 3))));
    }
    mix.close_at = 0.25 * static_cast<double>(rng.uniform_int(1, 8));

    std::vector<ChanRecord> parked_log, slow_log;
    PerfCounters parked, slow;
    run_chan_mix<Channel<int>>(mix, parked_log, parked, nullptr);
    run_chan_mix<SlowPathChannel<int>>(mix, slow_log, slow, &reparks);

    EXPECT_EQ(parked_log, slow_log) << "seed " << seed;
    EXPECT_EQ(parked.events_dispatched, slow.events_dispatched) << "seed " << seed;
    EXPECT_EQ(parked.fifo_pushes, slow.fifo_pushes) << "seed " << seed;
    EXPECT_EQ(parked.heap_pushes, slow.heap_pushes) << "seed " << seed;
    EXPECT_EQ(parked.channel_waits, slow.channel_waits) << "seed " << seed;
    EXPECT_EQ(parked.wakeups, slow.wakeups) << "seed " << seed;
    EXPECT_EQ(parked.channel_sends, slow.channel_sends) << "seed " << seed;
    EXPECT_EQ(parked.channel_recvs, slow.channel_recvs) << "seed " << seed;
    EXPECT_EQ(parked.peak_queue_depth, slow.peak_queue_depth) << "seed " << seed;
  }
  EXPECT_GT(reparks, 0) << "no mix made a woken waiter park again";
}

// Coroutine frames the pool handed out since `before`: every frame
// allocation is served from a warm list, a chunk refill or the heap.
std::uint64_t frames_since(const CoroPoolStats& before) {
  const CoroPoolStats now = coro_pool_stats();
  return (now.bucket_reused - before.bucket_reused) + (now.chunk_allocs - before.chunk_allocs) +
         (now.oversize_allocs - before.oversize_allocs);
}

// n park/wake cycles each of a channel recv, a channel send and a
// contended use(), on one fixed set of processes; returns the frames
// the whole run took.
std::uint64_t frames_for_park_cycles(int n) {
  const CoroPoolStats before = coro_pool_stats();
  {
    Simulator sim;
    Channel<int> to_recv(sim, 1);  // stays empty: every recv parks
    Channel<int> to_send(sim, 1);  // stays full: every send after the first parks
    Resource res(sim, 1, "contended");
    sim.spawn([](Channel<int>& ch, int cycles) -> Task<void> {
      for (int i = 0; i < cycles; ++i) (void)co_await ch.recv();
    }(to_recv, n));
    sim.spawn([](Simulator& s, Channel<int>& ch, int cycles) -> Task<void> {
      for (int i = 0; i < cycles; ++i) {
        co_await s.delay(1.0);
        co_await ch.send(i);
      }
    }(sim, to_recv, n));
    sim.spawn([](Channel<int>& ch, int cycles) -> Task<void> {
      for (int i = 0; i <= cycles; ++i) co_await ch.send(i);
    }(to_send, n));
    sim.spawn([](Simulator& s, Channel<int>& ch, int cycles) -> Task<void> {
      for (int i = 0; i <= cycles; ++i) {
        co_await s.delay(1.0);
        (void)co_await ch.recv();
      }
    }(sim, to_send, n));
    for (int p = 0; p < 2; ++p) {
      sim.spawn([](Resource& r, int cycles) -> Task<void> {
        for (int i = 0; i < cycles; ++i) co_await r.use(1.0);
      }(res, n));
    }
    sim.run();
    EXPECT_EQ(sim.live_root_tasks(), 0u);
    EXPECT_EQ(sim.perf().channel_waits, 2u * static_cast<std::uint64_t>(n));
    EXPECT_EQ(sim.now(), 2.0 * n);  // the two users' holds never overlapped
  }
  return frames_since(before);
}

TEST(ParkedWaits, TakeNoCoroutineFrame) {
  // The processes' own frames are a fixed cost; a wait that took a frame
  // would add one per cycle.
  const std::uint64_t n_cycles = frames_for_park_cycles(100);
  const std::uint64_t two_n_cycles = frames_for_park_cycles(200);
  EXPECT_EQ(n_cycles, two_n_cycles);
}

}  // namespace
}  // namespace scsq::sim
