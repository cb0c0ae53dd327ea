#include <gtest/gtest.h>

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
    ResourceLock lock(r);
    order.push_back(id);
    co_return;
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

TEST(Resource, LockReleasesOnScopeExit) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<double> times;
  sim.spawn([](Simulator& s, Resource& r, std::vector<double>& t) -> Task<void> {
    {
      co_await r.acquire();
      ResourceLock lock(r);
      co_await s.delay(1.0);
    }
    t.push_back(s.now());
  }(sim, res, times));
  sim.spawn([](Simulator& s, Resource& r, std::vector<double>& t) -> Task<void> {
    co_await r.acquire();
    ResourceLock lock(r);
    t.push_back(s.now());
    co_await s.delay(0.5);
  }(sim, res, times));
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);  // first worker done at t=1
  EXPECT_DOUBLE_EQ(times[1], 1.0);  // second acquired right after release
  EXPECT_EQ(res.in_use(), 0);
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

// delay_until lands the clock on an exact absolute instant: one
// aggregated charge computing the sequential fold ((t+d)+d)+... must be
// bitwise identical to k sequential delay(d) awaits.
TEST(Simulator, DelayUntilMatchesSequentialDelayFold) {
  constexpr int kSteps = 1000;
  constexpr double kStep = 1e-7;  // deliberately not exactly representable sums
  Simulator seq;
  seq.spawn([](Simulator& s) -> Task<void> {
    for (int i = 0; i < kSteps; ++i) co_await s.delay(kStep);
  }(seq));
  seq.run();

  Simulator agg;
  agg.spawn([](Simulator& s) -> Task<void> {
    double t = s.now();
    for (int i = 0; i < kSteps; ++i) t += kStep;  // the same fold, no suspension
    co_await s.delay_until(t);
  }(agg));
  agg.run();

  EXPECT_EQ(seq.now(), agg.now());  // bitwise, not just approximately
  // And the fold differs from the naive product, which is the reason
  // delay_until exists at all.
  EXPECT_NE(seq.now(), kSteps * kStep);
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

TEST(Simulator, DelayUntilPastIsImmediate) {
  Simulator sim;
  int steps = 0;
  sim.spawn([](Simulator& s, int& n) -> Task<void> {
    co_await s.delay(2.0);
    co_await s.delay_until(1.0);  // in the past: no suspension
    ++n;
    co_await s.delay_until(2.0);  // == now: no suspension
    ++n;
  }(sim, steps));
  sim.run();
  EXPECT_EQ(steps, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
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

}  // namespace
}  // namespace scsq::sim
