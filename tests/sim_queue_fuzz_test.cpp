// Differential fuzz for the timed pending-event set (sim/event_queue.hpp).
//
// A deterministic random "program" of call_at / cancel_timer / spawned
// delay-chain interleavings is replayed on both queue modes {heap,
// ladder}. Every dispatched callback logs (now(), tag) and draws its next
// actions from a shared RNG, so the slightest ordering divergence
// cascades into a completely different log. The two logs must be
// element-for-element identical — that is the ladder queue's core
// contract: the exact (time, seq) dispatch order of the binary-heap
// reference.
//
// Timestamps are quantized to a coarse grid so same-timestamp ties (the
// seq tie-break) occur constantly, including dt == 0 arms that take the
// same-time FIFO fast path and race the timed set inside the run loop's
// front selection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace {

using scsq::sim::EventQueue;
using scsq::sim::Simulator;
using scsq::sim::Task;

struct Dispatch {
  double at;
  int tag;
  bool operator==(const Dispatch& o) const { return at == o.at && tag == o.tag; }
};

struct FuzzWorld {
  Simulator& sim;
  scsq::util::Rng rng;
  int budget;  // remaining arm() calls; bounds the program
  std::vector<Dispatch> log;
  std::vector<Simulator::TimerId> live;
  int next_tag = 0;

  FuzzWorld(Simulator& s, std::uint64_t seed, int budget_in)
      : sim(s), rng(seed), budget(budget_in) {}

  // Coarse grid (multiples of 1e-4, including 0) to force timestamp ties.
  double qdelay() { return static_cast<double>(rng.uniform_int(0, 40)) * 1e-4; }

  void arm() {
    if (budget <= 0) return;
    --budget;
    const int tag = next_tag++;
    live.push_back(sim.call_at(sim.now() + qdelay(), [this, tag] { fire(tag); }));
  }

  void fire(int tag) {
    log.push_back({sim.now(), tag});
    const auto action = rng.uniform_int(0, 9);
    if (action < 4) {
      arm();
      arm();
    } else if (action < 6) {
      arm();
      cancel_random();
    } else if (action < 8) {
      spawn_chain();
    } else {
      arm();
      cancel_random();
      cancel_random();
    }
  }

  // Victims are drawn from everything ever armed, so cancels hit pending,
  // already-fired, and already-cancelled timers alike — cancel_timer's
  // generation check must behave identically under both queue modes.
  void cancel_random() {
    if (live.empty()) return;
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    sim.cancel_timer(live[idx]);
    live[idx] = live.back();
    live.pop_back();
  }

  void spawn_chain();
};

Task<void> chain_task(FuzzWorld* w, int hops) {
  for (int i = 0; i < hops; ++i) {
    const double d = w->qdelay();  // drawn in dispatch order, like everything
    const int tag = w->next_tag++;
    co_await w->sim.delay(d);
    w->log.push_back({w->sim.now(), tag});
  }
  w->arm();  // chains feed back into the timer population
}

void FuzzWorld::spawn_chain() {
  if (budget <= 0) return;
  --budget;
  const int hops = static_cast<int>(rng.uniform_int(1, 4));
  sim.spawn(chain_task(this, hops));
}

std::vector<Dispatch> run_program_on(Simulator& sim, std::uint64_t seed) {
  FuzzWorld w(sim, seed, /*budget=*/400);
  for (int i = 0; i < 16; ++i) w.arm();
  w.spawn_chain();
  w.spawn_chain();
  sim.run();
  EXPECT_EQ(sim.live_root_tasks(), 0u);
  return std::move(w.log);
}

std::vector<Dispatch> run_program(EventQueue::Mode mode, std::uint64_t seed) {
  Simulator sim(mode);
  return run_program_on(sim, seed);
}

TEST(SimQueueFuzz, HeapAndLadderDispatchIdentically) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto ref = run_program(EventQueue::Mode::kHeap, seed);
    ASSERT_GT(ref.size(), 100u) << "degenerate program, seed " << seed;
    const auto ladder = run_program(EventQueue::Mode::kLadder, seed);
    ASSERT_EQ(ref.size(), ladder.size()) << "seed " << seed;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_TRUE(ref[i] == ladder[i])
          << "seed " << seed << " diverged at " << i << ": heap (" << ref[i].at << ", "
          << ref[i].tag << ") vs ladder (" << ladder[i].at << ", " << ladder[i].tag << ")";
    }
  }
}

TEST(SimQueueFuzz, ResetReplaysProgramsIdentically) {
  Simulator sim(EventQueue::Mode::kLadder);
  const auto first = run_program_on(sim, 77);
  ASSERT_GT(first.size(), 100u);
  for (int cycle = 0; cycle < 3; ++cycle) {
    sim.reset();
    EXPECT_EQ(sim.now(), 0.0);
    EXPECT_EQ(sim.queue_depth(), 0u);
    const auto replay = run_program_on(sim, 77);
    ASSERT_EQ(first.size(), replay.size()) << "cycle " << cycle;
    EXPECT_EQ(first, replay) << "cycle " << cycle;
  }
  // A different seed on the recycled storage still matches a fresh kernel.
  sim.reset();
  EXPECT_EQ(run_program_on(sim, 78),
            run_program(EventQueue::Mode::kLadder, 78));
}

// Degenerate shapes the ladder handles through dedicated paths: a flood
// of identical timestamps (rung spawning must fail cleanly and back off)
// and a geometric cascade (forces multi-rung recursion).
TEST(SimQueueFuzz, SameTimestampFloodMatchesHeap) {
  for (const auto mode : {EventQueue::Mode::kHeap, EventQueue::Mode::kLadder}) {
    Simulator sim(mode);
    std::vector<int> order;
    for (int i = 0; i < 3000; ++i) {
      sim.call_at(0.5, [&order, i] { order.push_back(i); });
    }
    sim.run();
    ASSERT_EQ(order.size(), 3000u);
    for (int i = 0; i < 3000; ++i) {
      ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "mode " << static_cast<int>(mode);
    }
  }
}

TEST(SimQueueFuzz, GeometricCascadeMatchesHeap) {
  auto run_cascade = [](EventQueue::Mode mode) {
    Simulator sim(mode);
    std::vector<Dispatch> log;
    // Spans 12 orders of magnitude: early rungs are far too coarse for
    // the tail, so refills must respread oversized buckets recursively.
    for (int i = 0; i < 2000; ++i) {
      const double at = 1e-9 * std::pow(1.0145, i);
      sim.call_at(at, [&log, &sim, i] { log.push_back({sim.now(), i}); });
    }
    sim.run();
    return log;
  };
  const auto heap = run_cascade(EventQueue::Mode::kHeap);
  const auto ladder = run_cascade(EventQueue::Mode::kLadder);
  ASSERT_EQ(heap.size(), 2000u);
  EXPECT_EQ(heap, ladder);
}

}  // namespace
