// Property fuzz for the timed pending-event set (sim/event_queue.hpp).
//
// A deterministic random "program" of call_at / cancel_timer / spawned
// delay-chain interleavings runs on the kernel. Every dispatched
// callback and chain hop logs (now(), tag) and draws its next actions
// from a shared RNG. Alongside, the program records what it scheduled:
// (scheduled time, tag) for every armed callback and every chain hop,
// minus the callbacks cancel_timer reported as still pending. Tags are
// issued in scheduling order, so that record sorted by time, then by
// tag, is the exact (time, seq) order the kernel promises — and the
// dispatch log must equal it element for element. No second queue
// implementation is needed as a reference.
//
// Timestamps are quantized to a coarse grid so same-timestamp ties (the
// seq tie-break) occur constantly, including dt == 0 arms that take the
// same-time FIFO fast path and race the timed set inside the run loop's
// front selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace {

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
  std::vector<Dispatch> log;        // what the kernel dispatched
  std::vector<Dispatch> scheduled;  // what the program scheduled
  std::vector<bool> cancelled;      // by tag: cancelled while pending
  struct Armed {
    Simulator::TimerId id;
    int tag;
  };
  std::vector<Armed> live;
  int next_tag = 0;

  FuzzWorld(Simulator& s, std::uint64_t seed, int budget_in)
      : sim(s), rng(seed), budget(budget_in) {}

  // Coarse grid (multiples of 1e-4, including 0) to force timestamp ties.
  double qdelay() { return static_cast<double>(rng.uniform_int(0, 40)) * 1e-4; }

  // Issues the next tag for an event scheduled at `at`, right before the
  // push that schedules it: tag order is scheduling order.
  int note_scheduled(double at) {
    const int tag = next_tag++;
    scheduled.push_back({at, tag});
    cancelled.push_back(false);
    return tag;
  }

  void arm() {
    if (budget <= 0) return;
    --budget;
    const double at = sim.now() + qdelay();
    const int tag = note_scheduled(at);
    live.push_back({sim.call_at(at, [this, tag] { fire(tag); }), tag});
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
  // already-fired, and already-cancelled timers alike — only the ones
  // cancel_timer reports as pending drop out of the expected order.
  void cancel_random() {
    if (live.empty()) return;
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    if (sim.cancel_timer(live[idx].id)) {
      cancelled[static_cast<std::size_t>(live[idx].tag)] = true;
    }
    live[idx] = live.back();
    live.pop_back();
  }

  void spawn_chain();

  // The order the kernel must dispatch in: every scheduled event that
  // was not cancelled, by time, then by scheduling order.
  std::vector<Dispatch> expected() const {
    std::vector<Dispatch> out;
    for (const Dispatch& d : scheduled) {
      if (!cancelled[static_cast<std::size_t>(d.tag)]) out.push_back(d);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Dispatch& a, const Dispatch& b) { return a.at < b.at; });
    return out;
  }
};

Task<void> chain_task(FuzzWorld* w, int hops) {
  for (int i = 0; i < hops; ++i) {
    // A hop always suspends (delay(0) would not be an event), but on the
    // same grid as the timers, so hops tie with them.
    const double d = w->qdelay() + 1e-4;  // drawn in dispatch order, like everything
    const int tag = w->note_scheduled(w->sim.now() + d);
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

// Runs one seeded program; returns its dispatch log after checking it
// against the program's own record of what it scheduled.
std::vector<Dispatch> run_program_on(Simulator& sim, std::uint64_t seed) {
  FuzzWorld w(sim, seed, /*budget=*/400);
  for (int i = 0; i < 16; ++i) w.arm();
  w.spawn_chain();
  w.spawn_chain();
  sim.run();
  EXPECT_EQ(sim.live_root_tasks(), 0u);
  const std::vector<Dispatch> want = w.expected();
  EXPECT_EQ(w.log.size(), want.size()) << "seed " << seed;
  for (std::size_t i = 0; i < w.log.size() && i < want.size(); ++i) {
    if (!(w.log[i] == want[i])) {
      ADD_FAILURE() << "seed " << seed << " diverged at " << i << ": dispatched ("
                    << w.log[i].at << ", " << w.log[i].tag << "), scheduled order wants ("
                    << want[i].at << ", " << want[i].tag << ")";
      break;
    }
  }
  return std::move(w.log);
}

std::vector<Dispatch> run_program(std::uint64_t seed) {
  Simulator sim;
  return run_program_on(sim, seed);
}

TEST(SimQueueFuzz, DispatchesInTimeThenSchedulingOrder) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto log = run_program(seed);
    ASSERT_GT(log.size(), 100u) << "degenerate program, seed " << seed;
  }
}

TEST(SimQueueFuzz, ResetReplaysProgramsIdentically) {
  Simulator sim;
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
  EXPECT_EQ(run_program_on(sim, 78), run_program(78));
}

// Degenerate shapes: a flood of identical timestamps (seq is the only
// key) and a geometric cascade spanning 12 orders of magnitude.
TEST(SimQueueFuzz, SameTimestampFloodMatchesHeap) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 3000; ++i) {
    sim.call_at(0.5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 3000u);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "arming order broken";
  }
}

TEST(SimQueueFuzz, GeometricCascadeMatchesHeap) {
  Simulator sim;
  std::vector<Dispatch> log;
  std::vector<Dispatch> want;
  for (int i = 0; i < 2000; ++i) {
    const double at = 1e-9 * std::pow(1.0145, i);
    want.push_back({at, i});
    sim.call_at(at, [&log, &sim, i] { log.push_back({sim.now(), i}); });
  }
  sim.run();
  ASSERT_EQ(log.size(), 2000u);
  EXPECT_EQ(log, want);  // index order, each at its own timestamp
}

}  // namespace
