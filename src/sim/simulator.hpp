// Discrete-event simulation kernel.
//
// The Simulator owns a timestamped event queue (coroutine resumptions,
// plain callbacks or parked awaiters) and drives spawned root tasks
// until no events remain. All SCSQ "hardware" (networks, CPUs,
// co-processors) is modeled on top of this kernel; simulated time stands
// in for the wall-clock measurements of the paper.
//
// Hot-path layout: a queued event is 24 bytes of POD — timestamp, FIFO
// sequence number, and one event word whose low bits tell its kind:
//
//   ...00  a coroutine frame address: dispatch resumes the coroutine
//   ....1  a call_at slab slot (slot << 1 | 1): dispatch runs the
//          callback, whose std::function lives in a reusable side slab
//          instead of inside every queue node
//   ...10  a Parked awaiter's address | 2: dispatch calls its wake()
//
// Coroutine frames and Parked awaiters are at least 4-byte aligned, so
// both tag bits are free in their addresses. Events land either in the
// timed pending-event set (sim/event_queue.hpp, a 4-ary heap) or in an
// index-advancing FIFO ring (events at exactly now(), the common case
// for channel wake-ups), so the usual schedule_now/resume cycle never
// touches the timed structure at all.
//
// Threading model: one Simulator is strictly single-threaded,
// run-to-completion. A resumed coroutine runs until its next suspension;
// wake-ups always go through schedule_* so there are no re-entrant
// resumptions. *Distinct* Simulator instances are independent and may
// run concurrently on different threads (the parallel sweep harness
// relies on this).
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"  // Time, QueuedEvent, EventQueue
#include "sim/task.hpp"
#include "util/logging.hpp"

namespace scsq::sim {

/// Event-loop statistics, maintained inline by the kernel. Every counter
/// is a single register increment on a cache line the dispatch loop
/// already owns, so keeping them always on costs nothing measurable; the
/// accessor itself is a free inline reference. Benches divide
/// events_dispatched by wall time to report simulated events per second.
struct PerfCounters {
  std::uint64_t events_dispatched = 0;  ///< total events run (timed + fifo)
  std::uint64_t heap_pushes = 0;        ///< timed events (future timestamps)
  std::uint64_t fifo_pushes = 0;        ///< same-timestamp fast-path events
  std::uint64_t callbacks_run = 0;      ///< call_at dispatches (slab path)
  std::uint64_t channel_sends = 0;      ///< Channel::send/try_send accepted
  std::uint64_t channel_recvs = 0;      ///< Channel::recv values delivered
  std::uint64_t channel_waits = 0;      ///< suspensions on full/empty channels
  std::uint64_t wakeups = 0;            ///< WaitQueue/Event notify resumptions
  std::uint64_t peak_queue_depth = 0;   ///< max outstanding events (timed+fifo)
  std::uint64_t cancel_consumed = 0;    ///< cancelled timer nodes popped silently
};

/// An awaiter that parks itself on a wait list in place of a coroutine
/// frame (Channel::send/recv, the queued Resource::use). The list holds
/// its event word (Simulator::word_of); when a notify or a release
/// schedules that word, dispatch calls wake(this), which re-checks the
/// awaiter's condition and either completes it — resuming the awaiting
/// coroutine inline — or parks it again. The awaiter lives in the
/// awaiting coroutine's frame, so wake() must not touch it after that
/// resumption.
struct Parked {
  explicit Parked(void (*wake_fn)(Parked*)) : wake(wake_fn) {}
  void (*wake)(Parked*);
};

/// What the kernel queues and what wait lists hold (see the kinds above).
using EventWord = std::uintptr_t;

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (seconds since simulation start).
  Time now() const { return now_; }

  /// Returns the kernel to its initial state — clock at 0, seq counter at
  /// 0, no queued events, no live roots — while keeping every piece of
  /// warm storage (event heap, FIFO ring, callback slab). Re-running a
  /// workload on a reset Simulator allocates nothing in steady state.
  /// PerfCounters are cumulative across resets. Outstanding TimerIds are
  /// invalidated (their slots' generations advance).
  void reset();

  /// Starts a root process. The task begins executing at the current time
  /// (it is scheduled, not run inline). The simulator keeps the coroutine
  /// alive until it completes.
  void spawn(Task<void> task);

  /// Schedules `h` to resume at absolute time `at` (>= now()). Events at
  /// the current time take the FIFO fast path and skip the timed set.
  void schedule_at(Time at, std::coroutine_handle<> h) {
    SCSQ_CHECK(at >= now_) << "scheduling into the past: " << at << " < " << now_;
    if (at == now_) {
      push_fifo(word_of(h));
    } else {
      push_timed(at, word_of(h));
    }
  }

  /// Schedules `h` to resume at the current time, after already-queued
  /// same-time events (FIFO within a timestamp).
  void schedule_now(std::coroutine_handle<> h) { push_fifo(word_of(h)); }

  /// Schedules a wait list's event word at the current time (FIFO).
  void schedule_now(EventWord w) { push_fifo(w); }

  /// Event word of a suspended coroutine and of a parked awaiter.
  static EventWord word_of(std::coroutine_handle<> h) {
    return reinterpret_cast<EventWord>(h.address());
  }
  static EventWord word_of(Parked* p) { return reinterpret_cast<EventWord>(p) | kParkedTag; }

  /// Handle to a pending call_at timer, usable with cancel_timer. The
  /// generation counter makes stale handles harmless: a slot recycled to
  /// a newer timer no longer matches an old TimerId.
  struct TimerId {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  /// Schedules a plain callback at absolute time `at`. The callable is
  /// parked in a reusable slab; the queue node stays 24-byte POD. The
  /// returned TimerId can cancel the callback before it fires.
  TimerId call_at(Time at, std::function<void()> fn);

  /// Cancels a pending call_at timer. Returns true when the callback was
  /// still pending (it will never run); false for a timer that already
  /// fired, was already cancelled, or whose slot was recycled. A
  /// cancelled queue node is consumed silently when its timestamp is
  /// reached: it does not advance now(), does not count as a dispatched
  /// event, and never keeps run() from returning — so a periodic sampler
  /// can park a timer past the end of a run without perturbing the
  /// simulation's observable timing.
  bool cancel_timer(TimerId id);

  /// Awaitable: suspends the awaiting coroutine for `dt` seconds
  /// (dt <= 0 completes immediately without suspension).
  auto delay(Time dt) {
    struct Awaiter {
      Simulator* sim;
      Time dt;
      bool await_ready() const noexcept { return dt <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) { sim->schedule_at(sim->now_ + dt, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  /// Awaitable: suspends until absolute simulated time `at` (at <= now()
  /// completes immediately without suspension). Batched cost charges use
  /// this to land the clock on an exact fold of per-item costs: k
  /// sequential delay(d) calls advance time as ((t+d)+d)+... which is
  /// not bitwise t + k*d, so an aggregated charge computes the same
  /// sequential fold and schedules at that absolute instant.
  auto delay_until(Time at) {
    struct Awaiter {
      Simulator* sim;
      Time at;
      bool await_ready() const noexcept { return at <= sim->now_; }
      void await_suspend(std::coroutine_handle<> h) { sim->schedule_at(at, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, at};
  }

  /// Runs until the event queue is empty or `until` is exceeded.
  /// Returns the final simulated time.
  Time run(Time until = kNoLimit);

  /// Timestamp of the next pending event: now() when same-time FIFO
  /// events are queued, the timed front's timestamp otherwise, kNoLimit
  /// when the queue is empty (cancelled timer nodes count as pending).
  Time next_event_time() const {
    if (fifo_.size() != fifo_head_) return now_;
    if (!timed_.empty()) return timed_.front().at;
    return kNoLimit;
  }

  /// Number of root tasks spawned that have not yet completed. After
  /// run() returns with an empty queue, a nonzero value means deadlock
  /// (processes waiting on channels/resources that will never signal).
  std::size_t live_root_tasks() const;

  /// Total events dispatched so far (diagnostics / tests).
  std::uint64_t events_dispatched() const { return perf_.events_dispatched; }

  /// Outstanding queued events (timed + same-time FIFO), including any
  /// cancelled-but-unpopped timer nodes. Live observability gauge; O(1).
  std::size_t queue_depth() const { return timed_.size() + (fifo_.size() - fifo_head_); }

  /// Kernel event-loop counters (see PerfCounters). Zero-cost accessor.
  const PerfCounters& perf() const { return perf_; }

  // Instrumentation hooks for the sim primitives (Channel, WaitQueue).
  // Inline single increments; not part of the user-facing API.
  void count_channel_send() { ++perf_.channel_sends; }
  void count_channel_recv() { ++perf_.channel_recvs; }
  void count_channel_wait() { ++perf_.channel_waits; }
  void count_wakeup() { ++perf_.wakeups; }

  static constexpr Time kNoLimit = 1e300;

 private:
  static constexpr EventWord kCallbackTag = 1;
  static constexpr EventWord kParkedTag = 2;
  static_assert(alignof(Parked) >= 4, "bit 1 of a Parked address tags the event word");
  // Coroutine frames come from coro_alloc: 64-byte-multiple blocks
  // carved from ::operator new chunks, or ::operator new itself.
  static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= 4,
                "bits 0 and 1 of a coroutine frame address must be free");

  // Peak queue depth is sampled at the top of the run() loop rather than
  // on every push: depth only grows between two pops, so it is maximal
  // exactly when the next event is about to be popped, and the loop top
  // already has both container sizes in registers.
  void push_fifo(EventWord payload) {
    ++perf_.fifo_pushes;
    fifo_.push_back(QueuedEvent{now_, seq_++, payload});
  }

  // `heap_pushes` counts pushes into the timed pending-event set.
  void push_timed(Time at, EventWord payload) {
    ++perf_.heap_pushes;
    timed_.push(QueuedEvent{at, seq_++, payload});
  }

  void run_callback(EventWord payload);
  void sweep_finished_roots();

  // True (and the slot released) when `payload` is a cancelled callback
  // node: the dispatch loop consumes it without any observable effect
  // beyond the cancel_consumed diagnostic counter.
  bool consume_cancelled(EventWord payload) {
    if (!(payload & kCallbackTag)) return false;
    const auto slot = static_cast<std::uint32_t>(payload >> 1);
    if (callbacks_[slot]) return false;
    free_slots_.push_back(slot);
    ++perf_.cancel_consumed;
    return true;
  }

  Time now_ = 0.0;
  std::uint64_t seq_ = 0;            // FIFO tie-break within a timestamp
  PerfCounters perf_;
  EventQueue timed_;                 // pending-event set for at > now()
  std::vector<QueuedEvent> fifo_;  // events at now_, drained by fifo_head_
  std::size_t fifo_head_ = 0;
  std::vector<std::function<void()>> callbacks_;  // slab for call_at bodies
  std::vector<std::uint32_t> callback_gens_;      // slot generation (TimerId check)
  std::vector<std::uint32_t> free_slots_;         // recycled slab indices
  std::vector<std::coroutine_handle<Task<void>::promise_type>> roots_;
};

/// One-shot broadcast event (like a latch): wait() suspends until set()
/// is called; set() wakes all current and future waiters, oldest first.
///
/// The first waiter is kept inline and only later ones spill into a
/// vector: the common single-waiter event (a transfer's sender-free and
/// delivered signals, a link's drained latch) never touches the heap.
class Event {
 public:
  explicit Event(Simulator& sim) : sim_(&sim) {}

  bool is_set() const { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    if (!first_) return;
    wake(first_);
    for (auto h : rest_) wake(h);
    rest_.clear();
  }

  auto wait() {
    struct Awaiter {
      Event* ev;
      bool await_ready() const noexcept { return ev->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        if (!ev->first_) {
          ev->first_ = h;
        } else {
          ev->rest_.push_back(h);
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  void wake(std::coroutine_handle<> h) {
    sim_->count_wakeup();
    sim_->schedule_now(h);
  }

  Simulator* sim_;
  bool set_ = false;
  std::coroutine_handle<> first_;              // oldest waiter
  std::vector<std::coroutine_handle<>> rest_;  // later waiters, in order
};

/// Condition-variable-like wait queue used to build channels.
/// wait() suspends until notify_one()/notify_all(); waiters must re-check
/// their condition after resuming (standard cv loop discipline). A
/// Parked awaiter queues through park() instead and re-checks in its
/// wake().
///
/// The waiter list is an index-advancing ring of event words:
/// notify_one hands out waiters_[head_++] in O(1) instead of erasing the
/// vector front, and the storage resets once the ring drains, so no
/// wake-up path in the kernel is linear in the number of waiters.
class WaitQueue {
 public:
  explicit WaitQueue(Simulator& sim) : sim_(&sim) {}

  auto wait() {
    struct Awaiter {
      WaitQueue* wq;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        wq->waiters_.push_back(Simulator::word_of(h));
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Queues a parked awaiter at the back of the list.
  void park(Parked* p) { waiters_.push_back(Simulator::word_of(p)); }

  void notify_one() {
    if (head_ == waiters_.size()) return;
    sim_->count_wakeup();
    sim_->schedule_now(waiters_[head_++]);
    if (head_ == waiters_.size()) {
      waiters_.clear();
      head_ = 0;
    }
  }

  void notify_all() {
    for (std::size_t i = head_; i < waiters_.size(); ++i) {
      sim_->count_wakeup();
      sim_->schedule_now(waiters_[i]);
    }
    waiters_.clear();
    head_ = 0;
  }

  std::size_t waiting() const { return waiters_.size() - head_; }

 private:
  Simulator* sim_;
  std::size_t head_ = 0;  // oldest live waiter; entries before it are spent
  std::vector<EventWord> waiters_;
};

}  // namespace scsq::sim
