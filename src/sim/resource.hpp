// FIFO-fair counted resource for the simulation kernel.
//
// Resources model contended hardware: a BlueGene communication
// co-processor is a Resource of capacity 1, a NIC is a capacity-1
// resource whose hold time is the wire time of a frame, a dual-CPU node
// exposes a compute Resource per CPU. Grants are strictly FIFO — a
// release hands the slot directly to the oldest waiter, so later
// arrivals can never barge (matching the in-order servicing of a
// single-threaded co-processor).
#pragma once

#include <coroutine>
#include <cstddef>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace scsq::sim {

class Resource {
 public:
  Resource(Simulator& sim, int capacity, std::string name = {})
      : sim_(&sim), capacity_(capacity), name_(std::move(name)) {
    SCSQ_CHECK(capacity_ >= 1) << "resource capacity must be >= 1";
  }

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Awaitable acquire; FIFO under contention.
  auto acquire() {
    struct Awaiter {
      Resource* res;
      bool await_ready() {
        if (res->in_use_ < res->capacity_) {
          res->grant();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        res->waiters_.push_back(Simulator::word_of(h));
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

  /// Releases one slot. If waiters exist the slot transfers directly to
  /// the oldest one (in_use stays constant across the hand-off).
  void release() {
    SCSQ_CHECK(in_use_ > 0) << "release of idle resource " << name_;
    if (waiter_head_ == waiters_.size()) {
      note_change();
      --in_use_;
      if (in_use_ == 0 && trace_ != nullptr) {
        trace_->interval(name_.empty() ? "resource" : name_, "busy", episode_start_,
                         sim_->now());
      }
      return;
    }
    sim_->schedule_now(pop_waiter());
  }

  /// Awaiter returned by use(). When a slot is free, await_ready takes
  /// it and the awaiting coroutine itself is scheduled at now + hold —
  /// the very push the spelled-out acquire/delay/release coroutine makes
  /// — and releases in await_resume. A caller that must queue parks the
  /// awaiter itself (sim::Parked) on the FIFO waiter list; the hand-off
  /// event's wake schedules that same timed push (or, for a zero hold,
  /// releases and resumes the caller at once). Either way no coroutine
  /// frame is taken, and the grants, timestamps and kernel events are
  /// exactly those of
  ///   co_await acquire(); co_await sim.delay(d); release();
  class [[nodiscard]] UseAwaiter : Parked {
   public:
    UseAwaiter(Resource& res, Time duration)
        : Parked(&UseAwaiter::wake), res_(&res), duration_(duration) {}
    UseAwaiter(const UseAwaiter&) = delete;
    UseAwaiter& operator=(const UseAwaiter&) = delete;

    bool await_ready() {
      if (res_->in_use_ >= res_->capacity_) return false;  // must queue
      res_->grant();
      if (duration_ <= 0.0) {  // a zero hold never suspends
        res_->release();
        return true;
      }
      held_ = true;
      return false;
    }
    void await_suspend(std::coroutine_handle<> caller) {
      caller_ = caller;
      if (held_) {
        hold();
      } else {
        res_->waiters_.push_back(Simulator::word_of(static_cast<Parked*>(this)));
      }
    }
    void await_resume() {
      if (held_) res_->release();
    }

   private:
    void hold() { res_->sim_->schedule_at(res_->sim_->now() + duration_, caller_); }

    // The hand-off event: a release passed this waiter the slot.
    static void wake(Parked* p) {
      auto* self = static_cast<UseAwaiter*>(p);
      if (self->duration_ <= 0.0) {
        self->res_->release();
        self->caller_.resume();  // last touch: the caller owns *self
        return;
      }
      self->held_ = true;
      self->hold();
    }

    Resource* res_;
    Time duration_;
    bool held_ = false;
    std::coroutine_handle<> caller_;
  };

  /// Acquire, hold for `duration` simulated seconds, release (see
  /// UseAwaiter). Must be co_awaited directly.
  UseAwaiter use(Time duration) { return UseAwaiter(*this, duration); }

  /// Reserves the next FIFO slot of a capacity-1 resource and returns the
  /// exact simulated time a use(hold) enqueued *now* will complete. Valid
  /// only when every user of the resource pairs claim(hold) with an
  /// immediately following use(hold) in the same event (no suspension in
  /// between), so claim order equals grant order. The returned time is
  /// bitwise-identical to the clock after the matching use(): a FIFO
  /// grant resumes at its predecessor's release time, so completion is
  /// max(now, previous completion) + hold in both computations. The TCP
  /// links use this to schedule a frame's delivery at the moment their
  /// source NIC finishes sending it (transport/driver.hpp).
  Time claim(Time hold) {
    SCSQ_CHECK(capacity_ == 1) << "claim() needs FIFO capacity 1: " << name_;
    Time start = claim_until_ > sim_->now() ? claim_until_ : sim_->now();
    claim_until_ = start + hold;
    return claim_until_;
  }

  int capacity() const { return capacity_; }
  int in_use() const { return in_use_; }
  std::size_t queue_length() const { return waiters_.size() - waiter_head_; }
  const std::string& name() const { return name_; }

  /// Integral of in_use over time divided by capacity: the mean
  /// utilization of this resource since construction (or since
  /// reset_stats()). Used for the per-link utilization in RunReport.
  double utilization() const {
    double total = sim_->now() - stats_start_;
    if (total <= 0.0) return 0.0;
    double busy = busy_integral_ + in_use_ * (sim_->now() - last_change_);
    return busy / (total * capacity_);
  }

  /// Total resource-busy seconds accumulated (per slot-second).
  double busy_seconds() const {
    return busy_integral_ + in_use_ * (sim_->now() - last_change_);
  }

  void reset_stats() {
    busy_integral_ = 0.0;
    stats_start_ = last_change_ = sim_->now();
  }

  /// Attaches a trace: every busy episode (in_use > 0) is recorded as an
  /// interval on a track named after the resource. Pass nullptr to
  /// detach.
  void set_trace(Trace* trace) { trace_ = trace; }

 private:
  /// Takes a free slot (the caller checked in_use_ < capacity_).
  void grant() {
    note_change();
    ++in_use_;
    if (in_use_ == 1) episode_start_ = sim_->now();
  }

  /// Oldest waiter. The list is a vector consumed from waiter_head_: it
  /// resets when drained and compacts in place once the spent prefix
  /// dominates, so steady-state queueing reuses one allocation (a deque
  /// would allocate a fresh block every few dozen waits).
  EventWord pop_waiter() {
    const EventWord w = waiters_[waiter_head_++];
    if (waiter_head_ == waiters_.size()) {
      waiters_.clear();
      waiter_head_ = 0;
    } else if (waiter_head_ >= 64 && 2 * waiter_head_ >= waiters_.size()) {
      waiters_.erase(waiters_.begin(),
                     waiters_.begin() + static_cast<std::ptrdiff_t>(waiter_head_));
      waiter_head_ = 0;
    }
    return w;
  }

  void note_change() {
    busy_integral_ += in_use_ * (sim_->now() - last_change_);
    last_change_ = sim_->now();
  }

  Simulator* sim_;
  int capacity_;
  std::string name_;
  int in_use_ = 0;
  std::vector<EventWord> waiters_;  // FIFO from waiter_head_
  std::size_t waiter_head_ = 0;
  double busy_integral_ = 0.0;
  double last_change_ = 0.0;
  double stats_start_ = 0.0;
  Time claim_until_ = 0.0;
  Trace* trace_ = nullptr;
  double episode_start_ = 0.0;
};

}  // namespace scsq::sim
