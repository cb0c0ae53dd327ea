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
#include <exception>
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
      void await_suspend(std::coroutine_handle<> h) { res->waiters_.push_back(h); }
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
  /// — and releases in await_resume, so the uncontended hold costs no
  /// coroutine frame. Only a caller that must queue falls back to that
  /// coroutine (use_queued), which parks on the FIFO waiter list. Either
  /// way the grants, timestamps and kernel events are exactly those of
  ///   co_await acquire(); co_await sim.delay(d); release();
  class [[nodiscard]] UseAwaiter {
   public:
    UseAwaiter(Resource& res, Time duration) : res_(&res), duration_(duration) {}
    UseAwaiter(const UseAwaiter&) = delete;
    UseAwaiter& operator=(const UseAwaiter&) = delete;
    ~UseAwaiter() {
      if (queued_) queued_.destroy();
    }

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
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) {
      if (held_) {
        res_->sim_->schedule_at(res_->sim_->now() + duration_, caller);
        return std::noop_coroutine();
      }
      queued_ = res_->use_queued(duration_).release();
      queued_.promise().continuation = caller;
      return queued_;  // symmetric transfer into the parking coroutine
    }
    void await_resume() {
      if (held_) {
        res_->release();
        return;
      }
      if (queued_ && queued_.promise().exception) {
        std::rethrow_exception(queued_.promise().exception);
      }
    }

   private:
    Resource* res_;
    Time duration_;
    bool held_ = false;
    std::coroutine_handle<Task<void>::promise_type> queued_{};
  };

  /// Acquire, hold for `duration` simulated seconds, release (see
  /// UseAwaiter). Must be co_awaited directly.
  UseAwaiter use(Time duration) { return UseAwaiter(*this, duration); }

  /// Batched convenience: acquire once, hold for the sequential fold of
  /// `n` holds of `per` seconds each, release. The end time is computed
  /// by the same left-to-right addition chain n back-to-back use(per)
  /// calls would produce, so the clock lands on the bitwise-identical
  /// timestamp — with one scheduler event instead of n. Only safe when
  /// no other process would contend for this resource between the
  /// individual holds (FIFO barging would otherwise reorder grants).
  Task<void> use_repeated(Time per, std::uint64_t n) {
    if (n == 0) co_return;
    co_await acquire();
    Time end = sim_->now();
    for (std::uint64_t i = 0; i < n; ++i) end += per;
    co_await sim_->delay_until(end);
    release();
  }

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

  /// use() slow path: the spelled-out hold, parked on the waiter list
  /// until a release hands it the slot.
  Task<void> use_queued(Time duration) {
    co_await acquire();
    co_await sim_->delay(duration);
    release();
  }

  /// Oldest waiter. The list is a vector consumed from waiter_head_: it
  /// resets when drained and compacts in place once the spent prefix
  /// dominates, so steady-state queueing reuses one allocation (a deque
  /// would allocate a fresh block every few dozen waits).
  std::coroutine_handle<> pop_waiter() {
    const auto h = waiters_[waiter_head_++];
    if (waiter_head_ == waiters_.size()) {
      waiters_.clear();
      waiter_head_ = 0;
    } else if (waiter_head_ >= 64 && 2 * waiter_head_ >= waiters_.size()) {
      waiters_.erase(waiters_.begin(),
                     waiters_.begin() + static_cast<std::ptrdiff_t>(waiter_head_));
      waiter_head_ = 0;
    }
    return h;
  }

  void note_change() {
    busy_integral_ += in_use_ * (sim_->now() - last_change_);
    last_change_ = sim_->now();
  }

  Simulator* sim_;
  int capacity_;
  std::string name_;
  int in_use_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;  // FIFO from waiter_head_
  std::size_t waiter_head_ = 0;
  double busy_integral_ = 0.0;
  double last_change_ = 0.0;
  double stats_start_ = 0.0;
  Time claim_until_ = 0.0;
  Trace* trace_ = nullptr;
  double episode_start_ = 0.0;
};

/// RAII guard releasing a Resource on scope exit. Use as:
///   co_await res.acquire();
///   ResourceLock lock(res);
class ResourceLock {
 public:
  explicit ResourceLock(Resource& res) : res_(&res) {}
  ResourceLock(ResourceLock&& other) noexcept : res_(other.res_) { other.res_ = nullptr; }
  ResourceLock(const ResourceLock&) = delete;
  ResourceLock& operator=(const ResourceLock&) = delete;
  ResourceLock& operator=(ResourceLock&&) = delete;
  ~ResourceLock() {
    if (res_) res_->release();
  }

 private:
  Resource* res_;
};

}  // namespace scsq::sim
