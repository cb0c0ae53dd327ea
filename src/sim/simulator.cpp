#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace scsq::sim {

Simulator::Simulator() : Simulator(EventQueue::mode_from_env()) {}

Simulator::Simulator(EventQueue::Mode queue_mode)
    : timed_(queue_mode, &perf_.rung_spills, &perf_.bottom_resorts) {
  util::set_log_time_source([this] { return now_; });
}

Simulator::~Simulator() {
  util::set_log_time_source(nullptr);
  // Destroy surviving root coroutines (e.g. when a run was truncated by a
  // time limit). Frames own their locals via RAII, so destroying the
  // handles releases everything they hold.
  for (auto h : roots_) {
    if (h) h.destroy();
  }
}

void Simulator::reset() {
  for (auto h : roots_) {
    if (h) h.destroy();
  }
  roots_.clear();
  timed_.clear();
  fifo_.clear();
  fifo_head_ = 0;
  // Keep the callback slab allocated; null the bodies and bump every
  // generation so TimerIds issued before the reset can never cancel a
  // post-reset timer that recycles their slot.
  free_slots_.clear();
  for (std::size_t i = callbacks_.size(); i-- > 0;) {
    callbacks_[i] = nullptr;
    ++callback_gens_[i];
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
  now_ = 0.0;
  seq_ = 0;
}

void Simulator::spawn(Task<void> task) {
  SCSQ_CHECK(task.valid()) << "spawn of empty task";
  auto handle = task.release();
  roots_.push_back(handle);
  schedule_now(handle);
}

Simulator::TimerId Simulator::call_at(Time at, std::function<void()> fn) {
  SCSQ_CHECK(at >= now_) << "scheduling into the past: " << at << " < " << now_;
  SCSQ_CHECK(fn != nullptr) << "call_at with empty callback";
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(fn);
    ++callback_gens_[slot];
  } else {
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(fn));
    callback_gens_.push_back(0);
  }
  const auto payload = (static_cast<std::uintptr_t>(slot) << 1) | 1u;
  if (at == now_) {
    push_fifo(payload);
  } else {
    push_timed(at, payload);
  }
  return TimerId{slot, callback_gens_[slot]};
}

bool Simulator::cancel_timer(TimerId id) {
  // The slot stays allocated (not on free_slots_) until its queue node
  // pops: a recycled slot before the pop would let the stale node fire a
  // *different* callback. Nulling the body is what marks cancellation;
  // consume_cancelled releases the slot at pop time.
  if (id.slot >= callbacks_.size()) return false;
  if (callback_gens_[id.slot] != id.gen) return false;
  if (!callbacks_[id.slot]) return false;
  callbacks_[id.slot] = nullptr;
  return true;
}

void Simulator::run_callback(std::uintptr_t payload) {
  const auto slot = static_cast<std::uint32_t>(payload >> 1);
  auto fn = std::move(callbacks_[slot]);
  callbacks_[slot] = nullptr;
  free_slots_.push_back(slot);
  ++perf_.callbacks_run;
  if (fn) fn();
}

Time Simulator::run(Time limit) {
  for (;;) {
    const std::size_t fifo_live = fifo_.size() - fifo_head_;
    const std::size_t timed_size = timed_.size();
    const std::uint64_t depth = timed_size + fifo_live;
    if (depth > perf_.peak_queue_depth) perf_.peak_queue_depth = depth;
    std::uintptr_t payload;
    if (fifo_live != 0) {
      // The FIFO only ever holds events stamped at now_, so it drains
      // before time advances; a timed event at the same timestamp runs
      // first only when it was scheduled earlier (smaller seq) —
      // preserving the global FIFO order within a timestamp that the old
      // single priority_queue provided.
      if (now_ > limit) break;
      if (timed_size != 0 && timed_.front().at == now_ &&
          timed_.front().seq < fifo_[fifo_head_].seq) {
        payload = timed_.front().payload;
        timed_.pop_front();
      } else {
        payload = fifo_[fifo_head_].payload;
        if (++fifo_head_ == fifo_.size()) {
          fifo_.clear();
          fifo_head_ = 0;
        }
      }
      if (consume_cancelled(payload)) continue;
    } else if (timed_size != 0) {
      const Time at = timed_.front().at;
      if (at > limit) break;
      payload = timed_.front().payload;
      timed_.pop_front();
      // Cancelled timers vanish here, *before* the clock advances: a
      // cancelled node parked past the last real event must not drag
      // now() forward (the sampler's determinism contract rides on this).
      if (consume_cancelled(payload)) continue;
      now_ = at;
    } else {
      break;
    }
    ++perf_.events_dispatched;
    if (payload & 1u) {
      run_callback(payload);
    } else {
      std::coroutine_handle<>::from_address(reinterpret_cast<void*>(payload)).resume();
    }
    // Cheap periodic sweep so long simulations do not accumulate frames
    // of completed root processes.
    if ((perf_.events_dispatched & 0x3FF) == 0) sweep_finished_roots();
  }
  sweep_finished_roots();
  return now_;
}

std::size_t Simulator::live_root_tasks() const {
  std::size_t live = 0;
  for (auto h : roots_) {
    if (h && !h.done()) ++live;
  }
  return live;
}

void Simulator::sweep_finished_roots() {
  auto it = std::remove_if(roots_.begin(), roots_.end(), [](auto h) {
    if (h && h.done()) {
      // Surface exceptions escaping root processes: they indicate bugs in
      // the simulation harness, never expected user errors.
      if (h.promise().exception) std::rethrow_exception(h.promise().exception);
      h.destroy();
      return true;
    }
    return false;
  });
  roots_.erase(it, roots_.end());
}

}  // namespace scsq::sim
