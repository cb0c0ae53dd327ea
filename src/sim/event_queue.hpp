// Pending-event set for the simulation kernel: one 4-ary min-heap of
// timed events, ordered exactly by (time, seq).
//
// The heap keeps its sort keys and its event words in two parallel
// arrays: a sift compares only the dense 16-byte keys, and the four
// children of a node span one or two cache lines. Four children per
// node halve the depth of a binary heap. Against a binary heap of
// 24-byte (time, seq, word) nodes, perfbench measured this layout even
// on fig6 and faster on fig15, and the kernel microbenchmarks with
// 256-10,000 pending timers 1.4-1.9x faster.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace scsq::sim {

/// Simulated time in seconds (same alias as simulator.hpp).
using Time = double;

/// One queued kernel event. `payload` is the event word; its low bits
/// tell its kind (sim/simulator.hpp): a coroutine frame address, a
/// call_at slab slot, or a parked awaiter.
struct QueuedEvent {
  Time at;
  std::uint64_t seq;  // tie-break: FIFO within equal timestamps
  std::uintptr_t payload;
};

class EventQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Strict (time, seq) minimum. Precondition: !empty().
  QueuedEvent front() const {
    return {std::bit_cast<Time>(static_cast<std::uint64_t>(keys_[0] >> 64)),
            static_cast<std::uint64_t>(keys_[0]), words_[0]};
  }

  /// Precondition: ev.at > 0 (see Key).
  void push(const QueuedEvent& ev) {
    if (size_ == keys_.size()) grow();
    const Key k = (static_cast<Key>(std::bit_cast<std::uint64_t>(ev.at)) << 64) | ev.seq;
    // Hole-insertion sift-up: shift larger parents down, place once.
    std::size_t i = size_++;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!(k < keys_[parent])) break;
      keys_[i] = keys_[parent];
      words_[i] = words_[parent];
      i = parent;
    }
    keys_[i] = k;
    words_[i] = ev.payload;
  }

  /// Removes front(). Precondition: !empty().
  void pop_front() {
    const std::size_t n = --size_;
    if (n == 0) return;
    const Key k = keys_[n];
    const std::uintptr_t word = words_[n];
    // Hole-insertion sift-down: pull the smallest child up, place the
    // displaced last entry once at the end.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t c = first;
      Key ck = keys_[first];
      for (std::size_t j = first + 1; j < end; ++j) {
        if (keys_[j] < ck) {
          c = j;
          ck = keys_[j];
        }
      }
      if (!(ck < k)) break;
      keys_[i] = ck;
      words_[i] = words_[c];
      i = c;
    }
    keys_[i] = k;
    words_[i] = word;
  }

  /// Empties the queue, keeping its storage (Simulator::reset leans on
  /// this: a warm queue re-runs a workload with zero allocations).
  void clear() { size_ = 0; }

 private:
  static constexpr std::size_t kArity = 4;

  // (at, seq) packed into one integer: the time's bit pattern above the
  // seq. This orders exactly like (at, seq) only because every timed
  // event has at > now() >= 0: an event at now() goes to the kernel's
  // FIFO ring instead, and schedule_at / call_at reject at < now() and
  // NaN. Positive IEEE doubles (subnormals and +inf included) order the
  // same way as their bit patterns.
  __extension__ using Key = unsigned __int128;

  // Both arrays are sized to the capacity; [0, size_) is the heap.
  void grow() {
    const std::size_t capacity = size_ < 32 ? 64 : 2 * size_;
    keys_.resize(capacity);
    words_.resize(capacity);
  }

  std::size_t size_ = 0;
  std::vector<Key> keys_;               // heap order
  std::vector<std::uintptr_t> words_;  // words_[i] belongs to keys_[i]
};

}  // namespace scsq::sim
