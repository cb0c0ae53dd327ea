// Stream framing: cutting a continuous marshaled object stream into
// fixed-size send buffers.
//
// The paper's RP "marshals [objects] into a send buffer and transmits
// the send buffers when they are full" (§3.1) — objects larger than the
// buffer (a 3 MB array over 1000-byte buffers!) span many frames, and a
// frame may complete several small objects. FrameCutter tracks the byte
// offsets: each emitted Frame carries exactly `buffer_bytes` of stream
// payload plus the objects whose final byte falls inside it (those are
// the objects the receiver can materialize after this frame arrives).
//
// Frames are pool-owned: a FramePool creates every Frame at a stable
// address and keeps it until the pool itself goes, and the pipeline
// (cutter → outbox → link → inbox → receiver) passes `Frame*` handles.
// A recycled Frame keeps its `objects` capacity, so the steady-state
// cut → transmit → deliver → materialize cycle neither allocates nor
// moves a frame (a 3 MB array over 1 KB buffers is ~3000 frames per
// object — per-frame mallocs, then per-frame moves, were the dominant
// host-side cost of the Fig. 6 sweeps). The pool is per simulated
// machine and single-threaded, like the simulator it serves.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "catalog/object.hpp"

namespace scsq::transport {

class FramePool;

/// Objects capacity every frame's vector (and a receiver's ready list,
/// which trades vectors with frames) starts with. The vectors circulate
/// between frames and receivers, so one that started empty would make
/// the pool allocate again whenever it first carried an object, long
/// after warm-up.
inline constexpr std::size_t kFrameObjectsReserve = 16;

struct Frame {
  Frame() = default;
  Frame(const Frame&) = delete;  // frames travel by pointer, never by value
  Frame& operator=(const Frame&) = delete;

  std::uint64_t bytes = 0;  // marshaled payload bytes carried by this buffer
  std::vector<catalog::Object> objects;  // objects completed by this frame
  bool eos = false;         // final frame of the stream
  std::uint64_t seq = 0;       // frame sequence number within the stream
  // A pipelined link's per-frame accounting while the frame is in
  // flight: written by the source half, read by the destination half
  // (transport::Link), so the delivery callback carries only the handle.
  double queued_at = 0.0;    // link window-queue entry time
  double window_wait = 0.0;  // time spent queued on the link window
  bool stalled = false;      // found the link window full
  FramePool* pool = nullptr;  // owning pool; the consumer recycles into it
  bool free = false;          // on the pool's free list
};

/// Owner and free list of Frames. acquire() pops a recycled Frame (its
/// objects vector retains capacity) or creates one; the final consumer
/// calls recycle() once the frame's objects have been moved out. Every
/// frame lives until the pool is destroyed. A frame that never comes
/// back (dropped on a closed channel at a query stop) is simply not
/// reused — it stays owned here, bounded by the frames in flight.
class FramePool {
 public:
  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  Frame* acquire() {
    ++acquired_;
    Frame* f;
    if (free_.empty()) {
      f = &frames_.emplace_back();
      f->objects.reserve(kFrameObjectsReserve);
      f->pool = this;
    } else {
      ++reused_;
      f = free_.back();
      free_.pop_back();
    }
    f->free = false;
    return f;
  }

  /// Returns `f` to the free list. A frame is in one place at a time: a
  /// second recycle would hand it to two streams, so it aborts.
  void recycle(Frame* f) {
    SCSQ_CHECK(!f->free) << "frame recycled twice (seq " << f->seq << ")";
    f->bytes = 0;
    f->objects.clear();  // keeps capacity — the point of the pool
    f->eos = false;
    f->seq = 0;
    f->queued_at = 0.0;
    f->window_wait = 0.0;
    f->stalled = false;
    f->free = true;
    ++recycled_;
    free_.push_back(f);
  }

  /// Total acquire() calls; `reused()` of them were served from the
  /// free list. acquired() - reused() = frames ever created — flat
  /// across steady-state streaming (the zero-churn invariant the obs
  /// registry exposes as transport.frame_pool.*).
  std::uint64_t acquired() const { return acquired_; }
  std::uint64_t reused() const { return reused_; }
  std::uint64_t recycled() const { return recycled_; }
  std::uint64_t free_frames() const { return free_.size(); }

 private:
  std::deque<Frame> frames_;  // every frame ever created, at stable addresses
  std::vector<Frame*> free_;
  std::uint64_t acquired_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t recycled_ = 0;
};

class FrameCutter {
 public:
  /// Every cut frame is acquired from `pool`.
  FrameCutter(std::uint64_t buffer_bytes, FramePool& pool)
      : buffer_bytes_(buffer_bytes), pool_(&pool) {
    SCSQ_CHECK(buffer_bytes_ >= 1) << "buffer size must be >= 1 byte";
    // One up-front reservation instead of a ladder of small regrows as
    // the first buffer's worth of objects accumulates.
    pending_.reserve(16);
    pending_end_.reserve(16);
  }

  /// Adds an object to the stream. Nothing is cut here: the caller pulls
  /// the frames that became full one at a time (while has_full(), send
  /// cut_full()), so an object spanning many buffers (a 3 MB SynthArray
  /// over 1 KB frames) never has more than one cut frame in hand.
  void push(catalog::Object obj) {
    SCSQ_CHECK(!finished_) << "push after finish";
    pushed_bytes_ += obj.marshaled_size();
    pending_.push_back(std::move(obj));
    pending_end_.push_back(pushed_bytes_);
  }

  /// True while at least one full buffer is pending.
  bool has_full() const { return pushed_bytes_ - emitted_bytes_ >= buffer_bytes_; }

  /// Cuts the next full buffer into a frame; requires has_full(). Every
  /// full frame before the one carrying an object's final byte is pure
  /// byte accounting — it ships an empty (pooled) objects vector.
  Frame* cut_full() {
    SCSQ_CHECK(has_full()) << "cut_full without a full buffer pending";
    return cut(buffer_bytes_);
  }

  /// Cuts the currently pending partial buffer into a frame (non-EOS).
  /// Returns nullptr when nothing is pending. Used by the sender
  /// driver's linger flush so sparse result streams (e.g. one count per
  /// window) are delivered promptly instead of waiting for a full
  /// buffer. Full buffers must have been cut first.
  Frame* cut_partial();

  /// Ends the stream: returns the final frame (partial buffer or empty)
  /// with eos set. Must be called exactly once, after the last push()
  /// and after every full buffer has been cut.
  Frame* finish();

  /// Bytes pushed but not yet cut into frames.
  std::uint64_t pending_bytes() const { return pushed_bytes_ - emitted_bytes_; }

  std::uint64_t total_pushed_bytes() const { return pushed_bytes_; }
  std::uint64_t total_emitted_bytes() const { return emitted_bytes_; }

 private:
  Frame* cut(std::uint64_t frame_bytes);

  std::uint64_t buffer_bytes_;
  FramePool* pool_;
  std::uint64_t pushed_bytes_ = 0;   // total marshaled bytes pushed
  std::uint64_t emitted_bytes_ = 0;  // total bytes already cut into frames
  std::uint64_t next_seq_ = 0;
  bool finished_ = false;
  // Objects whose final byte has not yet been emitted (parallel arrays:
  // scanning end offsets touches only the u64 vector, and completed
  // objects bulk-move out of the contiguous object vector). A cut erases
  // the completed prefix, so their capacity is reused for the whole
  // stream.
  std::vector<catalog::Object> pending_;
  std::vector<std::uint64_t> pending_end_;  // stream offset past each encoding
};

}  // namespace scsq::transport
