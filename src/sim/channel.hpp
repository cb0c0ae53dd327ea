// Bounded single-threaded channel between simulated processes.
//
// Channels model SCSQ's inter-RP flow control: the paper's running
// processes "regularly exchange control messages, which are used to
// regulate the stream flow between them" — here, a bounded buffer whose
// full condition suspends the sender is the equivalent backpressure
// mechanism.
//
// Send/recv/wait counts feed the kernel's PerfCounters so benches can
// report channel traffic per wall second alongside raw event throughput.
//
// send() and recv() return custom awaitables with an inline fast path:
// when the operation can complete without parking (buffer has room /
// data, or the channel is closed), await_ready() performs it directly.
// Only a send into a full buffer or a recv from an empty one parks, and
// it parks the awaiter itself (sim::Parked), not a coroutine: the wait
// list holds the awaiter's event word, and each wake runs one pass of
// the condition loop a spelled-out coroutine would run —
//   while (full && !closed) { count a wait; co_await senders.wait(); }
//   deliver(value);
// — completing the operation and resuming the awaiting coroutine inline
// once the condition holds, or counting a wait and parking again at the
// back of the list when another process took the slot or the value
// first. The kernel events are exactly that coroutine's, and no wait
// costs a coroutine frame.
#pragma once

#include <coroutine>
#include <optional>
#include <vector>

#include "sim/simulator.hpp"

namespace scsq::sim {

template <class T>
class Channel {
 public:
  /// Capacity must be >= 1 (a zero-capacity rendezvous is not supported).
  /// The buffer is a fixed ring of `capacity` default-constructed slots:
  /// deliver/take are an index bump and a move-assign, so a channel of
  /// handles (the transport's Channel<Frame*>) never allocates after
  /// construction.
  Channel(Simulator& sim, std::size_t capacity)
      : sim_(&sim), capacity_(capacity), buffer_(capacity), senders_(sim), receivers_(sim) {
    SCSQ_CHECK(capacity_ >= 1) << "channel capacity must be >= 1";
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  class [[nodiscard]] SendAwaiter : Parked {
   public:
    SendAwaiter(Channel& ch, T value)
        : Parked(&SendAwaiter::wake), ch_(&ch), value_(std::move(value)) {}
    SendAwaiter(const SendAwaiter&) = delete;
    SendAwaiter& operator=(const SendAwaiter&) = delete;

    bool await_ready() {
      if (ch_->count_ < ch_->capacity_ || ch_->closed_) {
        ch_->deliver(std::move(value_));
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> parent) {
      parent_ = parent;
      ch_->park(ch_->senders_, this);
    }
    void await_resume() const noexcept {}

   private:
    static void wake(Parked* p) {
      auto* self = static_cast<SendAwaiter*>(p);
      Channel* ch = self->ch_;
      if (ch->count_ >= ch->capacity_ && !ch->closed_) {
        ch->park(ch->senders_, self);  // another sender took the slot
        return;
      }
      ch->deliver(std::move(self->value_));
      self->parent_.resume();  // last touch: the parent owns *self
    }

    Channel* ch_;
    T value_;
    std::coroutine_handle<> parent_;
  };

  class [[nodiscard]] RecvAwaiter : Parked {
   public:
    explicit RecvAwaiter(Channel& ch) : Parked(&RecvAwaiter::wake), ch_(&ch) {}
    RecvAwaiter(const RecvAwaiter&) = delete;
    RecvAwaiter& operator=(const RecvAwaiter&) = delete;

    bool await_ready() {
      if (ch_->count_ > 0) {
        result_ = ch_->take();
        return true;
      }
      return ch_->closed_;  // closed and drained: result_ stays nullopt
    }
    void await_suspend(std::coroutine_handle<> parent) {
      parent_ = parent;
      ch_->park(ch_->receivers_, this);
    }
    std::optional<T> await_resume() { return std::move(result_); }

   private:
    static void wake(Parked* p) {
      auto* self = static_cast<RecvAwaiter*>(p);
      Channel* ch = self->ch_;
      if (ch->count_ > 0) {
        self->result_ = ch->take();
      } else if (!ch->closed_) {
        ch->park(ch->receivers_, self);  // another receiver took the value
        return;
      }
      self->parent_.resume();  // last touch: the parent owns *self
    }

    Channel* ch_;
    std::optional<T> result_;
    std::coroutine_handle<> parent_;
  };

  /// Sends a value, suspending while the buffer is full. Sending on a
  /// closed channel silently discards the value ("receiver gone" —
  /// query-stop teardown drops in-flight stream data this way).
  SendAwaiter send(T value) { return SendAwaiter(*this, std::move(value)); }

  /// Attempts to send without suspending. Returns false when full;
  /// discards (returning true) when closed.
  bool try_send(T value) {
    if (closed_) return true;
    if (count_ >= capacity_) return false;
    deliver(std::move(value));
    return true;
  }

  /// Receives the next value; nullopt once the channel is closed and
  /// drained (remaining buffered values are still delivered after close).
  RecvAwaiter recv() { return RecvAwaiter(*this); }

  /// Closes the channel: future recv() calls drain the buffer then yield
  /// nullopt; blocked senders/receivers are woken. Idempotent.
  void close() {
    if (closed_) return;
    closed_ = true;
    receivers_.notify_all();
    senders_.notify_all();
  }

  bool closed() const { return closed_; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return capacity_; }

 private:
  /// Completes a send on a channel with room (or discards on closed).
  void deliver(T&& value) {
    if (closed_) return;  // discard: the consumer has gone away
    sim_->count_channel_send();
    std::size_t tail = head_ + count_;
    if (tail >= capacity_) tail -= capacity_;
    buffer_[tail] = std::move(value);
    ++count_;
    receivers_.notify_one();
  }

  /// Takes the front value from a non-empty buffer.
  T take() {
    T value = std::move(buffer_[head_]);
    if (++head_ == capacity_) head_ = 0;
    --count_;
    sim_->count_channel_recv();
    senders_.notify_one();
    return value;
  }

  /// One suspension on a full or empty channel.
  void park(WaitQueue& queue, Parked* waiter) {
    sim_->count_channel_wait();
    queue.park(waiter);
  }

  Simulator* sim_;
  std::size_t capacity_;
  bool closed_ = false;
  std::vector<T> buffer_;  // fixed ring of capacity_ slots
  std::size_t head_ = 0;   // index of the oldest buffered value
  std::size_t count_ = 0;  // buffered values
  WaitQueue senders_;
  WaitQueue receivers_;
};

}  // namespace scsq::sim
