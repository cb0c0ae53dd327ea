// Fixed-size thread pool and ordered parallel sweep helpers.
//
// The sweep harness fans *independent* work items (one Simulator plus
// jittered CostModel per sweep point) across a fixed set of worker
// threads. There is deliberately no work stealing: items are handed out
// from a single FIFO queue in submission order, so with benches that
// enqueue their heaviest (smallest-buffer) points first, greedy FIFO
// dispatch packs threads well without any balancing machinery.
//
// Determinism contract: run_sweep/parallel_for write each item's result
// into a slot indexed by the item's position, so collected results — and
// any table printed from them — are identical regardless of thread
// count. With threads <= 1 no worker is spawned at all and the items run
// inline on the caller, byte-for-byte preserving single-threaded
// behavior.
//
// Shutdown contract: shutdown() (and the destructor, which calls it)
// first drains every already-submitted task, then joins the workers —
// deterministically, in that order, and idempotently. Submitting after
// shutdown began is a programming error and is checked.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace scsq::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(unsigned threads);
  /// Equivalent to shutdown().
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks start in FIFO submission order. Must not be
  /// called once shutdown() has begun.
  void submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished running.
  void wait_idle();

  /// Drains the queue (every task submitted before this call runs to
  /// completion), then joins all workers. Idempotent; called by the
  /// destructor. After shutdown() the pool accepts no further work.
  void shutdown();

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Largest worker count SCSQ_BENCH_THREADS may ask for.
  static constexpr unsigned kMaxThreads = 1024;

  /// Parses an SCSQ_BENCH_THREADS value: decimal digits only, from 1 to
  /// kMaxThreads. Anything else (0, a sign, blanks, trailing text, a
  /// count past the bound) is nullopt.
  static std::optional<unsigned> parse_thread_count(std::string_view text);

  /// Worker count for sweeps: SCSQ_BENCH_THREADS if set and not empty,
  /// else hardware_concurrency. SCSQ_BENCH_THREADS=1 disables threading.
  /// A value parse_thread_count rejects throws std::invalid_argument
  /// naming the variable and the value.
  static unsigned default_threads();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // queued + currently running
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Splits [0, n) into `chunks` contiguous ranges in a *stable* order —
/// chunk c always covers [c*n/chunks, (c+1)*n/chunks), independent of
/// thread count — and runs fn(chunk_index, begin, end) for each, chunks
/// submitted in increasing index order on up to `threads` workers.
/// Blocks until every chunk finishes. If any chunk throws, the exception
/// of the lowest-index failing chunk is rethrown (deterministically)
/// after all chunks complete. threads <= 1 (or a single chunk) runs
/// inline on the caller in chunk order. This is the shared fan-out
/// primitive: the sweep harness runs one item per chunk.
template <class Fn>
void parallel_chunks(std::size_t n, unsigned threads, std::size_t chunks, Fn&& fn) {
  if (n == 0 || chunks == 0) return;
  if (chunks > n) chunks = n;
  const auto begin_of = [n, chunks](std::size_t c) { return c * n / chunks; };
  if (threads <= 1 || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) fn(c, begin_of(c), begin_of(c + 1));
    return;
  }
  std::vector<std::exception_ptr> errors(chunks);
  {
    ThreadPool pool(threads < chunks ? threads : static_cast<unsigned>(chunks));
    for (std::size_t c = 0; c < chunks; ++c) {
      pool.submit([&fn, &errors, &begin_of, c] {
        try {
          fn(c, begin_of(c), begin_of(c + 1));
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
  }
  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

/// Runs fn(i) for every i in [0, n) on up to `threads` workers: one item
/// per chunk, handed out in FIFO index order (see parallel_chunks).
/// Blocks until all iterations finish; the lowest-index exception is
/// rethrown deterministically. threads <= 1 runs inline on the caller.
template <class Fn>
void parallel_for(std::size_t n, unsigned threads, Fn&& fn) {
  parallel_chunks(n, threads, n,
                  [&fn](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) fn(i);
                  });
}

/// Maps `fn` over `points`, returning results in point order regardless
/// of thread count. The result type must be default-constructible.
template <class Point, class Fn>
auto run_sweep(const std::vector<Point>& points, Fn fn,
               unsigned threads = ThreadPool::default_threads())
    -> std::vector<std::invoke_result_t<Fn&, const Point&>> {
  std::vector<std::invoke_result_t<Fn&, const Point&>> results(points.size());
  parallel_for(points.size(), threads,
               [&](std::size_t i) { results[i] = fn(points[i]); });
  return results;
}

}  // namespace scsq::util
