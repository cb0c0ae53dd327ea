#include "util/thread_pool.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/logging.hpp"

namespace scsq::util {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mu_);
    if (stop_ && workers_.empty()) return;  // already shut down
    stop_ = true;
  }
  cv_task_.notify_all();
  // Drain first: workers only exit once the queue is empty (see
  // worker_loop), so every task submitted before shutdown() runs to
  // completion before any join. wait_idle additionally orders the joins
  // after the *completion* of the last task, not just its dequeue.
  wait_idle();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::lock_guard lock(mu_);
    SCSQ_CHECK(!stop_) << "ThreadPool::submit after shutdown";
    queue_.push_back(std::move(fn));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard lock(mu_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

std::optional<unsigned> ThreadPool::parse_thread_count(std::string_view text) {
  if (text.empty()) return std::nullopt;
  unsigned n = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    n = n * 10 + static_cast<unsigned>(c - '0');
    if (n > kMaxThreads) return std::nullopt;  // also stops any overflow
  }
  if (n < 1) return std::nullopt;
  return n;
}

unsigned ThreadPool::default_threads() {
  const char* env = std::getenv("SCSQ_BENCH_THREADS");
  if (env != nullptr && *env != '\0') {
    if (const auto n = parse_thread_count(env)) return *n;
    throw std::invalid_argument("SCSQ_BENCH_THREADS must be an integer from 1 to " +
                                std::to_string(kMaxThreads) + ", got '" + env +
                                "' (unset the variable to use every core)");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace scsq::util
