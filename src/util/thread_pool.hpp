// Fixed-size worker thread pool.
//
// Built for embarrassingly parallel simulation campaigns (core/campaign):
// tasks are independent closures, submitted FIFO and executed by a fixed
// team of workers; wait() blocks until the queue drains and every in-flight
// task has finished. The pool makes no fairness or ordering guarantees
// beyond FIFO dispatch — callers that need deterministic output must make
// each task independent and write results to caller-owned slots (as the
// Campaign runner does), never rely on execution order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fedco::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_threads().
  explicit ThreadPool(std::size_t threads);

  /// Drains outstanding work (as wait()), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Tasks must not throw — exceptions cannot cross the
  /// worker boundary, so catch and store them inside the closure (see
  /// core::run_campaign for the pattern).
  void submit(std::function<void()> task);

  /// Block until every submitted task has completed.
  void wait();

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static std::size_t hardware_threads() noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;  ///< tasks currently executing
  bool stopping_ = false;
};

}  // namespace fedco::util
