#include "util/thread_pool.hpp"

#include <utility>

namespace fedco::util {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = threads == 0 ? hardware_threads() : threads;
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock{mutex_};
    stopping_ = true;
  }
  task_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard lock{mutex_};
    queue_.push_back(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock{mutex_};
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::size_t ThreadPool::hardware_threads() noexcept {
  const unsigned count = std::thread::hardware_concurrency();
  return count == 0 ? 1 : static_cast<std::size_t>(count);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock{mutex_};
      task_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: the destructor must not drop
      // submitted work (wait() semantics for a pool destroyed mid-flight).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      const std::lock_guard lock{mutex_};
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace fedco::util
