#pragma once
// A fixed-size thread pool used to parallelize independent experiment
// configurations (bench sweeps) and the selector's candidate-evaluation
// waves. Tasks are type-erased; `parallel_for` provides the common
// fork-join pattern with exception propagation, and `run_batch` the
// nested-safe variant the selector uses from inside pool workers.
//
// Shared state is annotated with the clang thread-safety capability macros
// (util/thread_annotations.hpp): under clang, -Wthread-safety verifies that
// queue_ and stop_ are only touched with mutex_ held.

#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace psched::util {

class ThreadPool {
 public:
  /// Creates `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the future carries its result or exception.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    auto fut = task->get_future();
    {
      MutexLock lock(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run `fn(i)` for i in [0, n) across the pool; blocks until all complete.
  /// The first exception thrown by any task is rethrown on the caller.
  /// Must NOT be called from inside a pool worker: with every worker blocked
  /// in a nested parallel_for, the sub-tasks would never run. Nested code
  /// uses run_batch instead.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Submit-and-collect helper for a batch of `n` tasks, order-preserving:
  /// `fn(i)` writes the result slot the caller indexed by `i`, so collected
  /// results keep submission order regardless of which thread ran which
  /// task. Unlike parallel_for, the calling thread helps drain the batch, so
  /// run_batch is safe to call from inside a pool worker (a tenant's
  /// selector waves nested in a multi-tenant run's tenant wave): the batch
  /// completes even when every other worker is busy, and the caller never
  /// waits on helper tasks the pool has not scheduled yet — stragglers find
  /// the index space exhausted and return without touching the (shared)
  /// batch state's work.
  /// The first exception thrown by any task is rethrown on the caller.
  void run_batch(std::size_t n, std::function<void(std::size_t)> fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::queue<std::function<void()>> queue_ PSCHED_GUARDED_BY(mutex_);
  bool stop_ PSCHED_GUARDED_BY(mutex_) = false;
};

}  // namespace psched::util
