#pragma once
// A persistent fork-join thread pool with one primitive, run_batch: the
// selector's candidate batches, a multi-tenant run's tenant waves (with the
// tenants' selector batches nested inside them) and engine::run_parallel's
// scenario sweeps all go through it.
//
// A batch lives on the caller's stack — no allocation, no type-erased copy,
// no future. The caller publishes it, runs it as lane 0 and always drains
// it, and idle workers join as lanes 1, 2, ... while unclaimed indices and
// lanes remain. Idle workers wait on an epoch counter that every publish
// bumps: they spin for a short fixed window, then park in
// std::atomic::wait, so back-to-back batches (one per selection round) find
// them awake and a quiet pool costs no CPU.
//
// The list of open batches is annotated with the clang thread-safety
// capability macros (util/thread_annotations.hpp): under clang,
// -Wthread-safety verifies that it is only touched with mutex_ held.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/thread_annotations.hpp"

namespace psched::util {

/// `threads`, or the hardware concurrency (at least 1) when it is 0 — the
/// meaning of 0 in every thread-count setting.
[[nodiscard]] std::size_t resolve_threads(std::size_t threads) noexcept;

class ThreadPool {
 public:
  /// Creates `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  /// Wakes and joins every worker. No batch may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Run `fn(i, lane)` for every i in [0, n); blocks until all calls have
  /// returned. `lane` names the participant: 0 is the calling thread, and
  /// joining workers take 1, 2, ... below min(max_lanes, n, size() + 1), so
  /// per-lane scratch sized max_lanes is never used by two threads at once.
  /// Which lane runs which i depends on scheduling; code that writes the
  /// result of i into slot i does not. Every i runs even if some throw; the
  /// first exception caught is rethrown on the caller.
  ///
  /// Nested-safe: `fn` may itself call run_batch on this pool (a tenant's
  /// selector batch inside a tenant wave). The caller drains its own batch,
  /// so a batch issued from a worker completes even when every other worker
  /// is busy, and total concurrency stays bounded by the pool.
  template <typename F>
  void run_batch(std::size_t n, std::size_t max_lanes, F&& fn) {
    using Fn = std::remove_reference_t<F>;
    Batch batch(n, std::min({max_lanes, n, size() + 1}), std::addressof(fn),
                [](const void* f, std::size_t i, std::size_t lane) {
                  (*static_cast<Fn*>(const_cast<void*>(f)))(i, lane);
                });
    run(batch);
  }

 private:
  /// One published batch, owned by the run_batch frame that created it.
  struct Batch {
    using Call = void (*)(const void*, std::size_t, std::size_t);
    Batch(std::size_t n_, std::size_t lanes_, const void* fn_, Call call_)
        : n(n_), lanes(lanes_), fn(fn_), call(call_) {}
    const std::size_t n;
    const std::size_t lanes;  ///< participants allowed, caller included
    const void* const fn;
    const Call call;
    std::atomic<std::size_t> next{0};    ///< next unclaimed index
    std::atomic<std::size_t> joined{0};  ///< workers still inside the batch
    std::atomic<bool> failed{false};     ///< whoever sets it writes error
    std::exception_ptr error;            ///< the first exception caught
    // Guarded by the owning pool's mutex_ (not expressible as an annotation
    // on a nested type).
    std::size_t lanes_taken = 1;  ///< lane 0 is the caller's
    Batch* older = nullptr;       ///< next entry in the open-batch list
  };

  void run(Batch& batch);
  /// Claims a lane in the newest open batch with work left, or null.
  Batch* join(std::size_t& lane) PSCHED_EXCLUDES(mutex_);
  static void drain(Batch& batch, std::size_t lane);
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  Batch* open_ PSCHED_GUARDED_BY(mutex_) = nullptr;  ///< newest open batch
  /// Bumped on every publish and at shutdown; idle workers wait on it.
  std::atomic<std::uint32_t> epoch_{0};
  /// Bumped whenever a worker leaves a batch; callers waiting for their
  /// batch's stragglers wait on it (pool-owned, so a leaving worker never
  /// touches the caller's frame after its last decrement).
  std::atomic<std::uint32_t> departures_{0};
  std::atomic<bool> stop_{false};
};

/// run_batch on `pool`, or inline on the calling thread as lane 0 when
/// `pool` is null (the one-lane case; inline, an exception propagates at
/// once).
template <typename F>
void run_batch(ThreadPool* pool, std::size_t n, std::size_t max_lanes, F&& fn) {
  if (pool != nullptr) {
    pool->run_batch(n, max_lanes, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i, std::size_t{0});
  }
}

}  // namespace psched::util
