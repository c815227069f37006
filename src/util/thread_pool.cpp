#include "util/thread_pool.hpp"

#include "util/assert.hpp"

namespace psched::util {

namespace {

/// Polls a waiting thread makes before it parks: about 100 µs at the
/// ~25 ns a pause instruction takes on current x86 server cores. That spans
/// the engine work between two selection rounds, so a worker stays awake
/// from one round's batch to the next, while a pool with nothing to do
/// parks almost at once.
constexpr int kSpinPolls = 4096;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls `ready` through the spin window; returns its last value.
template <typename Pred>
bool spin_until(Pred ready) {
  for (int poll = 0; poll < kSpinPolls; ++poll) {
    if (ready()) return true;
    cpu_relax();
  }
  return ready();
}

}  // namespace

std::size_t resolve_threads(std::size_t threads) noexcept {
  return threads != 0 ? threads
                      : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  threads = resolve_threads(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(Batch& batch) {
  if (batch.n == 0) return;
  PSCHED_ASSERT_MSG(batch.lanes > 0, "run_batch needs max_lanes >= 1");
  const bool shared = batch.lanes > 1;
  if (shared) {
    {
      MutexLock lock(mutex_);
      batch.older = open_;
      open_ = &batch;
    }
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
  }
  drain(batch, 0);
  if (shared) {
    {
      // Closed to new joiners; the workers inside finish their last call.
      MutexLock lock(mutex_);
      Batch** link = &open_;
      while (*link != &batch) link = &(*link)->older;
      *link = batch.older;
    }
    const auto settled = [&] { return batch.joined.load(std::memory_order_acquire) == 0; };
    while (!spin_until(settled)) {
      const std::uint32_t seen = departures_.load(std::memory_order_acquire);
      if (settled()) break;
      departures_.wait(seen, std::memory_order_acquire);
    }
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

ThreadPool::Batch* ThreadPool::join(std::size_t& lane) {
  MutexLock lock(mutex_);
  for (Batch* batch = open_; batch != nullptr; batch = batch->older) {
    if (batch->lanes_taken == batch->lanes ||
        batch->next.load(std::memory_order_relaxed) >= batch->n)
      continue;
    lane = batch->lanes_taken++;
    batch->joined.fetch_add(1, std::memory_order_relaxed);
    return batch;
  }
  return nullptr;
}

void ThreadPool::drain(Batch& batch, std::size_t lane) {
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.n) return;
    try {
      batch.call(batch.fn, i, lane);
    } catch (...) {
      if (!batch.failed.exchange(true, std::memory_order_relaxed))
        batch.error = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    // Read the epoch before looking for work: a batch published after the
    // look bumps it, so the wait below cannot sleep through that batch.
    const std::uint32_t seen = epoch_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    std::size_t lane = 0;
    if (Batch* batch = join(lane)) {
      drain(*batch, lane);
      // The batch's frame may be gone once joined reaches zero: signal
      // through the pool's own counter.
      batch->joined.fetch_sub(1, std::memory_order_release);
      departures_.fetch_add(1, std::memory_order_release);
      departures_.notify_all();
      continue;
    }
    if (!spin_until([&] { return epoch_.load(std::memory_order_relaxed) != seen; }))
      epoch_.wait(seen, std::memory_order_acquire);
  }
}

}  // namespace psched::util
