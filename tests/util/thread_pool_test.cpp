#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace psched::util {
namespace {

using namespace std::chrono_literals;

/// Comfortably past the pool's spin window (~100 µs), so the workers park.
constexpr auto kParkDelay = 50ms;

TEST(ThreadPool, SizeDefaultsToAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, RunBatchFillsEveryOrderedSlot) {
  ThreadPool pool(4);
  std::vector<int> slots(500, -1);
  pool.run_batch(slots.size(), 5, [&](std::size_t i, std::size_t) {
    slots[i] = static_cast<int>(i);
  });
  for (std::size_t i = 0; i < slots.size(); ++i) EXPECT_EQ(slots[i], static_cast<int>(i));
}

TEST(ThreadPool, RunBatchZeroAndOneAreInline) {
  ThreadPool pool(2);
  pool.run_batch(0, 3, [](std::size_t, std::size_t) { FAIL() << "must not be called"; });
  int calls = 0;
  pool.run_batch(1, 3, [&](std::size_t i, std::size_t lane) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(lane, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  for (int batch = 0; batch < 100; ++batch) {
    pool.run_batch(100, 5, [&](std::size_t i, std::size_t) {
      sum.fetch_add(static_cast<int>(i) + 1);
    });
  }
  EXPECT_EQ(sum.load(), 100 * 5050);
}

TEST(ThreadPool, NullPoolRunsInlineAsLaneZero) {
  std::vector<std::size_t> lanes(16, 99);
  run_batch(nullptr, lanes.size(), 4,
            [&](std::size_t i, std::size_t lane) { lanes[i] = lane; });
  for (const std::size_t lane : lanes) EXPECT_EQ(lane, 0u);
}

TEST(ThreadPool, RunBatchRethrowsFirstError) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run_batch(16, 3,
                              [&](std::size_t i, std::size_t) {
                                ran.fetch_add(1);
                                if (i % 5 == 3) throw std::runtime_error("batch boom");
                              }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 16);  // a throwing call does not cancel the rest
}

TEST(ThreadPool, LanesStayBelowMaxLanes) {
  // More workers than lanes: the surplus must stay out of the batch.
  ThreadPool pool(8);
  for (const std::size_t max_lanes : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    std::atomic<std::size_t> out_of_range{0};
    for (int batch = 0; batch < 50; ++batch) {
      pool.run_batch(200, max_lanes, [&](std::size_t, std::size_t lane) {
        if (lane >= max_lanes) out_of_range.fetch_add(1);
      });
    }
    EXPECT_EQ(out_of_range.load(), 0u) << "max_lanes=" << max_lanes;
  }
}

TEST(ThreadPool, NoLaneIsHeldByTwoThreadsAtOnce) {
  // Per-lane scratch (the selector's arenas) relies on this: a lane is
  // occupied by exactly one thread for the whole batch.
  constexpr std::size_t kLanes = 4;
  ThreadPool pool(kLanes);
  std::vector<std::atomic<bool>> occupied(kLanes);
  std::atomic<std::size_t> collisions{0};
  for (int batch = 0; batch < 200; ++batch) {
    pool.run_batch(64, kLanes, [&](std::size_t, std::size_t lane) {
      if (occupied[lane].exchange(true)) collisions.fetch_add(1);
      std::this_thread::yield();  // widen the window another holder could hit
      occupied[lane].store(false);
    });
  }
  EXPECT_EQ(collisions.load(), 0u);
}

TEST(ThreadPool, BatchAfterWorkersParkedCompletes) {
  // The caller holds call 0 until another lane has taken call 1, so the
  // batch only completes early if the parked worker woke up and joined. A
  // lost wake-up shows as lane 1 never appearing (bounded wait, no hang).
  ThreadPool pool(1);
  pool.run_batch(8, 2, [](std::size_t, std::size_t) {});
  std::this_thread::sleep_for(kParkDelay);
  std::atomic<bool> helper_joined{false};
  pool.run_batch(2, 2, [&](std::size_t i, std::size_t lane) {
    if (lane != 0) helper_joined.store(true);
    if (i != 0) return;
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (!helper_joined.load() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
  });
  EXPECT_TRUE(helper_joined.load());
}

TEST(ThreadPool, DestroyingAPoolWithParkedWorkersReturns) {
  {
    ThreadPool idle(3);
    std::this_thread::sleep_for(kParkDelay);
  }
  {
    ThreadPool used(3);
    std::atomic<int> total{0};
    used.run_batch(32, 4, [&](std::size_t, std::size_t) { total.fetch_add(1); });
    std::this_thread::sleep_for(kParkDelay);
    EXPECT_EQ(total.load(), 32);
  }
}

TEST(ThreadPool, RunBatchIsSafeFromInsideWorkers) {
  // Saturation + nesting: more outer calls than workers, each running an
  // inner batch on the same pool. The inner callers drain their own
  // batches, so everything completes even with every worker busy.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.run_batch(8, 3, [&](std::size_t, std::size_t) {
    pool.run_batch(32, 3, [&](std::size_t, std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 32);
}

TEST(ThreadPool, RunBatchNestsTwoLevelsDeep) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.run_batch(4, 4, [&](std::size_t, std::size_t) {
    pool.run_batch(4, 4, [&](std::size_t, std::size_t) {
      pool.run_batch(4, 4, [&](std::size_t, std::size_t) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, NestedExceptionReachesNestedCallerAndOuterCompletes) {
  ThreadPool pool(3);
  std::atomic<int> caught{0};
  std::atomic<int> inner_calls{0};
  pool.run_batch(8, 4, [&](std::size_t outer, std::size_t) {
    try {
      pool.run_batch(16, 4, [&](std::size_t i, std::size_t) {
        inner_calls.fetch_add(1);
        if (i == outer) throw std::logic_error("inner boom");
      });
    } catch (const std::logic_error&) {
      caught.fetch_add(1);
    }
  });
  EXPECT_EQ(caught.load(), 8);
  EXPECT_EQ(inner_calls.load(), 8 * 16);
}

}  // namespace
}  // namespace psched::util
