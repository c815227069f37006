#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace psched::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeNever);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.schedule(5.0, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(1.0, [&] { fired = true; });
  q.schedule(2.0, [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  while (!q.empty()) q.pop().callback();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.schedule(1.0, [] {});
  q.cancel(987654);
  q.cancel(kInvalidEvent);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelFiredIdIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  (void)q.pop();
  q.cancel(id);  // already fired
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, IsPendingTracksLifecycle) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.is_pending(id));
  (void)q.pop();
  EXPECT_FALSE(q.is_pending(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, PopReturnsTimeAndId) {
  EventQueue q;
  const EventId id = q.schedule(4.5, [] {});
  const auto fired = q.pop();
  EXPECT_DOUBLE_EQ(fired.time, 4.5);
  EXPECT_EQ(fired.id, id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  std::vector<double> times;
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 7919) % 997);
    q.schedule(t, [] {});
  }
  double prev = -1.0;
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GE(fired.time, prev);
    prev = fired.time;
  }
}

TEST(EventQueue, MatchesASortedReferenceUnderRandomOperations) {
  // Reference: the pending (time, id) pairs, popped by a linear min search.
  // Times come from a small grid so equal-time ties are common, and the
  // captures outgrow std::function's inline buffer, so every callback lives
  // on the heap and a slot reused with another event's callback, or a
  // callback fired twice or never, shows up as a wrong payload or count.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EventQueue q;
    util::Rng rng(seed);
    std::vector<std::pair<SimTime, EventId>> pending;
    std::set<EventId> cancelled;
    std::vector<EventId> fired_ids;
    std::vector<int> fire_count(1, 0);  // by id; id 0 is kInvalidEvent
    std::vector<EventId> issued;
    std::uint64_t cancels = 0;
    auto token = std::make_shared<int>(0);  // one reference per stored callback
    SimTime clock = 0.0;
    const auto check = [&](const char* after) {
      ASSERT_EQ(q.size(), pending.size()) << after;
      ASSERT_EQ(q.empty(), pending.empty()) << after;
      ASSERT_EQ(q.total_scheduled(), issued.size()) << after;
      ASSERT_EQ(q.total_cancelled(), cancels) << after;
      ASSERT_EQ(token.use_count(), static_cast<long>(1 + pending.size())) << after;
      for (const EventId id : issued) {
        const bool live = std::any_of(pending.begin(), pending.end(),
                                      [id](const auto& e) { return e.second == id; });
        ASSERT_EQ(q.is_pending(id), live) << after << ", id " << id;
      }
    };
    for (int step = 0; step < 600; ++step) {
      const auto roll = rng.uniform_int(0, 9);
      if (roll <= 3) {
        const SimTime t = clock + static_cast<double>(rng.uniform_int(0, 8)) * 5.0;
        std::array<EventId, 4> payload{};
        const EventId expected = issued.size() + 1;
        payload.fill(expected);
        const EventId id = q.schedule(t, [payload, token, &fire_count, &fired_ids] {
          ++fire_count[payload[0]];
          fired_ids.push_back(payload[3]);
        });
        ASSERT_EQ(id, expected);
        issued.push_back(id);
        fire_count.push_back(0);
        pending.emplace_back(t, id);
        check("schedule");
      } else if (roll <= 5) {
        // Cancel a live id, a fired or cancelled one, an unknown one, or
        // kInvalidEvent; only the live cancel counts.
        EventId id = kInvalidEvent;
        switch (rng.uniform_int(0, 3)) {
          case 0:
            if (!pending.empty())
              id = pending[static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(pending.size()) - 1))]
                       .second;
            break;
          case 1:
            if (!issued.empty())
              id = issued[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(issued.size()) - 1))];
            break;
          case 2:
            id = issued.size() + 1 + static_cast<EventId>(rng.uniform_int(0, 5));
            break;
          default:
            break;
        }
        const auto it = std::find_if(pending.begin(), pending.end(),
                                     [id](const auto& e) { return e.second == id; });
        if (it != pending.end()) {
          pending.erase(it);
          cancelled.insert(id);
          ++cancels;
        }
        q.cancel(id);
        check("cancel");
        q.cancel(id);  // a second cancel of the same id is a no-op
        check("cancel twice");
      } else if (roll <= 8) {
        if (pending.empty()) {
          EXPECT_EQ(q.next_time(), kTimeNever);
          continue;
        }
        const auto first = std::min_element(pending.begin(), pending.end());
        const std::pair<SimTime, EventId> want = *first;
        ASSERT_EQ(q.next_time(), want.first);
        pending.erase(first);
        {
          EventQueue::Fired fired = q.pop();
          ASSERT_EQ(fired.time, want.first);
          ASSERT_EQ(fired.id, want.second);
          fired.callback();
        }
        ASSERT_EQ(fired_ids.back(), want.second);  // its own capture
        clock = want.first;
        check("pop");
      } else {
        const SimTime want = pending.empty()
                                 ? kTimeNever
                                 : std::min_element(pending.begin(), pending.end())->first;
        ASSERT_EQ(q.next_time(), want);
      }
    }
    // Drain: every event fires exactly once unless it was cancelled.
    while (!q.empty()) q.pop().callback();
    for (const EventId id : issued)
      EXPECT_EQ(fire_count[id], cancelled.contains(id) ? 0 : 1) << "id " << id;
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(fired_ids.size() + cancels, issued.size());
  }
}

TEST(EventQueue, SchedulingInfinityAborts) {
  EventQueue q;
  EXPECT_DEATH((void)q.schedule(kTimeNever, [] {}), "infinity");
}

}  // namespace
}  // namespace psched::sim
