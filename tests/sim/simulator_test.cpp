#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace psched::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_FALSE(sim.has_pending());
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<double> seen;
  sim.at(2.0, [&] { seen.push_back(sim.now()); });
  sim.at(5.0, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<double>{2.0, 5.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, AfterIsRelativeToNow) {
  Simulator sim;
  double fired_at = -1.0;
  sim.at(3.0, [&] {
    sim.after(2.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> next = [&] {
    ++chain;
    if (chain < 10) sim.after(1.0, next);
  };
  sim.after(1.0, next);
  sim.run();
  EXPECT_EQ(chain, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) sim.at(static_cast<double>(i), [&] { ++fired; });
  const auto n = sim.run_until(5.0);
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_TRUE(sim.has_pending());
}

TEST(Simulator, RunUntilAdvancesClockToHorizonWhenQuiet) {
  Simulator sim;
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, StepFiresOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelStopsEvent) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.at(1.0, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CountsDispatchedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.at(static_cast<double>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 7u);
}

TEST(Simulator, SchedulingIntoThePastAborts) {
  Simulator sim;
  sim.at(5.0, [] {});
  sim.run();
  EXPECT_DEATH((void)sim.at(1.0, [] {}), "past");
}

TEST(Simulator, SameTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(1.0, [&] { order.push_back(0); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TickGrid, FirstTickAtOrAfterMatchesABruteForceScan) {
  // Each grid point k × period and both of its floating-point neighbours,
  // near zero and eight million ticks out, for the paper's period and three
  // that are inexact in binary. The scan walks the grid upward: the points
  // are visited in increasing order, so the answer never moves back.
  for (const double period : {20.0, 13.7, 7.3, 0.1}) {
    for (const std::uint64_t first : {std::uint64_t{0}, std::uint64_t{1} << 23}) {
      std::uint64_t scan = first == 0 ? 0 : first - 1;  // below every t here
      for (std::uint64_t k = first; k < first + 4096; ++k) {
        const SimTime at = tick_time(k, period);
        EXPECT_EQ(at, static_cast<double>(k) * period);
        for (const SimTime t : {std::nextafter(at, 0.0), at, std::nextafter(at, kTimeNever)}) {
          while (tick_time(scan, period) < t) ++scan;
          ASSERT_EQ(first_tick_at_or_after(t, period), scan)
              << "period " << period << ", t " << t << " beside tick " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace psched::sim
