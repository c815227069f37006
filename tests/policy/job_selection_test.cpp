#include "policy/job_selection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/rng.hpp"

namespace psched::policy {
namespace {

QueuedJob make_queued(JobId id, double submit, int procs, double predicted) {
  QueuedJob q;
  q.id = id;
  q.submit = submit;
  q.procs = procs;
  q.predicted_runtime = predicted;
  return q;
}

TEST(Fcfs, PriorityIsWaitTime) {
  FcfsSelection p;
  EXPECT_DOUBLE_EQ(p.priority(make_queued(0, 40.0, 1, 100.0), 100.0), 60.0);
}

TEST(Lxf, PriorityIsSlowdown) {
  LxfSelection p;
  // wait 300, runtime 100 -> (300+100)/100 = 4
  EXPECT_DOUBLE_EQ(p.priority(make_queued(0, 0.0, 1, 100.0), 300.0), 4.0);
}

TEST(Lxf, ShortJobsGainPriorityFaster) {
  LxfSelection p;
  const double short_job = p.priority(make_queued(0, 0.0, 1, 10.0), 100.0);
  const double long_job = p.priority(make_queued(1, 0.0, 1, 1000.0), 100.0);
  EXPECT_GT(short_job, long_job);
}

TEST(Wfp3, CubesSlowdownAndScalesByWidth) {
  Wfp3Selection p;
  // (200/100)^3 * 8 = 64
  EXPECT_DOUBLE_EQ(p.priority(make_queued(0, 0.0, 8, 100.0), 200.0), 64.0);
}

TEST(Wfp3, PrefersWiderJobAtEqualSlowdown) {
  Wfp3Selection p;
  const double narrow = p.priority(make_queued(0, 0.0, 2, 100.0), 100.0);
  const double wide = p.priority(make_queued(1, 0.0, 32, 100.0), 100.0);
  EXPECT_GT(wide, narrow);
}

TEST(Unicef, FormulaWithLogWidth) {
  UnicefSelection p;
  // wait 400 / (log2(8)=3 * runtime 10) = 13.33...
  EXPECT_NEAR(p.priority(make_queued(0, 0.0, 8, 10.0), 400.0), 400.0 / 30.0, 1e-9);
}

TEST(Unicef, SerialJobsUseLogFloorOfOne) {
  UnicefSelection p;
  // log2(1) would be 0; the documented deviation clamps to 1.
  EXPECT_DOUBLE_EQ(p.priority(make_queued(0, 0.0, 1, 10.0), 100.0), 10.0);
  // procs=2 -> log2(2)=1: same divisor as serial.
  EXPECT_DOUBLE_EQ(p.priority(make_queued(0, 0.0, 2, 10.0), 100.0), 10.0);
}

TEST(Unicef, PrefersSmallShortJobs) {
  UnicefSelection p;
  const double small_short = p.priority(make_queued(0, 0.0, 1, 10.0), 100.0);
  const double big_long = p.priority(make_queued(1, 0.0, 32, 1000.0), 100.0);
  EXPECT_GT(small_short, big_long);
}

TEST(OrderQueue, FcfsOrdersBySubmitTime) {
  std::vector<QueuedJob> queue{make_queued(2, 30, 1, 10), make_queued(0, 10, 1, 10),
                               make_queued(1, 20, 1, 10)};
  order_queue(queue, FcfsSelection{}, 100.0);
  EXPECT_EQ(queue[0].id, 0);
  EXPECT_EQ(queue[1].id, 1);
  EXPECT_EQ(queue[2].id, 2);
}

TEST(OrderQueue, TiesBreakBySubmitThenId) {
  // Equal priorities under FCFS (same submit): id order wins.
  std::vector<QueuedJob> queue{make_queued(5, 10, 1, 10), make_queued(3, 10, 1, 10)};
  order_queue(queue, FcfsSelection{}, 100.0);
  EXPECT_EQ(queue[0].id, 3);
  EXPECT_EQ(queue[1].id, 5);
}

TEST(OrderQueue, LxfPutsShortWaitingJobFirst) {
  std::vector<QueuedJob> queue{make_queued(0, 0, 1, 10000.0),  // long job
                               make_queued(1, 50, 1, 10.0)};   // short job
  order_queue(queue, LxfSelection{}, 100.0);
  EXPECT_EQ(queue[0].id, 1);
}

TEST(OrderQueue, EmptyQueueIsFine) {
  std::vector<QueuedJob> queue;
  order_queue(queue, FcfsSelection{}, 0.0);
  EXPECT_TRUE(queue.empty());
}

TEST(OrderQueue, MatchesAStableSortReferenceOnRandomQueues) {
  // Few distinct submit times, ids, widths and runtimes, so priorities tie
  // and (submit, id) pairs repeat; jobs that tie on every key differ in
  // width or runtime, so a reordering among them shows. One scratch serves
  // every call, as in the decision loop.
  util::Rng rng(0x0de7);
  OrderScratch scratch;
  for (const auto& policy : all_job_selection()) {
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<QueuedJob> queue;
      const auto size = rng.uniform_int(0, 24);
      for (std::int64_t i = 0; i < size; ++i) {
        queue.push_back(make_queued(static_cast<JobId>(rng.uniform_int(0, 3)),
                                    10.0 * static_cast<double>(rng.uniform_int(0, 2)),
                                    1 << rng.uniform_int(0, 2),
                                    rng.bernoulli(0.5) ? 10.0 : 100.0));
      }
      std::vector<QueuedJob> want = queue;
      std::stable_sort(want.begin(), want.end(), [&](const QueuedJob& a, const QueuedJob& b) {
        const double pa = policy->priority(a, 100.0);
        const double pb = policy->priority(b, 100.0);
        if (pa != pb) return pa > pb;
        if (a.submit != b.submit) return a.submit < b.submit;
        return a.id < b.id;
      });
      order_queue(queue, *policy, 100.0, scratch);
      ASSERT_EQ(queue.size(), want.size());
      for (std::size_t i = 0; i < queue.size(); ++i) {
        EXPECT_EQ(queue[i].id, want[i].id) << policy->name() << " trial " << trial;
        EXPECT_EQ(queue[i].submit, want[i].submit) << policy->name() << " trial " << trial;
        EXPECT_EQ(queue[i].procs, want[i].procs) << policy->name() << " trial " << trial;
        EXPECT_EQ(queue[i].predicted_runtime, want[i].predicted_runtime)
            << policy->name() << " trial " << trial;
      }
    }
  }
}

/// A job-selection policy whose every priority is NaN.
class NanSelection final : public JobSelectionPolicy {
 public:
  [[nodiscard]] double priority(const QueuedJob&, SimTime) const override {
    return std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] std::string name() const override { return "NaN"; }
};

TEST(OrderQueue, RejectsNanKeys) {
  std::vector<QueuedJob> queue{make_queued(0, 10, 1, 10), make_queued(1, 20, 1, 10)};
  EXPECT_THROW(order_queue(queue, NanSelection{}, 100.0), std::invalid_argument);
  queue[1].submit = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(order_queue(queue, FcfsSelection{}, 100.0), std::invalid_argument);
}

TEST(JobSelectionFactory, KnownNames) {
  for (const char* name : {"FCFS", "LXF", "WFP3", "UNICEF"})
    EXPECT_EQ(make_job_selection(name)->name(), name);
}

TEST(JobSelectionFactory, UnknownThrows) {
  EXPECT_THROW((void)make_job_selection("SJF"), std::invalid_argument);
}

TEST(JobSelectionFactory, AllFourPaperOrder) {
  const auto all = all_job_selection();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0]->name(), "FCFS");
  EXPECT_EQ(all[1]->name(), "LXF");
  EXPECT_EQ(all[2]->name(), "UNICEF");
  EXPECT_EQ(all[3]->name(), "WFP3");
}

class AllJobSelectionTest : public testing::TestWithParam<const char*> {};

TEST_P(AllJobSelectionTest, PriorityGrowsWithWait) {
  const auto policy = make_job_selection(GetParam());
  const auto job = make_queued(0, 0.0, 4, 100.0);
  const double early = policy->priority(job, 10.0);
  const double late = policy->priority(job, 1000.0);
  EXPECT_GT(late, early);
}

TEST_P(AllJobSelectionTest, OrderingIsStableUnderPermutation) {
  const auto policy = make_job_selection(GetParam());
  std::vector<QueuedJob> a{make_queued(0, 5, 1, 10), make_queued(1, 50, 8, 1000),
                           make_queued(2, 20, 2, 100), make_queued(3, 0, 4, 30)};
  std::vector<QueuedJob> b{a[2], a[0], a[3], a[1]};
  order_queue(a, *policy, 2000.0);
  order_queue(b, *policy, 2000.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

INSTANTIATE_TEST_SUITE_P(Policies, AllJobSelectionTest,
                         testing::Values("FCFS", "LXF", "WFP3", "UNICEF"));

}  // namespace
}  // namespace psched::policy
