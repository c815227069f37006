#include "policy/allocation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <string>

#include "cloud/vm.hpp"
#include "util/rng.hpp"

namespace psched::policy {
namespace {

/// One start, boxed for easy comparison in tests.
struct Planned {
  std::size_t queue_index = 0;
  std::vector<VmId> vms;
  bool operator==(const Planned&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Planned& p) {
    os << "job@" << p.queue_index << " on {";
    for (const VmId id : p.vms) os << ' ' << id;
    return os << " }";
  }
};

std::vector<Planned> boxed(const AllocationPlan& flat) {
  std::vector<Planned> plan;
  for (const AllocationPlan::Start& start : flat.starts) {
    const std::span<const VmId> ids = flat.vms_of(start);
    plan.push_back(Planned{start.queue_index, {ids.begin(), ids.end()}});
  }
  return plan;
}

/// The planner through fresh scratch, boxed.
std::vector<Planned> plan_of(SimTime now, std::span<const QueuedJob> ordered_queue,
                             std::span<const VmAvail> vms,
                             const VmSelectionPolicy& vm_selection, AllocationMode mode,
                             SimDuration billing_quantum = kSecondsPerHour) {
  AllocationPlan flat;
  AllocationScratch scratch;
  plan_allocation_into(now, ordered_queue, vms, vm_selection, mode, billing_quantum, flat,
                       scratch);
  return boxed(flat);
}

QueuedJob make_queued(JobId id, double submit, int procs, double predicted) {
  QueuedJob q;
  q.id = id;
  q.submit = submit;
  q.procs = procs;
  q.predicted_runtime = predicted;
  return q;
}

VmAvail idle_vm(VmId id, SimTime now, SimTime lease = 0.0) {
  return VmAvail{id, lease, now};
}

VmAvail busy_vm(VmId id, SimTime free_at, SimTime lease = 0.0) {
  return VmAvail{id, lease, free_at};
}

const FirstFit kFirstFit;

std::set<VmId> vms_of(const std::vector<Planned>& plan) {
  std::set<VmId> ids;
  for (const auto& start : plan)
    for (const VmId id : start.vms) ids.insert(id);
  return ids;
}

TEST(PlanHeadOfLine, ServesPrefixWhileFitting) {
  const std::vector<QueuedJob> queue{make_queued(0, 0, 2, 100), make_queued(1, 1, 1, 100),
                                     make_queued(2, 2, 1, 100)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10), idle_vm(2, 10)};
  const auto plan =
      plan_of(10.0, queue, vms, kFirstFit, AllocationMode::kHeadOfLine);
  ASSERT_EQ(plan.size(), 2u);  // 2+1 fit; third job lacks a VM
  EXPECT_EQ(plan[0].queue_index, 0u);
  EXPECT_EQ(plan[1].queue_index, 1u);
  EXPECT_EQ(vms_of(plan).size(), 3u);
}

TEST(PlanHeadOfLine, StopsAtFirstUnfitEvenIfLaterFit) {
  const std::vector<QueuedJob> queue{make_queued(0, 0, 4, 100),   // too wide
                                     make_queued(1, 1, 1, 100)};  // would fit
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10)};
  const auto plan =
      plan_of(10.0, queue, vms, kFirstFit, AllocationMode::kHeadOfLine);
  EXPECT_TRUE(plan.empty());  // no backfilling in the paper's mode
}

TEST(PlanHeadOfLine, NoVmsNoStarts) {
  const std::vector<QueuedJob> queue{make_queued(0, 0, 1, 100)};
  const auto plan =
      plan_of(10.0, queue, {}, kFirstFit, AllocationMode::kHeadOfLine);
  EXPECT_TRUE(plan.empty());
}

TEST(PlanHeadOfLine, EachVmUsedAtMostOnce) {
  std::vector<QueuedJob> queue;
  for (int i = 0; i < 6; ++i) queue.push_back(make_queued(i, i, 2, 50));
  std::vector<VmAvail> vms;
  for (VmId v = 0; v < 7; ++v) vms.push_back(idle_vm(v, 0));
  const auto plan =
      plan_of(0.0, queue, vms, kFirstFit, AllocationMode::kHeadOfLine);
  ASSERT_EQ(plan.size(), 3u);  // 3 x 2 VMs, seventh idle VM insufficient
  EXPECT_EQ(vms_of(plan).size(), 6u);
}

TEST(PlanEasy, BackfillsShortJobBehindBlockedHead) {
  // Head needs 2; one idle + one busy until 500. A 1-wide job that finishes
  // before 500 may run now on the idle VM.
  const std::vector<QueuedJob> queue{make_queued(0, 0, 2, 1000),
                                     make_queued(1, 1, 1, 200)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), busy_vm(1, 500.0)};
  const auto plan =
      plan_of(10.0, queue, vms, kFirstFit, AllocationMode::kEasyBackfill);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].queue_index, 1u);
  EXPECT_EQ(plan[0].vms, std::vector<VmId>{0});
}

TEST(PlanEasy, RefusesBackfillThatWouldDelayHead) {
  // Same as above, but the backfill candidate runs past the reservation
  // (500) and there are no extra VMs: it must wait.
  const std::vector<QueuedJob> queue{make_queued(0, 0, 2, 1000),
                                     make_queued(1, 1, 1, 800)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), busy_vm(1, 500.0)};
  const auto plan =
      plan_of(10.0, queue, vms, kFirstFit, AllocationMode::kEasyBackfill);
  EXPECT_TRUE(plan.empty());
}

TEST(PlanEasy, LongBackfillAllowedOnExtraVms) {
  // Head needs 3; 2 idle + one busy VM free at 450 -> shadow 450, extra 0:
  // a never-ending 1-wide job may NOT backfill.
  const std::vector<QueuedJob> queue{make_queued(0, 0, 3, 1000),
                                     make_queued(1, 1, 1, 9999)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10), busy_vm(2, 450.0)};
  const auto plan =
      plan_of(10.0, queue, vms, kFirstFit, AllocationMode::kEasyBackfill);
  EXPECT_TRUE(plan.empty());

  // A second busy VM also free at the 450 s shadow makes 4 VMs available
  // then: one is "extra" beyond the head's need, so the long job backfills.
  std::vector<VmAvail> vms4 = vms;
  vms4.push_back(busy_vm(3, 450.0));
  const auto plan4 =
      plan_of(10.0, queue, vms4, kFirstFit, AllocationMode::kEasyBackfill);
  ASSERT_EQ(plan4.size(), 1u);
  EXPECT_EQ(plan4[0].queue_index, 1u);
}

TEST(PlanEasy, ExtraBudgetIsConsumed) {
  // One extra VM at the shadow, two long 1-wide candidates: only the first
  // may start; the second would eat into the head's reservation.
  const std::vector<QueuedJob> queue{make_queued(0, 0, 4, 1000),
                                     make_queued(1, 1, 1, 9999),
                                     make_queued(2, 2, 1, 9999)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10), idle_vm(2, 10),
                                 busy_vm(3, 500.0), busy_vm(4, 500.0)};
  const auto plan =
      plan_of(10.0, queue, vms, kFirstFit, AllocationMode::kEasyBackfill);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].queue_index, 1u);
}

TEST(PlanEasy, NoReservationWhenFleetTooSmall) {
  // Head wider than the whole fleet: no reservation; nothing backfills
  // (starvation protection).
  const std::vector<QueuedJob> queue{make_queued(0, 0, 8, 100),
                                     make_queued(1, 1, 1, 10)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10)};
  const auto plan =
      plan_of(10.0, queue, vms, kFirstFit, AllocationMode::kEasyBackfill);
  EXPECT_TRUE(plan.empty());
}

TEST(PlanEasy, MultipleBackfillsWithinWindow) {
  const std::vector<QueuedJob> queue{make_queued(0, 0, 3, 1000),
                                     make_queued(1, 1, 1, 100),
                                     make_queued(2, 2, 1, 100)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10), busy_vm(2, 500.0)};
  const auto plan =
      plan_of(10.0, queue, vms, kFirstFit, AllocationMode::kEasyBackfill);
  ASSERT_EQ(plan.size(), 2u);  // both short jobs finish by the 500 s shadow
  EXPECT_EQ(plan[0].queue_index, 1u);
  EXPECT_EQ(plan[1].queue_index, 2u);
}

TEST(PlanEasy, PrefixServedBeforeBackfillDecisions) {
  // First job fits and is served normally; the *second* becomes the blocked
  // head; the third backfills around it.
  const std::vector<QueuedJob> queue{make_queued(0, 0, 1, 300),
                                     make_queued(1, 1, 3, 1000),
                                     make_queued(2, 2, 1, 100)};
  const std::vector<VmAvail> vms{idle_vm(0, 10), idle_vm(1, 10), busy_vm(2, 800.0)};
  const auto plan =
      plan_of(10.0, queue, vms, kFirstFit, AllocationMode::kEasyBackfill);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].queue_index, 0u);
  EXPECT_EQ(plan[1].queue_index, 2u);
}

class BothModesTest : public testing::TestWithParam<AllocationMode> {};

TEST_P(BothModesTest, PlanNeverOversubscribesVms) {
  std::vector<QueuedJob> queue;
  for (int i = 0; i < 12; ++i)
    queue.push_back(make_queued(i, i, 1 + (i * 3) % 5, 50.0 + 400.0 * (i % 3)));
  std::vector<VmAvail> vms;
  for (VmId v = 0; v < 10; ++v)
    vms.push_back(v % 3 == 0 ? busy_vm(v, 200.0 + 100.0 * static_cast<double>(v))
                             : idle_vm(v, 10));
  const auto plan = plan_of(10.0, queue, vms, kFirstFit, GetParam());
  std::set<VmId> used;
  for (const auto& start : plan) {
    const auto& job = queue[start.queue_index];
    EXPECT_EQ(start.vms.size(), static_cast<std::size_t>(job.procs));
    for (const VmId id : start.vms) {
      EXPECT_TRUE(used.insert(id).second) << "VM " << id << " double-booked";
      // Only idle-now VMs may be used for immediate starts.
      const auto it = std::find_if(vms.begin(), vms.end(),
                                   [id](const VmAvail& vm) { return vm.id == id; });
      ASSERT_NE(it, vms.end());
      EXPECT_LE(it->available_at, 10.0);
    }
  }
}

TEST_P(BothModesTest, EmptyQueueEmptyPlan) {
  const std::vector<VmAvail> vms{idle_vm(0, 0)};
  EXPECT_TRUE(plan_of(0.0, {}, vms, kFirstFit, GetParam()).empty());
}

INSTANTIATE_TEST_SUITE_P(Modes, BothModesTest,
                         testing::Values(AllocationMode::kHeadOfLine,
                                         AllocationMode::kEasyBackfill));

TEST(Allocation, SparseVmIdsNeedNoIdSizedTable) {
  // Engine VM ids grow with every lease, so a long run plans over large,
  // sparse ids; nothing may be sized by the largest one (2^40 here).
  const VmId far = VmId{1} << 40;
  const std::vector<QueuedJob> queue{make_queued(0, 0, 1, 100), make_queued(1, 1, 2, 1000),
                                     make_queued(2, 2, 1, 50)};
  const std::vector<VmAvail> vms{idle_vm(far, 10), idle_vm(0, 10)};
  EXPECT_EQ(plan_of(10.0, queue, vms, kFirstFit, AllocationMode::kHeadOfLine),
            (std::vector<Planned>{{0, {far}}}));
  // The 2-wide head waits for the first job's VM (free at 110); the 50 s
  // job ends before that and backfills onto the other VM.
  EXPECT_EQ(plan_of(10.0, queue, vms, kFirstFit, AllocationMode::kEasyBackfill),
            (std::vector<Planned>{{0, {far}}, {2, {0}}}));
}

// --- Reference: the working-copy planner ---------------------------------
// The straightforward form of the planner: it copies the fleet, maps ids to
// rows, marks the VMs phase 1 starts busy in the copy and takes the EASY
// shadow time from the copy; BestFit/WorstFit recompute both keys in every
// comparison of a stable sort. The property test below holds the copy-free
// planner and the keyed VM selection to it.

void reference_order(const std::string& policy, std::vector<VmCandidate>& candidates,
                     double predicted_runtime, SimTime now, SimDuration quantum) {
  if (policy == "FirstFit") return;
  const bool ascending = policy == "BestFit";
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](const VmCandidate& a, const VmCandidate& b) {
                     const double ra =
                         cloud::remaining_paid_at(a.lease_time, now + predicted_runtime, quantum);
                     const double rb =
                         cloud::remaining_paid_at(b.lease_time, now + predicted_runtime, quantum);
                     if (ra != rb) return ascending ? ra < rb : ra > rb;
                     return a.id < b.id;
                   });
}

std::vector<Planned> reference_plan(SimTime now, std::span<const QueuedJob> queue,
                                    std::span<const VmAvail> fleet, const std::string& policy,
                                    AllocationMode mode, SimDuration quantum) {
  std::vector<VmAvail> vms(fleet.begin(), fleet.end());
  std::map<VmId, std::size_t> row;
  for (std::size_t r = 0; r < vms.size(); ++r) row[vms[r].id] = r;
  std::vector<VmCandidate> idle;
  for (const VmAvail& vm : vms)
    if (vm.available_at <= now) idle.push_back({vm.id, vm.lease_time});

  std::vector<Planned> plan;
  const auto take = [&](std::size_t i, SimTime until) {
    const QueuedJob& job = queue[i];
    reference_order(policy, idle, job.predicted_runtime, now, quantum);
    Planned start{i, {}};
    for (int p = 0; p < job.procs; ++p) start.vms.push_back(idle[static_cast<std::size_t>(p)].id);
    idle.erase(idle.begin(), idle.begin() + job.procs);
    for (const VmId id : start.vms) vms[row.at(id)].available_at = until;
    plan.push_back(start);
  };

  std::size_t head = queue.size();
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (idle.size() < static_cast<std::size_t>(queue[i].procs)) {
      head = i;
      break;
    }
    take(i, now + queue[i].predicted_runtime);
  }
  if (mode == AllocationMode::kHeadOfLine || head >= queue.size()) return plan;

  const auto need = static_cast<std::size_t>(queue[head].procs);
  if (vms.size() < need) return plan;
  std::vector<SimTime> times;
  for (const VmAvail& vm : vms) times.push_back(std::max(vm.available_at, now));
  std::nth_element(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(need) - 1,
                   times.end());
  const SimTime shadow = times[need - 1];
  std::size_t free_at_shadow = 0;
  for (const VmAvail& vm : vms)
    if (std::max(vm.available_at, now) <= shadow) ++free_at_shadow;
  std::size_t extra = free_at_shadow - need;
  for (std::size_t i = head + 1; i < queue.size(); ++i) {
    if (idle.empty()) break;
    const auto width = static_cast<std::size_t>(queue[i].procs);
    if (idle.size() < width) continue;
    const SimTime finish = now + queue[i].predicted_runtime;
    if (finish > shadow) {
      if (width > extra) continue;
      extra -= width;
    }
    take(i, finish);
  }
  return plan;
}

/// A random planning instance: up to 40 VMs with distinct, non-contiguous
/// ids in random row order, each idle (possibly since before now), busy
/// until a predicted end, or booting; up to 20 jobs 1-16 wide. Lease
/// times, free instants and runtimes sit on coarse grids, so remaining-paid
/// keys and free instants tie often.
struct Instance {
  SimTime now = 0.0;
  std::vector<QueuedJob> queue;
  std::vector<VmAvail> vms;
};

Instance random_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  Instance in;
  in.now = 36'000.0 + 20.0 * static_cast<double>(rng.uniform_int(0, 180));
  const auto vm_count = static_cast<std::size_t>(rng.uniform_int(0, 40));
  std::set<VmId> ids;
  while (in.vms.size() < vm_count) {
    const VmId id = rng.uniform_int(0, 1'000'000);
    if (!ids.insert(id).second) continue;
    VmAvail vm;
    vm.id = id;
    vm.lease_time = in.now - 120.0 - 300.0 * static_cast<double>(rng.uniform_int(0, 30));
    switch (rng.uniform_int(0, 3)) {
      case 0:
      case 1:  // idle
        vm.available_at = in.now - 60.0 * static_cast<double>(rng.uniform_int(0, 2));
        break;
      case 2:  // busy until its job's predicted end
        vm.available_at = in.now + 100.0 * static_cast<double>(rng.uniform_int(1, 20));
        break;
      default:  // booting
        vm.lease_time = in.now - 60.0 * static_cast<double>(rng.uniform_int(0, 1));
        vm.available_at = vm.lease_time + 120.0;
        break;
    }
    in.vms.push_back(vm);
  }
  const auto job_count = rng.uniform_int(0, 20);
  for (JobId j = 0; j < job_count; ++j) {
    in.queue.push_back(make_queued(j, static_cast<double>(j),
                                   static_cast<int>(rng.uniform_int(1, 16)),
                                   50.0 * static_cast<double>(rng.uniform_int(1, 60))));
  }
  return in;
}

TEST(Allocation, MatchesWorkingCopyReferenceOnRandomInstances) {
  const auto selections = all_vm_selection();
  std::size_t easy_backfills = 0;  // instances where EASY started more than head-of-line
  std::size_t starts = 0;
  // One warm scratch for every call, like the engine and the online sim.
  AllocationPlan flat;
  AllocationScratch scratch;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    const Instance in = random_instance(seed);
    for (const auto& selection : selections) {
      std::size_t hol_starts = 0;
      for (const AllocationMode mode :
           {AllocationMode::kHeadOfLine, AllocationMode::kEasyBackfill}) {
        plan_allocation_into(in.now, in.queue, in.vms, *selection, mode, kSecondsPerHour,
                             flat, scratch);
        const std::vector<Planned> got = boxed(flat);
        const std::vector<Planned> want =
            reference_plan(in.now, in.queue, in.vms, selection->name(), mode, kSecondsPerHour);
        ASSERT_EQ(got, want) << "seed " << seed << ", " << selection->name() << ", "
                             << (mode == AllocationMode::kHeadOfLine ? "head-of-line" : "EASY");
        starts += got.size();
        if (mode == AllocationMode::kHeadOfLine) hol_starts = got.size();
        else if (got.size() > hol_starts) ++easy_backfills;
      }
    }
  }
  // The instances reach both phases: many starts, and EASY backfills often.
  EXPECT_GT(starts, 3000u);
  EXPECT_GT(easy_backfills, 400u);
}

}  // namespace
}  // namespace psched::policy
