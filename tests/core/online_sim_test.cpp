#include "core/online_sim.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "util/state_digest.hpp"

namespace psched::core {
namespace {

OnlineSimConfig default_config() {
  OnlineSimConfig c;
  c.utility = metrics::UtilityParams{100.0, 1.0, 1.0};
  c.slowdown_bound = 10.0;
  c.schedule_period = 20.0;
  // Hand-computed expectations below use the paper-literal billing model;
  // the marginal model has its own tests.
  c.cost_model = InnerCostModel::kChargedHours;
  return c;
}

OnlineSimConfig marginal_config() {
  OnlineSimConfig c = default_config();
  c.cost_model = InnerCostModel::kElapsedMarginal;
  return c;
}

cloud::CloudProfile empty_cloud(SimTime now = 0.0, std::size_t cap = 256,
                                double boot = 120.0) {
  cloud::CloudProfile p;
  p.now = now;
  p.max_vms = cap;
  p.boot_delay = boot;
  return p;
}

policy::QueuedJob make_queued(JobId id, double submit, int procs, double predicted) {
  policy::QueuedJob q;
  q.id = id;
  q.submit = submit;
  q.procs = procs;
  q.predicted_runtime = predicted;
  return q;
}

const policy::Portfolio& portfolio() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

policy::PolicyTriple policy_by_name(const std::string& name) {
  const policy::PolicyTriple* t = portfolio().find(name);
  EXPECT_NE(t, nullptr) << name;
  return *t;
}

TEST(OnlineSimulator, SingleJobOnEmptyCloudHandComputed) {
  const OnlineSimulator sim(default_config());
  const std::vector<policy::QueuedJob> queue{make_queued(0, 0.0, 1, 600.0)};
  const SimOutcome out =
      sim.simulate(queue, empty_cloud(), policy_by_name("ODA-FCFS-FirstFit"));
  // Lease at t=0, boot until 120, run 120..720: wait 120 -> BSD 1.2.
  EXPECT_NEAR(out.avg_bounded_slowdown, 1.2, 1e-9);
  EXPECT_DOUBLE_EQ(out.rj_proc_seconds, 600.0);
  // The VM releases at 720 -> one charged hour.
  EXPECT_DOUBLE_EQ(out.rv_charged_seconds, 3600.0);
  EXPECT_NEAR(out.utility, 100.0 * (600.0 / 3600.0) / 1.2, 1e-9);
  EXPECT_DOUBLE_EQ(out.sim_makespan, 720.0);
}

TEST(OnlineSimulator, ReusingPaidIdleVmIsFree) {
  const OnlineSimulator sim(default_config());
  cloud::CloudProfile profile = empty_cloud(1800.0);
  profile.vms.push_back(cloud::VmView{0.0, 1800.0});  // idle, paid until 3600
  const std::vector<policy::QueuedJob> queue{make_queued(0, 1800.0, 1, 600.0)};
  const SimOutcome out =
      sim.simulate(queue, profile, policy_by_name("ODA-FCFS-FirstFit"));
  // Runs 1800..2400 inside the paid hour: zero incremental cost, BSD 1.
  EXPECT_DOUBLE_EQ(out.avg_bounded_slowdown, 1.0);
  EXPECT_DOUBLE_EQ(out.rv_charged_seconds, 0.0);
  EXPECT_DOUBLE_EQ(out.utility, 100.0);
}

TEST(OnlineSimulator, ExtendingPastBoundaryChargesNewHour) {
  const OnlineSimulator sim(default_config());
  cloud::CloudProfile profile = empty_cloud(3000.0);
  profile.vms.push_back(cloud::VmView{0.0, 3000.0});  // 600 s of paid time left
  const std::vector<policy::QueuedJob> queue{make_queued(0, 3000.0, 1, 1200.0)};
  const SimOutcome out =
      sim.simulate(queue, profile, policy_by_name("ODA-FCFS-FirstFit"));
  // Runs 3000..4200, crossing the 3600 boundary: exactly one new hour.
  EXPECT_DOUBLE_EQ(out.rv_charged_seconds, 3600.0);
}

TEST(OnlineSimulator, ParallelJobWaitsForEnoughVms) {
  const OnlineSimulator sim(default_config());
  const std::vector<policy::QueuedJob> queue{make_queued(0, 0.0, 4, 300.0)};
  const SimOutcome out =
      sim.simulate(queue, empty_cloud(), policy_by_name("ODA-FCFS-FirstFit"));
  // 4 VMs leased at 0, all boot by 120, job runs 120..420, 4 charged hours.
  EXPECT_NEAR(out.avg_bounded_slowdown, (120.0 + 300.0) / 300.0, 1e-9);
  EXPECT_DOUBLE_EQ(out.rv_charged_seconds, 4.0 * 3600.0);
  EXPECT_DOUBLE_EQ(out.rj_proc_seconds, 1200.0);
}

TEST(OnlineSimulator, OdbWaitsForBusyVmsInsteadOfLeasing) {
  const OnlineSimulator sim(default_config());
  // One busy VM (frees at t=100) on a fleet of exactly 1; queue needs 1 VM.
  cloud::CloudProfile profile = empty_cloud(0.0);
  profile.vms.push_back(cloud::VmView{0.0, 100.0, /*busy=*/true});
  const std::vector<policy::QueuedJob> queue{make_queued(0, 0.0, 1, 50.0)};

  const SimOutcome odb =
      sim.simulate(queue, profile, policy_by_name("ODB-FCFS-FirstFit"));
  const SimOutcome oda =
      sim.simulate(queue, profile, policy_by_name("ODA-FCFS-FirstFit"));
  // ODB: fleet (1) covers demand (1) -> wait for the busy VM; start at 100.
  EXPECT_NEAR(odb.avg_bounded_slowdown, (100.0 + 50.0) / 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(odb.rv_charged_seconds, 0.0);  // reused paid time
  // ODA leases a new VM immediately, but the busy VM frees (100) before the
  // fresh one boots (120): same start time, one wasted charged hour.
  EXPECT_NEAR(oda.avg_bounded_slowdown, (100.0 + 50.0) / 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(oda.rv_charged_seconds, 3600.0);
}

TEST(OnlineSimulator, OdxDefersUntilUrgency) {
  const OnlineSimulator sim(default_config());
  const std::vector<policy::QueuedJob> queue{make_queued(0, 0.0, 1, 100.0)};
  const SimOutcome out =
      sim.simulate(queue, empty_cloud(), policy_by_name("ODX-FCFS-FirstFit"));
  // Urgent at wait >= 100 (crossing fast-forwarded exactly); lease at 100,
  // boot until 220, run 220..320 -> BSD (220+100)/100 = 3.2.
  EXPECT_NEAR(out.avg_bounded_slowdown, 3.2, 1e-9);
  EXPECT_DOUBLE_EQ(out.rv_charged_seconds, 3600.0);
}

TEST(OnlineSimulator, AllSixtyPoliciesCompleteTheQueue) {
  const OnlineSimulator sim(default_config());
  std::vector<policy::QueuedJob> queue;
  for (int i = 0; i < 12; ++i)
    queue.push_back(make_queued(i, i * 5.0, 1 + (i % 4) * 2, 30.0 + 200.0 * (i % 3)));
  cloud::CloudProfile profile = empty_cloud(60.0, 32);
  profile.vms.push_back(cloud::VmView{0.0, 60.0});     // one idle VM
  profile.vms.push_back(cloud::VmView{30.0, 150.0});   // one booting VM
  for (const policy::PolicyTriple& t : portfolio().policies()) {
    const SimOutcome out = sim.simulate(queue, profile, t);
    EXPECT_TRUE(std::isfinite(out.utility)) << t.name();
    EXPECT_GE(out.utility, 0.0) << t.name();
    EXPECT_DOUBLE_EQ(out.rj_proc_seconds, [&] {
      double w = 0.0;
      for (const auto& q : queue) w += q.procs * q.predicted_runtime;
      return w;
    }()) << t.name();
    EXPECT_GE(out.avg_bounded_slowdown, 1.0) << t.name();
    EXPECT_GT(out.rv_charged_seconds, 0.0) << t.name();
  }
}

TEST(OnlineSimulator, DeterministicAcrossCalls) {
  const OnlineSimulator sim(default_config());
  std::vector<policy::QueuedJob> queue;
  for (int i = 0; i < 30; ++i)
    queue.push_back(make_queued(i, i * 3.0, 1 + i % 8, 10.0 + i * 7.0));
  const auto profile = empty_cloud(90.0);
  const auto policy = policy_by_name("ODE-UNICEF-BestFit");
  const SimOutcome a = sim.simulate(queue, profile, policy);
  const SimOutcome b = sim.simulate(queue, profile, policy);
  EXPECT_DOUBLE_EQ(a.utility, b.utility);
  EXPECT_DOUBLE_EQ(a.rv_charged_seconds, b.rv_charged_seconds);
  EXPECT_EQ(a.decisions, b.decisions);
}

TEST(OnlineSimulator, CapLimitsFleet) {
  const OnlineSimulator sim(default_config());
  std::vector<policy::QueuedJob> queue;
  for (int i = 0; i < 10; ++i) queue.push_back(make_queued(i, 0.0, 4, 100.0));
  const SimOutcome out = sim.simulate(queue, empty_cloud(0.0, /*cap=*/8),
                                      policy_by_name("ODA-FCFS-FirstFit"));
  // 40 procs demanded but only 8 VMs ever: at most 8 charged hours per
  // started hour; everything still finishes.
  EXPECT_DOUBLE_EQ(out.rj_proc_seconds, 4000.0);
  EXPECT_GT(out.avg_bounded_slowdown, 1.0);
}

TEST(OnlineSimulator, EmptyQueueIsImmediatelyDone) {
  const OnlineSimulator sim(default_config());
  const SimOutcome out = sim.simulate({}, empty_cloud(),
                                      policy_by_name("ODA-FCFS-FirstFit"));
  EXPECT_EQ(out.decisions, 0u);
  EXPECT_DOUBLE_EQ(out.rj_proc_seconds, 0.0);
}

TEST(OnlineSimulator, MarginalModelChargesElapsedTime) {
  const OnlineSimulator sim(marginal_config());
  const std::vector<policy::QueuedJob> queue{make_queued(0, 0.0, 1, 600.0)};
  const SimOutcome out =
      sim.simulate(queue, empty_cloud(), policy_by_name("ODA-FCFS-FirstFit"));
  // Lease at 0, held until the job completes at 720: 720 s marginal cost,
  // no round-up to a full hour.
  EXPECT_DOUBLE_EQ(out.rv_charged_seconds, 720.0);
  EXPECT_NEAR(out.avg_bounded_slowdown, 1.2, 1e-9);
}

TEST(OnlineSimulator, MarginalModelBillsReusedPaidTime) {
  const OnlineSimulator sim(marginal_config());
  cloud::CloudProfile profile = empty_cloud(1800.0);
  profile.vms.push_back(cloud::VmView{0.0, 1800.0, false});  // idle, paid to 3600
  const std::vector<policy::QueuedJob> queue{make_queued(0, 1800.0, 1, 600.0)};
  const SimOutcome out =
      sim.simulate(queue, profile, policy_by_name("ODA-FCFS-FirstFit"));
  // Under the marginal model, holding the VM for 600 s costs 600 s even
  // though the hour was already paid (opportunity cost of the paid time).
  EXPECT_DOUBLE_EQ(out.rv_charged_seconds, 600.0);
}

TEST(OnlineSimulator, MarginalNeverExceedsChargedHours) {
  std::vector<policy::QueuedJob> queue;
  for (int i = 0; i < 9; ++i)
    queue.push_back(make_queued(i, i * 11.0, 1 + (i % 3), 40.0 + 300.0 * (i % 4)));
  const OnlineSimulator literal(default_config());
  const OnlineSimulator marginal(marginal_config());
  for (const policy::PolicyTriple& t : portfolio().policies()) {
    const SimOutcome a = literal.simulate(queue, empty_cloud(), t);
    const SimOutcome b = marginal.simulate(queue, empty_cloud(), t);
    EXPECT_LE(b.rv_charged_seconds, a.rv_charged_seconds + 1e-6) << t.name();
    EXPECT_DOUBLE_EQ(a.avg_bounded_slowdown, b.avg_bounded_slowdown) << t.name();
  }
}

TEST(OnlineSimulator, BestFitBeatsWorstFitOnCostHere) {
  // Two idle VMs with different paid remainders and two sequential short
  // jobs: BestFit packs both into the tight VM... both policies finish, and
  // BestFit's charge is never higher.
  const OnlineSimulator sim(default_config());
  cloud::CloudProfile profile = empty_cloud(3000.0);
  profile.vms.push_back(cloud::VmView{0.0, 3000.0});     // 600 s left
  profile.vms.push_back(cloud::VmView{2900.0, 3000.0});  // 3500 s left
  const std::vector<policy::QueuedJob> queue{make_queued(0, 3000.0, 1, 400.0),
                                             make_queued(1, 3000.0, 1, 400.0)};
  const SimOutcome bf =
      sim.simulate(queue, profile, policy_by_name("ODB-FCFS-BestFit"));
  const SimOutcome wf =
      sim.simulate(queue, profile, policy_by_name("ODB-FCFS-WorstFit"));
  EXPECT_LE(bf.rv_charged_seconds, wf.rv_charged_seconds);
}

/// Runs `leader` with `siblings` checked alongside it and returns the
/// agreement flags. A sibling reported as agreeing must score exactly like
/// the leader when simulated alone.
std::vector<unsigned char> sibling_report(const OnlineSimulator& sim,
                                          const std::vector<policy::QueuedJob>& queue,
                                          const cloud::CloudProfile& profile,
                                          const policy::PolicyTriple& leader,
                                          const std::vector<policy::PolicyTriple>& siblings) {
  RoundSnapshot snapshot;
  snapshot.build(queue, profile);
  SimArena arena;
  std::vector<unsigned char> agreed(siblings.size(), 2);
  const SimOutcome lead = sim.simulate(snapshot, leader, siblings, agreed, arena);
  for (std::size_t i = 0; i < siblings.size(); ++i) {
    if (agreed[i] == 0) continue;
    const SimOutcome alone = sim.simulate(snapshot, siblings[i], arena);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(alone.utility),
              std::bit_cast<std::uint64_t>(lead.utility))
        << siblings[i].name();
    EXPECT_EQ(alone.rv_charged_seconds, lead.rv_charged_seconds) << siblings[i].name();
    EXPECT_EQ(alone.decisions, lead.decisions) << siblings[i].name();
  }
  return agreed;
}

/// The same, with the leader and its siblings named as portfolio policies.
std::vector<unsigned char> sibling_report(const OnlineSimulator& sim,
                                          const std::vector<policy::QueuedJob>& queue,
                                          const cloud::CloudProfile& profile,
                                          const std::string& leader,
                                          const std::vector<std::string>& siblings) {
  std::vector<policy::PolicyTriple> triples;
  for (const std::string& name : siblings) triples.push_back(policy_by_name(name));
  return sibling_report(sim, queue, profile, policy_by_name(leader), triples);
}

/// Two idle VMs: 600 s and 3500 s of their paid hour left at t = 3000.
cloud::CloudProfile two_idle_phases() {
  cloud::CloudProfile profile = empty_cloud(3000.0);
  profile.vms.push_back(cloud::VmView{0.0, 3000.0});
  profile.vms.push_back(cloud::VmView{2900.0, 3000.0});
  return profile;
}

TEST(OnlineSimSiblings, DifferentLeasePhasesSplitBestFitFromWorstFit) {
  // One serial job: BestFit and FirstFit take the VM with 600 s left,
  // WorstFit the one with 3500 s left.
  const OnlineSimulator sim(default_config());
  const std::vector<policy::QueuedJob> queue{make_queued(0, 3000.0, 1, 400.0)};
  EXPECT_EQ(sibling_report(sim, queue, two_idle_phases(), "ODB-FCFS-BestFit",
                           {"ODB-FCFS-FirstFit", "ODB-FCFS-WorstFit"}),
            (std::vector<unsigned char>{1, 0}));
  EXPECT_EQ(sibling_report(sim, queue, two_idle_phases(), "ODB-FCFS-WorstFit",
                           {"ODB-FCFS-BestFit", "ODB-FCFS-FirstFit"}),
            (std::vector<unsigned char>{0, 0}));
}

TEST(OnlineSimSiblings, PoolAsWideAsTheJobLeavesNoChoice) {
  const OnlineSimulator sim(default_config());
  const std::vector<policy::QueuedJob> queue{make_queued(0, 3000.0, 2, 400.0)};
  EXPECT_EQ(sibling_report(sim, queue, two_idle_phases(), "ODB-FCFS-BestFit",
                           {"ODB-FCFS-FirstFit", "ODB-FCFS-WorstFit"}),
            (std::vector<unsigned char>{1, 1}));
}

TEST(OnlineSimSiblings, ZeroLengthJobStillChoosesAVm) {
  // The zero-length job leaves its VM idle, but it took one VM of two at
  // its start, so WorstFit's other choice counts as a disagreement; the
  // wide job behind it then takes both VMs without a choice.
  const OnlineSimulator sim(default_config());
  const std::vector<policy::QueuedJob> queue{make_queued(0, 3000.0, 1, 0.0),
                                             make_queued(1, 3000.0, 2, 400.0)};
  EXPECT_EQ(sibling_report(sim, queue, two_idle_phases(), "ODB-FCFS-BestFit",
                           {"ODB-FCFS-FirstFit", "ODB-FCFS-WorstFit"}),
            (std::vector<unsigned char>{1, 0}));
}

TEST(OnlineSimSiblings, ThrowingLeaderVouchesForNoSibling) {
  OnlineSimConfig config = default_config();
  config.inject_fault = validate::FaultInjection::kCandidateThrow;
  const OnlineSimulator sim(config);
  const std::vector<policy::QueuedJob> queue{make_queued(0, 3000.0, 2, 400.0)};
  RoundSnapshot snapshot;
  snapshot.build(queue, two_idle_phases());
  SimArena arena;
  const std::vector<policy::PolicyTriple> siblings{policy_by_name("ODB-FCFS-FirstFit"),
                                                   policy_by_name("ODB-LXF-WorstFit")};
  std::vector<unsigned char> agreed(2, 1);
  EXPECT_THROW((void)sim.simulate(snapshot, policy_by_name("ODB-FCFS-BestFit"), siblings,
                                  agreed, arena),
               std::runtime_error);
  EXPECT_EQ(agreed, (std::vector<unsigned char>{0, 0}));
}

TEST(OnlineSimSiblings, OneQueuedJobIsOrderedAlikeByEveryJobSelection) {
  // Every job selection orders a one-job queue alike, and FirstFit takes
  // BestFit's VM (the one with 600 s left).
  const OnlineSimulator sim(default_config());
  const std::vector<policy::QueuedJob> queue{make_queued(0, 2900.0, 1, 400.0)};
  EXPECT_EQ(sibling_report(sim, queue, two_idle_phases(), "ODB-FCFS-BestFit",
                           {"ODB-LXF-BestFit", "ODB-UNICEF-BestFit", "ODB-WFP3-BestFit",
                            "ODB-FCFS-FirstFit", "ODB-WFP3-FirstFit"}),
            (std::vector<unsigned char>(5, 1)));
}

TEST(OnlineSimSiblings, JobOrderThatDivergesAtALaterDecisionDropsTheSibling) {
  // Two serial jobs and one VM, under a cap of one: a 3000 s job that has
  // waited 3000 s and a 200 s job that has waited 100 s. At t0 = 3000 LXF
  // ranks the long job first, (3000 + 3000) / 3000 = 2 against
  // (100 + 200) / 200 = 1.5, as FCFS does, and UNICEF and WFP3, which rank
  // serial jobs by wait / runtime too, agree; about 107 s later the short
  // job overtakes it.
  const OnlineSimulator sim(default_config());
  const std::vector<policy::QueuedJob> queue{make_queued(0, 0.0, 1, 3000.0),
                                             make_queued(1, 2900.0, 1, 200.0)};
  const std::vector<std::string> siblings{"ODB-LXF-BestFit", "ODB-FCFS-FirstFit",
                                          "ODB-UNICEF-WorstFit", "ODB-WFP3-BestFit"};
  // With the VM idle at t0 the long job starts at once, and the short one
  // is then alone in the queue.
  cloud::CloudProfile idle = empty_cloud(3000.0, /*cap=*/1);
  idle.vms.push_back(cloud::VmView{0.0, 3000.0});
  EXPECT_EQ(sibling_report(sim, queue, idle, "ODB-FCFS-BestFit", siblings),
            (std::vector<unsigned char>(4, 1)));
  // With the VM busy until 3600 the next decision is at 3600, where LXF,
  // UNICEF and WFP3 would start the short job.
  cloud::CloudProfile busy = empty_cloud(3000.0, /*cap=*/1);
  busy.vms.push_back(cloud::VmView{0.0, 3600.0, true});
  EXPECT_EQ(sibling_report(sim, queue, busy, "ODB-FCFS-BestFit", siblings),
            (std::vector<unsigned char>{0, 1, 0, 0}));
}

TEST(OnlineSimSiblings, OrderBehindAnAlikeHeadCounts) {
  // Three serial jobs on an empty cloud: FCFS and LXF both put the first
  // submitted job first (LXF 4.0), but LXF ranks the last one, a 400 s job
  // (2.25), before the 5000 s one (1.2), so the three start in another
  // order once their VMs boot.
  const OnlineSimulator sim(default_config());
  const std::vector<policy::QueuedJob> queue{make_queued(0, 0.0, 1, 1000.0),
                                             make_queued(1, 2000.0, 1, 5000.0),
                                             make_queued(2, 2500.0, 1, 400.0)};
  EXPECT_EQ(sibling_report(sim, queue, empty_cloud(3000.0), "ODB-FCFS-BestFit",
                           {"ODB-LXF-BestFit", "ODB-FCFS-FirstFit"}),
            (std::vector<unsigned char>{0, 1}));
}

/// FCFS, except that job 1's priority is NaN.
class NanForJobOne final : public policy::JobSelectionPolicy {
 public:
  [[nodiscard]] double priority(const policy::QueuedJob& job, SimTime now) const override {
    return job.id == 1 ? std::nan("") : job.wait(now);
  }
  [[nodiscard]] std::string name() const override { return "NaN1"; }
};

/// A job selection whose every priority throws.
class ThrowingSelection final : public policy::JobSelectionPolicy {
 public:
  [[nodiscard]] double priority(const policy::QueuedJob& /*job*/, SimTime /*now*/) const override {
    throw std::runtime_error("priority failed");
  }
  [[nodiscard]] std::string name() const override { return "Throw"; }
};

TEST(OnlineSimSiblings, NanOrThrowingPriorityIsNotShared) {
  // Either sibling's own run throws at its first decision, so neither may
  // take the leader's outcome, and checking them leaves that outcome as it
  // is.
  const OnlineSimulator sim(default_config());
  const std::vector<policy::QueuedJob> queue{make_queued(0, 2900.0, 1, 400.0),
                                             make_queued(1, 2950.0, 1, 400.0)};
  const policy::PolicyTriple leader = policy_by_name("ODB-FCFS-BestFit");
  const NanForJobOne nan_selection;
  const ThrowingSelection throwing;
  const std::vector<policy::PolicyTriple> siblings{
      {leader.provisioning, &nan_selection, leader.vm_selection},
      {leader.provisioning, &throwing, leader.vm_selection}};
  EXPECT_EQ(sibling_report(sim, queue, two_idle_phases(), leader, siblings),
            (std::vector<unsigned char>{0, 0}));
  RoundSnapshot snapshot;
  snapshot.build(queue, two_idle_phases());
  SimArena arena;
  const SimOutcome alone = sim.simulate(snapshot, leader, arena);
  std::vector<unsigned char> agreed(siblings.size());
  const SimOutcome checked = sim.simulate(snapshot, leader, siblings, agreed, arena);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(checked.utility),
            std::bit_cast<std::uint64_t>(alone.utility));
  EXPECT_EQ(checked.rv_charged_seconds, alone.rv_charged_seconds);
  EXPECT_EQ(checked.decisions, alone.decisions);
  EXPECT_THROW((void)sim.simulate(snapshot, siblings[0], arena), std::invalid_argument);
  EXPECT_THROW((void)sim.simulate(snapshot, siblings[1], arena), std::runtime_error);
}

TEST(OnlineSimSiblings, ExactKeyTieIsNotShared) {
  // Two jobs with one (submit, id) and one runtime, one serial and one two
  // wide. WFP3, which scales by width, starts the wide job on both idle VMs;
  // FCFS and LXF tie the two and keep queue order, so they start the serial
  // job first and the wide one waits.
  const OnlineSimulator sim(default_config());
  const std::vector<policy::QueuedJob> queue{make_queued(7, 2900.0, 1, 400.0),
                                             make_queued(7, 2900.0, 2, 400.0)};
  EXPECT_EQ(sibling_report(sim, queue, two_idle_phases(), "ODB-WFP3-BestFit",
                           {"ODB-FCFS-BestFit", "ODB-LXF-BestFit"}),
            (std::vector<unsigned char>{0, 0}));
}

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Expected totals of one configuration over the 60 portfolio policies, in
/// portfolio order: the sums of utility, rv_charged_seconds and decisions,
/// and a bit-exact fold of every policy's three values.
struct PinnedRun {
  ReleaseRule release;
  AllocationMode allocation;
  double boot_delay;
  double utility;
  double rv_charged_seconds;
  std::size_t decisions;
  std::uint64_t fold;
};

TEST(OnlineSimulator, PinnedAcrossReleaseRuleAllocationModeAndBootDelay) {
  // The decision loop's fleet bookkeeping branches on the release rule
  // (kBoundary releases idle VMs mid-run), the allocation mode (EASY reads
  // busy VMs' free instants) and the boot delay (with none, a lease is idle
  // at once). A 40-job queue on a mixed fleet, all 60 policies, every
  // combination; the values were printed with %.17g before the loop kept
  // its counts incrementally, and must not move. The two release rules
  // agree here: after allocation the idle VMs never outnumber the blocked
  // head's width, so kBoundary keeps them all as its reserve.
  // Every fifth job is shorter than the 20 s decision period, so the time
  // advance must stop at its predicted end rather than at the next tick.
  std::vector<policy::QueuedJob> queue;
  for (int i = 0; i < 40; ++i)
    queue.push_back(make_queued(i, 4000.0 + 37.0 * i, 1 + (i * 5) % 8,
                                i % 5 == 4 ? 5.0 + 4.0 * (i % 3)
                                           : 30.0 + 173.0 * ((i * 7) % 13)));
  constexpr auto kEager = ReleaseRule::kEagerSurplus;
  constexpr auto kBoundary = ReleaseRule::kBoundary;
  constexpr auto kHol = AllocationMode::kHeadOfLine;
  constexpr auto kEasy = AllocationMode::kEasyBackfill;
  const PinnedRun pinned[] = {
      {kEager, kHol, 0.0, 118.76713430897294, 13852800, 3336, 0xf8606910416bc9a2},
      {kEager, kHol, 120.0, 107.69904660583268, 14115600, 3600, 0x13bfb0602af88d4d},
      {kEager, kEasy, 0.0, 140.91235945093109, 12888000, 3399, 0xc4b5166a9f985523},
      {kEager, kEasy, 120.0, 128.77723737425777, 13165200, 3834, 0x13b89ce67189e754},
      {kBoundary, kHol, 0.0, 118.76713430897294, 13852800, 3336, 0xf8606910416bc9a2},
      {kBoundary, kHol, 120.0, 107.69904660583268, 14115600, 3600, 0x13bfb0602af88d4d},
      {kBoundary, kEasy, 0.0, 140.91235945093109, 12888000, 3399, 0xc4b5166a9f985523},
      {kBoundary, kEasy, 120.0, 128.77723737425777, 13165200, 3834, 0x13b89ce67189e754},
  };
  for (const PinnedRun& want : pinned) {
    OnlineSimConfig config = default_config();
    config.release_rule = want.release;
    config.allocation = want.allocation;
    const OnlineSimulator sim(config);
    cloud::CloudProfile profile = empty_cloud(6000.0, /*cap=*/24, want.boot_delay);
    profile.vms = {
        cloud::VmView{0.0, 6000.0},           // idle, 1200 s of its hour left
        cloud::VmView{2420.0, 5000.0},        // idle, 20 s of its hour left
        cloud::VmView{4500.0, 5900.0},        // idle, 2100 s left
        cloud::VmView{1000.0, 6500.0, true},  // busy until 6500
        cloud::VmView{3000.0, 7400.0, true},  // busy until 7400
        cloud::VmView{5940.0, 6060.0},        // booting until 6060
    };
    double utility = 0.0;
    double rv = 0.0;
    std::size_t decisions = 0;
    std::uint64_t fold = 0;
    for (const policy::PolicyTriple& t : portfolio().policies()) {
      const SimOutcome out = sim.simulate(queue, profile, t);
      utility += out.utility;
      rv += out.rv_charged_seconds;
      decisions += out.decisions;
      fold = util::digest_mix(fold, out.utility);
      fold = util::digest_mix(fold, out.rv_charged_seconds);
      fold = util::digest_mix(fold, static_cast<std::uint64_t>(out.decisions));
    }
    char fold_hex[24];
    std::snprintf(fold_hex, sizeof fold_hex, "0x%016" PRIx64, fold);
    const std::string where = std::string(want.release == kBoundary ? "kBoundary" : "kEagerSurplus") +
                              (want.allocation == kEasy ? " kEasyBackfill" : " kHeadOfLine") +
                              " boot " + g17(want.boot_delay) + ": utility " + g17(utility) +
                              ", rv " + g17(rv) + ", decisions " + std::to_string(decisions) +
                              ", fold " + fold_hex;
    EXPECT_EQ(utility, want.utility) << where;
    EXPECT_EQ(rv, want.rv_charged_seconds) << where;
    EXPECT_EQ(decisions, want.decisions) << where;
    EXPECT_EQ(fold, want.fold) << where;
  }
}

}  // namespace
}  // namespace psched::core
