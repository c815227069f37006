#include "engine/cluster_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "engine/experiment.hpp"
#include "workload/generator.hpp"

namespace psched::engine {
namespace {

const policy::Portfolio& portfolio() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

policy::PolicyTriple policy_by_name(const std::string& name) {
  const policy::PolicyTriple* t = portfolio().find(name);
  EXPECT_NE(t, nullptr) << name;
  return *t;
}

workload::Job make_job(JobId id, double submit, double runtime, int procs,
                       UserId user = 0) {
  workload::Job j;
  j.id = id;
  j.submit = submit;
  j.runtime = runtime;
  j.procs = procs;
  j.estimate = runtime * 3;
  j.user = user;
  return j;
}

RunResult run_one(const workload::Trace& trace, const std::string& policy_name,
                  PredictorKind predictor = PredictorKind::kPerfect) {
  return run_single_policy(paper_engine_config(), trace, policy_by_name(policy_name),
                           predictor)
      .run;
}

/// Answers like a SinglePolicyScheduler and keeps a copy of every profile
/// the engine hands it, with the length of the queue that came with it.
class RecordingScheduler final : public core::Scheduler {
 public:
  explicit RecordingScheduler(policy::PolicyTriple policy) : inner_(std::move(policy)) {}

  [[nodiscard]] policy::PolicyTriple policy_for_tick(
      std::uint64_t tick, std::span<const policy::QueuedJob> queue,
      const cloud::CloudProfile& profile) override {
    profiles.push_back(profile);
    queue_sizes.push_back(queue.size());
    return inner_.policy_for_tick(tick, queue, profile);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  std::vector<cloud::CloudProfile> profiles;
  std::vector<std::size_t> queue_sizes;

 private:
  core::SinglePolicyScheduler inner_;
};

TEST(ClusterSimulation, SingleJobHandComputed) {
  // Arrival at 10 -> first tick at 20 -> lease, boot until 140 -> start at
  // 140 (wait 130), finish at 240 -> BSD (130+100)/100 = 2.3. The idle VM
  // (leased at 20, boundary 3620) releases at the 3600 tick: 1 charged hour.
  const workload::Trace trace("t", 64, {make_job(0, 10.0, 100.0, 1)});
  const RunResult r = run_one(trace, "ODA-FCFS-FirstFit");
  EXPECT_EQ(r.metrics.jobs, 1u);
  EXPECT_NEAR(r.metrics.avg_bounded_slowdown, 2.3, 1e-9);
  EXPECT_DOUBLE_EQ(r.metrics.rv_charged_seconds, 3600.0);
  EXPECT_DOUBLE_EQ(r.metrics.rj_proc_seconds, 100.0);
  EXPECT_DOUBLE_EQ(r.metrics.makespan, 240.0);
  EXPECT_EQ(r.total_leases, 1u);
}

TEST(ClusterSimulation, SchedulerProfileShowsPredictedEndsNeverActualOnes) {
  // Serial jobs under user estimates, 120 s boot: jobs 0-2 start at 120 on
  // VMs 0-2 (job 0 over-estimated, job 1 under-estimated, job 2 exact and
  // done at 510); job 3 arrives at 490 and leases VM 3 at the 500 tick. The
  // 520 tick's profile, taken before that tick acts, holds all four states.
  EngineConfig config = paper_engine_config();
  config.provider.max_vms = 8;
  config.provider.billing_quantum = 60.0;
  const auto job = [](JobId id, double submit, double runtime, double estimate) {
    workload::Job j = make_job(id, submit, runtime, 1);
    j.estimate = estimate;
    return j;
  };
  const workload::Trace trace("t", 8,
                              {job(0, 0.0, 5000.0, 10000.0), job(1, 0.0, 5000.0, 100.0),
                               job(2, 0.0, 390.0, 390.0), job(3, 490.0, 100.0, 100.0)});
  RecordingScheduler scheduler(policy_by_name("ODA-FCFS-FirstFit"));
  const auto predictor = make_predictor(PredictorKind::kUserEstimate);
  ClusterSimulation sim(config, trace, scheduler, *predictor);
  EXPECT_EQ(sim.run().metrics.jobs, 4u);

  const auto at =
      std::find_if(scheduler.profiles.begin(), scheduler.profiles.end(),
                   [](const cloud::CloudProfile& p) { return p.now == 520.0; });
  ASSERT_NE(at, scheduler.profiles.end());
  const cloud::CloudProfile& profile = *at;
  ASSERT_EQ(profile.vms.size(), 4u);  // every leased VM: three at 0, one at 500
  // Busy VMs read max(start + estimate, now), never start + runtime (5120).
  EXPECT_TRUE(profile.vms[0].busy);
  EXPECT_DOUBLE_EQ(profile.vms[0].available_at, 120.0 + 10000.0);
  EXPECT_TRUE(profile.vms[1].busy);
  EXPECT_DOUBLE_EQ(profile.vms[1].available_at, 520.0);  // predicted 220, passed
  // An idle VM reads now; a booting one its boot_complete.
  EXPECT_FALSE(profile.vms[2].busy);
  EXPECT_DOUBLE_EQ(profile.vms[2].available_at, 520.0);
  EXPECT_FALSE(profile.vms[3].busy);
  EXPECT_DOUBLE_EQ(profile.vms[3].lease_time, 500.0);
  EXPECT_DOUBLE_EQ(profile.vms[3].available_at, 620.0);
  EXPECT_EQ(profile.max_vms, 8u);
  EXPECT_DOUBLE_EQ(profile.boot_delay, 120.0);
  EXPECT_DOUBLE_EQ(profile.billing_quantum, 60.0);
}

TEST(ClusterSimulation, SchedulerProfileListsTheFleetOnlyWhileJobsWait) {
  // Scheduler::policy_for_tick's contract: with jobs queued the profile
  // lists every leased VM; with none it lists no VM but keeps `now` and the
  // caps current. Failures and pricing are off, so the fleet changes only
  // inside ticks, and the fleet a tick starts with is the one the previous
  // tick's telemetry sample saw at its end.
  EngineConfig config = paper_engine_config();
  config.telemetry_every_ticks = 1;
  const auto trace =
      workload::TraceGenerator(workload::kth_sp2_like(1.0)).generate(3).cleaned(64);
  RecordingScheduler scheduler(policy_by_name("ODA-FCFS-FirstFit"));
  const auto predictor = make_predictor(PredictorKind::kUserEstimate);
  ClusterSimulation sim(config, trace, scheduler, *predictor);
  const RunResult r = sim.run();
  ASSERT_EQ(scheduler.profiles.size(), r.ticks);
  ASSERT_EQ(r.telemetry.size(), r.ticks);
  std::size_t leased_at_start = 0;
  std::size_t with_jobs = 0;
  std::size_t empty_with_fleet = 0;
  for (std::size_t i = 0; i < r.ticks; ++i) {
    const cloud::CloudProfile& profile = scheduler.profiles[i];
    EXPECT_DOUBLE_EQ(profile.now, r.telemetry[i].when);
    EXPECT_EQ(profile.max_vms, config.provider.max_vms);
    EXPECT_DOUBLE_EQ(profile.boot_delay, config.provider.boot_delay);
    if (scheduler.queue_sizes[i] > 0) {
      EXPECT_EQ(profile.vms.size(), leased_at_start) << "tick at " << profile.now;
      ++with_jobs;
    } else {
      EXPECT_TRUE(profile.vms.empty()) << "tick at " << profile.now;
      if (leased_at_start > 0) ++empty_with_fleet;
    }
    leased_at_start = r.telemetry[i].leased_vms;
  }
  EXPECT_GT(with_jobs, 0u);
  EXPECT_GT(empty_with_fleet, 0u);
}

TEST(ClusterSimulation, EmptyQueueTickStillReleasesIdleSurplus) {
  // Job 0 runs 120..220 on one VM. Its finish event precedes the 220 tick,
  // which finds the queue empty and the VM idle: the eager rule releases it
  // there, although that tick skips the fleet pass.
  EngineConfig config = paper_engine_config();
  config.telemetry_every_ticks = 1;
  const workload::Trace trace(
      "t", 64, {make_job(0, 0.0, 100.0, 1), make_job(1, 400.0, 50.0, 1)});
  RecordingScheduler scheduler(policy_by_name("ODB-FCFS-FirstFit"));
  const auto predictor = make_predictor(PredictorKind::kPerfect);
  ClusterSimulation sim(config, trace, scheduler, *predictor);
  const RunResult r = sim.run();
  ASSERT_EQ(r.telemetry.size(), r.ticks);
  const auto at = std::find_if(r.telemetry.begin(), r.telemetry.end(),
                               [](const TelemetrySample& s) { return s.when == 220.0; });
  ASSERT_NE(at, r.telemetry.end());
  const auto i = static_cast<std::size_t>(at - r.telemetry.begin());
  ASSERT_GT(i, 0u);
  EXPECT_EQ(scheduler.queue_sizes[i], 0u);
  EXPECT_EQ(r.telemetry[i - 1].leased_vms, 1u);
  EXPECT_EQ(r.telemetry[i].leased_vms, 0u);
  EXPECT_EQ(r.total_leases, 2u);
}

TEST(ClusterSimulation, ZeroBootDelayStartsJobsOnTheLeasingTick) {
  // Without a boot delay a lease is idle at once, so the VMs a tick leases
  // must reach that tick's planner: the job starts at 0, not at the next
  // tick (20 s).
  EngineConfig config = paper_engine_config();
  config.provider.boot_delay = 0.0;
  config.keep_job_records = true;
  const workload::Trace trace("t", 64, {make_job(0, 0.0, 100.0, 4)});
  const auto result = run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                                        PredictorKind::kPerfect);
  ASSERT_EQ(result.run.job_records.size(), 1u);
  EXPECT_DOUBLE_EQ(result.run.job_records[0].start, 0.0);
  EXPECT_EQ(result.run.total_leases, 4u);
}

TEST(ClusterSimulation, ParallelJobUsesOneVmPerProcessor) {
  const workload::Trace trace("t", 64, {make_job(0, 0.0, 100.0, 8)});
  const RunResult r = run_one(trace, "ODA-FCFS-FirstFit");
  EXPECT_EQ(r.metrics.jobs, 1u);
  EXPECT_EQ(r.total_leases, 8u);
  EXPECT_DOUBLE_EQ(r.metrics.rv_charged_seconds, 8.0 * 3600.0);
  EXPECT_DOUBLE_EQ(r.metrics.rj_proc_seconds, 800.0);
}

TEST(ClusterSimulation, SecondShortJobReusesPaidVmUnderBoundaryRule) {
  // Under the boundary release rule the idle (paid) VM lingers until its
  // hourly boundary, so job B reuses it: one lease, one charged hour.
  EngineConfig config = paper_engine_config();
  config.release_rule = core::ReleaseRule::kBoundary;
  const workload::Trace trace(
      "t", 64, {make_job(0, 0.0, 100.0, 1), make_job(1, 400.0, 50.0, 1)});
  const auto r = run_single_policy(config, trace, policy_by_name("ODB-FCFS-FirstFit"),
                                   PredictorKind::kPerfect);
  EXPECT_EQ(r.run.metrics.jobs, 2u);
  EXPECT_EQ(r.run.total_leases, 1u);
  EXPECT_DOUBLE_EQ(r.run.metrics.rv_charged_seconds, 3600.0);
}

TEST(ClusterSimulation, EagerRuleReleasesSurplusImmediately) {
  // Under the default eager rule the idle VM is released as soon as no job
  // waits, so job B triggers a second lease and a second charged hour.
  const workload::Trace trace(
      "t", 64, {make_job(0, 0.0, 100.0, 1), make_job(1, 400.0, 50.0, 1)});
  const RunResult r = run_one(trace, "ODB-FCFS-FirstFit");
  EXPECT_EQ(r.metrics.jobs, 2u);
  EXPECT_EQ(r.total_leases, 2u);
  EXPECT_DOUBLE_EQ(r.metrics.rv_charged_seconds, 2.0 * 3600.0);
}

TEST(ClusterSimulation, EagerRuleKeepsReserveForWaitingWideJob) {
  // A 4-wide job waits while only 2 VMs are idle (cap 4, 2 busy): the idle
  // pair must be kept as the head job's reserve, not released.
  EngineConfig config = paper_engine_config();
  config.provider.max_vms = 4;
  // Two long serial jobs occupy 2 VMs; the wide job must wait for them.
  std::vector<workload::Job> jobs{make_job(0, 0.0, 4000.0, 1), make_job(1, 0.0, 4000.0, 1),
                                  make_job(2, 30.0, 100.0, 4)};
  const workload::Trace trace("t", 64, std::move(jobs));
  const auto r = run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                                   PredictorKind::kPerfect);
  EXPECT_EQ(r.run.metrics.jobs, 3u);
  // 2 VMs for the serial jobs + 2 extra leased for the wide job = 4 total;
  // if the reserve were dropped we would see repeated re-leasing.
  EXPECT_EQ(r.run.total_leases, 4u);
}

TEST(ClusterSimulation, VmCapBindsFleetSize) {
  EngineConfig config = paper_engine_config();
  config.provider.max_vms = 4;
  std::vector<workload::Job> jobs;
  for (int i = 0; i < 6; ++i) jobs.push_back(make_job(i, 0.0, 100.0, 2));
  const workload::Trace trace("t", 64, std::move(jobs));
  const auto result =
      run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                        PredictorKind::kPerfect);
  EXPECT_EQ(result.run.metrics.jobs, 6u);
  EXPECT_LE(result.run.total_leases, 4u * 100u);  // releases/releases cycle
}

TEST(ClusterSimulation, AllJobsFinishExactlyOnce) {
  const auto trace =
      workload::TraceGenerator(workload::das2_fs0_like(1.0)).generate(5).cleaned(64);
  ASSERT_GT(trace.size(), 50u);
  const RunResult r = run_one(trace, "ODX-UNICEF-FirstFit");
  EXPECT_EQ(r.metrics.jobs, trace.size());
  // Same work, different accumulation order -> relative tolerance.
  EXPECT_NEAR(r.metrics.rj_proc_seconds, trace.total_work(),
              1e-9 * trace.total_work());
}

TEST(ClusterSimulation, DeterministicAcrossRuns) {
  const auto trace =
      workload::TraceGenerator(workload::kth_sp2_like(2.0)).generate(6).cleaned(64);
  const RunResult a = run_one(trace, "ODE-LXF-BestFit");
  const RunResult b = run_one(trace, "ODE-LXF-BestFit");
  EXPECT_DOUBLE_EQ(a.metrics.avg_bounded_slowdown, b.metrics.avg_bounded_slowdown);
  EXPECT_DOUBLE_EQ(a.metrics.rv_charged_seconds, b.metrics.rv_charged_seconds);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.ticks, b.ticks);
}

TEST(ClusterSimulation, KeepJobRecordsWhenRequested) {
  EngineConfig config = paper_engine_config();
  config.keep_job_records = true;
  const workload::Trace trace("t", 64,
                              {make_job(0, 0.0, 50.0, 1), make_job(1, 10.0, 60.0, 2)});
  const auto result = run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                                        PredictorKind::kPerfect);
  ASSERT_EQ(result.run.job_records.size(), 2u);
  for (const auto& record : result.run.job_records) {
    EXPECT_GE(record.start, record.submit);
    EXPECT_DOUBLE_EQ(record.finish, record.start + record.runtime);
  }
}

TEST(ClusterSimulation, TelemetrySamplesFleetState) {
  EngineConfig config = paper_engine_config();
  config.telemetry_every_ticks = 1;
  const workload::Trace trace("t", 64, {make_job(0, 0.0, 300.0, 2)});
  const auto result = run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                                        PredictorKind::kPerfect);
  ASSERT_FALSE(result.run.telemetry.empty());
  // The first tick leases 2 VMs for the queued job (booting).
  const TelemetrySample& first = result.run.telemetry.front();
  EXPECT_EQ(first.queued_jobs, 1u);
  EXPECT_EQ(first.queued_procs, 2u);
  EXPECT_EQ(first.leased_vms, 2u);
  EXPECT_EQ(first.booting_vms, 2u);
  // Some later sample observes the job running.
  bool saw_busy = false;
  for (const TelemetrySample& sample : result.run.telemetry)
    saw_busy = saw_busy || sample.busy_vms == 2u;
  EXPECT_TRUE(saw_busy);
  // Monotone timestamps.
  for (std::size_t i = 1; i < result.run.telemetry.size(); ++i)
    EXPECT_GT(result.run.telemetry[i].when, result.run.telemetry[i - 1].when);
}

TEST(ClusterSimulation, TelemetryOffByDefault) {
  const workload::Trace trace("t", 64, {make_job(0, 0.0, 50.0, 1)});
  const RunResult r = run_one(trace, "ODA-FCFS-FirstFit");
  EXPECT_TRUE(r.telemetry.empty());
}

TEST(ClusterSimulation, PerSecondBillingChargesNearWorkOnly) {
  // Under 1-second billing, a 300 s serial job costs ~300 VM-seconds plus
  // the boot time — not a full hour.
  EngineConfig config = paper_engine_config();
  config.provider.billing_quantum = 1.0;
  const workload::Trace trace("t", 64, {make_job(0, 0.0, 300.0, 1)});
  const auto result = run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                                        PredictorKind::kPerfect);
  EXPECT_LT(result.run.metrics.rv_charged_seconds, 600.0);
  EXPECT_GE(result.run.metrics.rv_charged_seconds, 300.0);
}

TEST(ClusterSimulation, EasyBackfillNeverLosesJobs) {
  const auto trace =
      workload::TraceGenerator(workload::sdsc_sp2_like(1.0)).generate(17).cleaned(64);
  EngineConfig config = paper_engine_config();
  config.allocation = policy::AllocationMode::kEasyBackfill;
  const auto result = run_single_policy(config, trace, policy_by_name("ODX-FCFS-FirstFit"),
                                        PredictorKind::kTsafrir);
  EXPECT_EQ(result.run.metrics.jobs, trace.size());
  EXPECT_GE(result.run.metrics.avg_bounded_slowdown, 1.0);
}

TEST(ClusterSimulation, EmptyTraceProducesEmptyMetrics) {
  const workload::Trace trace("empty", 64, {});
  const RunResult r = run_one(trace, "ODA-FCFS-FirstFit");
  EXPECT_EQ(r.metrics.jobs, 0u);
  EXPECT_DOUBLE_EQ(r.metrics.rv_charged_seconds, 0.0);
  EXPECT_EQ(r.ticks, 0u);
}

TEST(ClusterSimulation, UserEstimatePredictorChangesBehavior) {
  // ODE packs by predicted work; inflated estimates over-provision, which
  // must show up as different (usually higher) cost.
  std::vector<workload::Job> jobs;
  for (int i = 0; i < 40; ++i) {
    auto j = make_job(i, i * 30.0, 120.0, 2, static_cast<UserId>(i % 4));
    j.estimate = 9000.0;  // wildly pessimistic
    jobs.push_back(j);
  }
  const workload::Trace trace("t", 64, std::move(jobs));
  const RunResult accurate = run_one(trace, "ODE-FCFS-FirstFit",
                                     PredictorKind::kPerfect);
  const RunResult estimated = run_one(trace, "ODE-FCFS-FirstFit",
                                      PredictorKind::kUserEstimate);
  EXPECT_NE(accurate.metrics.rv_charged_seconds, estimated.metrics.rv_charged_seconds);
  EXPECT_GE(estimated.metrics.rv_charged_seconds, accurate.metrics.rv_charged_seconds);
}

TEST(ClusterSimulation, TsafrirPredictorLearnsDuringRun) {
  std::vector<workload::Job> jobs;
  for (int i = 0; i < 30; ++i) {
    auto j = make_job(i, i * 400.0, 100.0, 1, /*user=*/1);
    j.estimate = 36000.0;
    jobs.push_back(j);
  }
  const workload::Trace trace("t", 64, std::move(jobs));
  // With learning, later predictions collapse to ~100 s, so ODX should not
  // behave as if jobs were 10-hour monsters. The run must at least complete
  // with sane metrics under all three regimes.
  for (const auto kind : {PredictorKind::kPerfect, PredictorKind::kTsafrir,
                          PredictorKind::kUserEstimate}) {
    const RunResult r = run_one(trace, "ODX-LXF-FirstFit", kind);
    EXPECT_EQ(r.metrics.jobs, 30u) << to_string(kind);
    EXPECT_GE(r.metrics.avg_bounded_slowdown, 1.0) << to_string(kind);
  }
}

TEST(ClusterSimulation, PortfolioRunProducesReflection) {
  const auto trace =
      workload::TraceGenerator(workload::lpc_egee_like(1.0)).generate(8).cleaned(64);
  const EngineConfig config = paper_engine_config();
  const auto result = run_portfolio(config, trace, portfolio(),
                                    paper_portfolio_config(config),
                                    PredictorKind::kPerfect);
  EXPECT_TRUE(result.is_portfolio);
  EXPECT_GT(result.portfolio.invocations, 0u);
  EXPECT_EQ(result.run.metrics.jobs, trace.size());
  std::size_t chosen_total = 0;
  for (const auto count : result.portfolio.chosen_counts) chosen_total += count;
  EXPECT_EQ(chosen_total, result.portfolio.invocations);
}

TEST(ClusterSimulation, WiderJobThanCapAborts) {
  EngineConfig config = paper_engine_config();
  config.provider.max_vms = 4;
  const workload::Trace trace("t", 64, {make_job(0, 0.0, 100.0, 8)});
  EXPECT_DEATH(
      (void)run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                              PredictorKind::kPerfect),
      "wider than the VM cap");
}

TEST(ClusterSimulation, RunParallelPreservesOrder) {
  const workload::Trace trace("t", 64, {make_job(0, 0.0, 100.0, 1)});
  std::vector<std::function<ScenarioResult()>> tasks;
  for (const char* name : {"ODA-FCFS-FirstFit", "ODB-FCFS-FirstFit"}) {
    tasks.emplace_back([&trace, name] {
      return run_single_policy(paper_engine_config(), trace, policy_by_name(name),
                               PredictorKind::kPerfect);
    });
  }
  const auto results = run_parallel(tasks, 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].run.scheduler_name, "ODA-FCFS-FirstFit");
  EXPECT_EQ(results[1].run.scheduler_name, "ODB-FCFS-FirstFit");
}

}  // namespace
}  // namespace psched::engine
