// Runtime invariant checker: clean runs are violation-free, the checker is
// provably zero-impact when detached, each seeded fault (validate/fault.hpp)
// is caught with the expected invariant name, and abort mode dies with the
// simulation context in the report.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "expect_same_metrics.hpp"
#include "validate/fault.hpp"
#include "workload/generator.hpp"

namespace psched::validate {
namespace {

const policy::Portfolio& portfolio() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

/// A burst of serial hour-long jobs against a small cap: exercises leasing
/// up to (and, under kCapOvershoot, beyond) the cap, boot waits, queue
/// contention, and releases — every faultable code path.
workload::Trace burst_trace(std::size_t jobs, std::size_t cap) {
  std::vector<workload::Job> js;
  for (std::size_t i = 0; i < jobs; ++i) {
    workload::Job j;
    j.id = static_cast<JobId>(i);
    j.submit = 0.0;
    j.runtime = 3600.0;
    j.estimate = j.runtime;
    j.procs = 1;
    j.user = 0;
    js.push_back(j);
  }
  return workload::Trace("burst", static_cast<int>(cap), js);
}

engine::EngineConfig checked_config(std::size_t cap, FaultInjection fault,
                                    bool abort_on_violation) {
  engine::EngineConfig config = engine::paper_engine_config();
  config.provider.max_vms = cap;
  config.validation.check_invariants = true;
  config.validation.abort_on_violation = abort_on_violation;
  config.validation.inject_fault = fault;
  return config;
}

engine::ScenarioResult run_burst(const engine::EngineConfig& config) {
  // ODA leases one VM per queued processor — with 12 jobs against a 4-VM
  // cap the provisioning demand always exceeds headroom.
  const auto* triple = portfolio().find("ODA-FCFS-FirstFit");
  EXPECT_NE(triple, nullptr);
  return engine::run_single_policy(config, burst_trace(12, config.provider.max_vms),
                                   *triple, engine::PredictorKind::kPerfect);
}

bool mentions(const std::vector<Violation>& violations, const std::string& invariant) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.invariant == invariant; });
}

TEST(InvariantChecker, CleanRunHasZeroViolations) {
  const auto result = run_burst(checked_config(4, FaultInjection::kNone, false));
  EXPECT_GT(result.run.invariant_checks, 0u);
  EXPECT_TRUE(result.run.invariant_violations.empty());
  EXPECT_GT(result.run.metrics.jobs, 0u);
}

TEST(InvariantChecker, DetachedCheckerIsObservationallyFree) {
  // check_invariants=false must not change a single metric bit — the hooks
  // are null-pointer branches, not alternate code paths.
  engine::EngineConfig off = checked_config(4, FaultInjection::kNone, false);
  off.validation.check_invariants = false;
  const auto checked = run_burst(checked_config(4, FaultInjection::kNone, false));
  const auto plain = run_burst(off);

  EXPECT_EQ(plain.run.invariant_checks, 0u);
  EXPECT_TRUE(plain.run.invariant_violations.empty());
  expect_same_metrics(plain.run.metrics, checked.run.metrics);
  EXPECT_EQ(plain.run.events, checked.run.events);
  EXPECT_EQ(plain.run.total_leases, checked.run.total_leases);
}

TEST(InvariantChecker, CatchesBillingOffByOne) {
  const auto result =
      run_burst(checked_config(4, FaultInjection::kBillingOffByOne, false));
  ASSERT_FALSE(result.run.invariant_violations.empty());
  EXPECT_TRUE(mentions(result.run.invariant_violations, "billing.ceil"));
}

TEST(InvariantChecker, CatchesSkippedBootDelay) {
  const auto result =
      run_burst(checked_config(4, FaultInjection::kSkipBootDelay, false));
  ASSERT_FALSE(result.run.invariant_violations.empty());
  EXPECT_TRUE(mentions(result.run.invariant_violations, "vm.boot-before-run"));
}

TEST(InvariantChecker, CatchesCapOvershoot) {
  const auto result =
      run_burst(checked_config(4, FaultInjection::kCapOvershoot, false));
  ASSERT_FALSE(result.run.invariant_violations.empty());
  EXPECT_TRUE(mentions(result.run.invariant_violations, "vm.cap"));
}

TEST(InvariantCheckerDeathTest, AbortModeDiesWithInvariantNameAndContext) {
  // Default abort mode must die on the first violation and the report must
  // carry the invariant name plus the simulated-clock context line that
  // util/assert.hpp attaches.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      { (void)run_burst(checked_config(4, FaultInjection::kBillingOffByOne, true)); },
      "psched invariant violated: billing\\.ceil");
  EXPECT_DEATH(
      { (void)run_burst(checked_config(4, FaultInjection::kBillingOffByOne, true)); },
      "sim context: t=.* event=tick, policy=ODA-FCFS-FirstFit");
}

TEST(InvariantChecker, RecordModeCapsStoredViolations) {
  engine::EngineConfig config = checked_config(4, FaultInjection::kBillingOffByOne, false);
  config.validation.max_recorded_violations = 2;
  const auto result = run_burst(config);
  EXPECT_LE(result.run.invariant_violations.size(), 2u);
  ASSERT_FALSE(result.run.invariant_violations.empty());
  // Violations carry the simulated time of detection.
  EXPECT_GE(result.run.invariant_violations.front().when, 0.0);
}

// --- failure-model invariants ------------------------------------------------

TEST(InvariantChecker, FailureRunIsViolationFree) {
  // Crashes, boot failures, and outages all active: the failure-aware
  // invariants (job conservation with killed jobs, lease accounting across
  // crash/boot-fail terminations, billing.ceil on terminated leases,
  // failure.consistent at run end) must all hold on a clean engine.
  engine::EngineConfig config = checked_config(8, FaultInjection::kNone, false);
  config.failure.p_boot_fail = 0.15;
  config.failure.vm_mtbf_seconds = 2.0 * kSecondsPerHour;
  config.failure.api_outage_gap_seconds = 0.5 * kSecondsPerHour;
  config.failure.api_outage_duration_seconds = 240.0;
  config.failure.seed = 13;
  const auto result = run_burst(config);
  EXPECT_GT(result.run.invariant_checks, 0u);
  EXPECT_TRUE(result.run.invariant_violations.empty())
      << result.run.invariant_violations.front().invariant << ": "
      << result.run.invariant_violations.front().detail;
  EXPECT_TRUE(result.run.metrics.failures.any());
}

TEST(InvariantChecker, KilledFinalJobsStayConserved) {
  // Resubmission exhaustion drops jobs for good; the job-conservation
  // invariant (finished + killed-final = arrived) must absorb them instead
  // of flagging lost jobs.
  engine::EngineConfig config = checked_config(8, FaultInjection::kNone, false);
  config.failure.vm_mtbf_seconds = 600.0;  // well under the 3600 s runtime
  config.failure.seed = 4;
  config.resilience.max_resubmits = 0;
  const auto result = run_burst(config);
  EXPECT_TRUE(result.run.invariant_violations.empty())
      << result.run.invariant_violations.front().invariant;
  EXPECT_GT(result.run.metrics.failures.jobs_killed_final, 0u);
  EXPECT_EQ(result.run.metrics.jobs + result.run.metrics.failures.jobs_killed_final,
            12u);
}

}  // namespace
}  // namespace psched::validate
