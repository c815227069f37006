// Failure-enabled golden-trace regression: one fixed portfolio scenario with
// boot failures, VM crashes, and API outages all active, pinned against a
// committed metric snapshot in tests/integration/golden/. Any change to the
// failure model's draws, the resilience paths (backoff, resubmission), or
// their interaction with the engine moves these numbers and fails here first.
// Regenerate: PSCHED_UPDATE_GOLDEN=1 ./tests/failure_tests (golden_codec.hpp).
#include <gtest/gtest.h>

#include "engine/experiment.hpp"
#include "golden_codec.hpp"
#include "workload/generator.hpp"

namespace psched {
namespace {

using golden::Golden;

Golden collect(const engine::ScenarioResult& result) {
  const metrics::RunMetrics& m = result.run.metrics;
  const metrics::FailureStats& f = m.failures;
  Golden g;
  g["jobs"] = static_cast<double>(m.jobs);
  g["avg_bounded_slowdown"] = m.avg_bounded_slowdown;
  g["avg_wait"] = m.avg_wait;
  g["rj_proc_seconds"] = m.rj_proc_seconds;
  g["rv_charged_seconds"] = m.rv_charged_seconds;
  g["makespan"] = m.makespan;
  g["ticks"] = static_cast<double>(result.run.ticks);
  g["total_leases"] = static_cast<double>(result.run.total_leases);
  g["boot_failures"] = static_cast<double>(f.boot_failures);
  g["vm_crashes"] = static_cast<double>(f.vm_crashes);
  g["api_rejected_leases"] = static_cast<double>(f.api_rejected_leases);
  g["lease_retries"] = static_cast<double>(f.lease_retries);
  g["job_kills"] = static_cast<double>(f.job_kills);
  g["job_resubmissions"] = static_cast<double>(f.job_resubmissions);
  g["jobs_killed_final"] = static_cast<double>(f.jobs_killed_final);
  g["wasted_proc_seconds"] = f.wasted_proc_seconds;
  g["paid_wasted_seconds"] = f.paid_wasted_seconds;
  return g;
}

TEST(FailureGoldenTrace, FailureEnabledPortfolioOnKthSp2) {
  // The Figure-5 trace under an unreliable cloud: 5% boot failures, a 12 h
  // MTBF, and short hourly-ish API outages, with the selector in fixed-count
  // budget mode so the run is machine-independent. Invariants on, abort
  // mode: the golden run itself re-proves the failure invariants every time.
  const workload::Trace trace =
      workload::TraceGenerator(workload::kth_sp2_like(0.3)).generate(7).cleaned(64);
  ASSERT_FALSE(trace.empty());
  engine::EngineConfig config = engine::paper_engine_config();
  config.failure.p_boot_fail = 0.05;
  config.failure.vm_mtbf_seconds = 12.0 * kSecondsPerHour;
  config.failure.api_outage_gap_seconds = 1.0 * kSecondsPerHour;
  config.failure.api_outage_duration_seconds = 240.0;
  config.failure.seed = 17;
  config.validation.check_invariants = true;
  config.validation.abort_on_violation = true;
  auto pconfig = engine::paper_portfolio_config(config);
  pconfig.selection_period_ticks = 8;
  pconfig.selector.budget_mode = core::BudgetMode::kFixedCount;
  pconfig.selector.fixed_count = 12;
  const engine::ScenarioResult result = engine::run_portfolio(
      config, trace, policy::Portfolio::paper_portfolio(), pconfig,
      engine::PredictorKind::kPerfect);
  // A golden snapshot of a failure-free run would be vacuous: insist the
  // scenario actually exercises every failure class before pinning it.
  EXPECT_GT(result.run.metrics.failures.boot_failures, 0u);
  EXPECT_GT(result.run.metrics.failures.vm_crashes, 0u);
  EXPECT_GT(result.run.metrics.failures.api_rejected_leases, 0u);
  golden::expect_matches_golden("failure_kth_sp2", collect(result));
}

}  // namespace
}  // namespace psched
