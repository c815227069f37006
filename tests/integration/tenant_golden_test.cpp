// Multi-tenant golden-trace regression (DESIGN.md §13): one fixed service
// scenario with everything on at once — three weighted tenants (one
// budget-capped) over shared capacity, per-tenant failure seeds, and a
// mixed-tier pricing market — pinned against a committed metric snapshot.
// Any change to the arbiter, the epoch loop, the per-tenant seed streams, or
// their interaction with the failure/pricing layers moves these numbers and
// fails here first.
// Regenerate: PSCHED_UPDATE_GOLDEN=1 ./tests/tenant_tests (golden_codec.hpp).
//
// The suite also re-checks the *pre-tenant* fig5 golden through the plain
// single-tenant entry point: tenants-off must reproduce the committed
// paper-scenario numbers bit for bit (the no-op guarantee, proven against
// the repository's own history rather than a same-binary twin run).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/tenant.hpp"
#include "golden_codec.hpp"
#include "workload/generator.hpp"

namespace psched {
namespace {

using golden::Golden;

Golden collect(const engine::MultiTenantResult& result) {
  const metrics::RunMetrics& m = result.metrics;
  Golden g;
  g["jobs"] = static_cast<double>(m.jobs);
  g["avg_bounded_slowdown"] = m.avg_bounded_slowdown;
  g["avg_wait"] = m.avg_wait;
  g["rj_proc_seconds"] = m.rj_proc_seconds;
  g["rv_charged_seconds"] = m.rv_charged_seconds;
  g["makespan"] = m.makespan;
  g["total_leases"] = static_cast<double>(result.total_leases);
  g["epochs"] = static_cast<double>(result.epochs);
  g["arbitrations"] = static_cast<double>(result.arbitrations);
  g["peak_leased"] = static_cast<double>(result.peak_leased);
  g["job_kills"] = static_cast<double>(m.failures.job_kills);
  g["job_resubmissions"] = static_cast<double>(m.failures.job_resubmissions);
  g["jobs_killed_final"] = static_cast<double>(m.failures.jobs_killed_final);
  g["spot_leases"] = static_cast<double>(m.pricing.spot_leases);
  g["spot_revocations"] = static_cast<double>(m.pricing.spot_revocations);
  g["total_spend_dollars"] = m.pricing.total_spend_dollars();
  if (result.is_portfolio)
    g["selection_invocations"] = static_cast<double>(result.portfolio.invocations);
  for (std::size_t i = 0; i < result.tenants.size(); ++i) {
    const engine::TenantResult& t = result.tenants[i];
    const std::string prefix = "tenant" + std::to_string(i) + "_";
    g[prefix + "jobs"] = static_cast<double>(t.scenario.run.metrics.jobs);
    g[prefix + "bsd"] = t.scenario.run.metrics.avg_bounded_slowdown;
    g[prefix + "charged_hours"] = t.charged_hours;
    g[prefix + "killed"] =
        static_cast<double>(t.scenario.run.metrics.failures.jobs_killed_final);
    g[prefix + "min_alloc"] = static_cast<double>(t.min_allocation);
    g[prefix + "max_alloc"] = static_cast<double>(t.max_allocation);
    g[prefix + "over_budget"] = t.over_budget ? 1.0 : 0.0;
  }
  return g;
}

/// The Figure-5 trace (same generator call as golden_test.cpp).
workload::Trace fig5_trace() {
  return workload::TraceGenerator(workload::kth_sp2_like(0.3)).generate(7).cleaned(64);
}

TEST(TenantGoldenTrace, MixedFailurePricingTenantsOnKthSp2) {
  // Three weighted tenants (2:1:1, the last one budget-capped) over a
  // 64-VM mixed-tier market with VM crashes: each tenant gets its own
  // generated workload (the "tenant-workload" stream) and its own failure
  // seed (the "tenant-failure" stream), scheduled by the tier-aware
  // portfolio in fixed-count budget mode. Invariants on, record mode: the
  // golden run re-proves the arbitration invariants every time it executes.
  const std::vector<double> weights = {2.0, 1.0, 1.0};
  const std::size_t cap = 64;
  const std::vector<double> quota = engine::quota_shares(cap, weights);
  std::vector<workload::Trace> traces;
  for (std::size_t i = 0; i < 3; ++i) {
    traces.push_back(workload::TraceGenerator(workload::kth_sp2_like(0.25))
                         .generate(engine::tenant_workload_seed(13, i))
                         .cleaned(static_cast<int>(quota[i])));
    ASSERT_FALSE(traces.back().empty());
  }

  engine::MultiTenantConfig mt;
  mt.engine = engine::paper_engine_config();
  mt.engine.provider.max_vms = cap;
  mt.engine.pricing.families.push_back(cloud::VmFamily{"small", 0.5, 30.0, 16});
  mt.engine.pricing.families.push_back(cloud::VmFamily{"std", 1.0, 120.0, 0});
  mt.engine.pricing.spot_price_fraction = 0.3;
  mt.engine.pricing.spot_mtbf_seconds = 6.0 * kSecondsPerHour;
  mt.engine.pricing.spot_warning_seconds = 120.0;
  mt.engine.pricing.seed = 29;
  mt.engine.validation.check_invariants = true;
  mt.engine.validation.abort_on_violation = false;
  const policy::Portfolio portfolio = policy::Portfolio::pricing_portfolio();
  mt.portfolio = &portfolio;
  mt.scheduler = engine::paper_portfolio_config(mt.engine);
  mt.scheduler.selection_period_ticks = 16;
  mt.scheduler.selector.budget_mode = core::BudgetMode::kFixedCount;
  mt.scheduler.selector.fixed_count = 12;
  mt.arbitration_period_ticks = 2;
  for (std::size_t i = 0; i < 3; ++i) {
    engine::TenantConfig tenant;
    tenant.weight = weights[i];
    tenant.failure.vm_mtbf_seconds = 3.0 * kSecondsPerHour;
    tenant.failure.seed = engine::tenant_failure_seed(13, i);
    tenant.trace = &traces[i];
    mt.tenants.push_back(tenant);
  }
  mt.tenants[2].budget_vm_hours = 6.0;

  const engine::MultiTenantResult result = engine::MultiTenantExperiment(mt).run();
  for (const validate::Violation& v : result.invariant_violations)
    ADD_FAILURE() << v.invariant << " at t=" << v.when << ": " << v.detail;

  // A golden snapshot of a scenario that exercises none of the interacting
  // layers would be vacuous: insist crashes, spot trades, and the budget
  // demotion all actually happened before pinning.
  EXPECT_GT(result.metrics.failures.job_kills, 0u);
  EXPECT_GT(result.metrics.pricing.spot_leases, 0u);
  EXPECT_TRUE(result.tenants[2].over_budget);

  golden::expect_matches_golden("tenant_mixed_kth_sp2", collect(result));
}

TEST(TenantGoldenTrace, TenantsOffReproducesTheCommittedFig5Golden) {
  // The exact fig5_kth_sp2 scenario through the plain single-tenant entry
  // point: every metric pinned by the pre-tenant golden must still match,
  // so the multi-tenant refactor (start/advance/finish split, the
  // planning-cap snapshot) is a proven no-op when tenants are off. Compares against the *committed* snapshot, so this
  // test never regenerates it (golden_tests owns it).
  if (std::getenv("PSCHED_UPDATE_GOLDEN") != nullptr)
    GTEST_SKIP() << "fig5_kth_sp2 is owned by golden_tests";
  const workload::Trace trace = fig5_trace();
  ASSERT_FALSE(trace.empty());
  const engine::EngineConfig config = engine::paper_engine_config();
  const auto pconfig = engine::paper_portfolio_config(config);
  const engine::ScenarioResult result = engine::run_portfolio(
      config, trace, policy::Portfolio::paper_portfolio(), pconfig,
      engine::PredictorKind::kPerfect);

  const metrics::RunMetrics& m = result.run.metrics;
  Golden actual;
  actual["jobs"] = static_cast<double>(m.jobs);
  actual["avg_bounded_slowdown"] = m.avg_bounded_slowdown;
  actual["max_bounded_slowdown"] = m.max_bounded_slowdown;
  actual["avg_wait"] = m.avg_wait;
  actual["rj_proc_seconds"] = m.rj_proc_seconds;
  actual["rv_charged_seconds"] = m.rv_charged_seconds;
  actual["makespan"] = m.makespan;
  actual["ticks"] = static_cast<double>(result.run.ticks);
  actual["total_leases"] = static_cast<double>(result.run.total_leases);
  actual["selection_invocations"] =
      static_cast<double>(result.portfolio.invocations);

  golden::expect_contains("tenants-off vs the committed fig5_kth_sp2",
                          golden::read_golden("fig5_kth_sp2"), actual);
}

}  // namespace
}  // namespace psched
