// Multi-tenant service mode (DESIGN.md §13): the fairness arbiter, the
// per-tenant seed streams, the service-level invariants, and the two
// equivalence proofs the mode rests on — a single tenant reproduces the
// standalone engine bit for bit, and N identical tenants each reproduce a
// standalone run at their quota share (which fails if crash-resubmission
// state bleeds across tenants).
#include "engine/tenant.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "obs/report.hpp"
#include "util/thread_pool.hpp"
#include "validate/invariant_checker.hpp"
#include "workload/generator.hpp"

namespace psched::engine {
namespace {

TenantDemand demand(std::size_t tenant, std::size_t floor, std::size_t want,
                    double weight = 1.0, bool over_budget = false) {
  TenantDemand d;
  d.tenant = tenant;
  d.weight = weight;
  d.floor_vms = floor;
  d.demand_vms = want;
  d.over_budget = over_budget;
  return d;
}

std::size_t sum(const std::vector<std::size_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::size_t{0});
}

TEST(ArbitrateCapacity, SplitsSymmetricHungryTenantsEqually) {
  const auto alloc =
      arbitrate_capacity({demand(0, 0, 100), demand(1, 0, 100)}, 64);
  EXPECT_EQ(alloc[0], 32u);
  EXPECT_EQ(alloc[1], 32u);
}

TEST(ArbitrateCapacity, AlwaysAllocatesTheWholeCap) {
  // Allowances are caps, not reservations: even with zero demand the whole
  // cap is handed out so mid-epoch arrivals can lease immediately.
  EXPECT_EQ(sum(arbitrate_capacity({demand(0, 0, 0), demand(1, 0, 0)}, 64)), 64u);
  EXPECT_EQ(sum(arbitrate_capacity({demand(0, 4, 4), demand(1, 0, 9)}, 64)), 64u);
  EXPECT_EQ(sum(arbitrate_capacity({demand(0, 0, 500, 3.0),
                                    demand(1, 2, 2, 1.0, true)},
                                   64)),
            64u);
}

TEST(ArbitrateCapacity, ProtectsLiveFleetsAsFloors) {
  // The arbiter never evicts: a tenant's allowance starts at its live fleet
  // even when another tenant is far hungrier.
  const auto alloc =
      arbitrate_capacity({demand(0, 10, 10), demand(1, 0, 100)}, 16);
  EXPECT_EQ(alloc[0], 10u);
  EXPECT_EQ(alloc[1], 6u);
}

TEST(ArbitrateCapacity, WeightsBiasTheFill) {
  const auto alloc = arbitrate_capacity(
      {demand(0, 0, 100, 2.0), demand(1, 0, 100, 1.0)}, 30);
  EXPECT_EQ(alloc[0], 20u);
  EXPECT_EQ(alloc[1], 10u);
}

TEST(ArbitrateCapacity, OverBudgetTenantsFillLast) {
  // An over-budget tenant keeps its floor but only grows from what in-budget
  // tenants left behind.
  const auto alloc = arbitrate_capacity(
      {demand(0, 0, 100, 1.0, /*over_budget=*/true), demand(1, 0, 100)}, 40);
  EXPECT_EQ(alloc[0], 0u);
  EXPECT_EQ(alloc[1], 40u);

  const auto with_floor = arbitrate_capacity(
      {demand(0, 5, 100, 1.0, /*over_budget=*/true), demand(1, 0, 20)}, 40);
  EXPECT_EQ(with_floor[0], 20u);  // floor 5, then the 15 tenant 1 left over
  EXPECT_EQ(with_floor[1], 20u);
}

TEST(ArbitrateCapacity, HeadroomSplitsByWeightAmongInBudgetTenants) {
  // Demands met, 12 spare: headroom goes to in-budget tenants by weight.
  const auto alloc = arbitrate_capacity({demand(0, 0, 4), demand(1, 0, 4)}, 20);
  EXPECT_EQ(alloc[0], 10u);
  EXPECT_EQ(alloc[1], 10u);
  // An over-budget tenant is excluded from the headroom hand-out.
  const auto skewed = arbitrate_capacity(
      {demand(0, 0, 4), demand(1, 0, 4, 1.0, /*over_budget=*/true)}, 20);
  EXPECT_EQ(skewed[0], 16u);
  EXPECT_EQ(skewed[1], 4u);
}

TEST(ArbitrateCapacity, TiesBreakTowardTheLowerTenantId) {
  const auto alloc =
      arbitrate_capacity({demand(0, 0, 100), demand(1, 0, 100)}, 7);
  EXPECT_EQ(alloc[0], 4u);
  EXPECT_EQ(alloc[1], 3u);
}

TEST(TenantSeedStreams, StableAndDecorrelated) {
  // Same (root, tenant) -> same seed; different tenant, root, or stream ->
  // different seed. Exact values are free to change; the relations are not.
  EXPECT_EQ(tenant_workload_seed(42, 0), tenant_workload_seed(42, 0));
  EXPECT_NE(tenant_workload_seed(42, 0), tenant_workload_seed(42, 1));
  EXPECT_NE(tenant_workload_seed(42, 0), tenant_workload_seed(43, 0));
  EXPECT_EQ(tenant_failure_seed(42, 3), tenant_failure_seed(42, 3));
  EXPECT_NE(tenant_failure_seed(42, 0), tenant_failure_seed(42, 1));
  EXPECT_NE(tenant_workload_seed(42, 0), tenant_failure_seed(42, 0));
}

// --- service-level invariants (record mode, direct hook calls) --------------

validate::InvariantChecker record_checker() {
  validate::ValidationConfig config;
  config.check_invariants = true;
  config.abort_on_violation = false;
  return validate::InvariantChecker(config, cloud::ProviderConfig{});
}

validate::TenantAllocation allocation(std::size_t tenant, std::size_t leased,
                                      std::size_t want, std::size_t granted,
                                      double weight = 1.0, bool over = false) {
  validate::TenantAllocation a;
  a.tenant = tenant;
  a.weight = weight;
  a.leased_vms = leased;
  a.demand_vms = want;
  a.allocated_vms = granted;
  a.over_budget = over;
  return a;
}

bool mentions(const std::vector<validate::Violation>& violations,
              const std::string& invariant) {
  for (const validate::Violation& v : violations)
    if (v.invariant == invariant) return true;
  return false;
}

TEST(TenantInvariants, CleanArbitrationAndRunEndPass) {
  validate::InvariantChecker checker = record_checker();
  checker.on_tenant_arbitration(
      {allocation(0, 4, 10, 8), allocation(1, 2, 30, 8)}, 16, 100.0);
  checker.on_tenant_run_end(0, 10, 9, 1, 200.0);
  EXPECT_GT(checker.checks_run(), 0u);
  EXPECT_EQ(checker.violation_count(), 0u);
}

TEST(TenantInvariants, GlobalCapOvershootIsCaught) {
  validate::InvariantChecker checker = record_checker();
  checker.on_tenant_arbitration(
      {allocation(0, 0, 10, 9), allocation(1, 0, 10, 8)}, 16, 100.0);
  EXPECT_TRUE(mentions(checker.violations(), "tenant.global-cap"));
}

TEST(TenantInvariants, AllocationBelowLiveFleetIsCaught) {
  // An allowance below the live fleet would force an eviction.
  validate::InvariantChecker checker = record_checker();
  checker.on_tenant_arbitration(
      {allocation(0, 6, 10, 4), allocation(1, 0, 4, 4)}, 16, 100.0);
  EXPECT_TRUE(mentions(checker.violations(), "tenant.global-cap"));
}

TEST(TenantInvariants, UnfairStarvationIsCaught) {
  // Tenant 0 hoards 9 of 10 VMs (quota 5) while in-budget tenant 1 sits at
  // 1 with unmet demand: the weighted max-min bound is violated.
  validate::InvariantChecker checker = record_checker();
  checker.on_tenant_arbitration(
      {allocation(0, 0, 10, 9), allocation(1, 0, 10, 1)}, 10, 100.0);
  EXPECT_TRUE(mentions(checker.violations(), "tenant.fairness"));
}

TEST(TenantInvariants, OverBudgetTenantForfeitsTheFairnessGuarantee) {
  // The same lopsided split is legal when the starved tenant is over budget.
  validate::InvariantChecker checker = record_checker();
  checker.on_tenant_arbitration({allocation(0, 0, 10, 9),
                                 allocation(1, 0, 10, 1, 1.0, /*over=*/true)},
                                10, 100.0);
  EXPECT_FALSE(mentions(checker.violations(), "tenant.fairness"));
}

TEST(TenantInvariants, ConservationMismatchIsCaught) {
  validate::InvariantChecker checker = record_checker();
  checker.on_tenant_run_end(2, /*submitted=*/10, /*finished=*/8, /*killed=*/1,
                            300.0);
  EXPECT_TRUE(mentions(checker.violations(), "tenant.conservation"));
}

// --- whole-experiment properties --------------------------------------------

workload::Trace small_trace(std::uint64_t seed, double days, int max_procs) {
  return workload::TraceGenerator(workload::kth_sp2_like(days))
      .generate(seed)
      .cleaned(max_procs);
}

/// Serialized run report: a whole-system fingerprint for bit-identity checks
/// (metrics, per-tenant rows, epoch/arbitration counts, invariant tallies).
std::string report_fingerprint(const MultiTenantConfig& config,
                               util::ThreadPool* pool) {
  MultiTenantExperiment experiment(config, pool);
  const MultiTenantResult result = experiment.run();
  EXPECT_TRUE(result.invariant_violations.empty());
  return obs::run_report_json(multi_tenant_report_inputs(result, config),
                              nullptr);
}

TEST(MultiTenantDeterminism, BitIdenticalAcrossEvalThreads) {
  // N=8 tenants under the portfolio scheduler in fixed-count budget mode:
  // the run report must be byte-identical with no pool and with pools of 2
  // and 4 workers (which host both tenant waves and nested selector waves).
  constexpr std::size_t kTenants = 8;
  std::vector<workload::Trace> traces;
  traces.reserve(kTenants);
  for (std::size_t i = 0; i < kTenants; ++i)
    traces.push_back(small_trace(tenant_workload_seed(11, i), 0.2, 32));

  MultiTenantConfig config;
  config.engine = paper_engine_config();
  config.engine.validation.check_invariants = true;
  config.engine.validation.abort_on_violation = false;
  const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  config.portfolio = &portfolio;
  config.scheduler = paper_portfolio_config(config.engine);
  config.scheduler.selection_period_ticks = 16;
  config.scheduler.selector.budget_mode = core::BudgetMode::kFixedCount;
  config.scheduler.selector.fixed_count = 8;
  config.scheduler.selector.eval_threads = 4;
  config.arbitration_period_ticks = 2;
  for (std::size_t i = 0; i < kTenants; ++i) {
    TenantConfig tenant;
    tenant.trace = &traces[i];
    config.tenants.push_back(tenant);
  }

  const std::string serial = report_fingerprint(config, nullptr);
  EXPECT_NE(serial.find("psched-tenants/v1"), std::string::npos);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(serial, report_fingerprint(config, &pool))
        << "diverged at pool width " << threads;
  }
}

TEST(MultiTenantEquivalence, SingleTenantMatchesStandalonePortfolio) {
  // One tenant at weight 1 owns the whole cap: every arbitration grants it
  // the full allowance, so the service loop must reproduce the standalone
  // engine bit for bit (the tenants-off no-op, proven at the engine level).
  const workload::Trace trace = small_trace(7, 0.25, 64);
  ASSERT_FALSE(trace.empty());
  engine::EngineConfig config = paper_engine_config();
  config.validation.check_invariants = true;
  config.validation.abort_on_violation = false;
  auto pconfig = paper_portfolio_config(config);
  pconfig.selection_period_ticks = 16;
  pconfig.selector.budget_mode = core::BudgetMode::kFixedCount;
  pconfig.selector.fixed_count = 8;
  const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  const ScenarioResult standalone =
      run_portfolio(config, trace, portfolio, pconfig, PredictorKind::kPerfect);

  MultiTenantConfig mt;
  mt.engine = config;
  mt.portfolio = &portfolio;
  mt.scheduler = pconfig;
  TenantConfig tenant;
  tenant.trace = &trace;
  mt.tenants.push_back(tenant);
  const MultiTenantResult result = MultiTenantExperiment(mt).run();

  EXPECT_TRUE(result.invariant_violations.empty());
  const RunResult& got = result.tenants[0].scenario.run;
  const RunResult& want = standalone.run;
  EXPECT_EQ(got.metrics.jobs, want.metrics.jobs);
  EXPECT_DOUBLE_EQ(got.metrics.avg_bounded_slowdown,
                   want.metrics.avg_bounded_slowdown);
  EXPECT_DOUBLE_EQ(got.metrics.avg_wait, want.metrics.avg_wait);
  EXPECT_DOUBLE_EQ(got.metrics.rv_charged_seconds, want.metrics.rv_charged_seconds);
  EXPECT_DOUBLE_EQ(got.metrics.rj_proc_seconds, want.metrics.rj_proc_seconds);
  EXPECT_DOUBLE_EQ(got.metrics.makespan, want.metrics.makespan);
  EXPECT_EQ(got.ticks, want.ticks);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.total_leases, want.total_leases);
  EXPECT_EQ(result.tenants[0].scenario.portfolio.invocations,
            standalone.portfolio.invocations);
}

TEST(MultiTenantEquivalence, IdenticalTenantsMatchStandaloneUnderCrashes) {
  // THE cross-tenant state-bleed regression. Two tenants run the SAME trace
  // with the SAME failure seed over twice the standalone cap: symmetric
  // demands make the arbiter grant each tenant exactly the standalone cap,
  // so each must reproduce the standalone crash/resubmit run bit for bit.
  // When kill counts lived in one map shared by every tenant, the two
  // tenants' colliding job ids burned each other's resubmission budgets and
  // jobs died final too early. This test fails on any such sharing and pins
  // that each engine owns its own counts.
  const workload::Trace trace = small_trace(5, 0.3, 16);
  ASSERT_FALSE(trace.empty());
  engine::EngineConfig standalone_config = paper_engine_config();
  standalone_config.provider.max_vms = 32;
  standalone_config.failure.vm_mtbf_seconds = 2.0 * kSecondsPerHour;
  standalone_config.failure.seed = 77;
  standalone_config.resilience.max_resubmits = 1;
  standalone_config.validation.check_invariants = true;
  standalone_config.validation.abort_on_violation = false;
  const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  const policy::PolicyTriple* triple = portfolio.find("ODA-FCFS-FirstFit");
  ASSERT_NE(triple, nullptr);
  const ScenarioResult standalone = run_single_policy(
      standalone_config, trace, *triple, PredictorKind::kPerfect);
  // A crash-free scenario would prove nothing: insist the resubmission
  // budget is both used and exhausted.
  ASSERT_GT(standalone.run.metrics.failures.job_resubmissions, 0u);
  ASSERT_GT(standalone.run.metrics.failures.jobs_killed_final, 0u);

  MultiTenantConfig mt;
  mt.engine = standalone_config;
  mt.engine.provider.max_vms = 64;  // 2x: each tenant's share is 32
  mt.portfolio = nullptr;
  mt.policy = *triple;
  for (std::size_t i = 0; i < 2; ++i) {
    TenantConfig tenant;
    tenant.failure = standalone_config.failure;  // same seed on purpose
    tenant.trace = &trace;
    mt.tenants.push_back(tenant);
  }
  const MultiTenantResult result = MultiTenantExperiment(mt).run();

  EXPECT_TRUE(result.invariant_violations.empty());
  for (const TenantResult& tr : result.tenants) {
    const metrics::RunMetrics& got = tr.scenario.run.metrics;
    const metrics::RunMetrics& want = standalone.run.metrics;
    EXPECT_EQ(got.jobs, want.jobs) << tr.name;
    EXPECT_EQ(got.failures.job_kills, want.failures.job_kills) << tr.name;
    EXPECT_EQ(got.failures.job_resubmissions, want.failures.job_resubmissions)
        << tr.name;
    EXPECT_EQ(got.failures.jobs_killed_final, want.failures.jobs_killed_final)
        << tr.name;
    EXPECT_DOUBLE_EQ(got.avg_bounded_slowdown, want.avg_bounded_slowdown)
        << tr.name;
    EXPECT_DOUBLE_EQ(got.rv_charged_seconds, want.rv_charged_seconds) << tr.name;
    EXPECT_DOUBLE_EQ(got.makespan, want.makespan) << tr.name;
  }
}

TEST(MultiTenant, BudgetExhaustionDemotesWithoutEviction) {
  // A tenant with a tiny VM-hour budget ends the run flagged over-budget;
  // the other tenant stays in budget, and the run stays violation-free (the
  // fairness invariant exempts over-budget tenants by design).
  const workload::Trace trace_a = small_trace(21, 0.2, 16);
  const workload::Trace trace_b = small_trace(22, 0.2, 16);
  ASSERT_FALSE(trace_a.empty());
  ASSERT_FALSE(trace_b.empty());
  MultiTenantConfig mt;
  mt.engine = paper_engine_config();
  mt.engine.provider.max_vms = 32;
  mt.engine.validation.check_invariants = true;
  mt.engine.validation.abort_on_violation = false;
  const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  const policy::PolicyTriple* triple = portfolio.find("ODA-FCFS-FirstFit");
  ASSERT_NE(triple, nullptr);
  mt.policy = *triple;
  TenantConfig capped;
  capped.budget_vm_hours = 1.0;
  capped.trace = &trace_a;
  TenantConfig open;
  open.trace = &trace_b;
  mt.tenants.push_back(capped);
  mt.tenants.push_back(open);
  const MultiTenantResult result = MultiTenantExperiment(mt).run();

  EXPECT_TRUE(result.invariant_violations.empty());
  EXPECT_TRUE(result.tenants[0].over_budget);
  EXPECT_GT(result.tenants[0].charged_hours, 1.0);
  EXPECT_FALSE(result.tenants[1].over_budget);
  EXPECT_EQ(result.metrics.jobs, trace_a.size() + trace_b.size());
}

}  // namespace
}  // namespace psched::engine
