// Multi-tenant service mode (DESIGN.md §13): the fairness arbiter, the
// per-tenant seed streams, the service-level invariants, and the two
// equivalence proofs the mode rests on — a single tenant reproduces the
// standalone engine bit for bit, and N identical tenants each reproduce a
// standalone run at their quota share (which fails if crash-resubmission
// state bleeds across tenants). A loop that steps every epoch checks that
// skipping idle epochs changes no result.
#include "engine/tenant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "expect_same_metrics.hpp"
#include "obs/report.hpp"
#include "util/rng.hpp"
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

// --- idle-epoch skipping is exact (DESIGN.md §13.2) -------------------------

/// The epoch loop with nothing skipped, through the public engine API: every
/// epoch advances every active tenant and arbitrates afresh. Fixed-policy
/// runs only; tenant-cap-overshoot is injected as the experiment injects it.
/// `idle_epochs` counts the epochs in which no tenant had an event due.
MultiTenantResult stepped_run(const MultiTenantConfig& config,
                              std::uint64_t& idle_epochs) {
  const std::size_t n = config.tenants.size();
  const std::size_t cap = config.engine.provider.max_vms;
  std::vector<std::unique_ptr<core::SinglePolicyScheduler>> schedulers;
  std::vector<std::unique_ptr<predict::RuntimePredictor>> predictors;
  std::vector<std::unique_ptr<ClusterSimulation>> sims;
  for (const TenantConfig& t : config.tenants) {
    EngineConfig ec = config.engine;
    ec.failure = t.failure;
    schedulers.push_back(std::make_unique<core::SinglePolicyScheduler>(config.policy));
    predictors.push_back(make_predictor(config.predictor));
    sims.push_back(std::make_unique<ClusterSimulation>(ec, *t.trace, *schedulers.back(),
                                                       *predictors.back()));
  }
  std::unique_ptr<validate::InvariantChecker> checker;
  if (config.engine.validation.check_invariants) {
    cloud::ProviderConfig intended = config.engine.provider;
    intended.inject_fault = validate::FaultInjection::kNone;
    checker = std::make_unique<validate::InvariantChecker>(config.engine.validation,
                                                           intended);
  }

  MultiTenantResult result;
  result.tenants.resize(n);
  std::vector<double> alloc_sums(n, 0.0);
  const auto arbitrate = [&](SimTime now) {
    std::vector<TenantDemand> demands;
    std::size_t fleet = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const ClusterSimulation::LoadView view = sims[i]->load_view();
      const TenantConfig& t = config.tenants[i];
      demands.push_back(demand(i, view.leased_vms, view.leased_vms + view.queued_procs,
                               t.weight,
                               t.budget_vm_hours > 0.0 &&
                                   sims[i]->charged_hours_so_far() >= t.budget_vm_hours));
      fleet += view.leased_vms;
    }
    std::vector<std::size_t> alloc = arbitrate_capacity(demands, std::max(cap, fleet));
    if (config.engine.validation.inject_fault ==
        validate::FaultInjection::kTenantCapOvershoot)
      alloc[0] += 1;
    if (checker) {
      std::vector<validate::TenantAllocation> decision;
      for (const TenantDemand& d : demands)
        decision.push_back(allocation(d.tenant, d.floor_vms, d.demand_vms,
                                      alloc[d.tenant], d.weight, d.over_budget));
      checker->on_tenant_arbitration(decision, cap, now);
    }
    for (std::size_t i = 0; i < n; ++i) {
      sims[i]->set_vm_allowance(alloc[i]);
      TenantResult& tr = result.tenants[i];
      tr.min_allocation =
          result.arbitrations == 0 ? alloc[i] : std::min(tr.min_allocation, alloc[i]);
      tr.max_allocation = std::max(tr.max_allocation, alloc[i]);
      alloc_sums[i] += static_cast<double>(alloc[i]);
    }
    result.peak_leased = std::max(result.peak_leased, fleet);
    ++result.arbitrations;
  };

  for (const auto& sim : sims) sim->start();
  arbitrate(0.0);
  const SimDuration epoch =
      config.engine.schedule_period * static_cast<double>(config.arbitration_period_ticks);
  const auto any_active = [&] {
    return std::any_of(sims.begin(), sims.end(), [](const auto& sim) { return sim->active(); });
  };
  while (any_active()) {
    ++result.epochs;
    const SimTime horizon = static_cast<double>(result.epochs) * epoch;
    if (std::all_of(sims.begin(), sims.end(), [&](const auto& sim) {
          return sim->next_event_time() > horizon;
        }))
      ++idle_epochs;
    for (const auto& sim : sims)
      if (sim->active()) sim->advance_until(horizon);
    arbitrate(horizon);
  }

  SimTime end_time = 0.0;
  for (const auto& sim : sims) end_time = std::max(end_time, sim->now());
  std::vector<metrics::RunMetrics> tenant_metrics;
  for (std::size_t i = 0; i < n; ++i) {
    const TenantConfig& t = config.tenants[i];
    TenantResult& tr = result.tenants[i];
    tr.name = "tenant-" + std::to_string(i);
    tr.weight = t.weight;
    tr.budget_vm_hours = t.budget_vm_hours;
    tr.scenario.run = sims[i]->finish();
    const metrics::RunMetrics& m = tr.scenario.run.metrics;
    tr.charged_hours = m.charged_hours();
    tr.over_budget = t.budget_vm_hours > 0.0 && tr.charged_hours >= t.budget_vm_hours;
    tr.mean_allocation = alloc_sums[i] / static_cast<double>(result.arbitrations);
    if (checker)
      checker->on_tenant_run_end(i, t.trace->size(), m.jobs, m.failures.jobs_killed_final,
                                 end_time);
    tenant_metrics.push_back(m);
    result.ticks += tr.scenario.run.ticks;
    result.events += tr.scenario.run.events;
    result.total_leases += tr.scenario.run.total_leases;
    result.invariant_checks += tr.scenario.run.invariant_checks;
    for (const validate::Violation& v : tr.scenario.run.invariant_violations)
      result.invariant_violations.push_back(v);
  }
  result.metrics = metrics::aggregate(tenant_metrics);
  if (checker) {
    result.invariant_checks += checker->checks_run();
    for (const validate::Violation& v : checker->violations())
      result.invariant_violations.push_back(v);
  }
  result.trace_name = "tenants[" + std::to_string(n) + "] " + config.tenants.front().trace->name();
  result.scheduler_name = result.tenants.front().scenario.run.scheduler_name;
  return result;
}

void expect_same_violations(const std::vector<validate::Violation>& got,
                            const std::vector<validate::Violation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].invariant, want[k].invariant) << "violation " << k;
    EXPECT_EQ(got[k].detail, want[k].detail) << "violation " << k;
    EXPECT_EQ(got[k].when, want[k].when) << "violation " << k;
  }
}

/// Every field of the two results, doubles compared with ==.
void expect_same_result(const MultiTenantResult& got, const MultiTenantResult& want) {
  EXPECT_EQ(got.trace_name, want.trace_name);
  EXPECT_EQ(got.scheduler_name, want.scheduler_name);
  expect_same_metrics(got.metrics, want.metrics);
  EXPECT_EQ(got.ticks, want.ticks);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.total_leases, want.total_leases);
  EXPECT_EQ(got.epochs, want.epochs);
  EXPECT_EQ(got.arbitrations, want.arbitrations);
  EXPECT_EQ(got.peak_leased, want.peak_leased);
  EXPECT_EQ(got.is_portfolio, want.is_portfolio);
  EXPECT_EQ(got.portfolio.invocations, want.portfolio.invocations);
  EXPECT_EQ(got.portfolio.total_selection_cost_ms, want.portfolio.total_selection_cost_ms);
  EXPECT_EQ(got.portfolio.mean_simulated_per_invocation,
            want.portfolio.mean_simulated_per_invocation);
  EXPECT_EQ(got.portfolio.chosen_counts, want.portfolio.chosen_counts);
  EXPECT_EQ(got.invariant_checks, want.invariant_checks);
  expect_same_violations(got.invariant_violations, want.invariant_violations);
  ASSERT_EQ(got.tenants.size(), want.tenants.size());
  for (std::size_t i = 0; i < got.tenants.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    const TenantResult& a = got.tenants[i];
    const TenantResult& b = want.tenants[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.weight, b.weight);
    EXPECT_EQ(a.budget_vm_hours, b.budget_vm_hours);
    EXPECT_EQ(a.over_budget, b.over_budget);
    EXPECT_EQ(a.charged_hours, b.charged_hours);
    EXPECT_EQ(a.min_allocation, b.min_allocation);
    EXPECT_EQ(a.max_allocation, b.max_allocation);
    EXPECT_EQ(a.mean_allocation, b.mean_allocation);
    EXPECT_EQ(a.scenario.is_portfolio, b.scenario.is_portfolio);
    const RunResult& x = a.scenario.run;
    const RunResult& y = b.scenario.run;
    EXPECT_EQ(x.trace_name, y.trace_name);
    EXPECT_EQ(x.scheduler_name, y.scheduler_name);
    expect_same_metrics(x.metrics, y.metrics);
    EXPECT_EQ(x.ticks, y.ticks);
    EXPECT_EQ(x.events, y.events);
    EXPECT_EQ(x.total_leases, y.total_leases);
    EXPECT_EQ(x.invariant_checks, y.invariant_checks);
    expect_same_violations(x.invariant_violations, y.invariant_violations);
  }
}

TEST(MultiTenantEpochSkip, MatchesAnOracleThatStepsEveryEpoch) {
  // Random service mixes: 2-4 weighted tenants, some on a VM-hour budget,
  // arbitrating every 1-4 ticks on a 20 s or a 13.7 s period (whose
  // multiples are inexact in binary, so ticks land on or an ulp beside a
  // horizon), with crashes and boot failures, a spot market, the checker
  // and tenant-cap-overshoot each on or off. Crash and revocation times
  // outlive the trace, so every mix ends in a tail of idle epochs.
  const policy::Portfolio paper = policy::Portfolio::paper_portfolio();
  const policy::Portfolio pricing = policy::Portfolio::pricing_portfolio();
  std::uint64_t mixes_with_idle_epochs = 0;
  std::uint64_t checked_mixes_with_idle_epochs = 0;
  std::uint64_t period_13_7_mixes = 0;
  std::uint64_t overshoot_mixes = 0;
  for (std::uint64_t seed = 1; seed <= 56; ++seed) {
    SCOPED_TRACE("mix seed " + std::to_string(seed));
    util::Rng rng(seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 4));
    MultiTenantConfig config;
    config.engine = paper_engine_config();
    config.engine.provider.max_vms = 48;
    if (rng.bernoulli(0.5)) {
      config.engine.schedule_period = 13.7;
      ++period_13_7_mixes;
    }
    config.arbitration_period_ticks = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const bool failures = rng.bernoulli(0.6);
    const bool spot = rng.bernoulli(0.4);
    if (spot) {
      config.engine.pricing.families.push_back(cloud::VmFamily{"small", 0.5, 30.0, 0});
      config.engine.pricing.families.push_back(cloud::VmFamily{"std", 1.0, 120.0, 0});
      config.engine.pricing.spot_price_fraction = 0.3;
      config.engine.pricing.spot_mtbf_seconds = rng.uniform(1.0, 12.0) * kSecondsPerHour;
      config.engine.pricing.seed = seed;
    }
    const policy::Portfolio& portfolio = spot ? pricing : paper;
    config.policy = portfolio.policies()[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(portfolio.size()) - 1))];
    if (rng.bernoulli(0.5)) {
      config.engine.validation.check_invariants = true;
      config.engine.validation.abort_on_violation = false;
      if (rng.bernoulli(0.3)) {
        config.engine.validation.inject_fault = validate::FaultInjection::kTenantCapOvershoot;
        ++overshoot_mixes;
      }
    }
    std::vector<double> weights;
    for (std::size_t i = 0; i < n; ++i) weights.push_back(rng.uniform(0.5, 3.0));
    const double total_weight = std::accumulate(weights.begin(), weights.end(), 0.0);
    std::vector<workload::Trace> traces;
    traces.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto floor = static_cast<int>(48.0 * weights[i] / total_weight);
      traces.push_back(small_trace(tenant_workload_seed(seed, i), rng.uniform(0.05, 0.15),
                                   std::max(floor, 1)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      TenantConfig tenant;
      tenant.weight = weights[i];
      if (rng.bernoulli(0.3)) tenant.budget_vm_hours = rng.uniform(0.5, 6.0);
      if (failures) {
        tenant.failure.vm_mtbf_seconds = rng.uniform(1.0, 24.0) * kSecondsPerHour;
        tenant.failure.p_boot_fail = 0.05;
        tenant.failure.seed = tenant_failure_seed(seed, i);
      }
      tenant.trace = &traces[i];
      config.tenants.push_back(tenant);
    }

    std::uint64_t idle_epochs = 0;
    const MultiTenantResult want = stepped_run(config, idle_epochs);
    const MultiTenantResult got = MultiTenantExperiment(config).run();
    expect_same_result(got, want);
    if (idle_epochs > 0) {
      ++mixes_with_idle_epochs;
      if (config.engine.validation.check_invariants) ++checked_mixes_with_idle_epochs;
    }
  }
  // The mixes must exercise the skip, with and without the checker.
  EXPECT_GE(mixes_with_idle_epochs, 50u);
  EXPECT_GT(checked_mixes_with_idle_epochs, 10u);
  EXPECT_GT(period_13_7_mixes, 10u);
  EXPECT_GT(overshoot_mixes, 3u);
}

}  // namespace
}  // namespace psched::engine
