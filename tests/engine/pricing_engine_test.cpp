// Engine-level pricing coverage: the pricing-off no-op guarantee (and that
// pricing off is the one-family degenerate market), bit-exact
// determinism of pricing-enabled portfolio runs across eval-thread counts,
// spot revocations flowing through the PR 5 kill/resubmit machinery, and the
// up-front reserved-commitment bill — all with the invariant checker attached
// in abort mode so a passing test doubles as an invariant proof.
#include <gtest/gtest.h>

#include <vector>

#include "engine/cluster_sim.hpp"
#include "engine/experiment.hpp"
#include "expect_same_metrics.hpp"

namespace psched::engine {
namespace {

const policy::Portfolio& pricing_portfolio() {
  static const policy::Portfolio p = policy::Portfolio::pricing_portfolio();
  return p;
}

policy::PolicyTriple policy_by_name(const std::string& name) {
  const policy::PolicyTriple* t = pricing_portfolio().find(name);
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

std::vector<workload::Job> mixed_jobs(std::size_t count = 12) {
  std::vector<workload::Job> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back(make_job(static_cast<JobId>(i), 300.0 * static_cast<double>(i),
                            600.0 + 150.0 * static_cast<double>(i % 5),
                            1 + static_cast<int>(i % 3),
                            static_cast<UserId>(i % 2)));
  }
  return jobs;
}

EngineConfig checked_config() {
  EngineConfig config = paper_engine_config();
  config.validation.check_invariants = true;
  config.validation.abort_on_violation = true;
  return config;
}

/// A mixed-tier market: two families, a discounted revocable spot tier, a
/// moving price (schedule step + seeded walk), and a small reserved
/// commitment — every pricing feature active at once.
cloud::PricingConfig mixed_market() {
  cloud::PricingConfig pricing;
  pricing.families.push_back(cloud::VmFamily{"small", 0.5, 30.0, 16});
  pricing.families.push_back(cloud::VmFamily{"std", 1.0, 120.0, 0});
  pricing.spot_price_fraction = 0.3;
  pricing.spot_mtbf_seconds = 2.0 * kSecondsPerHour;
  pricing.spot_warning_seconds = 120.0;
  pricing.schedule = {{0.0, 1.0}, {4000.0, 1.4}};
  pricing.walk_step = 0.1;
  pricing.walk_epoch_seconds = 1800.0;
  pricing.reserved_count = 2;
  pricing.reserved_term_seconds = 24.0 * kSecondsPerHour;
  pricing.seed = 77;
  return pricing;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  expect_same_metrics(a.metrics, b.metrics);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.total_leases, b.total_leases);
}

// ---------------------------------------------------------------------------
// The no-op guarantee: an all-default PricingConfig (even with a non-default
// seed) must leave every output bit-identical — the model is never built.

TEST(PricingEngine, DefaultConfigIsBitIdenticalSinglePolicy) {
  const workload::Trace trace("t", 64, mixed_jobs());
  const EngineConfig base = checked_config();
  EngineConfig seeded = base;
  seeded.pricing.seed = 0xdeadbeef;  // no feature knob on: must not matter
  ASSERT_FALSE(seeded.pricing.enabled());

  const RunResult a =
      run_single_policy(base, trace, policy_by_name("ODA-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  const RunResult b =
      run_single_policy(seeded, trace, policy_by_name("ODA-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  expect_identical(a, b);
  EXPECT_FALSE(a.metrics.pricing.any());
  EXPECT_FALSE(b.metrics.pricing.any());
  // Gated pricing checks must not change the check count when off.
  EXPECT_EQ(a.invariant_checks, b.invariant_checks);
}

TEST(PricingEngine, TierAwarePoliciesDegradeToOdaWithPricingOff) {
  // With pricing off the tier-aware policies plan exactly like ODA, so the
  // whole run must match bit for bit.
  const workload::Trace trace("t", 64, mixed_jobs());
  const EngineConfig config = checked_config();
  const RunResult oda =
      run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  for (const char* name : {"CPF-FCFS-FirstFit", "SPT-FCFS-FirstFit",
                           "RSB-FCFS-FirstFit", "PRT-FCFS-FirstFit"}) {
    const RunResult tiered =
        run_single_policy(config, trace, policy_by_name(name),
                          PredictorKind::kPerfect).run;
    expect_identical(oda, tiered);
  }
}

TEST(PricingEngine, OneFamilyMarketIsThePricingOffRun) {
  // Pricing off is the degenerate market: one on-demand family at price 1.0
  // with the provider's boot delay and no cap. The engine and the online
  // simulator have a single provisioning path that relies on this, so a
  // paper-portfolio run in that market must match the pricing-off run bit
  // for bit, and its spend must equal the charged hours.
  const workload::Trace trace("t", 64, mixed_jobs());
  const policy::Portfolio paper = policy::Portfolio::paper_portfolio();
  const EngineConfig off = checked_config();
  EngineConfig one_family = off;
  one_family.pricing.families.push_back(
      cloud::VmFamily{"std", 1.0, off.provider.boot_delay, 0});
  ASSERT_TRUE(one_family.pricing.enabled());

  const auto run = [&](const EngineConfig& config) {
    return run_portfolio(config, trace, paper, paper_portfolio_config(config),
                         PredictorKind::kPerfect);
  };
  const ScenarioResult a = run(off);
  const ScenarioResult b = run(one_family);
  const metrics::RunMetrics& mb = b.run.metrics;
  // Everything but the pricing section, which only the market run fills.
  metrics::RunMetrics mb_unpriced = mb;
  mb_unpriced.pricing = a.run.metrics.pricing;
  expect_same_metrics(a.run.metrics, mb_unpriced);
  EXPECT_EQ(a.run.ticks, b.run.ticks);
  EXPECT_EQ(a.run.events, b.run.events);
  EXPECT_EQ(a.run.total_leases, b.run.total_leases);
  EXPECT_EQ(a.portfolio.invocations, b.portfolio.invocations);
  EXPECT_EQ(a.portfolio.chosen_counts, b.portfolio.chosen_counts);

  EXPECT_EQ(mb.pricing.on_demand_leases, b.run.total_leases);
  EXPECT_EQ(mb.pricing.total_spend_dollars(), mb.charged_hours());
}

// ---------------------------------------------------------------------------
// Pricing-enabled runs stay deterministic: fixed seed, fixed-count selector
// budget, any eval-thread count, under a moving price schedule.

TEST(PricingEngine, MixedMarketDeterministicAcrossThreads) {
  const workload::Trace trace("t", 64, mixed_jobs());
  EngineConfig config = checked_config();
  config.pricing = mixed_market();

  auto run_with = [&](std::size_t threads) {
    core::PortfolioSchedulerConfig pconfig = paper_portfolio_config(config);
    pconfig.selection_period_ticks = 8;
    pconfig.selector.budget_mode = core::BudgetMode::kFixedCount;
    pconfig.selector.fixed_count = 12;
    pconfig.selector.eval_threads = threads;
    return run_portfolio(config, trace, pricing_portfolio(), pconfig,
                         PredictorKind::kPerfect).run;
  };

  const RunResult one = run_with(1);
  expect_identical(one, run_with(2));
  expect_identical(one, run_with(4));
  // And across repeated identical runs.
  expect_identical(one, run_with(1));
}

// ---------------------------------------------------------------------------
// Spot revocations ride the crash/resubmit machinery.

TEST(PricingEngine, SpotRevocationsKillResubmitAndConserve) {
  // MTBF far below job runtimes with an all-spot policy: revocations are
  // effectively certain. Every job must still end finished-or-killed, and
  // the revocation waste must be accounted in pricing (not failure) stats.
  std::vector<workload::Job> jobs;
  for (JobId i = 0; i < 6; ++i)
    jobs.push_back(make_job(i, 200.0 * static_cast<double>(i), 4.0 * kSecondsPerHour, 2));
  const workload::Trace trace("t", 64, std::move(jobs));
  EngineConfig config = checked_config();
  config.pricing.spot_price_fraction = 0.3;
  config.pricing.spot_mtbf_seconds = 1200.0;
  config.pricing.spot_warning_seconds = 60.0;
  config.pricing.seed = 5;

  const RunResult run =
      run_single_policy(config, trace, policy_by_name("SPT-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  const metrics::PricingStats& p = run.metrics.pricing;
  EXPECT_GT(p.spot_leases, 0u);
  EXPECT_GT(p.spot_revocations, 0u);
  EXPECT_GT(p.spot_warnings, 0u);
  EXPECT_GE(p.spot_warnings, p.spot_revocations);
  EXPECT_GT(p.revoked_charged_seconds, 0.0);
  EXPECT_GT(run.metrics.failures.job_kills, 0u);
  EXPECT_GT(run.metrics.failures.job_resubmissions, 0u);
  // Conservation: every submitted job is finished or killed for good.
  EXPECT_EQ(run.metrics.jobs + run.metrics.failures.jobs_killed_final, 6u);
  // Spot leases are discounted: savings accrue with fraction < 1.
  EXPECT_GT(p.spot_savings_dollars, 0.0);
  EXPECT_GT(p.spend_spot_dollars, 0.0);
}

TEST(PricingEngine, JobsWiderThanFamilyCapsAreRejectedNotStarved) {
  // Every family is capped and the capped sum (4) is below the widest job's
  // procs (6): that job can never start. The engine must reject it as
  // killed-final at enqueue — before this guard the run never terminated —
  // while the narrow jobs still run to completion. Tier-unaware policies
  // must also spill across families (family 0's cap of 1 is below every
  // job's width here).
  std::vector<workload::Job> jobs{make_job(0, 0.0, 600.0, 2),
                                  make_job(1, 300.0, 600.0, 6),
                                  make_job(2, 600.0, 600.0, 3)};
  const workload::Trace trace("t", 64, std::move(jobs));
  EngineConfig config = checked_config();
  config.pricing.families.push_back(cloud::VmFamily{"tiny", 0.5, 30.0, 1});
  config.pricing.families.push_back(cloud::VmFamily{"std", 1.0, 120.0, 3});

  const RunResult run =
      run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  EXPECT_EQ(run.metrics.jobs, 2u);
  EXPECT_EQ(run.metrics.failures.jobs_killed_final, 1u);
  EXPECT_EQ(run.metrics.failures.job_kills, 0u);  // never started, not killed
}

TEST(PricingEngine, ReservedCommitmentBilledUpFrontOnce) {
  const workload::Trace trace("t", 64, mixed_jobs(6));
  EngineConfig config = checked_config();
  config.pricing.reserved_count = 2;
  config.pricing.reserved_price_fraction = 0.5;
  config.pricing.reserved_term_seconds = 24.0 * kSecondsPerHour;

  const RunResult run =
      run_single_policy(config, trace, policy_by_name("RSB-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  const metrics::PricingStats& p = run.metrics.pricing;
  EXPECT_GT(p.reserved_leases, 0u);
  // Up-front bill: 2 x $1 default family x 0.5 x 24 quanta, independent of
  // how much of the commitment the run actually used.
  EXPECT_DOUBLE_EQ(p.spend_reserved_dollars, 2.0 * 1.0 * 0.5 * 24.0);
  EXPECT_DOUBLE_EQ(p.spot_savings_dollars, 0.0);  // no spot market configured
}

TEST(PricingEngine, EmptyQueueTickReleasesADoomedIdleSpotVm) {
  // One spot VM runs job 0 over 120..220 and then idles. Under the boundary
  // rule it would linger until its paid hour ends; its revocation warning,
  // placed at about 1010 s, dooms it instead, and the 1020 tick, whose queue
  // is empty, hands it back before the revocation lands.
  cloud::PricingConfig pricing;
  pricing.spot_price_fraction = 0.3;
  pricing.spot_mtbf_seconds = 4.0 * kSecondsPerHour;
  pricing.seed = 5;
  // The run's first spot lease draws the same revocation instant as this.
  const SimTime revoke_at = [&] {
    cloud::PricingModel model(pricing);
    cloud::CloudProvider provider({.max_vms = 8, .boot_delay = 120.0});
    provider.set_pricing_model(&model);
    const auto ids = provider.lease(cloud::LeaseRequest{1, 0, cloud::PurchaseTier::kSpot}, 0.0);
    return provider.find(ids.at(0))->revoke_at;
  }();
  ASSERT_GT(revoke_at, 2000.0);
  pricing.spot_warning_seconds = revoke_at - 1010.0;

  EngineConfig config = checked_config();
  config.release_rule = core::ReleaseRule::kBoundary;
  config.telemetry_every_ticks = 1;
  config.pricing = pricing;
  const workload::Trace trace("t", 64, {make_job(0, 0.0, 100.0, 1)});
  const RunResult run =
      run_single_policy(config, trace, policy_by_name("SPT-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  EXPECT_EQ(run.metrics.jobs, 1u);
  EXPECT_EQ(run.total_leases, 1u);
  EXPECT_EQ(run.metrics.pricing.spot_warnings, 1u);
  EXPECT_EQ(run.metrics.pricing.spot_revocations, 0u);  // released first
  ASSERT_GE(run.telemetry.size(), 2u);
  const TelemetrySample& last = run.telemetry.back();
  const TelemetrySample& before = run.telemetry[run.telemetry.size() - 2];
  EXPECT_DOUBLE_EQ(last.when, 1020.0);
  EXPECT_EQ(last.queued_jobs, 0u);
  EXPECT_EQ(before.leased_vms, 1u);
  EXPECT_EQ(before.idle_vms, 1u);
  EXPECT_EQ(last.leased_vms, 0u);
  EXPECT_DOUBLE_EQ(run.metrics.rv_charged_seconds, 3600.0);
}

TEST(PricingEngine, PricingStatsReachTheRunReport) {
  const workload::Trace trace("t", 64, mixed_jobs(6));
  EngineConfig config = checked_config();
  config.pricing = mixed_market();
  const ScenarioResult result =
      run_single_policy(config, trace, policy_by_name("CPF-FCFS-FirstFit"),
                        PredictorKind::kPerfect);
  const obs::RunReportInputs inputs = report_inputs(result, config);
  EXPECT_TRUE(inputs.pricing_enabled);
  const std::string report = obs::run_report_json(inputs, nullptr);
  EXPECT_NE(report.find("psched-pricing/v1"), std::string::npos);
  const obs::ValidationResult check = obs::validate_run_report(report);
  EXPECT_TRUE(check.ok) << check.detail;
}

}  // namespace
}  // namespace psched::engine
