#include "validate/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "engine/experiment.hpp"
#include "engine/tenant.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace psched::validate {

namespace {

/// Everything one seed needs to run (and re-run, during shrinking).
struct Scenario {
  std::vector<workload::Job> jobs;
  engine::EngineConfig config;
  engine::PredictorKind predictor = engine::PredictorKind::kPerfect;
  policy::PolicyTriple triple{};   ///< single-policy scenarios
  bool portfolio = false;          ///< run the portfolio scheduler instead
  /// Portfolio scenarios run the selector in fixed-count budget mode (no
  /// clock reads), so a failing seed replays identically while shrinking
  /// regardless of machine load; both knobs are fuzzed per seed.
  std::size_t selector_fixed_count = 0;
  std::size_t selector_eval_threads = 1;
  /// Multi-tenant scenarios (engine/tenant.hpp): the job prefix is sharded
  /// round-robin across this many tenants, each cleaned to its quota floor.
  /// 0 = single-tenant (the classic path).
  std::size_t tenant_count = 0;
  std::size_t arbitration_ticks = 1;
  std::vector<double> tenant_weights;
  std::vector<double> tenant_budgets;  ///< VM-hours; 0 = unlimited
  std::string description;
};

/// Derive one scenario deterministically from its seed. Small caps and short
/// boot delays are deliberate: a 4-VM cap under a burst exercises vm.cap and
/// the release rules far harder than the paper's 256.
Scenario make_scenario(std::uint64_t seed, const FuzzConfig& fuzz,
                       const policy::Portfolio& portfolio,
                       const policy::Portfolio& pricing_portfolio) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Scenario s;

  const std::vector<workload::GeneratorConfig> archetypes =
      workload::paper_archetypes(/*duration_days=*/rng.uniform(0.05, 0.2));
  workload::GeneratorConfig gen = archetypes[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(archetypes.size()) - 1))];
  // Short horizons under-sample the arrival process; boost the rate so most
  // seeds still see queue contention.
  gen.jobs_per_month *= rng.uniform(1.0, 4.0);

  s.config = engine::paper_engine_config();
  static constexpr std::size_t kCaps[] = {4, 8, 16, 32};
  static constexpr double kBootDelays[] = {30.0, 120.0, 300.0};
  static constexpr double kQuanta[] = {60.0, 900.0, 3600.0};
  s.config.provider.max_vms = kCaps[rng.uniform_int(0, 3)];
  s.config.provider.boot_delay = kBootDelays[rng.uniform_int(0, 2)];
  s.config.provider.billing_quantum = kQuanta[rng.uniform_int(0, 2)];
  s.config.release_rule = rng.bernoulli(0.5) ? engine::ReleaseRule::kEagerSurplus
                                             : engine::ReleaseRule::kBoundary;
  s.config.allocation = rng.bernoulli(0.5) ? policy::AllocationMode::kHeadOfLine
                                           : policy::AllocationMode::kEasyBackfill;
  s.config.validation.check_invariants = true;
  s.config.validation.abort_on_violation = false;
  s.config.validation.inject_fault = fuzz.inject_fault;

  static constexpr engine::PredictorKind kPredictors[] = {
      engine::PredictorKind::kPerfect, engine::PredictorKind::kTsafrir,
      engine::PredictorKind::kUserEstimate};
  s.predictor = kPredictors[rng.uniform_int(0, 2)];

  s.jobs = workload::TraceGenerator(gen)
               .generate(seed)
               .cleaned(static_cast<int>(s.config.provider.max_vms))
               .jobs();
  if (s.jobs.size() > fuzz.max_jobs) s.jobs.resize(fuzz.max_jobs);

  s.portfolio = seed % 5 == 0;
  if (!s.portfolio) {
    const auto& policies = portfolio.policies();
    s.triple = policies[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(policies.size()) - 1))];
  } else {
    // Drawn last so the earlier scenario-shape draws keep their streams.
    s.selector_fixed_count = static_cast<std::size_t>(rng.uniform_int(1, 24));
    s.selector_eval_threads = static_cast<std::size_t>(rng.uniform_int(1, 4));
  }

  if (seed % 3 == 0) {
    // Drawn after every scenario-shape draw. Small rates: enough events to
    // exercise the resilience paths without starving the scenario of
    // progress.
    s.config.failure.p_boot_fail = rng.uniform(0.0, 0.15);
    s.config.failure.vm_mtbf_seconds = rng.uniform(2.0, 48.0) * kSecondsPerHour;
    if (rng.bernoulli(0.5)) {
      s.config.failure.api_outage_gap_seconds = rng.uniform(1.0, 8.0) * kSecondsPerHour;
      s.config.failure.api_outage_duration_seconds = rng.uniform(60.0, 900.0);
    }
    s.config.failure.seed = seed ^ 0xfa11u;
    s.config.resilience.max_resubmits =
        static_cast<std::size_t>(rng.uniform_int(0, 4));
  }

  if (seed % 3 == 2) {
    // Drawn after every scenario-shape and failure draw. Small family mixes
    // and short spot MTBFs: enough tier churn and revocations to exercise
    // the pricing invariants (pricing.cost, pricing.commitment,
    // pricing.revocation) without starving the scenario of progress.
    cloud::PricingConfig& pricing = s.config.pricing;
    static constexpr double kFamilyPrices[] = {0.5, 1.0, 2.5};
    static constexpr double kFamilyBoots[] = {30.0, 120.0, 300.0};
    const std::int64_t family_count = rng.uniform_int(1, 3);
    for (std::int64_t f = 0; f < family_count; ++f) {
      cloud::VmFamily family;
      family.name = 'f' + std::to_string(f);
      family.price = kFamilyPrices[f] * rng.uniform(0.8, 1.2);
      family.boot_delay = kFamilyBoots[f];
      family.max_vms =
          rng.bernoulli(0.5) ? std::max<std::size_t>(1, s.config.provider.max_vms / 2)
                             : 0;
      pricing.families.push_back(std::move(family));
    }
    if (rng.bernoulli(0.6)) {
      pricing.spot_price_fraction = rng.uniform(0.2, 0.6);
      pricing.spot_mtbf_seconds = rng.uniform(0.5, 12.0) * kSecondsPerHour;
      pricing.spot_warning_seconds = rng.uniform(0.0, 180.0);
    }
    if (rng.bernoulli(0.5)) {
      pricing.schedule = {{0.0, rng.uniform(0.5, 1.5)},
                          {rng.uniform(600.0, 7200.0), rng.uniform(0.5, 2.0)}};
    }
    if (rng.bernoulli(0.5)) {
      pricing.walk_step = rng.uniform(0.02, 0.2);
      pricing.walk_epoch_seconds = rng.uniform(300.0, 3600.0);
    }
    if (rng.bernoulli(0.3)) {
      pricing.reserved_count = static_cast<std::size_t>(rng.uniform_int(1, 4));
      pricing.reserved_term_seconds = rng.uniform(1.0, 48.0) * kSecondsPerHour;
    }
    pricing.seed = seed ^ 0x951ceu;
    if (!s.portfolio) {
      // Re-draw the triple from the tier-aware portfolio so spot-first /
      // reserved-baseline / price-threshold provisioning runs under the
      // checker too.
      const auto& policies = pricing_portfolio.policies();
      s.triple = policies[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(policies.size()) - 1))];
    }
  }

  const bool tenant_fault =
      fuzz.inject_fault == FaultInjection::kTenantCapOvershoot ||
      fuzz.inject_fault == FaultInjection::kTenantUnfairShare;
  // Provider-fault self-tests stay single-tenant: inside a tenant the
  // provider's cap is its (smaller) allowance, so e.g. cap-overshoot
  // surfaces as tenant.global-cap instead of the vm.cap the self-test pins.
  const bool provider_fault =
      fuzz.inject_fault != FaultInjection::kNone && !tenant_fault;
  if ((seed % 4 == 1 && !provider_fault) || tenant_fault) {
    // Drawn after every scenario-shape, failure, and pricing draw. Small
    // mixes: 2-4 tenants over the already tight caps keep the arbiter busy
    // every epoch (tenant.global-cap, tenant.fairness, tenant.conservation).
    s.tenant_count = static_cast<std::size_t>(rng.uniform_int(2, 4));
    s.arbitration_ticks = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t t = 0; t < s.tenant_count; ++t) {
      s.tenant_weights.push_back(rng.bernoulli(0.3) ? 2.0 : 1.0);
      s.tenant_budgets.push_back(rng.bernoulli(0.3) ? rng.uniform(0.05, 2.0)
                                                    : 0.0);
    }
  }

  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "%s, %zu jobs, cap=%zu, boot=%.0fs, quantum=%.0fs, %s, %s, "
                "predictor=%s, %s",
                gen.name.c_str(), s.jobs.size(), s.config.provider.max_vms,
                s.config.provider.boot_delay, s.config.provider.billing_quantum,
                s.config.release_rule == engine::ReleaseRule::kEagerSurplus
                    ? "eager-release" : "boundary-release",
                s.config.allocation == policy::AllocationMode::kHeadOfLine
                    ? "head-of-line" : "easy-backfill",
                engine::to_string(s.predictor).c_str(),
                s.portfolio ? "portfolio" : s.triple.name().c_str());
  s.description = buf;
  if (s.config.failure.enabled()) {
    char fbuf[96];
    std::snprintf(fbuf, sizeof(fbuf),
                  ", failures(p_boot=%.2f, mtbf=%.0fs, outage_gap=%.0fs)",
                  s.config.failure.p_boot_fail, s.config.failure.vm_mtbf_seconds,
                  s.config.failure.api_outage_gap_seconds);
    s.description += fbuf;
  }
  if (s.config.pricing.enabled()) {
    char pbuf[96];
    std::snprintf(pbuf, sizeof(pbuf),
                  ", pricing(families=%zu, spot=%.2f, reserved=%zu)",
                  s.config.pricing.families.size(),
                  s.config.pricing.spot_price_fraction,
                  s.config.pricing.reserved_count);
    s.description += pbuf;
  }
  if (s.tenant_count >= 2) {
    char tbuf[64];
    std::snprintf(tbuf, sizeof(tbuf), ", tenants(n=%zu, ticks=%zu)",
                  s.tenant_count, s.arbitration_ticks);
    s.description += tbuf;
  }
  return s;
}

/// Run one scenario on a job prefix; returns the violations (empty = clean).
struct RunOutcome {
  std::uint64_t checks = 0;
  std::vector<Violation> violations;
};

core::PortfolioSchedulerConfig fuzz_portfolio_config(const Scenario& s) {
  core::PortfolioSchedulerConfig pconfig = engine::paper_portfolio_config(s.config);
  // Select infrequently: the invariants under test live in the engine and
  // provider, and a cheap selector keeps 50-seed runs inside the smoke cap.
  pconfig.selection_period_ticks = 16;
  pconfig.selector.budget_mode = core::BudgetMode::kFixedCount;
  pconfig.selector.fixed_count = s.selector_fixed_count;
  pconfig.selector.eval_threads = s.selector_eval_threads;
  return pconfig;
}

RunOutcome run_scenario(const Scenario& s, std::size_t job_count,
                        const policy::Portfolio& portfolio) {
  std::vector<workload::Job> jobs(s.jobs.begin(),
                                  s.jobs.begin() + static_cast<std::ptrdiff_t>(job_count));
  const workload::Trace trace("fuzz", static_cast<int>(s.config.provider.max_vms),
                              std::move(jobs));

  if (s.tenant_count >= 2) {
    // Multi-tenant path: shard the prefix round-robin, clean each shard to
    // its tenant's quota floor (jobs wider than the guaranteed share could
    // livelock under max-min; see MultiTenantExperiment's ctor), and run
    // the service loop. Tenant faults are injected at arbitration; provider
    // faults hit every tenant's own engine and checker.
    double total_weight = 0.0;
    for (const double w : s.tenant_weights) total_weight += w;
    const auto cap = static_cast<double>(s.config.provider.max_vms);
    const std::vector<workload::Trace> shards =
        workload::shard_round_robin(trace, s.tenant_count);
    std::vector<workload::Trace> tenant_traces;
    tenant_traces.reserve(s.tenant_count);
    for (std::size_t i = 0; i < s.tenant_count; ++i) {
      const auto quota_floor =
          static_cast<int>(cap * s.tenant_weights[i] / total_weight);
      tenant_traces.push_back(shards[i].cleaned(quota_floor));
    }

    engine::MultiTenantConfig mt;
    mt.engine = s.config;
    mt.arbitration_period_ticks = s.arbitration_ticks;
    mt.predictor = s.predictor;
    if (s.portfolio) {
      mt.portfolio = &portfolio;
      mt.scheduler = fuzz_portfolio_config(s);
    } else {
      mt.policy = s.triple;
    }
    for (std::size_t i = 0; i < s.tenant_count; ++i) {
      engine::TenantConfig t;
      t.weight = s.tenant_weights[i];
      t.budget_vm_hours = s.tenant_budgets[i];
      t.failure = s.config.failure;
      if (t.failure.enabled())
        t.failure.seed = engine::tenant_failure_seed(s.config.failure.seed, i);
      t.trace = &tenant_traces[i];
      mt.tenants.push_back(std::move(t));
    }
    engine::MultiTenantExperiment experiment(std::move(mt));
    engine::MultiTenantResult result = experiment.run();
    return RunOutcome{result.invariant_checks,
                      std::move(result.invariant_violations)};
  }

  engine::ScenarioResult result;
  if (s.portfolio) {
    result = engine::run_portfolio(s.config, trace, portfolio,
                                   fuzz_portfolio_config(s), s.predictor);
  } else {
    result = engine::run_single_policy(s.config, trace, s.triple, s.predictor);
  }
  return RunOutcome{result.run.invariant_checks,
                    std::move(result.run.invariant_violations)};
}

}  // namespace

FuzzReport run_fuzz(const FuzzConfig& config) {
  const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  const policy::Portfolio pricing_portfolio = policy::Portfolio::pricing_portfolio();
  FuzzReport report;
  report.seeds_requested = config.num_seeds;

  const auto started = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
        .count();
  };

  for (std::size_t i = 0; i < config.num_seeds; ++i) {
    if (config.time_cap_seconds > 0.0 && elapsed() >= config.time_cap_seconds) {
      report.timed_out = true;
      break;
    }
    const std::uint64_t seed = config.base_seed + i;
    const Scenario scenario = make_scenario(seed, config, portfolio, pricing_portfolio);
    if (scenario.jobs.empty()) {  // degenerate horizon: nothing to run
      ++report.seeds_run;
      continue;
    }
    // Pricing-enabled portfolio seeds run the tier-aware portfolio so the
    // new provisioning policies actually appear in selector rounds.
    const policy::Portfolio& run_portfolio =
        scenario.config.pricing.enabled() ? pricing_portfolio : portfolio;
    RunOutcome outcome = run_scenario(scenario, scenario.jobs.size(), run_portfolio);
    report.total_checks += outcome.checks;
    ++report.seeds_run;
    if (outcome.violations.empty()) continue;

    // First failure: report it, optionally shrunk to a smaller prefix.
    FuzzFailure failure;
    failure.seed = seed;
    failure.original_jobs = scenario.jobs.size();
    failure.scenario = scenario.description;
    std::size_t jobs = scenario.jobs.size();
    if (config.shrink) {
      // Prefix halving: keep the half-sized prefix while it still violates.
      // Greedy and simple — the goal is a smaller repro, not a minimal one.
      while (jobs > 1) {
        const std::size_t half = jobs / 2;
        RunOutcome shrunk = run_scenario(scenario, half, run_portfolio);
        if (shrunk.violations.empty()) break;
        jobs = half;
        outcome = std::move(shrunk);
      }
    }
    failure.jobs = jobs;
    failure.violations = std::move(outcome.violations);
    report.failure = std::move(failure);
    break;
  }
  return report;
}

}  // namespace psched::validate
