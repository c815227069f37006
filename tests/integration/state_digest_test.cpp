// The state-digest determinism probe (DESIGN.md §7.5). A run is stepped with
// advance_until() in fixed strides and its full mutable state is captured
// with ClusterSimulation::capture_state() after every stride. The digest
// sequence must not depend on how many threads evaluate selector candidates
// or on whether the run is observed: every cell of the eval_threads x
// ObsLevel matrix must reproduce the sequential, unobserved run entry for
// entry. A mismatch names the first state entry that diverged.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "engine/cluster_sim.hpp"
#include "engine/experiment.hpp"
#include "obs/obs.hpp"
#include "util/state_digest.hpp"
#include "workload/generator.hpp"

namespace psched {
namespace {

/// Scheduling periods between two captures.
constexpr double kStridePeriods = 500.0;

struct Scenario {
  engine::EngineConfig config;
  policy::Portfolio portfolio;
  core::PortfolioSchedulerConfig pconfig;
};

/// The Figure-5 trace (same generator call as golden_test.cpp).
workload::Trace fig5_trace() {
  return workload::TraceGenerator(workload::kth_sp2_like(0.3)).generate(7).cleaned(64);
}

/// The paper's Figure-5 portfolio setup, with the selector in fixed-count
/// budget mode so the candidate set does not depend on the wave width.
Scenario fig5_scenario() {
  Scenario s{engine::paper_engine_config(), policy::Portfolio::paper_portfolio(), {}};
  s.pconfig = engine::paper_portfolio_config(s.config);
  s.pconfig.selector.budget_mode = core::BudgetMode::kFixedCount;
  s.pconfig.selector.fixed_count = 12;
  s.pconfig.selection_period_ticks = 16;
  return s;
}

/// The pricing-golden market (two families, spot with revocations, a price
/// surge plus a walk, reserved capacity) with VM crashes layered on: the
/// configuration with the most RNG streams in flight.
Scenario failures_pricing_scenario() {
  Scenario s{engine::paper_engine_config(), policy::Portfolio::pricing_portfolio(), {}};
  s.config.failure.vm_mtbf_seconds = 3.0 * kSecondsPerHour;
  s.config.failure.seed = 17;
  s.config.pricing.families.push_back(cloud::VmFamily{"small", 0.5, 30.0, 32});
  s.config.pricing.families.push_back(cloud::VmFamily{"std", 1.0, 120.0, 0});
  s.config.pricing.spot_price_fraction = 0.3;
  s.config.pricing.spot_mtbf_seconds = 6.0 * kSecondsPerHour;
  s.config.pricing.spot_warning_seconds = 120.0;
  s.config.pricing.schedule = {{0.0, 1.0}, {6.0 * kSecondsPerHour, 1.5}};
  s.config.pricing.walk_step = 0.08;
  s.config.pricing.walk_epoch_seconds = 3600.0;
  s.config.pricing.reserved_count = 4;
  s.config.pricing.seed = 29;
  s.pconfig = engine::paper_portfolio_config(s.config);
  s.pconfig.selection_period_ticks = 8;
  s.pconfig.selector.budget_mode = core::BudgetMode::kFixedCount;
  s.pconfig.selector.fixed_count = 36;
  return s;
}

struct Probe {
  std::vector<util::StateDigest> digests;
  metrics::RunMetrics metrics;
};

/// Run `s` at one matrix cell: start, then advance in strides of
/// kStridePeriods scheduling periods, capturing the state after each stride.
Probe probe(const Scenario& s, const workload::Trace& trace, std::size_t threads,
            obs::ObsLevel level) {
  core::PortfolioSchedulerConfig pconfig = s.pconfig;
  pconfig.selector.eval_threads = threads;
  core::PortfolioScheduler scheduler(s.portfolio, pconfig);
  const auto predictor = engine::make_predictor(engine::PredictorKind::kPerfect);
  obs::Recorder recorder(obs::ObsConfig{level});
  engine::ClusterSimulation sim(s.config, trace, scheduler, *predictor,
                                level == obs::ObsLevel::kOff ? nullptr : &recorder);
  Probe out;
  sim.start();
  for (double k = 1.0; sim.active(); k += 1.0) {
    sim.advance_until(k * kStridePeriods * s.config.schedule_period);
    sim.capture_state(out.digests.emplace_back());
  }
  out.metrics = sim.finish().metrics;
  return out;
}

void expect_same_digests_across_matrix(const Scenario& s, const workload::Trace& trace) {
  const Probe baseline = probe(s, trace, 1, obs::ObsLevel::kOff);
  ASSERT_GE(baseline.digests.size(), 2u);
  // The probe must see the run move, or matching sequences prove nothing.
  EXPECT_NE(baseline.digests.front(), baseline.digests.back());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const obs::ObsLevel level : {obs::ObsLevel::kOff, obs::ObsLevel::kCounters}) {
      if (threads == 1 && level == obs::ObsLevel::kOff) continue;
      const Probe cell = probe(s, trace, threads, level);
      ASSERT_EQ(cell.digests.size(), baseline.digests.size())
          << "eval_threads=" << threads << " obs=" << obs::to_string(level);
      for (std::size_t i = 0; i < cell.digests.size(); ++i) {
        if (cell.digests[i] == baseline.digests[i]) continue;
        ADD_FAILURE() << "eval_threads=" << threads << " obs=" << obs::to_string(level)
                      << " capture " << i << ": first difference at "
                      << cell.digests[i].first_difference(baseline.digests[i]);
        break;
      }
    }
  }
}

TEST(StateDigest, Fig5PortfolioMatchesAcrossEvalThreadsAndObsLevels) {
  const workload::Trace trace = fig5_trace();
  ASSERT_FALSE(trace.empty());
  expect_same_digests_across_matrix(fig5_scenario(), trace);
}

TEST(StateDigest, FailuresAndPricingPortfolioMatchesAcrossEvalThreadsAndObsLevels) {
  const workload::Trace trace = fig5_trace();
  ASSERT_FALSE(trace.empty());
  const Scenario s = failures_pricing_scenario();
  // The scenario must actually exercise the layers it claims to.
  const Probe run = probe(s, trace, 1, obs::ObsLevel::kOff);
  EXPECT_GT(run.metrics.failures.job_kills, 0u);
  EXPECT_GT(run.metrics.pricing.spot_leases, 0u);
  expect_same_digests_across_matrix(s, trace);
}

}  // namespace
}  // namespace psched
