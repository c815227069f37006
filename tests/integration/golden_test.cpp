// Golden-trace regression: two fixed portfolio scenarios (a Figure-5-style
// unbounded-selector run and a Figure-10-style time-constrained run) are
// pinned against committed metric snapshots in tests/integration/golden/.
// Any engine, policy, selector, billing, or generator change that moves
// these numbers fails here first — with a diff, not a mystery.
// Regenerate: PSCHED_UPDATE_GOLDEN=1 ./tests/golden_tests (golden_codec.hpp).
#include <gtest/gtest.h>

#include "engine/experiment.hpp"
#include "golden_codec.hpp"
#include "workload/generator.hpp"

namespace psched {
namespace {

using golden::Golden;

Golden collect(const engine::ScenarioResult& result) {
  const metrics::RunMetrics& m = result.run.metrics;
  Golden g;
  g["jobs"] = static_cast<double>(m.jobs);
  g["avg_bounded_slowdown"] = m.avg_bounded_slowdown;
  g["max_bounded_slowdown"] = m.max_bounded_slowdown;
  g["avg_wait"] = m.avg_wait;
  g["rj_proc_seconds"] = m.rj_proc_seconds;
  g["rv_charged_seconds"] = m.rv_charged_seconds;
  g["makespan"] = m.makespan;
  g["ticks"] = static_cast<double>(result.run.ticks);
  g["total_leases"] = static_cast<double>(result.run.total_leases);
  if (result.is_portfolio)
    g["selection_invocations"] = static_cast<double>(result.portfolio.invocations);
  return g;
}

const policy::Portfolio& portfolio() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

TEST(GoldenTrace, Fig5StyleUnboundedPortfolioOnKthSp2) {
  // Figure-5 regime: the full portfolio with an unbounded selection budget
  // and accurate runtimes.
  const workload::Trace trace =
      workload::TraceGenerator(workload::kth_sp2_like(0.3)).generate(7).cleaned(64);
  ASSERT_FALSE(trace.empty());
  const engine::EngineConfig config = engine::paper_engine_config();
  const auto pconfig = engine::paper_portfolio_config(config);
  const engine::ScenarioResult result = engine::run_portfolio(
      config, trace, portfolio(), pconfig, engine::PredictorKind::kPerfect);
  golden::expect_matches_golden("fig5_kth_sp2", collect(result));
}

TEST(GoldenTrace, Fig10StyleTimeConstrainedPortfolioOnLpcEgee) {
  // Figure-10 regime: Delta = 100 ms at a synthetic 10 ms per candidate
  // simulation, system-generated (Tsafrir) predictions.
  const workload::Trace trace =
      workload::TraceGenerator(workload::lpc_egee_like(0.3)).generate(11).cleaned(64);
  ASSERT_FALSE(trace.empty());
  const engine::EngineConfig config = engine::paper_engine_config();
  auto pconfig = engine::paper_portfolio_config(config);
  pconfig.selector.time_constraint_ms = 100.0;
  pconfig.selector.synthetic_overhead_ms = 10.0;
  pconfig.selector.use_measured_cost = false;
  const engine::ScenarioResult result = engine::run_portfolio(
      config, trace, portfolio(), pconfig, engine::PredictorKind::kTsafrir);
  golden::expect_matches_golden("fig10_lpc_egee", collect(result));
}

}  // namespace
}  // namespace psched
