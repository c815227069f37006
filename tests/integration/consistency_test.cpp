// Inner-simulator fidelity: the portfolio's online simulator claims to
// predict what a policy would do. For a closed problem instance (all jobs
// already queued, no future arrivals, accurate runtimes) and tick-aligned
// runtimes, the prediction must match the outer engine's real outcome
// EXACTLY — same bounded slowdown and same charged cost. This pins the two
// implementations (shared planner, shared release semantics, shared
// billing) against each other.
#include <gtest/gtest.h>

#include "core/online_sim.hpp"
#include "engine/experiment.hpp"

namespace psched {
namespace {

const policy::Portfolio& portfolio() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

struct Instance {
  std::vector<workload::Job> jobs;

  void add(double runtime, int procs) {
    workload::Job j;
    j.id = static_cast<JobId>(jobs.size());
    j.submit = 0.0;
    j.runtime = runtime;  // must be a multiple of the 20 s tick
    j.procs = procs;
    j.estimate = runtime;
    j.user = 0;
    jobs.push_back(j);
  }
};

Instance burst_instance() {
  Instance inst;
  inst.add(100.0, 1);
  inst.add(200.0, 4);
  inst.add(4000.0, 2);
  inst.add(40.0, 8);
  inst.add(600.0, 1);
  inst.add(1200.0, 16);
  inst.add(80.0, 1);
  inst.add(2000.0, 2);
  return inst;
}

class ConsistencyTest : public testing::TestWithParam<std::size_t> {};

TEST_P(ConsistencyTest, OnlineSimMatchesEngineOnClosedInstance) {
  const Instance inst = burst_instance();
  const auto& triple = portfolio().policies()[GetParam()];

  // Engine run.
  const engine::EngineConfig config = engine::paper_engine_config();
  const workload::Trace trace("closed", 64, inst.jobs);
  const auto engine_result = engine::run_single_policy(
      config, trace, triple, engine::PredictorKind::kPerfect);
  const auto& em = engine_result.run.metrics;

  // Online-simulator prediction from the identical starting state.
  core::OnlineSimConfig sconfig;
  sconfig.utility = config.utility;
  sconfig.slowdown_bound = config.slowdown_bound;
  sconfig.schedule_period = config.schedule_period;
  sconfig.release_rule = config.release_rule;
  sconfig.allocation = config.allocation;
  sconfig.cost_model = core::InnerCostModel::kChargedHours;
  const core::OnlineSimulator sim(sconfig);

  std::vector<policy::QueuedJob> queue;
  for (const workload::Job& j : inst.jobs) {
    policy::QueuedJob q;
    q.id = j.id;
    q.submit = 0.0;
    q.procs = j.procs;
    q.predicted_runtime = j.runtime;
    queue.push_back(q);
  }
  cloud::CloudProfile profile;
  profile.now = 0.0;
  profile.max_vms = config.provider.max_vms;
  profile.boot_delay = config.provider.boot_delay;
  profile.billing_quantum = config.provider.billing_quantum;

  const core::SimOutcome predicted = sim.simulate(queue, profile, triple);

  EXPECT_NEAR(predicted.avg_bounded_slowdown, em.avg_bounded_slowdown, 1e-9)
      << triple.name();
  EXPECT_NEAR(predicted.rv_charged_seconds, em.rv_charged_seconds, 1e-6)
      << triple.name();
  EXPECT_NEAR(predicted.rj_proc_seconds, em.rj_proc_seconds, 1e-6) << triple.name();
}

// Every 6th policy keeps the sweep cheap while covering all provisioning
// clusters, all job orders, and all VM selectors.
INSTANTIATE_TEST_SUITE_P(PolicySample, ConsistencyTest,
                         testing::Values(0u, 7u, 13u, 20u, 26u, 33u, 40u, 47u, 53u,
                                         59u));

}  // namespace
}  // namespace psched
