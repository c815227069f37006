#include "validate/differential.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/assert.hpp"

namespace psched::validate {

std::vector<workload::Job> normalize_closed_instance(std::vector<workload::Job> jobs,
                                                     const engine::EngineConfig& config) {
  const double period = config.schedule_period;
  PSCHED_ASSERT(period > 0.0);
  for (workload::Job& job : jobs) {
    job.submit = 0.0;
    const double ticks = std::max(1.0, std::ceil(job.runtime / period));
    job.runtime = ticks * period;
    job.estimate = job.runtime;
    job.procs = std::clamp(job.procs, 1,
                           static_cast<int>(config.provider.max_vms));
    job.deps.clear();
  }
  // The trace constructor sorts by (submit, id); with submit pinned to 0 the
  // original id order is preserved.
  return jobs;
}

std::vector<workload::Job> closed_instance_from_generator(
    const workload::GeneratorConfig& generator, std::uint64_t seed,
    std::size_t max_jobs, const engine::EngineConfig& config) {
  const workload::TraceGenerator gen(generator);
  std::vector<workload::Job> jobs = gen.generate(seed).cleaned().jobs();
  if (jobs.size() > max_jobs) jobs.resize(max_jobs);
  return normalize_closed_instance(std::move(jobs), config);
}

DifferentialResult run_differential(const engine::EngineConfig& config,
                                    const std::vector<workload::Job>& closed_jobs,
                                    const policy::PolicyTriple& policy,
                                    DifferentialTolerance tolerance) {
  DifferentialResult result;
  result.policy = policy.name();

  // Ground truth: the outer engine, perfect predictions.
  const workload::Trace trace("differential-closed",
                              static_cast<int>(config.provider.max_vms), closed_jobs);
  const engine::ScenarioResult engine_run = engine::run_single_policy(
      config, trace, policy, engine::PredictorKind::kPerfect);
  result.actual = engine_run.run.metrics;

  // Prediction: the inner simulator from the identical empty-fleet start.
  core::OnlineSimConfig sconfig;
  sconfig.utility = config.utility;
  sconfig.slowdown_bound = config.slowdown_bound;
  sconfig.schedule_period = config.schedule_period;
  sconfig.release_rule = config.release_rule;
  sconfig.allocation = config.allocation;
  sconfig.cost_model = core::InnerCostModel::kChargedHours;
  const core::OnlineSimulator sim(sconfig);

  std::vector<policy::QueuedJob> queue;
  queue.reserve(closed_jobs.size());
  for (const workload::Job& job : closed_jobs) {
    policy::QueuedJob q;
    q.id = job.id;
    q.submit = 0.0;
    q.procs = job.procs;
    q.predicted_runtime = job.runtime;
    queue.push_back(q);
  }
  cloud::CloudProfile profile;
  profile.now = 0.0;
  profile.max_vms = config.provider.max_vms;
  profile.boot_delay = config.provider.boot_delay;
  profile.billing_quantum = config.provider.billing_quantum;
  result.predicted = sim.simulate(queue, profile, policy);

  const double d_bsd =
      std::abs(result.predicted.avg_bounded_slowdown - result.actual.avg_bounded_slowdown);
  const double d_rj =
      std::abs(result.predicted.rj_proc_seconds - result.actual.rj_proc_seconds);
  const double d_rv =
      std::abs(result.predicted.rv_charged_seconds - result.actual.rv_charged_seconds);
  result.pass = d_bsd <= tolerance.bsd_abs && d_rj <= tolerance.seconds_abs &&
                d_rv <= tolerance.seconds_abs;
  if (!result.pass) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "BSD %.9f vs %.9f (|d|=%.3g), RJ %.6f vs %.6f (|d|=%.3g), "
                  "RV %.6f vs %.6f (|d|=%.3g)",
                  result.predicted.avg_bounded_slowdown,
                  result.actual.avg_bounded_slowdown, d_bsd,
                  result.predicted.rj_proc_seconds, result.actual.rj_proc_seconds, d_rj,
                  result.predicted.rv_charged_seconds, result.actual.rv_charged_seconds,
                  d_rv);
    result.detail = buf;
  }
  return result;
}

DifferentialReport run_differential_portfolio(const engine::EngineConfig& config,
                                              const std::vector<workload::Job>& closed_jobs,
                                              const policy::Portfolio& portfolio,
                                              std::size_t stride,
                                              DifferentialTolerance tolerance) {
  PSCHED_ASSERT(stride > 0);
  DifferentialReport report;
  const auto& policies = portfolio.policies();
  for (std::size_t i = 0; i < policies.size(); i += stride) {
    report.results.push_back(
        run_differential(config, closed_jobs, policies[i], tolerance));
    if (!report.results.back().pass) ++report.failures;
  }
  return report;
}

}  // namespace psched::validate
