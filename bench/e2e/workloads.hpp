#pragma once
// The four psched-e2e workloads (README.md, "Workloads"): how each one builds
// its inputs (the timed set-up) and how it runs them once (one repetition).
// Every workload is one closed batch: the library sees only the generated
// traces, and a repetition returns when the last job has finished.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "engine/cluster_sim.hpp"
#include "policy/portfolio.hpp"
#include "workload/trace.hpp"

namespace psched::e2e {

class Probe;  // layers.hpp

enum class Kind {
  kPortfolio,  ///< one simulation under the portfolio scheduler
  kSweep,      ///< every constituent policy of the paper portfolio, in turn
  kTenants,    ///< four tenants on shared, priced, failing capacity
};

struct WorkloadSpec {
  const char* name;
  const char* archetype;     ///< generator archetype (workload::paper_archetypes)
  double days;               ///< trace horizon
  Kind kind;
  std::size_t threads;       ///< eval_threads of the measured run
};

/// The workloads in run order.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// Generated inputs of one workload. Owns the traces and the portfolio.
struct Inputs {
  std::vector<workload::Trace> traces;  ///< one, or one per tenant
  policy::Portfolio portfolio;
  engine::EngineConfig engine;
  core::PortfolioSchedulerConfig scheduler;
  std::vector<cloud::FailureConfig> tenant_failures;  ///< kTenants only
  double setup_s = 0.0;     ///< generate + clean + relabel + portfolio build
  double generate_s = 0.0;  ///< trace generation alone

  [[nodiscard]] std::size_t jobs() const;
  /// Simulations one repetition runs (sim_days_per_s counts trace days x
  /// simulations).
  [[nodiscard]] std::size_t simulations(const WorkloadSpec& spec) const;
};

/// Build the inputs, timed: the workload's fixed trace sample in the
/// work-preserving variant `seed` picks. `days` is the trace horizon (the
/// spec's own, or the smoke scale's).
[[nodiscard]] Inputs set_up(const WorkloadSpec& spec, std::uint64_t seed, double days);

/// What one repetition produced: the paper's metrics and exact counts.
/// Deterministic: any two runs of the same inputs compare equal.
struct Outcome {
  double utility = 0.0;
  double avg_bsd = 0.0;
  double charged_vm_hours = 0.0;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_finished = 0;
  std::size_t best_policy = 0;  ///< kSweep: index of the best constituent
  std::uint64_t ticks = 0;
  std::uint64_t events = 0;
  std::size_t selections = 0;
  std::size_t leases = 0;
  std::size_t job_kills = 0;
  std::size_t resubmits = 0;
  std::size_t spot_leases = 0;
  std::size_t spot_revocations = 0;
  std::uint64_t epochs = 0;     ///< kTenants: arbiter epochs

  /// Jobs killed for good or never finished, over jobs submitted.
  [[nodiscard]] double jobs_failed_frac() const;
  [[nodiscard]] bool operator==(const Outcome&) const = default;
};

/// Run one repetition with `threads` evaluation threads. `probe` (optional)
/// times the layers of every simulation except kTenants, which has no hook
/// for it (see run_tenant_proxy).
[[nodiscard]] Outcome run(const WorkloadSpec& spec, const Inputs& inputs,
                          std::size_t threads, Probe* probe = nullptr);

/// kTenants' traced stand-in: tenant 0 alone on the whole cap (each tenant
/// plans against it in the shared run too), under the same pricing,
/// failures and scheduler.
[[nodiscard]] Outcome run_tenant_proxy(const Inputs& inputs, Probe* probe);

}  // namespace psched::e2e
