#pragma once
// Collects per-job scheduling outcomes and the fleet cost, and reduces them
// to the paper's performance space Y: average bounded slowdown (BSD), total
// job runtime (RJ), total charged VM time (RV == cost), utilization, and
// the compound utility U.

#include <concepts>
#include <cstddef>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "metrics/utility.hpp"
#include "util/state_digest.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"
#include "workload/job.hpp"

namespace psched::metrics {

/// Outcome of one finished job.
struct JobRecord {
  JobId id = kInvalidJob;
  SimTime submit = 0.0;
  SimTime eligible = 0.0;  ///< >= submit; when all dependencies completed
                           ///< (== submit for independent jobs)
  SimTime start = 0.0;
  SimTime finish = 0.0;
  int procs = 1;
  double runtime = 0.0;
  workload::WorkflowId workflow = workload::kNoWorkflow;

  /// Waiting time from eligibility (for workflow tasks, time spent ready
  /// but unscheduled; identical to submit-based wait for independent jobs).
  [[nodiscard]] double wait() const noexcept { return start - eligible; }
  [[nodiscard]] double response() const noexcept { return finish - submit; }
};

/// How a metric field combines across the tenants of a multi-tenant run
/// (metrics::aggregate). Sums and maxes fold in run order from the struct
/// default; a mean is weighted and divided once, at the end, and keeps its
/// default when the summed weight is zero.
enum class Fold {
  kSum,
  kMax,
  kJobMean,       ///< weighted by RunMetrics::jobs
  kWorkflowMean,  ///< weighted by RunMetrics::workflows
};

/// `S` is `T` or `const T`: visit_fields walks either.
template <typename S, typename T>
concept InstanceOf = std::same_as<std::remove_const_t<S>, T>;

/// Failure/resilience aggregates (engine-filled; every field stays zero
/// when the failure model is off, see cloud/failure.hpp).
struct FailureStats {
  std::size_t boot_failures = 0;        ///< leases terminated at boot
  std::size_t vm_crashes = 0;           ///< leases terminated mid-lease
  std::size_t api_rejected_leases = 0;  ///< lease calls lost to outages
  std::size_t api_rejected_releases = 0;///< release calls lost to outages
  std::size_t lease_retries = 0;        ///< lease attempts re-issued after backoff
  std::size_t job_kills = 0;            ///< job slices killed by crashes
  std::size_t job_resubmissions = 0;    ///< kills that were re-queued
  std::size_t jobs_killed_final = 0;    ///< jobs dropped after max resubmits
                                        ///< (plus their dead workflow deps)
  double wasted_proc_seconds = 0.0;     ///< work lost to kills (not in RJ)
  double paid_wasted_seconds = 0.0;     ///< paid-but-wasted compute: charges
                                        ///< of crashed/boot-failed leases

  [[nodiscard]] bool any() const noexcept {
    return boot_failures > 0 || vm_crashes > 0 || api_rejected_leases > 0 ||
           api_rejected_releases > 0 || lease_retries > 0 || job_kills > 0 ||
           jobs_killed_final > 0;
  }
};

/// The one list of FailureStats fields. Calls `visit(key, fold, field...)`
/// once per field, in report order, walking one or more instances in step;
/// the key is the member name and the run report's key.
template <typename Visit, InstanceOf<FailureStats>... S>
void visit_fields(Visit&& visit, S&... s) {
  visit("boot_failures", Fold::kSum, s.boot_failures...);
  visit("vm_crashes", Fold::kSum, s.vm_crashes...);
  visit("api_rejected_leases", Fold::kSum, s.api_rejected_leases...);
  visit("api_rejected_releases", Fold::kSum, s.api_rejected_releases...);
  visit("lease_retries", Fold::kSum, s.lease_retries...);
  visit("job_kills", Fold::kSum, s.job_kills...);
  visit("job_resubmissions", Fold::kSum, s.job_resubmissions...);
  visit("jobs_killed_final", Fold::kSum, s.jobs_killed_final...);
  visit("wasted_proc_seconds", Fold::kSum, s.wasted_proc_seconds...);
  visit("paid_wasted_seconds", Fold::kSum, s.paid_wasted_seconds...);
}

/// Pricing/market aggregates (engine-filled; every field stays zero when
/// the pricing layer is off, see cloud/pricing.hpp and DESIGN.md §12).
struct PricingStats {
  std::size_t families = 0;              ///< VM family count in the config
  std::size_t on_demand_leases = 0;      ///< leases billed at the base price
  std::size_t spot_leases = 0;           ///< discounted, revocable leases
  std::size_t reserved_leases = 0;       ///< leases drawn from the commitment
  std::size_t spot_warnings = 0;         ///< revocation warnings delivered
  std::size_t spot_revocations = 0;      ///< spot leases revoked by the market
  double spend_on_demand_dollars = 0.0;  ///< settled on-demand spend
  double spend_spot_dollars = 0.0;       ///< settled spot spend
  double spend_reserved_dollars = 0.0;   ///< up-front commitment cost
  double spot_savings_dollars = 0.0;     ///< on-demand-equivalent minus spot
  double revoked_charged_seconds = 0.0;  ///< paid time lost to revocations

  [[nodiscard]] double total_spend_dollars() const noexcept {
    return spend_on_demand_dollars + spend_spot_dollars + spend_reserved_dollars;
  }
  [[nodiscard]] bool any() const noexcept {
    return on_demand_leases > 0 || spot_leases > 0 || reserved_leases > 0 ||
           spot_warnings > 0 || spot_revocations > 0 ||
           total_spend_dollars() > 0.0;
  }
};

/// The one list of PricingStats fields (see the FailureStats visitor).
template <typename Visit, InstanceOf<PricingStats>... S>
void visit_fields(Visit&& visit, S&... s) {
  visit("families", Fold::kMax, s.families...);
  visit("on_demand_leases", Fold::kSum, s.on_demand_leases...);
  visit("spot_leases", Fold::kSum, s.spot_leases...);
  visit("reserved_leases", Fold::kSum, s.reserved_leases...);
  visit("spot_warnings", Fold::kSum, s.spot_warnings...);
  visit("spot_revocations", Fold::kSum, s.spot_revocations...);
  visit("spend_on_demand_dollars", Fold::kSum, s.spend_on_demand_dollars...);
  visit("spend_spot_dollars", Fold::kSum, s.spend_spot_dollars...);
  visit("spend_reserved_dollars", Fold::kSum, s.spend_reserved_dollars...);
  visit("spot_savings_dollars", Fold::kSum, s.spot_savings_dollars...);
  visit("revoked_charged_seconds", Fold::kSum, s.revoked_charged_seconds...);
}

/// A portfolio run's reflection totals (core::ReflectionStore).
struct PortfolioStats {
  std::size_t invocations = 0;                ///< selection processes run
  double total_selection_cost_ms = 0.0;
  double mean_simulated_per_invocation = 0.0;
  std::vector<std::size_t> chosen_counts;     ///< per portfolio policy index
};

/// Aggregated result of a (real or simulated) run.
struct RunMetrics {
  std::size_t jobs = 0;
  double avg_bounded_slowdown = 1.0;
  double max_bounded_slowdown = 1.0;
  double avg_wait = 0.0;
  double rj_proc_seconds = 0.0;   ///< RJ: total real work
  double rv_charged_seconds = 0.0;///< RV: charged VM time (cost)
  double makespan = 0.0;          ///< last finish time

  // Workflow aggregates (0 when the trace has no workflow tasks).
  std::size_t workflows = 0;
  double avg_workflow_makespan = 0.0;  ///< mean(last finish - first submit)
  double max_workflow_makespan = 0.0;

  // Failure/resilience aggregates (all zero for failure-off runs).
  FailureStats failures;

  // Pricing/market aggregates (all zero for pricing-off runs).
  PricingStats pricing;

  [[nodiscard]] double charged_hours() const noexcept {
    return rv_charged_seconds / kSecondsPerHour;
  }
  /// Goodput: proc-seconds of completed useful work. RJ only counts
  /// finished jobs, so work a crash destroyed (failures.wasted_proc_seconds)
  /// is already excluded.
  [[nodiscard]] double goodput_proc_seconds() const noexcept {
    return rj_proc_seconds;
  }
  [[nodiscard]] double utilization() const noexcept {
    return rv_charged_seconds > 0.0 ? rj_proc_seconds / rv_charged_seconds : 0.0;
  }
  [[nodiscard]] double utility(const UtilityParams& params) const {
    return metrics::utility(params, rj_proc_seconds, rv_charged_seconds,
                            avg_bounded_slowdown);
  }
};

/// The one list of RunMetrics' scalar fields; `failures` and `pricing` have
/// their own (see the FailureStats visitor).
template <typename Visit, InstanceOf<RunMetrics>... S>
void visit_fields(Visit&& visit, S&... s) {
  visit("jobs", Fold::kSum, s.jobs...);
  visit("avg_bounded_slowdown", Fold::kJobMean, s.avg_bounded_slowdown...);
  visit("max_bounded_slowdown", Fold::kMax, s.max_bounded_slowdown...);
  visit("avg_wait", Fold::kJobMean, s.avg_wait...);
  visit("rj_proc_seconds", Fold::kSum, s.rj_proc_seconds...);
  visit("rv_charged_seconds", Fold::kSum, s.rv_charged_seconds...);
  visit("makespan", Fold::kMax, s.makespan...);
  visit("workflows", Fold::kSum, s.workflows...);
  visit("avg_workflow_makespan", Fold::kWorkflowMean, s.avg_workflow_makespan...);
  visit("max_workflow_makespan", Fold::kMax, s.max_workflow_makespan...);
}

/// Service-level totals of per-tenant runs: every field folds by the rule
/// its visit_fields entry names, runs taken in order.
[[nodiscard]] RunMetrics aggregate(std::span<const RunMetrics> runs);

class MetricsCollector {
 public:
  /// `slowdown_bound` is the bounded-slowdown runtime floor (paper: 10 s).
  explicit MetricsCollector(double slowdown_bound = 10.0);

  void record(const JobRecord& record);

  [[nodiscard]] std::size_t jobs() const noexcept { return slowdowns_.count(); }
  /// The job-record fields of RunMetrics. The engine fills the fleet cost
  /// (rv_charged_seconds), `failures` and `pricing` from the provider.
  [[nodiscard]] RunMetrics finalize() const;

  /// Raw per-job records (kept only when enabled; benches use them for
  /// distributional analyses).
  void keep_records(bool keep) noexcept { keep_records_ = keep; }
  [[nodiscard]] const std::vector<JobRecord>& records() const noexcept { return records_; }

  /// Determinism probe (DESIGN.md §7.5): fold every accumulator bit-exactly.
  /// The workflow-span map is unordered, so it goes through the
  /// order-insensitive fold (psched-lint D2).
  void capture_digest(util::StateDigest& digest) const;

 private:
  struct WorkflowSpan {
    SimTime first_submit = 0.0;
    SimTime last_finish = 0.0;
  };

  double bound_;
  bool keep_records_ = false;
  util::RunningStats slowdowns_;
  util::RunningStats waits_;
  double rj_ = 0.0;
  double makespan_ = 0.0;
  std::vector<JobRecord> records_;
  std::unordered_map<workload::WorkflowId, WorkflowSpan> workflows_;
};

}  // namespace psched::metrics
