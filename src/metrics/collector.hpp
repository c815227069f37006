#pragma once
// Collects per-job scheduling outcomes and the fleet cost, and reduces them
// to the paper's performance space Y: average bounded slowdown (BSD), total
// job runtime (RJ), total charged VM time (RV == cost), utilization, and
// the compound utility U.

#include <cstddef>
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
  double failed_vm_charged_seconds = 0.0;  ///< paid-but-wasted compute:
                                           ///< charges of crashed/boot-failed leases

  [[nodiscard]] bool any() const noexcept {
    return boot_failures > 0 || vm_crashes > 0 || api_rejected_leases > 0 ||
           api_rejected_releases > 0 || lease_retries > 0 || job_kills > 0 ||
           jobs_killed_final > 0;
  }
};

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
  /// Paid-but-wasted compute: charged seconds on leases the cloud
  /// terminated (boot failures + crashes).
  [[nodiscard]] double paid_wasted_seconds() const noexcept {
    return failures.failed_vm_charged_seconds;
  }
  [[nodiscard]] double utilization() const noexcept {
    return rv_charged_seconds > 0.0 ? rj_proc_seconds / rv_charged_seconds : 0.0;
  }
  [[nodiscard]] double utility(const UtilityParams& params) const {
    return metrics::utility(params, rj_proc_seconds, rv_charged_seconds,
                            avg_bounded_slowdown);
  }
};

class MetricsCollector {
 public:
  /// `slowdown_bound` is the bounded-slowdown runtime floor (paper: 10 s).
  explicit MetricsCollector(double slowdown_bound = 10.0);

  void record(const JobRecord& record);

  /// Charged VM time is reported by the cloud provider at the end of a run.
  void set_charged_seconds(double rv_seconds) noexcept { rv_seconds_ = rv_seconds; }

  /// Failure/resilience aggregates, reported by the engine at the end of a
  /// run (defaults to all-zero for failure-off runs).
  void set_failure_stats(const FailureStats& stats) noexcept { failures_ = stats; }

  /// Pricing/market aggregates, reported by the engine at the end of a run
  /// (defaults to all-zero for pricing-off runs).
  void set_pricing_stats(const PricingStats& stats) noexcept { pricing_ = stats; }

  [[nodiscard]] std::size_t jobs() const noexcept { return slowdowns_.count(); }
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
  FailureStats failures_;
  PricingStats pricing_;
  util::RunningStats slowdowns_;
  util::RunningStats waits_;
  double rj_ = 0.0;
  double rv_seconds_ = 0.0;
  double makespan_ = 0.0;
  std::vector<JobRecord> records_;
  std::unordered_map<workload::WorkflowId, WorkflowSpan> workflows_;
};

}  // namespace psched::metrics
