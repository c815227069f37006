#pragma once
// The outer, trace-driven simulation (the paper's extended-DGSim role):
// replays a workload trace against the IaaS cloud provider under a
// Scheduler (single policy or portfolio), and produces the paper's
// performance metrics.
//
// Event loop semantics (paper Section 5):
//  * job arrivals follow the trace;
//  * a scheduling tick fires every `schedule_period` seconds (20 s) while
//    the system is active; each tick asks the Scheduler for the governing
//    policy, provisions VMs, allocates the ordered queue head-first
//    (no backfilling), then releases idle VMs about to start a new paid
//    hour;
//  * leased VMs boot for `boot_delay` seconds before becoming usable and
//    are billed per started hour (see cloud::CloudProvider);
//  * jobs run to their *actual* runtime; the scheduler only ever sees
//    predictions, including for the predicted completion of running VMs in
//    the cloud profile it receives.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cloud/provider.hpp"
#include "core/scheduler.hpp"
#include "metrics/collector.hpp"
#include "obs/provider_tracer.hpp"
#include "policy/allocation.hpp"
#include "policy/job_selection.hpp"
#include "predict/predictor.hpp"
#include "sim/simulator.hpp"
#include "validate/invariant_checker.hpp"
#include "workload/trace.hpp"

namespace psched::engine {

using core::ReleaseRule;

struct EngineConfig {
  cloud::ProviderConfig provider;        ///< paper: 256 VMs, 120 s boot
  double schedule_period = 20.0;         ///< seconds between scheduling ticks
  double slowdown_bound = 10.0;          ///< bounded-slowdown floor
  metrics::UtilityParams utility;        ///< reporting utility parameters
  ReleaseRule release_rule = ReleaseRule::kEagerSurplus;
  /// kHeadOfLine (paper) or kEasyBackfill (deferred-future-work extension).
  policy::AllocationMode allocation = policy::AllocationMode::kHeadOfLine;
  bool keep_job_records = false;         ///< retain per-job outcome records
  /// Sample fleet/queue state every this many ticks into
  /// RunResult::telemetry (0 = off). Powers timeline plots and examples.
  std::uint64_t telemetry_every_ticks = 0;
  /// Runtime validation: per-event invariant checking and fault self-test
  /// mutations (src/validate). Off by default; zero-cost when off.
  validate::ValidationConfig validation;
  /// Deterministic failure injection (cloud/failure.hpp, DESIGN.md §10).
  /// All-zero rates (the default) disable the layer entirely: no model is
  /// constructed, no stream is drawn, and the run is bit-identical to a
  /// failure-free build.
  cloud::FailureConfig failure;
  /// Scheduler resilience (lease retry/backoff, bounded job resubmission);
  /// read only when `failure` is enabled.
  cloud::ResilienceConfig resilience;
  /// Heterogeneous VM families, spot market, and time-varying pricing
  /// (cloud/pricing.hpp, DESIGN.md §12). The all-default config disables the
  /// layer entirely: no model is constructed, no stream is drawn, and the
  /// run is bit-identical to a pricing-free build.
  cloud::PricingConfig pricing;
};

/// One fleet/queue snapshot (see EngineConfig::telemetry_every_ticks).
struct TelemetrySample {
  SimTime when = 0.0;
  std::size_t queued_jobs = 0;
  std::size_t queued_procs = 0;
  std::size_t leased_vms = 0;
  std::size_t idle_vms = 0;
  std::size_t busy_vms = 0;
  std::size_t booting_vms = 0;
};

struct RunResult {
  std::string trace_name;
  std::string scheduler_name;
  metrics::RunMetrics metrics;
  std::uint64_t ticks = 0;              ///< scheduling ticks executed
  std::uint64_t events = 0;             ///< DES events dispatched
  std::size_t total_leases = 0;         ///< VM lease operations
  std::vector<metrics::JobRecord> job_records;  ///< when keep_job_records
  std::vector<TelemetrySample> telemetry;       ///< when telemetry_every_ticks > 0
  /// Invariant checks evaluated (0 unless validation.check_invariants).
  std::uint64_t invariant_checks = 0;
  /// Recorded violations (non-empty only in record mode; abort mode dies at
  /// the first one). See validate::ValidationConfig::abort_on_violation.
  std::vector<validate::Violation> invariant_violations;
};

class ClusterSimulation {
 public:
  /// Borrows trace/scheduler/predictor; all must outlive run(). `recorder`
  /// (optional, borrowed) observes the run: tick/run phase timers, provider
  /// lease/release trace events (chained in front of the validation
  /// checker's observer slot), and — forwarded to the scheduler — selection
  /// round telemetry. Null or ObsLevel::kOff leaves every output
  /// bit-identical to an unobserved run.
  ClusterSimulation(EngineConfig config, const workload::Trace& trace,
                    core::Scheduler& scheduler, predict::RuntimePredictor& predictor,
                    obs::Recorder* recorder = nullptr);

  /// Execute the whole trace to completion and return the metrics.
  /// Single-shot: constructing a fresh ClusterSimulation per run keeps
  /// stateful predictors and schedulers from leaking state across runs.
  /// Exactly start() + drain + finish(), so a full run is bit-identical to
  /// an incremental one stepped with advance_until().
  [[nodiscard]] RunResult run();

  // --- incremental stepping (the multi-tenant epoch loop; DESIGN.md §13) ---
  // A MultiTenantExperiment interleaves N simulations on shared provider
  // capacity: start() each once, advance_until() them wave by wave, adjust
  // allowances between waves, then finish() each when no events remain.
  // A tenant is an ordinary simulation: each owns all of its state,
  // crash-kill counts included, so the waves share nothing mutable.

  /// Schedule every trace arrival. Single-shot, implied by run().
  void start();
  /// Dispatch all events with time <= horizon (monotone in `horizon`).
  void advance_until(SimTime horizon);
  /// True while undispatched events remain.
  [[nodiscard]] bool active() const noexcept { return sim_.has_pending(); }
  /// Time of the earliest undispatched event; kTimeNever once none remain.
  [[nodiscard]] SimTime next_event_time() const { return sim_.next_event_time(); }
  /// Final end-of-trace assertions, stats, and metrics. Call once, after
  /// active() turns false.
  [[nodiscard]] RunResult finish();

  /// Clamp the provider's lease cap to the arbiter's allowance for the next
  /// epoch. Policies see the allowance as the cloud's max_vms; the cap never
  /// drops below the live fleet (the arbiter floors at leased VMs).
  void set_vm_allowance(std::size_t allowance);

  /// Current simulated time (epoch bookkeeping for the arbiter).
  [[nodiscard]] SimTime now() const noexcept { return sim_.now(); }

  /// Demand snapshot the fairness arbiter prices: live fleet + queued width.
  struct LoadView {
    std::size_t leased_vms = 0;
    std::size_t queued_procs = 0;
  };
  [[nodiscard]] LoadView load_view() const;

  /// Hours charged so far, counting still-open leases as if settled now
  /// (per-tenant budget accounting between epochs).
  [[nodiscard]] double charged_hours_so_far() const noexcept {
    return provider_.charged_hours_total(sim_.now());
  }

  /// Determinism probe (DESIGN.md §7.5): fold every piece of deterministic
  /// simulation state — event-queue clock, fleet, waiting/running/blocked
  /// jobs, failure/pricing RNG stream positions, crash-kill counts,
  /// metrics collector, and the scheduler's own state — into `digest`.
  /// Captured between advance_until calls; two runs that reached the same
  /// horizon through any start/advance split produce identical digests.
  /// Wall-clock quantities are excluded by construction.
  void capture_state(util::StateDigest& digest) const;

 private:
  struct Waiting {
    const workload::Job* job;
    SimTime eligible;  ///< max(submit, completion of the last dependency)
  };

  void on_arrival();
  void on_tick();
  void on_job_finish(JobId id);
  void arm_tick(std::uint64_t index);  // at sim::tick_time(index, period)
  void enqueue(const workload::Job& job, SimTime eligible);

  // Failure/resilience paths (no-ops unless config_.failure.enabled()).
  /// Boot-complete event: finish the boot, or reap the lease if its boot
  /// failed. Tolerates the VM being gone (crashed while booting).
  void on_boot_complete(VmId id);
  /// Crash event at the VM's drawn crash time. Kills the running job slice
  /// (if busy), settles the lease, and tolerates stale events for VMs that
  /// were already released.
  void on_vm_crash(VmId id);
  /// Kill the job slice running on `crashed_vm`: cancel its finish event,
  /// free sibling VMs, and either re-queue the job (bounded resubmission)
  /// or drop it for good.
  void kill_running_job(JobId id, VmId crashed_vm, SimTime now);
  /// Drop a job for good and cascade to every transitive workflow
  /// dependent (they can never become eligible).
  void kill_final(const workload::Job& job, SimTime now);

  // Spot-market paths (no-ops unless config_.pricing enables a spot tier).
  /// Revocation-warning event at the lease's drawn warning instant: marks
  /// the VM doomed so the allocator stops placing new work on it. Tolerates
  /// stale events (the VM was already released or revoked).
  void on_spot_warning(VmId id);
  /// Revocation event at the lease's drawn revocation instant: kills the
  /// running job slice (if busy, through the same bounded-resubmission
  /// machinery as a crash) and settles the lease at the spot price.
  void on_spot_revoke(VmId id);

  /// Refill profile_'s header and market view. Its VMs (every VM, busy ones
  /// at their predicted end) only with jobs queued and a scheduler that
  /// reads them (Scheduler::policy_for_tick, reads_fleet); empty otherwise.
  void fill_profile(SimTime now);
  /// Refill avail_, the planner's rows, from the fleet after provisioning:
  /// every VM that is not doomed, in id order.
  void fill_rows(SimTime now);
  /// Refill annotated_ from queue_ (submit order, predicted runtimes).
  void annotate_queue();
  /// fstats_ plus the provider's boot-failure, crash and API-rejection counts.
  [[nodiscard]] metrics::FailureStats failure_stats() const;

  EngineConfig config_;
  const workload::Trace& trace_;
  core::Scheduler& scheduler_;
  predict::RuntimePredictor& predictor_;
  const bool reads_fleet_;  // scheduler_.reads_fleet(), asked once

  sim::Simulator sim_;
  cloud::CloudProvider provider_;
  metrics::MetricsCollector collector_;
  std::unique_ptr<validate::InvariantChecker> checker_;  // when check_invariants
  obs::Recorder* recorder_;                              // null = unobserved
  std::unique_ptr<obs::ProviderTracer> provider_tracer_;  // when recorder on
  policy::PolicyTriple context_policy_{};  // last policy published to SimContext

  std::vector<Waiting> queue_;                 // submit order
  std::size_t next_arrival_ = 0;               // index into trace jobs
  bool tick_armed_ = false;
  std::uint64_t tick_index_ = 0;               // the armed (or last fired) tick
  bool started_ = false;
  std::uint64_t ticks_run_ = 0;
  std::vector<TelemetrySample> telemetry_;

  struct Running {
    const workload::Job* job;
    SimTime start;
    SimTime eligible;
    std::vector<VmId> vms;
    sim::EventId finish_event = sim::kInvalidEvent;  // cancelled on a crash kill
  };
  std::unordered_map<JobId, Running> running_;

  // Workflow dependency tracking. A job enters queue_ only when it has
  // arrived AND all of its dependencies completed.
  std::unordered_map<JobId, std::size_t> open_deps_;          // remaining deps
  std::unordered_map<JobId, std::vector<const workload::Job*>> dependents_;
  std::unordered_map<JobId, const workload::Job*> arrived_blocked_;

  // Failure/resilience state (inert — and mostly empty — when
  // config_.failure.enabled() is false). Each simulation owns its backoff
  // schedule, so a multi-tenant experiment gets per-tenant backoff state
  // (seeded from the tenant's own failure seed) for free.
  std::unique_ptr<cloud::FailureModel> failure_model_;  // only when enabled
  cloud::BackoffSchedule lease_backoff_;
  SimTime next_lease_attempt_ = 0.0;  // lease calls held back until here
  // Crash kills per job, against config_.resilience.max_resubmits. The
  // engine is single-shot, so counts never outlive the run, and tenants of a
  // shared experiment never pool budgets over colliding job ids.
  std::unordered_map<JobId, std::size_t> kills_;
  std::unordered_set<JobId> dead_jobs_;  // killed-final + dead dependents
  metrics::FailureStats fstats_;

  // Pricing state (inert when config_.pricing.enabled() is false).
  std::unique_ptr<cloud::PricingModel> pricing_model_;  // only when enabled
  std::vector<cloud::LeaseRequest> lease_plan_scratch_;

  // Per-tick buffers, refilled every tick (contents meaningless between
  // ticks; reuse only keeps capacity warm, so a steady-state tick does not
  // allocate).
  std::vector<policy::QueuedJob> annotated_;
  cloud::CloudProfile profile_;
  policy::OrderScratch order_scratch_;
  std::vector<policy::VmAvail> avail_;
  policy::AllocationPlan plan_;
  policy::AllocationScratch alloc_scratch_;
  std::vector<bool> served_;       // per annotated_ entry: started this tick
  std::vector<VmId> release_ids_;  // VMs the release step hands back
};

}  // namespace psched::engine
