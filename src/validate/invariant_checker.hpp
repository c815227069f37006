#pragma once
// Runtime invariant checker for the outer cluster simulation.
//
// The checker observes every event-loop, cloud-provider, and engine-level
// transition of a run and asserts the IaaS-model invariants the paper's
// results depend on (the catalog below, documented in DESIGN.md,
// "Validation & testing"). It is compiled in always and attached only when
// ValidationConfig::check_invariants is set — a disengaged checker costs
// the engine one null-pointer branch per hook site.
//
// Invariant catalog (names appear in violation reports):
//   event.monotone-time    dispatch timestamps never decrease
//   event.no-past-schedule events are never scheduled before the clock
//   event.conservation     scheduled == dispatched + cancelled + pending
//   vm.cap                 leased VM count <= ProviderConfig::max_vms
//   vm.boot-before-run     no job is assigned to a VM before boot_complete
//   vm.idle-before-assign  jobs start only on idle VMs
//   billing.ceil           each release charges ceil(lease/quantum) quanta
//                          (crash/boot-fail terminations included)
//   billing.monotone       the charged total never decreases
//   job.conservation       submitted == queued + running + finished +
//                          blocked + killed-final (resubmitted jobs count
//                          as queued/running again, never twice)
//   job.width              a started job occupies exactly `procs` VMs
//   job.start-after-eligible  start >= eligibility >= submission
//   metrics.consistent     RJ/RV/BSD non-negative, BSD >= 1, RJ matches the
//                          sum of finished jobs' work, RV matches the
//                          provider's released charges
//   failure.consistent     failure-aware metrics match the observed event
//                          stream (boot-fails, crashes, kills), and every
//                          lease is settled by exactly one release, crash,
//                          boot failure, or spot revocation
//   pricing.cost           each dollar settlement equals the checker's own
//                          independent lease_cost recomputation
//   pricing.commitment     live reserved leases never exceed the commitment
//   pricing.revocation     only doomed spot leases are revoked (warning
//                          precedes the kill), billed ceil like a crash;
//                          a doomed lease takes no new job
//   pricing.consistent     pricing metrics match the observed event stream
//                          (warnings, revocations, per-tier spend, waste)
//   tenant.global-cap      arbiter allocations (and live leases) summed
//                          across tenants never exceed the shared provider
//                          cap, and no tenant is allocated below its live
//                          fleet (allowances never evict)
//   tenant.fairness        weighted max-min bound: no in-budget tenant with
//                          unmet demand sits more than one VM below its
//                          quota share while another tenant holds more than
//                          one VM above its own share (beyond its floor)
//   tenant.conservation    per-tenant submitted == finished + killed-final
//                          at the end of a multi-tenant run
//
// Violations either abort through util/assert.hpp::invariant_fail (with the
// simulated clock / event / policy context) or, in record mode, accumulate
// on the checker for harnesses to inspect (ValidationConfig::
// abort_on_violation).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "metrics/collector.hpp"
#include "sim/simulator.hpp"
#include "util/thread_annotations.hpp"
#include "util/types.hpp"
#include "validate/validation.hpp"

namespace psched::validate {

/// One recorded invariant violation (record mode).
struct Violation {
  std::string invariant;  ///< catalog name, e.g. "billing.ceil"
  std::string detail;     ///< human-readable specifics
  SimTime when = 0.0;     ///< simulated clock at detection
};

/// Aggregate job counts the engine reports at each scheduling tick for the
/// conservation invariant.
struct JobCensus {
  std::size_t submitted = 0;  ///< arrivals dispatched so far
  std::size_t queued = 0;     ///< waiting in the scheduler queue
  std::size_t running = 0;    ///< currently executing
  std::size_t finished = 0;   ///< completed (recorded by the collector)
  std::size_t blocked = 0;    ///< arrived but dependency-blocked
  /// Arrived jobs dropped for good by the failure layer: resubmission
  /// budget exhausted, or a workflow dependent of such a job. 0 without a
  /// failure model.
  std::size_t killed = 0;
};

/// One tenant's slice of a multi-tenant arbitration decision, reported by
/// MultiTenantExperiment after every epoch (engine/tenant.hpp).
struct TenantAllocation {
  std::size_t tenant = 0;
  double weight = 1.0;
  std::size_t leased_vms = 0;     ///< live fleet (the allocation floor)
  std::size_t demand_vms = 0;     ///< leased + queued width
  std::size_t allocated_vms = 0;  ///< the arbiter's grant for the next epoch
  bool over_budget = false;       ///< past its VM-hour budget (forfeits the
                                  ///< fairness guarantee, keeps its floor)
};

/// All observer hooks run on the engine's event-loop thread: the engine is
/// single-threaded (selector candidate waves parallelize *inner* what-if
/// simulations, never the outer engine), so the checker's counters need no
/// locking. PSCHED_CONFINED_TO records this; attaching one checker to
/// engines on multiple threads is unsupported.
class InvariantChecker final : public sim::SimObserver, public cloud::ProviderObserver {
 public:
  /// `provider` carries the *intended* semantics (cap, boot delay, billing
  /// quantum); the checker judges observed behavior against it, so injected
  /// faults (ProviderConfig::inject_fault) surface as violations. When
  /// `pricing` is enabled the checker builds its *own* PricingModel from it
  /// (the walk materialization is deterministic and the checker never draws
  /// from the spot stream, so recomputed prices match the provider's
  /// independently).
  InvariantChecker(ValidationConfig config, cloud::ProviderConfig provider,
                   cloud::PricingConfig pricing = {});

  // --- sim::SimObserver -----------------------------------------------------
  void on_schedule(SimTime when, SimTime now, sim::EventId id) override;
  void on_dispatch(SimTime now, SimTime previous, sim::EventId id) override;

  // --- cloud::ProviderObserver ----------------------------------------------
  void on_lease(const cloud::VmInstance& vm, std::size_t leased_count,
                SimTime now) override;
  void on_finish_boot(const cloud::VmInstance& vm, SimTime now) override;
  void on_assign(const cloud::VmInstance& vm, JobId job, SimTime now) override;
  void on_unassign(const cloud::VmInstance& vm, SimTime now) override;
  void on_release(const cloud::VmInstance& vm, double charged_hours_delta,
                  SimTime now) override;
  void on_boot_fail(const cloud::VmInstance& vm, double charged_hours_delta,
                    SimTime now) override;
  void on_crash(const cloud::VmInstance& vm, double charged_hours_delta,
                SimTime now) override;
  void on_spot_warning(const cloud::VmInstance& vm, SimTime now) override;
  void on_spot_revoke(const cloud::VmInstance& vm, double charged_hours_delta,
                      SimTime now) override;
  void on_price_settle(const cloud::VmInstance& vm, double cost_dollars,
                       SimTime now) override;

  // --- engine hooks ---------------------------------------------------------
  /// A job left the queue and started on `vm_count` VMs.
  void on_job_started(JobId job, int procs, std::size_t vm_count, SimTime eligible,
                      SimTime submit, SimTime now);
  /// A job finished; `record` is what the engine handed the collector.
  void on_job_finished(const metrics::JobRecord& record, SimTime now);
  /// A running job's slice was killed by a VM crash (it may be resubmitted
  /// or dropped for good; on_tick_end's census tells the two apart).
  void on_job_killed(JobId job, SimTime now);
  /// End of a scheduling tick: job conservation + cap re-check.
  void on_tick_end(const JobCensus& census, std::size_t leased_vms, SimTime now);
  /// End of run: event conservation, metric consistency, utility inputs.
  void on_run_end(const metrics::RunMetrics& metrics, const sim::Simulator& sim,
                  double provider_charged_hours);

  // --- multi-tenant service hooks (engine/tenant.hpp, DESIGN.md §13) --------
  // Called on the coordinating thread between tenant waves — never
  // concurrently with the per-tenant engine hooks above, which run on
  // per-tenant checkers.
  /// One arbitration decision: global-cap and weighted max-min fairness.
  void on_tenant_arbitration(const std::vector<TenantAllocation>& allocations,
                             std::size_t global_cap, SimTime now);
  /// One tenant's end-of-run totals: per-tenant job conservation.
  void on_tenant_run_end(std::size_t tenant, std::size_t submitted,
                         std::size_t finished, std::size_t killed, SimTime now);

  // --- results --------------------------------------------------------------
  [[nodiscard]] std::uint64_t checks_run() const noexcept { return checks_; }
  [[nodiscard]] std::uint64_t violation_count() const noexcept { return violation_count_; }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }

 private:
  /// Count one evaluated check; returns `ok` so call sites read naturally.
  bool check(bool ok) noexcept {
    ++checks_;
    return ok;
  }
  void fail(const char* invariant, SimTime when, std::string detail);

  ValidationConfig config_;
  cloud::ProviderConfig provider_;  ///< intended semantics

  std::uint64_t checks_ PSCHED_CONFINED_TO("engine event loop") = 0;
  std::uint64_t violation_count_ PSCHED_CONFINED_TO("engine event loop") = 0;
  std::vector<Violation> violations_ PSCHED_CONFINED_TO("engine event loop");

  SimTime last_dispatch_ PSCHED_CONFINED_TO("engine event loop") = 0.0;
  /// Checker's own running total of charged hours.
  double charged_total_hours_ PSCHED_CONFINED_TO("engine event loop") = 0.0;
  /// Sum of finished jobs' procs * runtime.
  double expected_rj_ PSCHED_CONFINED_TO("engine event loop") = 0.0;
  std::size_t finished_jobs_ PSCHED_CONFINED_TO("engine event loop") = 0;

  // Failure-event stream tallies (failure.consistent). All stay zero — and
  // the run-end cross-check stays silent — without a failure model.
  std::size_t observed_leases_ PSCHED_CONFINED_TO("engine event loop") = 0;
  std::size_t observed_releases_ PSCHED_CONFINED_TO("engine event loop") = 0;
  std::size_t observed_boot_fails_ PSCHED_CONFINED_TO("engine event loop") = 0;
  std::size_t observed_crashes_ PSCHED_CONFINED_TO("engine event loop") = 0;
  std::size_t observed_kills_ PSCHED_CONFINED_TO("engine event loop") = 0;
  double failed_charged_hours_ PSCHED_CONFINED_TO("engine event loop") = 0.0;

  // Pricing-event stream tallies (pricing.*). All stay zero — and the
  // run-end cross-check stays silent — without an enabled pricing config,
  // so pricing-off check counts are exactly the pre-pricing ones.
  cloud::PricingConfig pricing_config_;
  std::unique_ptr<cloud::PricingModel> pricing_model_;  // when pricing enabled
  std::size_t observed_spot_warnings_ PSCHED_CONFINED_TO("engine event loop") = 0;
  std::size_t observed_revokes_ PSCHED_CONFINED_TO("engine event loop") = 0;
  std::size_t reserved_live_vms_ PSCHED_CONFINED_TO("engine event loop") = 0;
  double observed_spend_on_demand_ PSCHED_CONFINED_TO("engine event loop") = 0.0;
  double observed_spend_spot_ PSCHED_CONFINED_TO("engine event loop") = 0.0;
  double revoked_charged_hours_ PSCHED_CONFINED_TO("engine event loop") = 0.0;
};

}  // namespace psched::validate
