#pragma once
// The EC2-style IaaS provider: lease/release with a concurrency cap, a
// fixed acquisition+boot delay, and per-started-hour billing. This is the
// authoritative VM state for the outer (trace-driven) simulation.

#include <cstddef>
#include <vector>

#include "cloud/failure.hpp"
#include "cloud/pricing.hpp"
#include "cloud/vm.hpp"
#include "util/types.hpp"
#include "validate/fault.hpp"

namespace psched::cloud {

struct ProviderConfig {
  std::size_t max_vms = 256;       ///< paper: up to 256 concurrent VMs
  SimDuration boot_delay = 120.0;  ///< paper: 120 s acquisition + boot
  /// Billing granularity: elapsed lease time is rounded up to a multiple
  /// of this (minimum one quantum). Paper/EC2-classic: 3600 s; modern
  /// clouds bill per second (see bench_ablation_billing).
  SimDuration billing_quantum = kSecondsPerHour;
  /// Validation self-test mutations (validate/fault.hpp): deliberately
  /// break billing/boot/cap behavior so the InvariantChecker's detection is
  /// itself testable. kNone (always, outside validation tests) is correct
  /// behavior.
  validate::FaultInjection inject_fault = validate::FaultInjection::kNone;
};

/// Passive observer of provider state transitions (validation hook). Each
/// callback fires *after* the provider applied the transition (for assign,
/// `vm` is the pre-assignment snapshot so the observer can see the state
/// the VM was taken from). Null observer = one branch per operation.
class ProviderObserver {
 public:
  virtual ~ProviderObserver() = default;
  virtual void on_lease(const VmInstance& vm, std::size_t leased_count, SimTime now) = 0;
  virtual void on_finish_boot(const VmInstance& vm, SimTime now) = 0;
  /// `vm` is the instance as it was immediately before assignment.
  virtual void on_assign(const VmInstance& vm, JobId job, SimTime now) = 0;
  virtual void on_unassign(const VmInstance& vm, SimTime now) = 0;
  /// `charged_hours_delta` is what this release added to the charged total.
  virtual void on_release(const VmInstance& vm, double charged_hours_delta,
                          SimTime now) = 0;

  // Failure-model events (cloud/failure.hpp). Default no-ops so observers
  // written before the failure layer keep compiling; failure-aware
  // observers (ProviderTracer, InvariantChecker) override them. Like
  // on_release, the termination callbacks fire after the charge was applied
  // but before the instance is erased.
  /// A booting VM's boot failed; the lease is charged and terminated.
  virtual void on_boot_fail(const VmInstance& /*vm*/,
                            double /*charged_hours_delta*/, SimTime /*now*/) {}
  /// A VM crashed mid-lease (any state); the lease is charged and
  /// terminated. The engine kills/requeues the running job first, so for a
  /// busy VM the snapshot still names the victim in `running_job`.
  virtual void on_crash(const VmInstance& /*vm*/, double /*charged_hours_delta*/,
                        SimTime /*now*/) {}
  /// A lease/release API call for `ops` VMs was rejected (outage window).
  virtual void on_api_reject(FailureOp /*op*/, std::size_t /*ops*/,
                             SimTime /*now*/) {}

  // Pricing-model events (cloud/pricing.hpp). Default no-ops for the same
  // reason as the failure callbacks; with pricing off none of them fire.
  /// A spot VM received its revocation warning (`doomed` was just set).
  virtual void on_spot_warning(const VmInstance& /*vm*/, SimTime /*now*/) {}
  /// A spot VM was revoked; like on_crash, fires after the charge was
  /// applied but before the instance is erased (the engine has already
  /// killed/requeued the running job).
  virtual void on_spot_revoke(const VmInstance& /*vm*/,
                              double /*charged_hours_delta*/, SimTime /*now*/) {}
  /// A lease was settled in dollars (release, crash, boot-fail, or
  /// revocation; pricing model attached). Fires alongside the hour-flavored
  /// callback with the same pre-erase snapshot.
  virtual void on_price_settle(const VmInstance& /*vm*/,
                               double /*cost_dollars*/, SimTime /*now*/) {}
};

class CloudProvider {
 public:
  explicit CloudProvider(ProviderConfig config = {});

  [[nodiscard]] const ProviderConfig& config() const noexcept { return config_; }

  /// Re-cap the lease concurrency limit mid-run (the multi-tenant arbiter
  /// moves each tenant's allowance every epoch). Never evicts: the cap may
  /// drop below the live fleet, in which case lease() grants nothing until
  /// releases bring the fleet back under it.
  void set_vm_cap(std::size_t cap) noexcept { config_.max_vms = cap; }

  /// Attach (or detach, with nullptr) a validation observer. Borrowed; must
  /// outlive the provider or be detached first.
  void set_observer(ProviderObserver* observer) noexcept { observer_ = observer; }

  /// Attach (or detach, with nullptr) the failure model. Borrowed. Null —
  /// the default — is exactly the pre-failure-layer provider: no draws, no
  /// rejections, no extra branches taken.
  void set_failure_model(FailureModel* model) noexcept { failure_ = model; }

  /// Attach (or detach, with nullptr) the pricing model. Borrowed. Null —
  /// the default — is the pre-pricing provider: one family, one tier, no
  /// dollar accounting, no extra branches taken.
  void set_pricing_model(PricingModel* model);

  /// Lease up to `count` VMs at `now`; returns the ids actually leased
  /// (shorter than `count` when the cap binds, empty when the request hits
  /// an API outage window). New VMs boot until now + boot_delay; with a
  /// failure model attached each grant draws its boot and crash outcomes
  /// (in grant order: boot stream first, then crash stream). Equivalent to
  /// lease({count, 0, kOnDemand}, now).
  std::vector<VmId> lease(std::size_t count, SimTime now);

  /// Tier-aware lease: additionally bounded by the requested family's cap
  /// and, for reserved requests, the unfilled commitment. With a pricing
  /// model attached the granted VMs boot with their family's boot delay,
  /// and spot grants draw a revocation time from the "spot" stream (after
  /// the failure draws, so failure streams are never perturbed).
  std::vector<VmId> lease(const LeaseRequest& request, SimTime now);

  /// Release an idle VM; charges ceil(lease duration) hours. It is a
  /// contract violation to release a busy or booting VM.
  void release(VmId id, SimTime now);

  /// Mark a booting VM usable. Called by the engine at boot_complete time.
  void finish_boot(VmId id, SimTime now);

  /// Bind an idle VM to a job that actually ends at `until` and is
  /// predicted to end at `predicted_end` (what schedulers see).
  void assign(VmId id, JobId job, SimTime until, SimTime predicted_end, SimTime now);

  /// Return a busy VM to idle (its job finished or was killed); clears
  /// both completion times.
  void unassign(VmId id, SimTime now);

  /// Release every idle VM whose paid period ends within `window` seconds
  /// of `now` (the end-of-billing-quantum release rule; see DESIGN.md).
  /// The first `keep_reserve` idle VMs (in id order) are exempt — they are
  /// a waiting head job's reserve and releasing them would cause
  /// lease/release thrash. Returns the number released.
  std::size_t release_expiring_idle(SimTime now, SimDuration window,
                                    std::size_t keep_reserve = 0);

  /// Release all VMs (end of experiment) so their cost is accounted.
  /// Never outage-gated: end-of-run settlement must always succeed.
  void release_all(SimTime now);

  /// Terminate a booting VM whose boot failed (engine calls this at
  /// boot-complete time when `boot_failed` was drawn). Charges ceil-hour
  /// like a release and erases the instance; returns the charged hours.
  double fail_boot(VmId id, SimTime now);

  /// Terminate a VM at its drawn crash time, whatever its state. Charges
  /// ceil-hour like a release and erases the instance; returns the charged
  /// hours. The engine must already have killed/requeued the running job —
  /// the provider only settles the lease.
  double crash(VmId id, SimTime now);

  /// Mark a spot VM doomed at its warning time: it keeps running whatever
  /// it has but the engine stops giving it new work. Idempotent-free by
  /// contract (the engine schedules exactly one warning per spot lease).
  void mark_doomed(VmId id, SimTime now);

  /// Revoke a spot VM at its drawn revocation time — mechanically a crash
  /// (charged ceil-hour, erased, job already killed by the engine) counted
  /// as a revocation, not a crash.
  double revoke(VmId id, SimTime now);

  /// Whether an API call of `ops` operations would be rejected at `now`
  /// (failure model attached and inside an outage window). When it is,
  /// counts the rejection and notifies the observer. `ops == 0` never
  /// rejects (an empty request is not an API call).
  [[nodiscard]] bool api_rejects(FailureOp op, std::size_t ops, SimTime now);

  // --- introspection -------------------------------------------------------
  // The counts are tallies kept at every transition, so each read is O(1).
  [[nodiscard]] std::size_t leased_count() const noexcept { return vms_.size(); }
  /// Live VMs in `state` whose doomed flag equals `doomed`.
  [[nodiscard]] std::size_t count(VmState state, bool doomed) const noexcept {
    return tally_[static_cast<std::size_t>(state)][doomed ? 1 : 0];
  }
  [[nodiscard]] std::size_t idle_count() const noexcept {
    return count(VmState::kIdle, false) + count(VmState::kIdle, true);
  }
  [[nodiscard]] std::size_t booting_count() const noexcept {
    return count(VmState::kBooting, false) + count(VmState::kBooting, true);
  }
  [[nodiscard]] std::size_t busy_count() const noexcept {
    return count(VmState::kBusy, false) + count(VmState::kBusy, true);
  }
  [[nodiscard]] std::size_t lease_headroom() const noexcept;

  /// Hours charged for already-released VMs.
  [[nodiscard]] double charged_hours_released() const noexcept { return charged_hours_; }

  /// Total charged hours if every live VM were released at `now`
  /// (released + accrued). This is RV in the paper's metrics.
  [[nodiscard]] double charged_hours_total(SimTime now) const noexcept;

  /// Lifetime count of lease() grants (for diagnostics).
  [[nodiscard]] std::size_t total_leases() const noexcept { return total_leases_; }

  // Failure accounting (all zero with the model detached).
  [[nodiscard]] std::size_t boot_failures() const noexcept { return boot_failures_; }
  [[nodiscard]] std::size_t crashes() const noexcept { return crashes_; }
  [[nodiscard]] std::size_t api_rejected_leases() const noexcept {
    return api_rejected_leases_;
  }
  [[nodiscard]] std::size_t api_rejected_releases() const noexcept {
    return api_rejected_releases_;
  }

  // Pricing accounting (all zero with the model detached). Dollar figures
  // cover settled (released/terminated) leases; the reserved commitment is
  // billed separately via PricingModel::commitment_cost.
  [[nodiscard]] std::size_t leases_of_tier(PurchaseTier tier) const noexcept {
    return leases_by_tier_[static_cast<std::size_t>(tier)];
  }
  [[nodiscard]] std::size_t spot_warnings() const noexcept { return spot_warnings_; }
  [[nodiscard]] std::size_t spot_revocations() const noexcept {
    return spot_revocations_;
  }
  [[nodiscard]] double spend_on_demand_dollars() const noexcept {
    return spend_on_demand_;
  }
  [[nodiscard]] double spend_spot_dollars() const noexcept { return spend_spot_; }
  /// What the settled spot leases would have cost on-demand, minus what
  /// they actually cost.
  [[nodiscard]] double spot_savings_dollars() const noexcept {
    return spot_savings_;
  }
  /// Charged seconds sunk into revoked leases (revocation waste).
  [[nodiscard]] double revoked_charged_seconds() const noexcept {
    return revoked_charged_seconds_;
  }
  /// Live reserved leases (never exceeds the commitment).
  [[nodiscard]] std::size_t reserved_live() const noexcept { return reserved_live_; }

  /// Access a live VM by id. Returns nullptr if unknown/released.
  [[nodiscard]] const VmInstance* find(VmId id) const noexcept;

  /// Stable iteration over live VMs in id order.
  [[nodiscard]] const std::vector<VmInstance>& vms() const noexcept { return vms_; }

  /// Replace `out` with the ids of the idle VMs, in id order (reuses its
  /// capacity).
  void idle_vms(std::vector<VmId>& out) const;

  /// Populate `view` with the live market state at `now` (family table with
  /// occupancy, frozen multiplier/epoch, commitment headroom). No-op with
  /// the model detached, leaving the view disabled. The engine calls it for
  /// the CloudProfile it hands schedulers, whose busy VMs read predicted,
  /// never actual, completion times.
  void fill_pricing_view(PricingView& view, SimTime now) const;

 private:
  /// Terminal-settlement flavor, for the observer dispatch.
  enum class Settlement { kBootFail, kCrash, kRevoke };

  [[nodiscard]] VmInstance* find_mut(VmId id) noexcept;
  /// The tally `vm` currently counts toward.
  [[nodiscard]] std::size_t& tally(const VmInstance& vm) noexcept {
    return tally_[static_cast<std::size_t>(vm.state)][vm.doomed ? 1 : 0];
  }
  /// Move `vm` to `state`, keeping the tallies in step.
  void set_state(VmInstance& vm, VmState state) noexcept;
  /// Erase a live VM (release or termination), keeping the tallies in step.
  void erase(const VmInstance* vm) noexcept;
  /// Charge a live VM's lease to `now`, notify the observer (crash,
  /// boot-fail, or revoke flavor), and erase it (shared terminal path of
  /// fail_boot/crash/revoke). Returns the charged hours.
  double terminate(VmInstance* vm, SimTime now, Settlement kind);
  /// Dollar-side settlement of a lease ending at `now` (no-op with the
  /// pricing model detached): accumulates per-tier spend and spot savings,
  /// releases family/reserved occupancy, notifies the observer.
  void settle_price(const VmInstance& vm, SimTime now);

  ProviderConfig config_;
  /// Construction-time lease cap. set_vm_cap() re-caps config_.max_vms (the
  /// admission limit the arbiter moves every epoch) but never this: pricing
  /// views resolve family caps against the structural capacity so what-if
  /// planning stays feasible for jobs wider than a transient allowance.
  std::size_t structural_max_vms_ = 0;
  std::vector<VmInstance> vms_;  // live VMs, sorted by id (append + erase)
  /// Live VMs per (state, doomed) pair: count() reads it.
  std::size_t tally_[3][2] = {{0, 0}, {0, 0}, {0, 0}};
  VmId next_id_ = 0;
  double charged_hours_ = 0.0;
  std::size_t total_leases_ = 0;
  ProviderObserver* observer_ = nullptr;
  FailureModel* failure_ = nullptr;
  std::size_t boot_failures_ = 0;
  std::size_t crashes_ = 0;
  std::size_t api_rejected_leases_ = 0;
  std::size_t api_rejected_releases_ = 0;
  PricingModel* pricing_ = nullptr;
  std::vector<std::size_t> family_live_;  // live leases per family
  std::size_t reserved_live_ = 0;
  std::size_t leases_by_tier_[3] = {0, 0, 0};
  std::size_t spot_warnings_ = 0;
  std::size_t spot_revocations_ = 0;
  double spend_on_demand_ = 0.0;
  double spend_spot_ = 0.0;
  double spot_savings_ = 0.0;
  double revoked_charged_seconds_ = 0.0;
};

}  // namespace psched::cloud
