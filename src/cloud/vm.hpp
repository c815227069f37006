#pragma once
// A single-core on-demand VM instance with EC2-style hourly billing.
//
// Billing model (paper Section 2/5.1): an instance is charged per started
// hour from the moment it is leased (boot time included, as on EC2); on
// release the elapsed lease duration is rounded up to the next full hour,
// with a minimum of one hour.

#include "cloud/pricing.hpp"
#include "util/types.hpp"

namespace psched::cloud {

enum class VmState {
  kBooting,  ///< leased, not yet usable (acquisition + boot delay)
  kIdle,     ///< usable, no job assigned
  kBusy,     ///< running (part of) a job
};

struct VmInstance {
  VmId id = kInvalidVm;
  SimTime lease_time = 0.0;     ///< when the lease started (billing clock zero)
  SimTime boot_complete = 0.0;  ///< lease_time + boot delay
  VmState state = VmState::kBooting;
  JobId running_job = kInvalidJob;  ///< valid iff state == kBusy
  SimTime busy_until = 0.0;         ///< actual completion time of running_job
  /// Predicted completion of running_job (valid iff state == kBusy): the
  /// only completion time schedulers may see; busy_until stays hidden.
  SimTime predicted_end = 0.0;

  // Failure-model outcomes, drawn at lease time (cloud/failure.hpp). With
  // the model off both keep their defaults and nothing reads them.
  bool boot_failed = false;     ///< boot will fail at boot_complete
  SimTime crash_at = kTimeNever;  ///< absolute crash time (never by default)

  // Pricing-model attributes (cloud/pricing.hpp), fixed at lease time.
  // With pricing off all keep their defaults and nothing reads them.
  std::uint32_t family = 0;  ///< index into the pricing model's families
  PurchaseTier tier = PurchaseTier::kOnDemand;
  SimTime revoke_warning_at = kTimeNever;  ///< spot: warning lead time start
  SimTime revoke_at = kTimeNever;          ///< spot: absolute revocation time
  bool doomed = false;  ///< revocation warning received; accepts no new work
};

/// Charged seconds for a lease interval [lease, release] under a billing
/// quantum (paper/EC2-classic: 3600 s; modern clouds bill per second):
/// elapsed time rounded up to the next quantum, minimum one quantum.
[[nodiscard]] double charged_seconds_for(SimTime lease_time, SimTime release_time,
                                         SimDuration quantum = kSecondsPerHour) noexcept;

/// Hours charged if the VM were released at `now` (>= lease start); ceil
/// with a one-quantum minimum, expressed in hours.
[[nodiscard]] double charged_hours(const VmInstance& vm, SimTime now,
                                   SimDuration quantum = kSecondsPerHour) noexcept;

/// Charged hours for an arbitrary lease interval [lease, release].
[[nodiscard]] double charged_hours_for(SimTime lease_time, SimTime release_time,
                                       SimDuration quantum = kSecondsPerHour) noexcept;

/// End of the currently paid period: lease_time + charged seconds.
[[nodiscard]] SimTime paid_until(const VmInstance& vm, SimTime now,
                                 SimDuration quantum = kSecondsPerHour) noexcept;

/// Seconds of already-paid time remaining at `now` (0 when `now` sits
/// exactly on a billing boundary). This is the "remaining time until charged
/// for the next hour" the BestFit/WorstFit VM-selection policies rank by.
[[nodiscard]] double remaining_paid(const VmInstance& vm, SimTime now,
                                    SimDuration quantum = kSecondsPerHour) noexcept;

/// Same quantity for a raw lease time (used by the online simulator on
/// profile snapshots, where full VmInstance objects do not exist).
[[nodiscard]] double remaining_paid_at(SimTime lease_time, SimTime now,
                                       SimDuration quantum = kSecondsPerHour) noexcept;

}  // namespace psched::cloud
