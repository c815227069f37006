#pragma once
// What a scheduling policy is allowed to see: the waiting queue (with waits
// and *predicted* runtimes — policies never see actual runtimes) and an
// aggregate view of the leased fleet. Both the outer engine and the online
// simulator construct SchedContext values, so every policy behaves
// identically in reality and in portfolio simulation.

#include <cstddef>
#include <span>
#include <vector>

#include "util/types.hpp"
#include "workload/job.hpp"

namespace psched::cloud {
struct PricingView;
}  // namespace psched::cloud

namespace psched::policy {

/// A job waiting in the queue, as a policy sees it.
struct QueuedJob {
  JobId id = kInvalidJob;
  SimTime submit = 0.0;
  int procs = 1;
  double predicted_runtime = 1.0;  ///< from the active RuntimePredictor

  [[nodiscard]] double wait(SimTime now) const noexcept { return now - submit; }
};

/// Snapshot handed to provisioning policies.
struct SchedContext {
  SimTime now = 0.0;
  std::span<const QueuedJob> queue;
  std::size_t idle_vms = 0;     ///< usable now
  std::size_t booting_vms = 0;  ///< leased, usable soon
  std::size_t total_vms = 0;    ///< leased = idle + booting + busy
  std::size_t max_vms = 256;    ///< provider cap
  /// Pricing snapshot (cloud/pricing.hpp). The engine and the online
  /// simulator always set it; with pricing off it is not `enabled` (the
  /// online simulator's is the one-family degenerate market). Tier-aware
  /// policies consult it in lease_plan(); disabled or null, every policy
  /// behaves exactly as in the single-price paper model.
  const cloud::PricingView* pricing = nullptr;

  /// Total processors requested by the queue.
  [[nodiscard]] std::size_t queued_procs() const noexcept;

  /// Widest queued job (0 when the queue is empty).
  [[nodiscard]] std::size_t max_queued_procs() const noexcept;
};

/// An idle VM as seen by VM-selection policies.
struct VmCandidate {
  VmId id = kInvalidVm;
  SimTime lease_time = 0.0;  ///< billing clock zero, for remaining-paid math
  double key = 0.0;          ///< sort key, written by VmSelectionPolicy::order
};

}  // namespace psched::policy
