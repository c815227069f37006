#pragma once
// The shared, rebuild-free selection-round snapshot (DESIGN.md §11).
//
// One selection round simulates up to the whole portfolio against the SAME
// problem instance (queue + cloud profile). Before this layer existed,
// every OnlineSimulator::simulate call re-derived its working state from
// the raw inputs: clamp each VmView's available_at to the snapshot instant,
// copy the queue, allocate fresh vectors. A RoundSnapshot does that
// derivation exactly once per round, stores the result in contiguous
// struct-of-arrays columns every candidate reads.
//
// build() reuses the column capacity from the previous round, so a
// long-running selector stops allocating here after the first few rounds.
//
// Thread-safety: a RoundSnapshot is written by the selector's coordinating
// thread before a wave is dispatched and only read afterwards; concurrent
// candidate simulations share it read-only.

#include <cstddef>
#include <span>
#include <vector>

#include "cloud/profile.hpp"
#include "policy/context.hpp"
#include "util/types.hpp"

namespace psched::core {

struct RoundSnapshot {
  // Scalars (copied from the CloudProfile).
  SimTime t0 = 0.0;
  std::size_t max_vms = 0;
  SimDuration billing_quantum = 0.0;

  // Queue columns (one row per queued job, queue order preserved).
  std::vector<JobId> job_id;
  std::vector<SimTime> job_submit;
  std::vector<int> job_procs;
  std::vector<double> job_predicted;

  // VM columns (one row per leased VM, profile order preserved);
  // vm_available is already clamped to t0 (an idle VM's available_at may
  // predate the snapshot instant; the inner sim only cares "usable now").
  // vm_family/vm_tier are 0 (family 0, on-demand) with pricing off.
  std::vector<SimTime> vm_lease;
  std::vector<SimTime> vm_available;
  std::vector<unsigned char> vm_busy;
  std::vector<std::uint32_t> vm_family;
  std::vector<unsigned char> vm_tier;

  // The round's market (DESIGN.md §12), always present. With pricing on it
  // is the profile's view, frozen at t0 (multiplier + epoch); candidate
  // inner sims price everything at that frozen multiplier. With pricing
  // off it is the degenerate market — one family at price 1.0 with the
  // profile's boot delay and no cap, `enabled` false — under which the
  // inner sim's single provisioning path reproduces the paper's cloud.
  cloud::PricingView pricing;

  /// Derive the snapshot from the raw selection inputs. Reuses column
  /// capacity; safe to call once per round on a long-lived instance.
  void build(std::span<const policy::QueuedJob> queue, const cloud::CloudProfile& profile);

  [[nodiscard]] std::size_t job_count() const noexcept { return job_id.size(); }
  [[nodiscard]] std::size_t vm_count() const noexcept { return vm_lease.size(); }

  /// Materialize the queue rows as policy::QueuedJob values into `out`
  /// (cleared first, capacity reused) — the per-candidate mutable pending
  /// queue the inner sim's policy interface consumes.
  void fill_pending(std::vector<policy::QueuedJob>& out) const;
};

}  // namespace psched::core
