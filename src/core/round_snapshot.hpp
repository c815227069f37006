#pragma once
// The shared, rebuild-free selection-round snapshot (DESIGN.md §11).
//
// One selection round simulates up to the whole portfolio against the SAME
// problem instance (queue + cloud profile). A RoundSnapshot derives, once
// per round, the rows every candidate's inner simulation starts from: the
// queue, one policy::VmAvail row per leased VM (ids 0..n-1 in profile
// order, availability clamped to the snapshot instant, since the inner sim
// only cares "usable now") and the VMs' facts. SimArena::start copies them
// into a candidate's arena.
//
// build() reuses the rows' capacity from the previous round, so a
// long-running selector stops allocating here after the first few rounds.
//
// Thread-safety: a RoundSnapshot is written by the selector's coordinating
// thread before a wave is dispatched and only read afterwards; concurrent
// candidate simulations share it read-only.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cloud/profile.hpp"
#include "policy/allocation.hpp"
#include "policy/context.hpp"
#include "util/types.hpp"

namespace psched::core {

/// What the inner simulation knows of one VM besides its policy::VmAvail
/// row. With pricing off every VM is family 0, on-demand.
struct VmFacts {
  std::uint32_t family = 0;  ///< family index into the round's market
  cloud::PurchaseTier tier = cloud::PurchaseTier::kOnDemand;
  bool busy = false;   ///< has (ever) run a job
  bool fresh = false;  ///< leased during this simulation
};

struct RoundSnapshot {
  // Scalars (copied from the CloudProfile).
  SimTime t0 = 0.0;
  std::size_t max_vms = 0;
  SimDuration billing_quantum = 0.0;

  std::vector<policy::QueuedJob> queue;  ///< queue order preserved
  std::vector<policy::VmAvail> vms;      ///< row i is VM id i, profile order
  std::vector<VmFacts> facts;            ///< parallel to `vms`; none fresh

  // The round's market (DESIGN.md §12), always present. With pricing on it
  // is the profile's view, frozen at t0 (multiplier + epoch); candidate
  // inner sims price everything at that frozen multiplier. With pricing
  // off it is the degenerate market — one family at price 1.0 with the
  // profile's boot delay and no cap, `enabled` false — under which the
  // inner sim's single provisioning path reproduces the paper's cloud.
  cloud::PricingView pricing;

  /// Derive the snapshot from the raw selection inputs. Reuses row
  /// capacity; safe to call once per round on a long-lived instance.
  void build(std::span<const policy::QueuedJob> jobs, const cloud::CloudProfile& profile);

  [[nodiscard]] std::size_t job_count() const noexcept { return queue.size(); }
  [[nodiscard]] std::size_t vm_count() const noexcept { return vms.size(); }
};

}  // namespace psched::core
