#pragma once
// Reusable scratch arena for the online simulator's fast path (DESIGN.md
// §11). One SimArena holds every piece of mutable state a single inner
// simulation needs — the VM table, the pending queue, the allocation plan
// and its scratch, and the state of the sibling checks — as
// vectors that are cleared (capacity kept) between candidates instead of
// reallocated.
//
// The selector owns one arena per batch lane, so concurrent candidate
// evaluations never share an arena; the arena itself is strictly
// single-threaded state.

#include <cstdint>
#include <vector>

#include "cloud/pricing.hpp"
#include "policy/allocation.hpp"
#include "policy/job_selection.hpp"

namespace psched::core {

struct SimArena {
  // --- VM table ---------------------------------------------------------
  // Row i is one live VM. `vms` holds the (id, lease, availability) rows the
  // planner reads in place; the other columns run parallel to it. The
  // decision loop's one fleet pass per decision reads `vms` and `vm_busy`.
  // Ids are assigned 0,1,2,... by the simulation and never reused, so
  // `vm_row` is a dense id -> row map that survives swap-removal.
  std::vector<policy::VmAvail> vms;
  std::vector<unsigned char> vm_fresh;  ///< leased during this simulation
  std::vector<unsigned char> vm_busy;   ///< has (ever) run a job
  std::vector<std::uint32_t> vm_row;    ///< VmId -> row (stale for removed ids)
  std::vector<std::uint32_t> vm_family;  ///< family index into `pricing`
  std::vector<unsigned char> vm_tier;    ///< cloud::PurchaseTier

  // --- per-decision working state ---------------------------------------
  std::vector<policy::QueuedJob> pending;  ///< the simulated queue (AoS: policy API)
  std::vector<unsigned char> served;       ///< queue-compaction mark bits
  policy::OrderScratch order;
  policy::AllocationScratch alloc;
  policy::AllocationPlan plan;
  std::vector<cloud::LeaseRequest> lease_requests;  ///< lease_plan scratch
  /// Mutable copy of the round's market (the one-family degenerate view
  /// with pricing off): the inner sim keeps reserved/family occupancy
  /// current as it leases and releases so tier-aware policies see live
  /// headroom. Market state stays frozen at the snapshot (DESIGN.md §12).
  cloud::PricingView pricing;

  // --- sibling checks (DESIGN.md §11.5) ----------------------------------
  std::vector<std::uint32_t> agreeing;  ///< siblings that agreed so far
  std::vector<policy::VmCandidate> idle_rows;     ///< the decision's idle pool
  std::vector<policy::VmCandidate> sibling_pool;  ///< one sibling's replayed pool
  std::vector<VmId> taken_ids;  ///< the plan's ids, sorted within each start

  [[nodiscard]] std::size_t vm_count() const noexcept { return vms.size(); }

  /// Start a new simulation: empty every container, keep every capacity.
  void reset() noexcept {
    vms.clear();
    vm_fresh.clear();
    vm_busy.clear();
    vm_row.clear();
    vm_family.clear();
    vm_tier.clear();
    pending.clear();
    served.clear();
    plan.clear();
    lease_requests.clear();
  }

  /// Append a VM row. `id` must be the next sequential id (the arena's
  /// id -> row map is positional at creation time).
  void push_vm(VmId id, SimTime lease, SimTime available, bool fresh, bool busy,
               std::uint32_t family, unsigned char tier) {
    vm_row.push_back(static_cast<std::uint32_t>(vms.size()));
    vms.push_back(policy::VmAvail{id, lease, available});
    vm_fresh.push_back(fresh ? 1 : 0);
    vm_busy.push_back(busy ? 1 : 0);
    vm_family.push_back(family);
    vm_tier.push_back(tier);
  }

  /// Swap-remove the VM at `row` (same order semantics as the old
  /// vector<InnerVm> release loop: the last row moves into `row`).
  void remove_vm(std::size_t row) noexcept {
    const std::size_t last = vms.size() - 1;
    vms[row] = vms[last];
    vm_fresh[row] = vm_fresh[last];
    vm_busy[row] = vm_busy[last];
    vm_family[row] = vm_family[last];
    vm_tier[row] = vm_tier[last];
    vm_row[static_cast<std::size_t>(vms[row].id)] = static_cast<std::uint32_t>(row);
    vms.pop_back();
    vm_fresh.pop_back();
    vm_busy.pop_back();
    vm_family.pop_back();
    vm_tier.pop_back();
  }
};

}  // namespace psched::core
