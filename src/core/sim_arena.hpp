#pragma once
// Reusable scratch arena for the online simulator's fast path (DESIGN.md
// §11). One SimArena holds every piece of mutable state a single inner
// simulation needs — the VM table, the pending queue, the allocation plan
// and its scratch, and the state of the sibling checks — as
// vectors that are overwritten (capacity kept) between candidates instead of
// reallocated.
//
// The selector owns one arena per batch lane, so concurrent candidate
// evaluations never share an arena; the arena itself is strictly
// single-threaded state.

#include <cstdint>
#include <numeric>
#include <vector>

#include "cloud/pricing.hpp"
#include "core/round_snapshot.hpp"
#include "policy/allocation.hpp"
#include "policy/job_selection.hpp"

namespace psched::core {

struct SimArena {
  // --- VM table ---------------------------------------------------------
  // Row i is one live VM: `vms[i]` is the (id, lease, availability) row the
  // planner reads in place and `facts[i]` the rest. A simulation starts from
  // the snapshot's rows, whose ids are their rows; leases take the next ids
  // and ids are never reused, so `vm_row` is a dense id -> row map that
  // survives swap-removal.
  std::vector<policy::VmAvail> vms;
  std::vector<VmFacts> facts;
  std::vector<std::uint32_t> vm_row;  ///< VmId -> row (stale for removed ids)

  // --- the simulated queue and market -----------------------------------
  std::vector<policy::QueuedJob> pending;
  /// Mutable copy of the round's market (the one-family degenerate view
  /// with pricing off): the inner sim keeps reserved/family occupancy
  /// current as it leases and releases so tier-aware policies see live
  /// headroom. Market state stays frozen at the snapshot (DESIGN.md §12).
  cloud::PricingView pricing;

  // --- per-decision scratch ----------------------------------------------
  policy::OrderScratch order;
  policy::AllocationScratch alloc;
  policy::AllocationPlan plan;
  std::vector<cloud::LeaseRequest> lease_requests;  ///< lease_plan scratch

  // --- sibling checks (DESIGN.md §11.5) ----------------------------------
  std::vector<std::uint32_t> agreeing;  ///< siblings that agreed so far
  std::vector<policy::VmCandidate> idle_rows;     ///< the decision's idle pool
  std::vector<policy::VmCandidate> sibling_pool;  ///< one sibling's replayed pool
  std::vector<VmId> taken_ids;  ///< the plan's ids, sorted within each start

  [[nodiscard]] std::size_t vm_count() const noexcept { return vms.size(); }

  /// Start a simulation from `snapshot`'s rows, whose VM ids are their rows.
  void start(const RoundSnapshot& snapshot) {
    vms = snapshot.vms;
    facts = snapshot.facts;
    pending = snapshot.queue;
    vm_row.resize(vms.size());
    std::iota(vm_row.begin(), vm_row.end(), 0U);
  }

  /// Append a VM row under the next id.
  void push_vm(SimTime lease, SimTime available, VmFacts fact) {
    const auto id = static_cast<VmId>(vm_row.size());
    vm_row.push_back(static_cast<std::uint32_t>(vms.size()));
    vms.push_back(policy::VmAvail{id, lease, available});
    facts.push_back(fact);
  }

  /// Swap-remove the VM at `row`: the last row moves into `row`.
  void remove_vm(std::size_t row) noexcept {
    vms[row] = vms.back();
    facts[row] = facts.back();
    vm_row[static_cast<std::size_t>(vms[row].id)] = static_cast<std::uint32_t>(row);
    vms.pop_back();
    facts.pop_back();
  }
};

}  // namespace psched::core
