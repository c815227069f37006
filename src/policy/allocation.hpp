#pragma once
// The allocation step shared by the outer engine and the online simulator:
// given the policy-ordered queue and the (predicted) availability of every
// leased VM, decide which jobs start *now* and on which VMs.
//
// Two modes:
//  * kHeadOfLine — the paper's: serve strictly from the head, stop at the
//    first job that does not fit.
//  * kEasyBackfill — EASY backfilling (Lifka '95), the extension the paper
//    defers to future work: the blocked head job gets a reservation at the
//    earliest instant enough VMs are (predictedly) available; later jobs
//    may start immediately iff they fit the idle VMs and either finish by
//    that reservation or consume only VMs the head will not need.
//
// Everything here sees *predicted* completion times only, preserving the
// scheduler's information constraints.

#include <cstdint>
#include <span>
#include <vector>

#include "policy/vm_selection.hpp"

namespace psched::policy {

enum class AllocationMode {
  kHeadOfLine,
  kEasyBackfill,
};

/// Availability view of one leased VM at planning time.
struct VmAvail {
  VmId id = kInvalidVm;
  SimTime lease_time = 0.0;    ///< billing clock zero (for VM selection)
  SimTime available_at = 0.0;  ///< <= now: idle; otherwise predicted free time
};

/// Allocation decisions in flat struct-of-arrays form: each start's chosen
/// VM ids occupy the contiguous range [vm_begin, vm_end) of `vm_ids`. Both
/// callers (the engine and the online simulator) own one AllocationPlan and
/// reuse it across decisions — two vectors that only grow, no per-start
/// allocations.
struct AllocationPlan {
  struct Start {
    std::size_t queue_index = 0;
    std::uint32_t vm_begin = 0;
    std::uint32_t vm_end = 0;
  };
  std::vector<Start> starts;
  std::vector<VmId> vm_ids;

  void clear() noexcept {
    starts.clear();
    vm_ids.clear();
  }
  [[nodiscard]] bool empty() const noexcept { return starts.empty(); }
  [[nodiscard]] std::span<const VmId> vms_of(const Start& start) const noexcept {
    return {vm_ids.data() + start.vm_begin, start.vm_end - start.vm_begin};
  }
};

/// Reusable working state for plan_allocation_into: the idle-candidate pool
/// and the EASY shadow-time scratch. Nothing in it is indexed by VM id, so
/// its size follows the fleet, not the largest id ever leased. Contents are
/// meaningless between calls; reuse only keeps vector capacity warm.
struct AllocationScratch {
  std::vector<VmCandidate> idle;
  std::vector<SimTime> times;
};

/// Compute the starts for this scheduling decision into `out` (cleared
/// first). `ordered_queue` must already be in service order (see
/// order_queue); VM ids must be unique. `vms` is read-only: the planner
/// keeps no copy of it. Head-of-line mode reads only the idle VMs; EASY
/// takes the head's shadow time from the predicted free instants — `now`
/// for VMs still idle, the predicted end for VMs just started, each other
/// VM's own `available_at`.
void plan_allocation_into(SimTime now, std::span<const QueuedJob> ordered_queue,
                          std::span<const VmAvail> vms,
                          const VmSelectionPolicy& vm_selection, AllocationMode mode,
                          SimDuration billing_quantum, AllocationPlan& out,
                          AllocationScratch& scratch);

}  // namespace psched::policy
