#include "policy/allocation.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace psched::policy {

namespace {

/// Start `job` (at `queue_index`) on the first `job.procs` VMs of the idle
/// pool in the VM-selection policy's preference order: append their ids to
/// `plan` and remove them from the pool.
void take_vms(std::vector<VmCandidate>& idle, const QueuedJob& job, std::size_t queue_index,
              SimTime now, const VmSelectionPolicy& vm_selection,
              SimDuration billing_quantum, AllocationPlan& plan) {
  vm_selection.order(idle, job.predicted_runtime, now, billing_quantum);
  const auto taken = idle.begin() + job.procs;
  AllocationPlan::Start start;
  start.queue_index = queue_index;
  start.vm_begin = static_cast<std::uint32_t>(plan.vm_ids.size());
  for (auto it = idle.begin(); it != taken; ++it) plan.vm_ids.push_back(it->id);
  start.vm_end = static_cast<std::uint32_t>(plan.vm_ids.size());
  idle.erase(idle.begin(), taken);
  plan.starts.push_back(start);
}

}  // namespace

void plan_allocation_into(SimTime now, std::span<const QueuedJob> ordered_queue,
                          std::span<const VmAvail> vms,
                          const VmSelectionPolicy& vm_selection, AllocationMode mode,
                          SimDuration billing_quantum, AllocationPlan& out,
                          AllocationScratch& scratch) {
  out.clear();
  std::vector<VmCandidate>& idle = scratch.idle;
  idle.clear();
  for (const VmAvail& vm : vms)
    if (vm.available_at <= now) idle.push_back({vm.id, vm.lease_time});

  // Phase 1 (both modes): serve from the head while jobs fit.
  std::size_t head = ordered_queue.size();  // first unserved position
  for (std::size_t i = 0; i < ordered_queue.size(); ++i) {
    const QueuedJob& job = ordered_queue[i];
    if (idle.size() < static_cast<std::size_t>(job.procs)) {
      head = i;
      break;
    }
    take_vms(idle, job, i, now, vm_selection, billing_quantum, out);
  }
  if (mode == AllocationMode::kHeadOfLine || head >= ordered_queue.size()) return;

  // Phase 2 (EASY): reservation for the blocked head job.
  const QueuedJob& blocked = ordered_queue[head];
  const auto need = static_cast<std::size_t>(blocked.procs);
  if (vms.size() < need) {
    // The existing fleet can never host the head job — its start hinges on
    // future provisioning, for which no reservation can be computed.
    // Backfilling around an unbounded reservation could starve the head,
    // so serve nothing past it.
    return;
  }
  // The predicted instant each VM is free: now for the VMs still idle, the
  // predicted end for the VMs phase 1 just started, and its own
  // availability for every VM that was not idle.
  std::vector<SimTime>& times = scratch.times;
  times.assign(idle.size(), now);
  for (const AllocationPlan::Start& start : out.starts) {
    const SimTime end = std::max(now + ordered_queue[start.queue_index].predicted_runtime, now);
    times.insert(times.end(), start.vm_end - start.vm_begin, end);
  }
  for (const VmAvail& vm : vms)
    if (vm.available_at > now) times.push_back(vm.available_at);
  std::nth_element(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(need) - 1,
                   times.end());
  const SimTime shadow = times[need - 1];  // earliest instant `need` VMs are free
  // VMs free by the shadow time beyond the head's need may be consumed by
  // backfilled jobs that run past the reservation.
  const auto free_at_shadow = static_cast<std::size_t>(
      std::count_if(times.begin(), times.end(), [shadow](SimTime t) { return t <= shadow; }));
  PSCHED_ASSERT(free_at_shadow >= need);
  std::size_t extra = free_at_shadow - need;

  for (std::size_t i = head + 1; i < ordered_queue.size(); ++i) {
    if (idle.empty()) break;
    const QueuedJob& job = ordered_queue[i];
    const auto width = static_cast<std::size_t>(job.procs);
    if (idle.size() < width) continue;
    const bool fits_window = now + job.predicted_runtime <= shadow;
    if (!fits_window) {
      if (width > extra) continue;
      extra -= width;
    }
    take_vms(idle, job, i, now, vm_selection, billing_quantum, out);
  }
}

}  // namespace psched::policy
