#include "core/online_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cloud/vm.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "workload/job.hpp"

namespace psched::core {

namespace {

/// Charge for a VM released at `release` (see InnerCostModel).
/// kChargedHours: fresh VMs pay rounded-up hours from their lease;
/// pre-existing VMs pay only the hours added after the snapshot `t0`.
/// kElapsedMarginal: every VM pays exactly the time it was held within the
/// drain window [t0, release] (fresh VMs from their lease instant).
double charge_seconds(SimTime lease_time, bool fresh, SimTime release, SimTime t0,
                      InnerCostModel model, SimDuration quantum) {
  if (model == InnerCostModel::kElapsedMarginal) {
    return std::max(0.0, release - std::max(lease_time, t0));
  }
  const double total = cloud::charged_seconds_for(lease_time, release, quantum);
  if (fresh) return total;
  const double sunk = cloud::charged_seconds_for(lease_time, t0, quantum);
  return std::max(0.0, total - sunk);
}

/// Keeps in `agreeing` the siblings whose `part` policy passes `agrees`
/// (DESIGN.md §11.5). A sibling with the leader's policy passes unasked;
/// any other policy is judged once per call, by its first sibling in
/// `agreeing`, and a throw fails it (its own run throws there too, and
/// simulated alone it is quarantined as it would be without the check).
template <class Policy, class Agrees>
void keep_agreeing(std::vector<std::uint32_t>& agreeing,
                   std::span<const policy::PolicyTriple> siblings,
                   const Policy* policy::PolicyTriple::*part, const Policy* leader,
                   Agrees agrees) {
  // Verdicts are marked in place, so later siblings can look them up.
  constexpr std::uint32_t kDropped = 1U << 31;
  bool dropped = false;
  for (std::size_t k = 0; k < agreeing.size(); ++k) {
    const Policy* mine = siblings[agreeing[k]].*part;
    if (mine == leader) continue;
    std::size_t first = 0;
    while (first < k && siblings[agreeing[first] & ~kDropped].*part != mine) ++first;
    bool passes = false;
    if (first < k) {
      passes = (agreeing[first] & kDropped) == 0;
    } else {
      try {
        passes = agrees(*mine);
      } catch (const std::exception&) {
      }
    }
    if (!passes) {
      agreeing[k] |= kDropped;
      dropped = true;
    }
  }
  if (dropped) std::erase_if(agreeing, [](std::uint32_t i) { return (i & kDropped) != 0; });
}

/// Whether `job_selection`'s own order_queue would leave `queue`, the
/// leader's ordered queue, as it is: strictly in (priority, submit, id)
/// order. A NaN priority (on which order_queue throws) or an exact key tie
/// (which order_queue breaks by a queue position the leader's order may
/// have moved) counts as disagreement.
bool orders_alike(const policy::JobSelectionPolicy& job_selection, SimTime now,
                  std::span<const policy::QueuedJob> queue) {
  double prev = 0.0;
  for (std::size_t k = 0; k < queue.size(); ++k) {
    const double key = job_selection.priority(queue[k], now);
    if (std::isnan(key)) return false;
    if (k > 0 && !(prev > key)) {
      const policy::QueuedJob& a = queue[k - 1];
      const policy::QueuedJob& b = queue[k];
      if (prev < key || a.submit > b.submit || (a.submit == b.submit && a.id >= b.id))
        return false;
    }
    prev = key;
  }
  return true;
}

/// Whether `vm_selection`, replaying each start of this decision on its own
/// pool (its own order(), then the first procs VMs), takes the same set of
/// VMs as the plan at every start before `checked_end`; `arena.taken_ids`
/// holds each start's planned ids sorted. Starts from `checked_end` on
/// leave no choice.
bool vms_alike(const policy::VmSelectionPolicy& vm_selection, SimTime now,
               std::span<const policy::QueuedJob> queue, SimDuration quantum,
               std::size_t checked_end, SimArena& arena) {
  std::vector<policy::VmCandidate>& pool = arena.sibling_pool;
  pool.assign(arena.idle_rows.begin(), arena.idle_rows.end());
  for (std::size_t s = 0; s < checked_end; ++s) {
    const policy::AllocationPlan::Start& start = arena.plan.starts[s];
    const auto taken = pool.begin() + (start.vm_end - start.vm_begin);
    if (taken != pool.end()) {
      vm_selection.order(pool, queue[start.queue_index].predicted_runtime, now, quantum);
      // The taken VMs leave the pool next, so their order is free to use.
      std::sort(pool.begin(), taken,
                [](const policy::VmCandidate& a, const policy::VmCandidate& b) {
                  return a.id < b.id;
                });
      if (!std::equal(pool.begin(), taken, arena.taken_ids.begin() + start.vm_begin,
                      [](const policy::VmCandidate& c, VmId id) { return c.id == id; }))
        return false;
    }
    pool.erase(pool.begin(), taken);
  }
  return true;
}

/// Drops from `arena.agreeing` every sibling whose VM selection would have
/// taken other VMs than the plan at some start of this decision (DESIGN.md
/// §11.5). Runs before the plan is applied, while the rows still hold the
/// planner's idle pool of `idle` VMs. Only starts whose pool holds more VMs
/// than they take are checked: the fit tests read only pool sizes, so every
/// sibling makes the same starts, and a start that takes the whole pool has
/// no choice.
void check_vm_choices(SimTime now, std::span<const policy::QueuedJob> queue, std::size_t idle,
                      SimDuration quantum, const policy::VmSelectionPolicy* leader,
                      std::span<const policy::PolicyTriple> siblings, SimArena& arena) {
  const policy::AllocationPlan& plan = arena.plan;
  std::size_t checked_end = 0;
  std::size_t left = idle;
  for (std::size_t s = 0; s < plan.starts.size(); ++s) {
    const std::size_t taken = plan.starts[s].vm_end - plan.starts[s].vm_begin;
    PSCHED_ASSERT(taken <= left);
    if (left > taken) checked_end = s + 1;
    left -= taken;
  }
  if (checked_end == 0) return;
  // The replays' inputs, gathered for the first sibling that needs them.
  bool gathered = false;
  const auto agrees = [&](const policy::VmSelectionPolicy& vm_selection) {
    if (!gathered) {
      gathered = true;
      arena.idle_rows.clear();
      for (const policy::VmAvail& vm : arena.vms)
        if (vm.available_at <= now) arena.idle_rows.push_back({vm.id, vm.lease_time});
      PSCHED_ASSERT(arena.idle_rows.size() == idle);
      arena.taken_ids.assign(plan.vm_ids.begin(), plan.vm_ids.end());
      for (std::size_t s = 0; s < checked_end; ++s)
        std::sort(arena.taken_ids.begin() + plan.starts[s].vm_begin,
                  arena.taken_ids.begin() + plan.starts[s].vm_end);
    }
    return vms_alike(vm_selection, now, queue, quantum, checked_end, arena);
  };
  keep_agreeing(arena.agreeing, siblings, &policy::PolicyTriple::vm_selection, leader, agrees);
}

}  // namespace

OnlineSimulator::OnlineSimulator(OnlineSimConfig config) : config_(config) {
  PSCHED_ASSERT(config_.schedule_period > 0.0);
  PSCHED_ASSERT(config_.slowdown_bound > 0.0);
}

SimOutcome OnlineSimulator::simulate(std::span<const policy::QueuedJob> queue,
                                     const cloud::CloudProfile& profile,
                                     const policy::PolicyTriple& policy) const {
  RoundSnapshot snapshot;
  snapshot.build(queue, profile);
  SimArena arena;
  return simulate(snapshot, policy, arena);
}

SimOutcome OnlineSimulator::simulate(const RoundSnapshot& snapshot,
                                     const policy::PolicyTriple& policy,
                                     SimArena& arena) const {
  return simulate(snapshot, policy, {}, {}, arena);
}

SimOutcome OnlineSimulator::simulate(const RoundSnapshot& snapshot,
                                     const policy::PolicyTriple& policy,
                                     std::span<const policy::PolicyTriple> siblings,
                                     std::span<unsigned char> agreed, SimArena& arena) const {
  // Const-thread-safe for distinct arenas (see header): all mutable state
  // lives in `arena`; config_, the snapshot, and the policies are only read.
  PSCHED_ASSERT(agreed.size() == siblings.size());
  std::fill(agreed.begin(), agreed.end(), 0);
  PSCHED_ASSERT(policy.provisioning && policy.job_selection && policy.vm_selection);
  for (const policy::PolicyTriple& sibling : siblings)
    PSCHED_ASSERT_MSG(sibling.provisioning == policy.provisioning,
                      "a sibling shares the leader's provisioning policy");
  if (config_.inject_fault == validate::FaultInjection::kCandidateThrow)
    throw std::runtime_error("injected fault: candidate simulation throw");
  const SimTime t0 = snapshot.t0;

  arena.reset();
  arena.agreeing.clear();
  for (std::size_t i = 0; i < siblings.size(); ++i)
    arena.agreeing.push_back(static_cast<std::uint32_t>(i));
  // The arena keeps a mutable copy of the round's market (DESIGN.md §12):
  // occupancy (family in_use, reserved_in_use) tracks the inner fleet live
  // so tier-aware policies see real headroom, while the market itself stays
  // frozen at the snapshot's multiplier. With pricing off the snapshot's
  // market is one family at price 1.0, so every price weight below is
  // exactly 1.0 and this one path is the paper's cloud. Spot revocations
  // are NOT simulated inside a candidate (like crashes: the inner sim is
  // the scheduler's optimistic plan, not the adversary).
  arena.pricing = snapshot.pricing;
  /// Price weight of one VM row: effective $/quantum at the frozen market,
  /// as a multiplier on charged seconds.
  const auto price_weight = [&arena](std::size_t row) -> double {
    const cloud::PricingView& pv = arena.pricing;
    double fraction = 1.0;
    const auto tier = static_cast<cloud::PurchaseTier>(arena.vm_tier[row]);
    if (tier == cloud::PurchaseTier::kSpot) fraction = pv.spot_price_fraction;
    else if (tier == cloud::PurchaseTier::kReserved) fraction = 0.0;
    return pv.families[arena.vm_family[row]].price * fraction;
  };
  VmId next_vm_id = 0;
  for (std::size_t i = 0; i < snapshot.vm_count(); ++i) {
    // Snapshot availability is already clamped to t0.
    arena.push_vm(next_vm_id++, snapshot.vm_lease[i], snapshot.vm_available[i],
                  /*fresh=*/false, snapshot.vm_busy[i] != 0, snapshot.vm_family[i],
                  snapshot.vm_tier[i]);
  }

  snapshot.fill_pending(arena.pending);
  std::vector<policy::QueuedJob>& pending = arena.pending;

  SimOutcome out;
  SimTime now = t0;
  double bsd_sum = 0.0;
  std::size_t finished = 0;
  const std::size_t total_jobs = pending.size();
  SimTime last_completion = t0;

  policy::SchedContext ctx;
  ctx.max_vms = snapshot.max_vms;
  ctx.pricing = &arena.pricing;

  while (!pending.empty()) {
    if (++out.decisions > config_.max_iterations)
      throw OnlineSimError("online simulation exceeded the iteration cap");
    // One pass over the fleet per decision: idle and booting counts and the
    // earliest future availability. Leases, starts and releases below keep
    // all three current, so the provisioning policy's second look
    // (next_change) and the time advance need no further pass.
    ctx.now = now;
    ctx.queue = pending;
    ctx.idle_vms = 0;
    ctx.booting_vms = 0;
    SimTime next_avail = kTimeNever;
    for (std::size_t i = 0; i < arena.vm_count(); ++i) {
      const SimTime at = arena.vms[i].available_at;
      if (at <= now) {
        ++ctx.idle_vms;
      } else {
        if (!arena.vm_busy[i]) ++ctx.booting_vms;
        next_avail = std::min(next_avail, at);
      }
    }
    ctx.total_vms = arena.vm_count();

    // --- 1. provisioning -----------------------------------------------------
    // The policy's lease plan, granted request by request under the same
    // caps the provider enforces — global headroom, per-family caps, and the
    // reserved commitment.
    std::size_t headroom =
        arena.vm_count() >= snapshot.max_vms ? 0 : snapshot.max_vms - arena.vm_count();
    std::size_t to_lease = 0;
    policy.provisioning->lease_plan(ctx, arena.lease_requests);
    for (const cloud::LeaseRequest& req : arena.lease_requests) {
      PSCHED_ASSERT_MSG(req.family < arena.pricing.families.size(),
                        "lease plan names an unknown VM family");
      std::size_t grant = std::min(req.count, headroom);
      grant = std::min(grant, arena.pricing.family_free(req.family));
      if (req.tier == cloud::PurchaseTier::kReserved)
        grant = std::min(grant, arena.pricing.reserved_free());
      const SimTime ready = now + arena.pricing.families[req.family].boot_delay;
      for (std::size_t i = 0; i < grant; ++i) {
        arena.push_vm(next_vm_id++, now, ready, /*fresh=*/true,
                      /*busy=*/false, req.family, static_cast<unsigned char>(req.tier));
      }
      // A zero boot delay leases VMs that are idle at once.
      if (ready <= now) {
        ctx.idle_vms += grant;
      } else if (grant > 0) {
        ctx.booting_vms += grant;
        next_avail = std::min(next_avail, ready);
      }
      arena.pricing.families[req.family].in_use += grant;
      if (req.tier == cloud::PurchaseTier::kReserved)
        arena.pricing.reserved_in_use += grant;
      headroom -= grant;
      to_lease += grant;
    }

    // --- 2. allocation (shared planner; head-of-line or EASY backfill) -------
    policy::order_queue(pending, *policy.job_selection, now, arena.order);
    if (!arena.agreeing.empty()) {
      keep_agreeing(arena.agreeing, siblings, &policy::PolicyTriple::job_selection,
                    policy.job_selection, [&](const policy::JobSelectionPolicy& js) {
                      return orders_alike(js, now, pending);
                    });
    }
    // The counts are current, so a decision that can start nothing skips
    // the planner's walk over the rows.
    if (policy::can_start(pending, ctx.idle_vms, config_.allocation)) {
      policy::plan_allocation_into(now, pending, arena.vms, *policy.vm_selection,
                                   config_.allocation, snapshot.billing_quantum,
                                   arena.plan, arena.alloc);
    } else {
      arena.plan.clear();
    }
    if (!arena.agreeing.empty() && !arena.plan.empty())
      check_vm_choices(now, pending, ctx.idle_vms, snapshot.billing_quantum,
                       policy.vm_selection, siblings, arena);
    if (!arena.plan.empty()) {
      arena.served.assign(pending.size(), 0);
      for (const policy::AllocationPlan::Start& start : arena.plan.starts) {
        arena.served[start.queue_index] = 1;
        const policy::QueuedJob& job = pending[start.queue_index];
        const SimTime completion = now + job.predicted_runtime;
        for (const VmId chosen : arena.plan.vms_of(start)) {
          const std::size_t row = arena.vm_row[static_cast<std::size_t>(chosen)];
          arena.vms[row].available_at = completion;
          arena.vm_busy[row] = 1;
        }
        // The chosen VMs were idle; they stay idle only if the job takes
        // no time.
        if (completion > now) {
          ctx.idle_vms -= arena.plan.vms_of(start).size();
          next_avail = std::min(next_avail, completion);
        }
        bsd_sum += workload::bounded_slowdown(job.wait(now), job.predicted_runtime,
                                              config_.slowdown_bound);
        out.rj_proc_seconds += job.procs * job.predicted_runtime;
        last_completion = std::max(last_completion, completion);
        ++finished;
      }
      std::size_t kept = 0;
      for (std::size_t i = 0; i < pending.size(); ++i)
        if (!arena.served[i]) pending[kept++] = pending[i];
      pending.resize(kept);
    }

    // --- 3. idle-VM release ----------------------------------------------------
    // kEagerSurplus: while jobs wait, every idle VM is the waiting head's
    // reserve, and once the queue drains the loop exits — the end-of-run
    // release below settles all remaining charges. Only the boundary rule
    // needs mid-run releases.
    if (config_.release_rule == ReleaseRule::kBoundary) {
      // Idle VMs reserved for the still-waiting head job are exempt (same
      // thrash-avoidance as the engine's release rule).
      std::size_t reserve =
          pending.empty() ? 0 : static_cast<std::size_t>(pending.front().procs);
      for (std::size_t i = 0; i < arena.vm_count();) {
        const policy::VmAvail& vm = arena.vms[i];
        if (vm.available_at <= now && reserve > 0) {
          --reserve;
          ++i;
          continue;
        }
        if (vm.available_at <= now &&
            cloud::remaining_paid_at(vm.lease_time, now, snapshot.billing_quantum) <=
                config_.schedule_period) {
          double seconds =
              charge_seconds(vm.lease_time, arena.vm_fresh[i] != 0, now, t0,
                             config_.cost_model, snapshot.billing_quantum);
          seconds *= price_weight(i);
          cloud::PricingView::Family& fam = arena.pricing.families[arena.vm_family[i]];
          if (fam.in_use > 0) --fam.in_use;
          if (arena.vm_tier[i] ==
                  static_cast<unsigned char>(cloud::PurchaseTier::kReserved) &&
              arena.pricing.reserved_in_use > 0)
            --arena.pricing.reserved_in_use;
          out.rv_charged_seconds += seconds;
          arena.remove_vm(i);
          --ctx.idle_vms;
        } else {
          ++i;
        }
      }
    }

    if (pending.empty()) break;

    // --- 4. advance time ------------------------------------------------------
    // Next interesting instant: a VM becomes available, or the provisioning
    // answer changes purely due to waiting (ODX/ODE crossings). If this
    // iteration changed any state (leases or starts), the policy may act
    // again at the very next scheduling tick — engine fidelity requires
    // considering it. Quiet stretches still fast-forward directly to the
    // next event. Guaranteed to move forward (see DESIGN.md).
    const bool changed = to_lease > 0 || !arena.plan.empty();
    ctx.queue = pending;
    ctx.total_vms = arena.vm_count();
    const SimTime next_policy = policy.provisioning->next_change(ctx);
    SimTime next = std::min(next_avail, next_policy);
    if (changed) next = std::min(next, now + config_.schedule_period);
    if (next == kTimeNever || next <= now) next = now + config_.schedule_period;
    PSCHED_ASSERT_MSG(next > now, "online simulation failed to advance");
    now = next;
  }

  // Release everything still leased. A booting VM that never ran a job
  // settles where the engine releases it, at the first tick at or after boot
  // completion: bare `available_at` under-bills whenever the boot delay is
  // not a multiple of the period (the two coincide on the differential
  // oracle's ground rules, DESIGN.md §7).
  const double period = config_.schedule_period;
  for (std::size_t i = 0; i < arena.vm_count(); ++i) {
    const policy::VmAvail& vm = arena.vms[i];
    SimTime release = std::max(vm.available_at, now);
    if (!arena.vm_busy[i] && vm.available_at > now)
      release = sim::tick_time(sim::first_tick_at_or_after(vm.available_at, period), period);
    double seconds =
        charge_seconds(vm.lease_time, arena.vm_fresh[i] != 0, release, t0,
                       config_.cost_model, snapshot.billing_quantum);
    seconds *= price_weight(i);
    out.rv_charged_seconds += seconds;
  }

  out.avg_bounded_slowdown = finished ? bsd_sum / static_cast<double>(finished) : 1.0;
  out.sim_makespan = last_completion - t0;
  out.utility = metrics::utility(config_.utility, out.rj_proc_seconds,
                                 out.rv_charged_seconds, out.avg_bounded_slowdown);
  PSCHED_ASSERT(finished == total_jobs);
  for (const std::uint32_t i : arena.agreeing) agreed[i] = 1;
  return out;
}

}  // namespace psched::core
