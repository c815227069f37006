#include "cloud/provider.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace psched::cloud {

CloudProvider::CloudProvider(ProviderConfig config)
    : config_(config), structural_max_vms_(config.max_vms) {
  PSCHED_ASSERT(config_.max_vms > 0);
  PSCHED_ASSERT(config_.boot_delay >= 0.0);
}

void CloudProvider::set_pricing_model(PricingModel* model) {
  pricing_ = model;
  family_live_.assign(model != nullptr ? model->family_count() : 0, 0);
}

std::vector<VmId> CloudProvider::lease(std::size_t count, SimTime now) {
  return lease(LeaseRequest{count, 0, PurchaseTier::kOnDemand}, now);
}

std::vector<VmId> CloudProvider::lease(const LeaseRequest& request, SimTime now) {
  std::size_t count = request.count;
  SimDuration boot_delay = config_.boot_delay;
  if (pricing_ != nullptr) {
    PSCHED_ASSERT_MSG(request.family < pricing_->family_count(),
                      "lease of unknown VM family");
    const VmFamily& fam = pricing_->family(request.family);
    boot_delay = fam.boot_delay;
    if (fam.max_vms > 0) {
      const std::size_t live = family_live_[request.family];
      count = std::min(count, fam.max_vms > live ? fam.max_vms - live : 0);
    }
    if (request.tier == PurchaseTier::kReserved) {
      const std::size_t total = pricing_->config().reserved_count;
      count = std::min(count,
                       total > reserved_live_ ? total - reserved_live_ : 0);
    }
  } else {
    PSCHED_ASSERT_MSG(
        request.family == 0 && request.tier == PurchaseTier::kOnDemand,
        "tiered lease needs a pricing model");
  }
  if (api_rejects(FailureOp::kLease, count, now)) return {};
  std::size_t headroom = lease_headroom();
  // Seeded fault (validation self-test): overshoot the concurrency cap by
  // one — the InvariantChecker must catch the extra grant.
  if (config_.inject_fault == validate::FaultInjection::kCapOvershoot &&
      count > headroom) {
    ++headroom;
  }
  const std::size_t grant = std::min(count, headroom);
  std::vector<VmId> ids;
  ids.reserve(grant);
  for (std::size_t i = 0; i < grant; ++i) {
    VmInstance vm;
    vm.id = next_id_++;
    vm.lease_time = now;
    vm.boot_complete = now + boot_delay;
    vm.state = boot_delay > 0.0 ? VmState::kBooting : VmState::kIdle;
    // Seeded fault: the VM is usable immediately, boot never awaited. The
    // advertised boot_complete stays truthful so the checker can tell.
    if (config_.inject_fault == validate::FaultInjection::kSkipBootDelay)
      vm.state = VmState::kIdle;
    if (failure_ != nullptr) {
      // One draw per grant from each named stream, boot then crash, so the
      // grant order alone determines the failure pattern.
      vm.boot_failed = failure_->boot_fails();
      const SimDuration crash_delay = failure_->crash_delay();
      if (crash_delay != kTimeNever) vm.crash_at = now + crash_delay;
    }
    if (pricing_ != nullptr) {
      vm.family = request.family;
      vm.tier = request.tier;
      // Spot draw after the failure draws: pricing never perturbs the
      // "boot"/"crash" streams (and vice versa — independent roots).
      if (request.tier == PurchaseTier::kSpot) {
        const SimDuration delay = pricing_->spot_revocation_delay();
        if (delay != kTimeNever) {
          vm.revoke_at = now + delay;
          vm.revoke_warning_at = std::max(
              now, vm.revoke_at - pricing_->config().spot_warning_seconds);
        }
      }
      ++family_live_[request.family];
      if (request.tier == PurchaseTier::kReserved) ++reserved_live_;
      ++leases_by_tier_[static_cast<std::size_t>(request.tier)];
    }
    ids.push_back(vm.id);
    vms_.push_back(vm);
    ++tally(vms_.back());
    ++total_leases_;
    if (observer_ != nullptr) observer_->on_lease(vms_.back(), vms_.size(), now);
  }
  return ids;
}

VmInstance* CloudProvider::find_mut(VmId id) noexcept {
  // vms_ is sorted by id (monotone append, order-preserving erase).
  const auto it = std::lower_bound(
      vms_.begin(), vms_.end(), id,
      [](const VmInstance& vm, VmId key) { return vm.id < key; });
  return (it != vms_.end() && it->id == id) ? &*it : nullptr;
}

const VmInstance* CloudProvider::find(VmId id) const noexcept {
  return const_cast<CloudProvider*>(this)->find_mut(id);
}

void CloudProvider::release(VmId id, SimTime now) {
  VmInstance* vm = find_mut(id);
  PSCHED_ASSERT_MSG(vm != nullptr, "release of unknown VM");
  PSCHED_ASSERT_MSG(vm->state == VmState::kIdle, "release of a non-idle VM");
  double charge = charged_hours(*vm, now, config_.billing_quantum);
  // Seeded fault (validation self-test): bill one quantum too few — the
  // classic off-by-one at the started-hour boundary.
  if (config_.inject_fault == validate::FaultInjection::kBillingOffByOne)
    charge = std::max(0.0, charge - config_.billing_quantum / kSecondsPerHour);
  charged_hours_ += charge;
  if (observer_ != nullptr) observer_->on_release(*vm, charge, now);
  settle_price(*vm, now);
  erase(vm);
}

void CloudProvider::set_state(VmInstance& vm, VmState state) noexcept {
  --tally(vm);
  vm.state = state;
  ++tally(vm);
}

void CloudProvider::erase(const VmInstance* vm) noexcept {
  --tally(*vm);
  vms_.erase(vms_.begin() + (vm - vms_.data()));
}

void CloudProvider::finish_boot(VmId id, SimTime now) {
  VmInstance* vm = find_mut(id);
  PSCHED_ASSERT_MSG(vm != nullptr, "finish_boot of unknown VM");
  PSCHED_ASSERT_MSG(vm->state == VmState::kBooting, "finish_boot of non-booting VM");
  PSCHED_ASSERT(now >= vm->boot_complete);
  set_state(*vm, VmState::kIdle);
  if (observer_ != nullptr) observer_->on_finish_boot(*vm, now);
}

void CloudProvider::assign(VmId id, JobId job, SimTime until, SimTime predicted_end,
                           SimTime now) {
  VmInstance* vm = find_mut(id);
  PSCHED_ASSERT_MSG(vm != nullptr, "assign to unknown VM");
  PSCHED_ASSERT_MSG(vm->state == VmState::kIdle, "assign to a non-idle VM");
  PSCHED_ASSERT(until >= now);
  if (observer_ != nullptr) observer_->on_assign(*vm, job, now);  // pre-state
  set_state(*vm, VmState::kBusy);
  vm->running_job = job;
  vm->busy_until = until;
  vm->predicted_end = predicted_end;
}

void CloudProvider::unassign(VmId id, SimTime now) {
  VmInstance* vm = find_mut(id);
  PSCHED_ASSERT_MSG(vm != nullptr, "unassign of unknown VM");
  PSCHED_ASSERT_MSG(vm->state == VmState::kBusy, "unassign of a non-busy VM");
  set_state(*vm, VmState::kIdle);
  vm->running_job = kInvalidJob;
  vm->busy_until = 0.0;
  vm->predicted_end = 0.0;
  if (observer_ != nullptr) observer_->on_unassign(*vm, now);
}

std::size_t CloudProvider::release_expiring_idle(SimTime now, SimDuration window,
                                                 std::size_t keep_reserve) {
  // Every idle VM in the reserve: nothing can expire, and no walk is needed.
  if (idle_count() <= keep_reserve) return 0;
  std::vector<VmId> expiring;
  std::size_t idle_seen = 0;
  for (const VmInstance& vm : vms_) {
    if (vm.state != VmState::kIdle) continue;
    if (idle_seen++ < keep_reserve) continue;  // the head job's reserve
    if (remaining_paid(vm, now, config_.billing_quantum) <= window)
      expiring.push_back(vm.id);
  }
  // Only a non-empty request is an API call (and can hit an outage window).
  if (api_rejects(FailureOp::kRelease, expiring.size(), now)) return 0;
  for (const VmId id : expiring) release(id, now);
  return expiring.size();
}

double CloudProvider::terminate(VmInstance* vm, SimTime now, Settlement kind) {
  // Same started-hour settlement as a voluntary release: the provider
  // charges the lease to `now` whether the customer or the cloud ended it.
  const double charge = charged_hours(*vm, now, config_.billing_quantum);
  charged_hours_ += charge;
  if (kind == Settlement::kRevoke)
    revoked_charged_seconds_ +=
        charged_seconds_for(vm->lease_time, now, config_.billing_quantum);
  if (observer_ != nullptr) {
    switch (kind) {
      case Settlement::kBootFail: observer_->on_boot_fail(*vm, charge, now); break;
      case Settlement::kCrash: observer_->on_crash(*vm, charge, now); break;
      case Settlement::kRevoke: observer_->on_spot_revoke(*vm, charge, now); break;
    }
  }
  settle_price(*vm, now);
  erase(vm);
  return charge;
}

void CloudProvider::settle_price(const VmInstance& vm, SimTime now) {
  if (pricing_ == nullptr) return;
  const double cost = pricing_->lease_cost(vm.family, vm.tier, vm.lease_time,
                                           now, config_.billing_quantum);
  switch (vm.tier) {
    case PurchaseTier::kOnDemand:
      spend_on_demand_ += cost;
      break;
    case PurchaseTier::kSpot: {
      spend_spot_ += cost;
      const double on_demand_cost =
          pricing_->lease_cost(vm.family, PurchaseTier::kOnDemand,
                               vm.lease_time, now, config_.billing_quantum);
      spot_savings_ += on_demand_cost - cost;
      break;
    }
    case PurchaseTier::kReserved:
      // Zero marginal cost; the commitment was billed up front.
      break;
  }
  PSCHED_ASSERT(vm.family < family_live_.size() && family_live_[vm.family] > 0);
  --family_live_[vm.family];
  if (vm.tier == PurchaseTier::kReserved) {
    PSCHED_ASSERT(reserved_live_ > 0);
    --reserved_live_;
  }
  if (observer_ != nullptr) observer_->on_price_settle(vm, cost, now);
}

double CloudProvider::fail_boot(VmId id, SimTime now) {
  VmInstance* vm = find_mut(id);
  PSCHED_ASSERT_MSG(vm != nullptr, "fail_boot of unknown VM");
  PSCHED_ASSERT_MSG(vm->state == VmState::kBooting,
                    "fail_boot of a VM that is not booting");
  ++boot_failures_;
  return terminate(vm, now, Settlement::kBootFail);
}

double CloudProvider::crash(VmId id, SimTime now) {
  VmInstance* vm = find_mut(id);
  PSCHED_ASSERT_MSG(vm != nullptr, "crash of unknown VM");
  ++crashes_;
  return terminate(vm, now, Settlement::kCrash);
}

void CloudProvider::mark_doomed(VmId id, SimTime now) {
  VmInstance* vm = find_mut(id);
  PSCHED_ASSERT_MSG(vm != nullptr, "mark_doomed of unknown VM");
  PSCHED_ASSERT_MSG(vm->tier == PurchaseTier::kSpot,
                    "mark_doomed of a non-spot VM");
  --tally(*vm);
  vm->doomed = true;
  ++tally(*vm);
  ++spot_warnings_;
  if (observer_ != nullptr) observer_->on_spot_warning(*vm, now);
}

double CloudProvider::revoke(VmId id, SimTime now) {
  VmInstance* vm = find_mut(id);
  PSCHED_ASSERT_MSG(vm != nullptr, "revoke of unknown VM");
  PSCHED_ASSERT_MSG(vm->tier == PurchaseTier::kSpot, "revoke of a non-spot VM");
  ++spot_revocations_;
  return terminate(vm, now, Settlement::kRevoke);
}

bool CloudProvider::api_rejects(FailureOp op, std::size_t ops, SimTime now) {
  if (failure_ == nullptr || ops == 0) return false;
  if (!failure_->api_blocked(now)) return false;
  if (op == FailureOp::kLease)
    ++api_rejected_leases_;
  else
    ++api_rejected_releases_;
  if (observer_ != nullptr) observer_->on_api_reject(op, ops, now);
  return true;
}

void CloudProvider::release_all(SimTime now) {
  // Jobs must have drained; force-idle any stragglers defensively.
  for (VmInstance& vm : vms_) set_state(vm, VmState::kIdle);
  while (!vms_.empty()) release(vms_.back().id, now);
}

std::size_t CloudProvider::lease_headroom() const noexcept {
  return vms_.size() >= config_.max_vms ? 0 : config_.max_vms - vms_.size();
}

double CloudProvider::charged_hours_total(SimTime now) const noexcept {
  double total = charged_hours_;
  for (const VmInstance& vm : vms_) total += charged_hours(vm, now, config_.billing_quantum);
  return total;
}

void CloudProvider::idle_vms(std::vector<VmId>& out) const {
  out.clear();
  for (const VmInstance& vm : vms_)
    if (vm.state == VmState::kIdle) out.push_back(vm.id);
}

void CloudProvider::fill_pricing_view(PricingView& view, SimTime now) const {
  if (pricing_ == nullptr) return;
  // Family caps resolve against the structural capacity, not the live
  // allowance: the global cap is enforced separately (lease admission and
  // the planner's headroom), and baking a shrunk multi-tenant allowance
  // into the family caps would make jobs wider than the allowance look
  // permanently unplaceable to the what-if simulator.
  pricing_->fill_view(view, now, structural_max_vms_, family_live_, reserved_live_);
}

}  // namespace psched::cloud
