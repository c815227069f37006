#include "validate/invariant_checker.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "util/assert.hpp"

namespace psched::validate {

namespace {

/// Absolute slack for comparisons between independently accumulated floating
/// point sums (billing quanta, proc-seconds). The quantities compared are
/// exact multiples of the same inputs, so any real bug is off by at least one
/// quantum or one job — many orders of magnitude above this.
constexpr double kEps = 1e-6;

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

}  // namespace

InvariantChecker::InvariantChecker(ValidationConfig config,
                                   cloud::ProviderConfig provider,
                                   cloud::PricingConfig pricing)
    : config_(config), provider_(provider), pricing_config_(std::move(pricing)) {
  if (pricing_config_.enabled())
    pricing_model_ = std::make_unique<cloud::PricingModel>(pricing_config_);
}

void InvariantChecker::fail(const char* invariant, SimTime when, std::string detail) {
  ++violation_count_;
  if (config_.abort_on_violation)
    psched::detail::invariant_fail(invariant, detail.c_str());
  if (violations_.size() < config_.max_recorded_violations)
    violations_.push_back(Violation{invariant, std::move(detail), when});
}

// --- event loop --------------------------------------------------------------

void InvariantChecker::on_schedule(SimTime when, SimTime now, sim::EventId id) {
  if (!check(when >= now)) {
    fail("event.no-past-schedule", now,
         format("event scheduled at t=%.6f while clock reads t=%.6f", when, now) +
             " (id " + std::to_string(id) + ")");
  }
}

void InvariantChecker::on_dispatch(SimTime now, SimTime previous, sim::EventId id) {
  if (!check(now >= previous)) {
    fail("event.monotone-time", now,
         format("clock moved backwards: %.6f -> %.6f", previous, now) + " (event " +
             std::to_string(id) + ")");
  }
  last_dispatch_ = now;
}

// --- cloud provider -----------------------------------------------------------

void InvariantChecker::on_lease(const cloud::VmInstance& vm, std::size_t leased_count,
                                SimTime now) {
  if (!check(leased_count <= provider_.max_vms)) {
    fail("vm.cap", now,
         format("leased fleet of %.0f VMs exceeds the cap of %.0f",
                static_cast<double>(leased_count),
                static_cast<double>(provider_.max_vms)));
  }
  if (!check(vm.boot_complete >= vm.lease_time)) {
    fail("vm.boot-before-run", now,
         format("VM advertises boot_complete=%.3f before lease_time=%.3f",
                vm.boot_complete, vm.lease_time));
  }
  if (pricing_model_ != nullptr && vm.tier == cloud::PurchaseTier::kReserved) {
    ++reserved_live_vms_;
    if (!check(reserved_live_vms_ <= pricing_config_.reserved_count)) {
      fail("pricing.commitment", now,
           format("%.0f reserved leases live, commitment is %.0f",
                  static_cast<double>(reserved_live_vms_),
                  static_cast<double>(pricing_config_.reserved_count)));
    }
  }
  ++observed_leases_;
}

void InvariantChecker::on_finish_boot(const cloud::VmInstance& vm, SimTime now) {
  if (!check(now + kEps >= vm.boot_complete)) {
    fail("vm.boot-before-run", now,
         format("boot completed at t=%.3f, before the advertised boot_complete=%.3f",
                now, vm.boot_complete));
  }
}

void InvariantChecker::on_assign(const cloud::VmInstance& vm, JobId job, SimTime now) {
  const auto job_id = static_cast<long long>(job);
  const auto vm_id = static_cast<long long>(vm.id);
  if (!check(vm.state == cloud::VmState::kIdle)) {
    fail("vm.idle-before-assign", now,
         format("job %lld assigned to VM %lld which is not idle", job_id, vm_id));
  }
  if (!check(now + kEps >= vm.boot_complete)) {
    fail("vm.boot-before-run", now,
         format("job %lld starts on VM %lld at t=%.3f, %.3f s before its boot completes",
                job_id, vm_id, now, vm.boot_complete - now));
  }
  // A doomed spot lease finishes what it runs but takes no new job.
  if (pricing_model_ != nullptr && !check(!vm.doomed)) {
    fail("pricing.revocation", now,
         format("job %lld assigned to VM %lld after its revocation warning", job_id,
                vm_id));
  }
}

void InvariantChecker::on_unassign(const cloud::VmInstance& vm, SimTime now) {
  if (!check(vm.state == cloud::VmState::kIdle)) {
    fail("vm.idle-before-assign", now,
         "VM " + std::to_string(vm.id) + " not idle after unassign");
  }
}

void InvariantChecker::on_release(const cloud::VmInstance& vm,
                                  double charged_hours_delta, SimTime now) {
  const double expected =
      cloud::charged_hours_for(vm.lease_time, now, provider_.billing_quantum);
  if (!check(std::abs(charged_hours_delta - expected) <= kEps)) {
    fail("billing.ceil", now,
         "VM " + std::to_string(vm.id) +
             format(" charged %.6f h on release; ceil(lease/quantum) requires %.6f h",
                    charged_hours_delta, expected));
  }
  if (!check(charged_hours_delta >= -kEps)) {
    fail("billing.monotone", now,
         format("negative release charge %.6f h (total would shrink by %.6f)",
                charged_hours_delta, -charged_hours_delta));
  }
  charged_total_hours_ += charged_hours_delta;
  ++observed_releases_;
}

void InvariantChecker::on_boot_fail(const cloud::VmInstance& vm,
                                    double charged_hours_delta, SimTime now) {
  // A boot failure settles the lease like a release: started quanta are paid.
  const double expected =
      cloud::charged_hours_for(vm.lease_time, now, provider_.billing_quantum);
  if (!check(std::abs(charged_hours_delta - expected) <= kEps)) {
    fail("billing.ceil", now,
         "boot-failed VM " + std::to_string(vm.id) +
             format(" charged %.6f h; ceil(lease/quantum) requires %.6f h",
                    charged_hours_delta, expected));
  }
  charged_total_hours_ += charged_hours_delta;
  failed_charged_hours_ += charged_hours_delta;
  ++observed_boot_fails_;
}

void InvariantChecker::on_crash(const cloud::VmInstance& vm,
                                double charged_hours_delta, SimTime now) {
  // A crash terminates the lease mid-flight; the started quantum is still
  // paid (ceil billing), exactly as if the VM had been released here.
  const double expected =
      cloud::charged_hours_for(vm.lease_time, now, provider_.billing_quantum);
  if (!check(std::abs(charged_hours_delta - expected) <= kEps)) {
    fail("billing.ceil", now,
         "crashed VM " + std::to_string(vm.id) +
             format(" charged %.6f h; ceil(lease/quantum) requires %.6f h",
                    charged_hours_delta, expected));
  }
  charged_total_hours_ += charged_hours_delta;
  failed_charged_hours_ += charged_hours_delta;
  ++observed_crashes_;
}

void InvariantChecker::on_spot_warning(const cloud::VmInstance& vm, SimTime now) {
  if (!check(vm.tier == cloud::PurchaseTier::kSpot && vm.doomed)) {
    fail("pricing.revocation", now,
         "revocation warning for VM " + std::to_string(vm.id) +
             " which is not a doomed spot lease");
  }
  ++observed_spot_warnings_;
}

void InvariantChecker::on_spot_revoke(const cloud::VmInstance& vm,
                                      double charged_hours_delta, SimTime now) {
  // Only spot leases can be revoked, and the warning must already have
  // landed (the engine schedules warning before revocation, never after).
  if (!check(vm.tier == cloud::PurchaseTier::kSpot && vm.doomed)) {
    fail("pricing.revocation", now,
         "VM " + std::to_string(vm.id) + " revoked without being a doomed spot lease");
  }
  // A revocation settles the lease like a crash: started quanta are paid.
  const double expected =
      cloud::charged_hours_for(vm.lease_time, now, provider_.billing_quantum);
  if (!check(std::abs(charged_hours_delta - expected) <= kEps)) {
    fail("billing.ceil", now,
         "revoked VM " + std::to_string(vm.id) +
             format(" charged %.6f h; ceil(lease/quantum) requires %.6f h",
                    charged_hours_delta, expected));
  }
  charged_total_hours_ += charged_hours_delta;
  revoked_charged_hours_ += charged_hours_delta;
  ++observed_revokes_;
}

void InvariantChecker::on_price_settle(const cloud::VmInstance& vm,
                                       double cost_dollars, SimTime now) {
  if (pricing_model_ == nullptr) return;
  // Recompute the settlement from the checker's own model: same family,
  // tier, lease window, and billing quantum must price identically.
  const double expected = pricing_model_->lease_cost(
      vm.family, vm.tier, vm.lease_time, now, provider_.billing_quantum);
  if (!check(std::abs(cost_dollars - expected) <= kEps * std::max(1.0, expected))) {
    fail("pricing.cost", now,
         "VM " + std::to_string(vm.id) +
             format(" settled at $%.6f; independent recomputation gives $%.6f",
                    cost_dollars, expected));
  }
  switch (vm.tier) {
    case cloud::PurchaseTier::kOnDemand:
      observed_spend_on_demand_ += cost_dollars;
      break;
    case cloud::PurchaseTier::kSpot:
      observed_spend_spot_ += cost_dollars;
      break;
    case cloud::PurchaseTier::kReserved:
      if (check(reserved_live_vms_ > 0)) {
        --reserved_live_vms_;
      } else {
        fail("pricing.commitment", now,
             "reserved VM " + std::to_string(vm.id) +
                 " settled with no reserved lease outstanding");
      }
      break;
  }
}

// --- engine ------------------------------------------------------------------

void InvariantChecker::on_job_started(JobId job, int procs, std::size_t vm_count,
                                      SimTime eligible, SimTime submit, SimTime now) {
  if (!check(static_cast<std::size_t>(procs) == vm_count)) {
    fail("job.width", now,
         "job " + std::to_string(job) +
             format(" needs %.0f VMs but was started on %.0f",
                    static_cast<double>(procs), static_cast<double>(vm_count)));
  }
  if (!check(now + kEps >= eligible && eligible + kEps >= submit)) {
    fail("job.start-after-eligible", now,
         "job " + std::to_string(job) +
             format(" started at t=%.3f with eligible=%.3f and submit=%.3f", now,
                    eligible, submit));
  }
}

void InvariantChecker::on_job_finished(const metrics::JobRecord& record, SimTime now) {
  if (!check(record.runtime >= 0.0 && record.procs >= 1 &&
             record.finish + kEps >= record.start)) {
    fail("metrics.consistent", now,
         "job " + std::to_string(record.id) +
             format(" finished with runtime=%.3f, start-to-finish=%.3f",
                    record.runtime, record.finish - record.start));
  }
  expected_rj_ += static_cast<double>(record.procs) * record.runtime;
  ++finished_jobs_;
}

void InvariantChecker::on_job_killed(JobId /*job*/, SimTime /*now*/) {
  ++observed_kills_;
}

void InvariantChecker::on_tick_end(const JobCensus& census, std::size_t leased_vms,
                                   SimTime now) {
  const std::size_t accounted = census.queued + census.running + census.finished +
                                census.blocked + census.killed;
  if (!check(census.submitted == accounted)) {
    fail("job.conservation", now,
         format("submitted=%.0f but queued+running+finished+blocked+killed=%.0f",
                static_cast<double>(census.submitted),
                static_cast<double>(accounted)));
  }
  if (!check(leased_vms <= provider_.max_vms)) {
    fail("vm.cap", now,
         format("tick ends with %.0f leased VMs, cap is %.0f",
                static_cast<double>(leased_vms),
                static_cast<double>(provider_.max_vms)));
  }
}

void InvariantChecker::on_run_end(const metrics::RunMetrics& metrics,
                                  const sim::Simulator& sim,
                                  double provider_charged_hours) {
  // Event conservation: every scheduled event was dispatched or cancelled
  // (the queue must have drained for the run to end).
  const sim::EventQueue& q = sim.queue();
  const std::uint64_t accounted =
      sim.events_dispatched() + q.total_cancelled() + q.size();
  if (!check(q.total_scheduled() == accounted)) {
    fail("event.conservation", sim.now(),
         format("scheduled %.0f events but dispatched+cancelled+pending=%.0f",
                static_cast<double>(q.total_scheduled()),
                static_cast<double>(accounted)));
  }

  // Utility inputs: non-negative work and cost, BSD has a floor of 1.
  if (!check(metrics.rj_proc_seconds >= 0.0 && metrics.rv_charged_seconds >= 0.0 &&
             metrics.avg_bounded_slowdown >= 1.0 - kEps &&
             std::isfinite(metrics.avg_bounded_slowdown))) {
    fail("metrics.consistent", sim.now(),
         format("degenerate utility inputs: RJ=%.3f, RV=%.3f, BSD=%.6f",
                metrics.rj_proc_seconds, metrics.rv_charged_seconds,
                metrics.avg_bounded_slowdown));
  }

  // RJ must equal the checker's independent sum over finished jobs.
  if (!check(std::abs(metrics.rj_proc_seconds - expected_rj_) <=
             kEps * std::max(1.0, expected_rj_))) {
    fail("metrics.consistent", sim.now(),
         format("collector RJ=%.6f disagrees with the sum over finished jobs %.6f",
                metrics.rj_proc_seconds, expected_rj_));
  }
  if (!check(metrics.jobs == finished_jobs_)) {
    fail("metrics.consistent", sim.now(),
         format("collector finished %.0f jobs, checker observed %.0f",
                static_cast<double>(metrics.jobs),
                static_cast<double>(finished_jobs_)));
  }

  // RV must equal the provider's released charges, which in turn must match
  // the checker's own per-release accumulation.
  const double rv_hours = metrics.rv_charged_seconds / kSecondsPerHour;
  if (!check(std::abs(rv_hours - provider_charged_hours) <= kEps &&
             std::abs(provider_charged_hours - charged_total_hours_) <= kEps)) {
    fail("metrics.consistent", sim.now(),
         format("RV=%.6f h vs provider=%.6f h vs checker total=%.6f h", rv_hours,
                provider_charged_hours, charged_total_hours_));
  }

  // Failure accounting. Silent (zero checks) for failure-free runs so their
  // check count stays exactly what it was before the failure layer existed.
  const metrics::FailureStats& fs = metrics.failures;
  const bool failure_activity = fs.any() || observed_boot_fails_ > 0 ||
                                observed_crashes_ > 0 || observed_kills_ > 0;
  if (failure_activity) {
    if (!check(fs.boot_failures == observed_boot_fails_ &&
               fs.vm_crashes == observed_crashes_ &&
               fs.job_kills == observed_kills_)) {
      fail("failure.consistent", sim.now(),
           format("metrics report %.0f boot-fails / %.0f crashes / %.0f kills; "
                  "checker observed %.0f / %.0f / %.0f",
                  static_cast<double>(fs.boot_failures),
                  static_cast<double>(fs.vm_crashes),
                  static_cast<double>(fs.job_kills),
                  static_cast<double>(observed_boot_fails_),
                  static_cast<double>(observed_crashes_),
                  static_cast<double>(observed_kills_)));
    }
    // Wasted spend: the engine's per-termination accumulation must equal the
    // checker's own sum over crash/boot-fail charges.
    if (!check(std::abs(fs.paid_wasted_seconds -
                        failed_charged_hours_ * kSecondsPerHour) <=
               kEps * std::max(1.0, failed_charged_hours_ * kSecondsPerHour))) {
      fail("failure.consistent", sim.now(),
           format("paid-but-wasted %.6f s disagrees with the checker's %.6f s",
                  fs.paid_wasted_seconds,
                  failed_charged_hours_ * kSecondsPerHour));
    }
    // Lease accounting: every lease settled by exactly one release, crash,
    // boot failure, or spot revocation (the engine asserts zero leased VMs
    // at run end). Revocations are zero with pricing off.
    const std::size_t settled = observed_releases_ + observed_crashes_ +
                                observed_boot_fails_ + observed_revokes_;
    if (!check(observed_leases_ == settled)) {
      fail("failure.consistent", sim.now(),
           format("%.0f leases but %.0f settlements "
                  "(releases+crashes+boot-fails+revocations)",
                  static_cast<double>(observed_leases_),
                  static_cast<double>(settled)));
    }
  }

  // Pricing accounting. Silent (zero checks) for pricing-free runs so their
  // check count stays exactly what it was before the pricing layer existed.
  const metrics::PricingStats& ps = metrics.pricing;
  const bool pricing_activity = ps.any() || observed_spot_warnings_ > 0 ||
                                observed_revokes_ > 0 ||
                                observed_spend_on_demand_ > 0.0 ||
                                observed_spend_spot_ > 0.0;
  if (pricing_activity) {
    if (!check(ps.spot_warnings == observed_spot_warnings_ &&
               ps.spot_revocations == observed_revokes_)) {
      fail("pricing.consistent", sim.now(),
           format("metrics report %.0f warnings / %.0f revocations; checker "
                  "observed %.0f / %.0f",
                  static_cast<double>(ps.spot_warnings),
                  static_cast<double>(ps.spot_revocations),
                  static_cast<double>(observed_spot_warnings_),
                  static_cast<double>(observed_revokes_)));
    }
    const double spend_eps = kEps * std::max(1.0, ps.total_spend_dollars());
    if (!check(std::abs(ps.spend_on_demand_dollars - observed_spend_on_demand_) <=
                   spend_eps &&
               std::abs(ps.spend_spot_dollars - observed_spend_spot_) <= spend_eps)) {
      fail("pricing.consistent", sim.now(),
           format("metrics report $%.6f on-demand / $%.6f spot; checker "
                  "settlements sum to $%.6f / $%.6f",
                  ps.spend_on_demand_dollars, ps.spend_spot_dollars,
                  observed_spend_on_demand_, observed_spend_spot_));
    }
    if (!check(std::abs(ps.revoked_charged_seconds -
                        revoked_charged_hours_ * kSecondsPerHour) <=
               kEps * std::max(1.0, revoked_charged_hours_ * kSecondsPerHour))) {
      fail("pricing.consistent", sim.now(),
           format("revocation waste %.6f s disagrees with the checker's %.6f s",
                  ps.revoked_charged_seconds,
                  revoked_charged_hours_ * kSecondsPerHour));
    }
    // Settlement conservation again, under the pricing gate: a pricing-on
    // failure-off run (revocations on idle leases only) would otherwise
    // skip it entirely.
    const std::size_t settled_with_revokes =
        observed_releases_ + observed_crashes_ + observed_boot_fails_ +
        observed_revokes_;
    if (!check(observed_leases_ == settled_with_revokes)) {
      fail("pricing.consistent", sim.now(),
           format("%.0f leases but %.0f settlements "
                  "(releases+crashes+boot-fails+revocations)",
                  static_cast<double>(observed_leases_),
                  static_cast<double>(settled_with_revokes)));
    }
    // Every reserved lease must have been settled back to the commitment.
    if (!check(reserved_live_vms_ == 0)) {
      fail("pricing.consistent", sim.now(),
           format("%.0f reserved leases never settled",
                  static_cast<double>(reserved_live_vms_)));
    }
  }
}

// --- multi-tenant service hooks ----------------------------------------------

void InvariantChecker::on_tenant_arbitration(
    const std::vector<TenantAllocation>& allocations, std::size_t global_cap,
    SimTime now) {
  std::size_t total_alloc = 0;
  std::size_t total_leased = 0;
  double total_weight = 0.0;
  for (const TenantAllocation& a : allocations) {
    total_alloc += a.allocated_vms;
    total_leased += a.leased_vms;
    total_weight += a.weight;
  }
  if (!check(total_alloc <= global_cap)) {
    fail("tenant.global-cap", now,
         format("arbiter allocated %.0f VMs against a global cap of %.0f",
                static_cast<double>(total_alloc),
                static_cast<double>(global_cap)));
  }
  if (!check(total_leased <= global_cap)) {
    fail("tenant.global-cap", now,
         format("%.0f VMs leased across tenants against a global cap of %.0f",
                static_cast<double>(total_leased),
                static_cast<double>(global_cap)));
  }
  for (const TenantAllocation& a : allocations) {
    if (!check(a.allocated_vms >= a.leased_vms)) {
      fail("tenant.global-cap", now,
           format("tenant %.0f allocated %.0f VMs, below its live fleet of "
                  "%.0f (allowances never evict)",
                  static_cast<double>(a.tenant),
                  static_cast<double>(a.allocated_vms),
                  static_cast<double>(a.leased_vms)));
    }
  }
  if (total_weight <= 0.0) return;
  // Weighted max-min fairness, with one VM of integer-rounding slack on each
  // side: an in-budget tenant with unmet queued demand must not sit more
  // than one VM below its quota share (cap * w_i / Σw) while any other
  // tenant holds more than one VM above its own share — unless the excess is
  // merely that tenant's live fleet, which the arbiter may never evict.
  for (const TenantAllocation& starved : allocations) {
    if (starved.over_budget) continue;
    if (starved.demand_vms <= starved.allocated_vms) continue;  // demand met
    const double quota =
        static_cast<double>(global_cap) * starved.weight / total_weight;
    if (static_cast<double>(starved.allocated_vms + 1) >= quota) continue;
    for (const TenantAllocation& other : allocations) {
      if (other.tenant == starved.tenant) continue;
      const double other_quota =
          static_cast<double>(global_cap) * other.weight / total_weight;
      const double bound =
          std::max(static_cast<double>(other.leased_vms), other_quota + 1.0);
      if (!check(static_cast<double>(other.allocated_vms) <= bound)) {
        fail("tenant.fairness", now,
             format("tenant %.0f allocated %.0f VMs (quota %.2f) while tenant "
                    "%.0f sits at %.0f of quota %.2f with unmet demand %.0f",
                    static_cast<double>(other.tenant),
                    static_cast<double>(other.allocated_vms), other_quota,
                    static_cast<double>(starved.tenant),
                    static_cast<double>(starved.allocated_vms), quota,
                    static_cast<double>(starved.demand_vms)));
      }
    }
  }
}

void InvariantChecker::on_tenant_run_end(std::size_t tenant, std::size_t submitted,
                                         std::size_t finished, std::size_t killed,
                                         SimTime now) {
  if (!check(submitted == finished + killed)) {
    fail("tenant.conservation", now,
         format("tenant %.0f submitted %.0f jobs but finished %.0f + "
                "killed-final %.0f",
                static_cast<double>(tenant), static_cast<double>(submitted),
                static_cast<double>(finished), static_cast<double>(killed)));
  }
}

}  // namespace psched::validate
