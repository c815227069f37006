#include "engine/cluster_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <string>

#include "util/assert.hpp"
#include "util/seed_streams.hpp"

namespace psched::engine {

namespace {

/// The provider executes fault mutations (validation self-test); the checker
/// below still judges against the *intended* config, so the fault surfaces.
EngineConfig with_fault_applied(EngineConfig config) {
  config.provider.inject_fault = config.validation.inject_fault;
  return config;
}

}  // namespace

ClusterSimulation::ClusterSimulation(EngineConfig config, const workload::Trace& trace,
                                     core::Scheduler& scheduler,
                                     predict::RuntimePredictor& predictor,
                                     obs::Recorder* recorder)
    : config_(with_fault_applied(std::move(config))),
      trace_(trace),
      scheduler_(scheduler),
      predictor_(predictor),
      provider_(config_.provider),
      collector_(config_.slowdown_bound),
      recorder_(recorder != nullptr && recorder->counters_on() ? recorder : nullptr) {
  PSCHED_ASSERT(config_.schedule_period > 0.0);
  collector_.keep_records(config_.keep_job_records);
  if (config_.validation.check_invariants) {
    cloud::ProviderConfig intended = config_.provider;
    intended.inject_fault = validate::FaultInjection::kNone;
    checker_ = std::make_unique<validate::InvariantChecker>(config_.validation, intended,
                                                            config_.pricing);
    sim_.set_observer(checker_.get());
    provider_.set_observer(checker_.get());
  }
  if (recorder_ != nullptr) {
    // The provider has one observer slot and the invariant checker may
    // already hold it; the tracer chains in front and forwards every
    // callback, so validation still sees the same transition stream.
    provider_tracer_ = std::make_unique<obs::ProviderTracer>(recorder_, checker_.get());
    provider_.set_observer(provider_tracer_.get());
    scheduler_.set_recorder(recorder_);
  }
  if (config_.failure.enabled()) {
    failure_model_ = std::make_unique<cloud::FailureModel>(config_.failure);
    provider_.set_failure_model(failure_model_.get());
    lease_backoff_ = cloud::BackoffSchedule(
        config_.resilience,
        cloud::derive_stream_seed(config_.failure.seed, util::kStreamBackoff));
  }
  if (config_.pricing.enabled()) {
    pricing_model_ = std::make_unique<cloud::PricingModel>(config_.pricing);
    provider_.set_pricing_model(pricing_model_.get());
  }
  std::unordered_map<JobId, const workload::Job*> by_id;
  by_id.reserve(trace_.size());
  for (const workload::Job& j : trace_.jobs()) {
    PSCHED_ASSERT_MSG(static_cast<std::size_t>(j.procs) <= config_.provider.max_vms,
                      "job wider than the VM cap can never run");
    PSCHED_ASSERT_MSG(by_id.emplace(j.id, &j).second, "duplicate job id in trace");
  }
  // Workflow dependency graph.
  for (const workload::Job& j : trace_.jobs()) {
    if (j.deps.empty()) continue;
    open_deps_[j.id] = j.deps.size();
    for (const JobId dep : j.deps) {
      PSCHED_ASSERT_MSG(by_id.contains(dep), "dependency on a job not in the trace");
      PSCHED_ASSERT_MSG(dep != j.id, "job depends on itself");
      dependents_[dep].push_back(&j);
    }
  }
}

void ClusterSimulation::enqueue(const workload::Job& job, SimTime eligible) {
  // Family caps can bound concurrent capacity below the provider cap the
  // trace was cleaned against. A job wider than that can never start; keep
  // it queued and the run never terminates. Reject it as killed-final (the
  // cascade takes its dependents) instead.
  if (pricing_model_ != nullptr &&
      static_cast<std::size_t>(job.procs) >
          pricing_model_->max_schedulable_vms(config_.provider.max_vms)) {
    kill_final(job, sim_.now());
    return;
  }
  queue_.push_back(Waiting{&job, eligible});
  arm_tick(sim_.now());
}

void ClusterSimulation::arm_tick(SimTime not_before) {
  if (tick_armed_) return;
  const double period = config_.schedule_period;
  // Ticks stay phase-aligned to multiples of the period.
  const double k = std::ceil(not_before / period);
  const SimTime when = std::max(k * period, not_before);
  tick_armed_ = true;
  sim_.at(when, [this] { on_tick(); });
}

void ClusterSimulation::on_arrival() {
  detail::sim_context().set(sim_.now(), "arrival");
  const workload::Job& job = trace_.jobs()[next_arrival_];
  ++next_arrival_;
  // Populated by crash kills (failure model) and capacity rejections
  // (pricing family caps); empty — and free to probe — otherwise.
  if (dead_jobs_.find(job.id) != dead_jobs_.end()) {
    // Dead on arrival: a dependency was killed for good before this job
    // even submitted, so it can never become eligible.
    ++fstats_.jobs_killed_final;
    return;
  }
  const auto open = open_deps_.find(job.id);
  if (open == open_deps_.end() || open->second == 0) {
    // Dependencies (if any) already completed: eligible at submission.
    enqueue(job, job.submit);
  } else {
    arrived_blocked_.emplace(job.id, &job);
  }
}

void ClusterSimulation::annotate_queue() {
  annotated_.clear();
  for (const Waiting& w : queue_) {
    policy::QueuedJob q;
    q.id = w.job->id;
    // Policies rank by waiting time since *eligibility* — a workflow task
    // blocked on its parents has not been waiting on the scheduler.
    q.submit = w.eligible;
    q.procs = w.job->procs;
    q.predicted_runtime = predictor_.predict(*w.job);
    annotated_.push_back(q);
  }
}

void ClusterSimulation::scan_fleet(SimTime now) {
  cloud::CloudProfile& profile = profile_;
  profile.now = now;
  // Planning cap, not the provider's live cap: under a multi-tenant arbiter
  // the live cap is the tenant's transient allowance, which can sit below a
  // queued job's width — a what-if simulation against it could never place
  // the job and would spin to its iteration cap. Candidates plan against
  // the structural capacity (identical to the live cap outside multi-tenant
  // mode); the real provisioning context still reads the live allowance.
  profile.max_vms = config_.provider.max_vms;
  profile.boot_delay = provider_.config().boot_delay;
  profile.billing_quantum = provider_.config().billing_quantum;
  profile.vms.clear();
  avail_.clear();
  // Market view first: provisioning reads it (SchedContext::pricing) whether
  // or not anything is queued.
  provider_.fill_pricing_view(profile.pricing, now);
  if (annotated_.empty()) return;
  for (const cloud::VmInstance& vm : provider_.vms()) {
    cloud::VmView view;
    view.lease_time = vm.lease_time;
    view.family = vm.family;
    view.tier = vm.tier;
    SimTime row_at = now;  // the planner's availability for this VM
    switch (vm.state) {
      case cloud::VmState::kBooting:
        view.available_at = row_at = vm.boot_complete;
        break;
      case cloud::VmState::kBusy:
        // Schedulers and the planner see the *predicted* completion, never
        // the actual. A stale prediction (already in the past) reads as
        // `now` in the profile, but must still read as "busy, free any
        // moment" to the planner — never as idle-now, which only kIdle VMs
        // are.
        view.available_at = std::max(vm.predicted_end, now);
        view.busy = true;
        row_at = std::max(vm.predicted_end, now + 1e-6);
        break;
      case cloud::VmState::kIdle:
        view.available_at = now;
        break;
    }
    profile.vms.push_back(view);
    // A doomed spot VM (revocation warning delivered) finishes what it has
    // but takes no new work: no planner row; always false with pricing off.
    if (!vm.doomed) avail_.push_back(policy::VmAvail{vm.id, vm.lease_time, row_at});
  }
}

void ClusterSimulation::on_tick() {
  tick_armed_ = false;
  const obs::Recorder::Scope tick_scope(recorder_, "engine.tick", 0);
  const SimTime now = sim_.now();
  detail::sim_context().set(now, "tick");
  const auto tick_index =
      static_cast<std::uint64_t>(std::llround(now / config_.schedule_period));
  ++ticks_run_;

  annotate_queue();
  scan_fleet(now);
  const policy::PolicyTriple policy =
      scheduler_.policy_for_tick(tick_index, annotated_, profile_);
  if (policy != context_policy_) {
    // Re-format the context label only on a policy switch (rare).
    context_policy_ = policy;
    detail::sim_context().set_policy(policy.name().c_str());
  }

  // --- 1. provisioning -------------------------------------------------------
  policy::SchedContext ctx;
  ctx.now = now;
  ctx.queue = annotated_;
  // Doomed spot capacity is not supply: leaving it out of the counts makes
  // the policy lease replacements during the warning lead time instead of
  // waiting for the revocation to land.
  ctx.idle_vms = provider_.count(cloud::VmState::kIdle, false);
  ctx.booting_vms = provider_.count(cloud::VmState::kBooting, false);
  ctx.total_vms = provider_.leased_count();
  ctx.max_vms = provider_.config().max_vms;
  ctx.pricing = &profile_.pricing;
  // The policy plans (count, family, tier) requests against the market
  // view; with pricing off that is one on-demand family-0 request, the
  // paper's plain lease. `want` is the plan's total so the backoff gate
  // below treats the plan as one attempt.
  policy.provisioning->lease_plan(ctx, lease_plan_scratch_);
  std::size_t want = 0;
  for (const cloud::LeaseRequest& req : lease_plan_scratch_) want += req.count;
  // Lease retry with capped exponential backoff (in sim time): after an
  // API-outage rejection, hold further lease attempts until the backoff
  // deadline passes; the first successful attempt resets the schedule.
  // Without a failure model nothing is ever rejected, so this never holds.
  if (now < next_lease_attempt_) want = 0;
  const std::vector<cloud::VmInstance>& fleet = provider_.vms();
  const std::size_t leased_before = fleet.size();
  if (want > 0) {
    if (lease_backoff_.attempts() > 0) {
      ++fstats_.lease_retries;
      if (recorder_ != nullptr) recorder_->counter_add("engine.lease_retries", 1.0);
    }
    const std::size_t rejected_before = provider_.api_rejected_leases();
    for (const cloud::LeaseRequest& req : lease_plan_scratch_) {
      provider_.lease(req, now);
      // An API outage rejects the tick's whole provisioning pass: once one
      // request is rejected, later requests this tick would be rejected by
      // the same window, and issuing them would inflate the reject counter.
      if (provider_.api_rejected_leases() != rejected_before) break;
    }
    if (provider_.api_rejected_leases() != rejected_before) {
      next_lease_attempt_ = now + lease_backoff_.next();
    } else {
      lease_backoff_.reset();
      next_lease_attempt_ = 0.0;
    }
  }
  // This tick's leases sit at the fleet's tail, after every VM the pass saw:
  // lease() only appends and ids only grow. Arm their events and append
  // their planner rows behind the pass's, which keeps the rows in id order.
  for (std::size_t i = leased_before; i < fleet.size(); ++i) {
    const cloud::VmInstance& vm = fleet[i];
    const VmId id = vm.id;
    // Crashes (failure model) and spot revocations (warning first, then the
    // revocation itself) are drawn at lease time; kTimeNever means none.
    // Every one of these events tolerates the VM being gone.
    if (vm.crash_at < kTimeNever) sim_.at(vm.crash_at, [this, id] { on_vm_crash(id); });
    if (vm.revoke_warning_at < kTimeNever)
      sim_.at(vm.revoke_warning_at, [this, id] { on_spot_warning(id); });
    if (vm.revoke_at < kTimeNever)
      sim_.at(vm.revoke_at, [this, id] { on_spot_revoke(id); });
    // A fresh lease is booting, or idle at once under a zero boot delay (or
    // the skip-boot-delay validation fault); only a booting one awaits a
    // boot-complete event, at its family's boot_complete.
    const bool booting = vm.state == cloud::VmState::kBooting;
    if (booting) sim_.at(vm.boot_complete, [this, id] { on_boot_complete(id); });
    avail_.push_back(policy::VmAvail{id, vm.lease_time, booting ? vm.boot_complete : now});
  }

  // --- 2. allocation (shared planner; head-of-line or EASY backfill) ---------
  policy::order_queue(annotated_, *policy.job_selection, now, order_scratch_);
  // A start takes at least one VM, and only an idle one that is not doomed:
  // with none (this tick's leases included) or nothing queued, the plan is
  // empty without asking the planner.
  if (annotated_.empty() || provider_.count(cloud::VmState::kIdle, false) == 0) {
    plan_.clear();
  } else {
    policy::plan_allocation_into(now, annotated_, avail_, *policy.vm_selection,
                                 config_.allocation, config_.provider.billing_quantum,
                                 plan_, alloc_scratch_);
  }

  served_.assign(annotated_.size(), false);
  for (const policy::AllocationPlan::Start& start : plan_.starts) {
    served_[start.queue_index] = true;
    const std::span<const VmId> vms = plan_.vms_of(start);
    const policy::QueuedJob& entry = annotated_[start.queue_index];
    // Locate the trace job behind this queue entry.
    const auto wit = std::find_if(queue_.begin(), queue_.end(), [&](const Waiting& w) {
      return w.job->id == entry.id;
    });
    PSCHED_ASSERT(wit != queue_.end());
    const workload::Job& job = *wit->job;
    const SimTime actual_finish = now + job.runtime;
    const SimTime predicted_finish = now + entry.predicted_runtime;

    Running running;
    running.job = &job;
    running.start = now;
    running.eligible = wit->eligible;
    running.vms.assign(vms.begin(), vms.end());
    for (const VmId vm : vms)
      provider_.assign(vm, job.id, actual_finish, predicted_finish, now);
    const JobId id = job.id;
    if (checker_)
      checker_->on_job_started(id, job.procs, vms.size(), running.eligible,
                               job.submit, now);
    // Keep the finish event's id so a VM crash can cancel it.
    running.finish_event = sim_.at(actual_finish, [this, id] { on_job_finish(id); });
    running_.emplace(id, std::move(running));
    queue_.erase(wit);
  }
  if (recorder_ != nullptr && !plan_.empty())
    recorder_->counter_add("engine.jobs_started", static_cast<double>(plan_.starts.size()));
  std::size_t head_unserved_procs = 0;  // first job left waiting, if any
  for (std::size_t i = 0; i < annotated_.size(); ++i) {
    if (!served_[i]) {
      head_unserved_procs = static_cast<std::size_t>(annotated_[i].procs);
      break;
    }
  }

  // --- 3. idle-VM release ------------------------------------------------------
  // Each step walks the fleet only when the tallies say it has something to
  // hand back; a skipped step releases nothing and makes no API call.
  if (provider_.count(cloud::VmState::kIdle, true) > 0) {
    // A doomed idle VM can never serve the queue again (the allocator skips
    // it); hand it back now instead of holding it as useless reserve.
    release_ids_.clear();
    for (const cloud::VmInstance& vm : provider_.vms())
      if (vm.doomed && vm.state == cloud::VmState::kIdle) release_ids_.push_back(vm.id);
    if (!provider_.api_rejects(cloud::FailureOp::kRelease, release_ids_.size(), now)) {
      for (const VmId id : release_ids_) provider_.release(id, now);
    }
  }
  if (config_.release_rule == ReleaseRule::kEagerSurplus) {
    // Keep only what the first still-waiting job needs as a reserve;
    // everything else goes back to the provider (full hours charged).
    if (provider_.idle_count() > head_unserved_procs) {
      provider_.idle_vms(release_ids_);
      const std::vector<VmId>& idle = release_ids_;
      // One API call releases the whole surplus; an outage rejects it
      // wholesale (api_rejects is a no-op without a failure model).
      if (!provider_.api_rejects(cloud::FailureOp::kRelease,
                                 idle.size() - head_unserved_procs, now)) {
        for (std::size_t i = head_unserved_procs; i < idle.size(); ++i)
          provider_.release(idle[i], now);
      }
    }
  } else {
    provider_.release_expiring_idle(now, config_.schedule_period,
                                    head_unserved_procs);
  }

  // --- telemetry ----------------------------------------------------------------
  if (config_.telemetry_every_ticks > 0 &&
      tick_index % config_.telemetry_every_ticks == 0) {
    TelemetrySample sample;
    sample.when = now;
    sample.queued_jobs = queue_.size();
    for (const Waiting& w : queue_)
      sample.queued_procs += static_cast<std::size_t>(w.job->procs);
    sample.leased_vms = provider_.leased_count();
    sample.idle_vms = provider_.idle_count();
    sample.busy_vms = provider_.busy_count();
    sample.booting_vms = provider_.booting_count();
    telemetry_.push_back(sample);
  }

  if (checker_) {
    validate::JobCensus census;
    census.submitted = next_arrival_;
    census.queued = queue_.size();
    census.running = running_.size();
    census.finished = collector_.jobs();
    census.blocked = arrived_blocked_.size();
    census.killed = fstats_.jobs_killed_final;
    checker_->on_tick_end(census, provider_.leased_count(), now);
  }

  // --- 4. keep ticking while the system is active -----------------------------
  if (!queue_.empty() || provider_.leased_count() > 0) {
    tick_armed_ = true;
    sim_.at(now + config_.schedule_period, [this] { on_tick(); });
  }
  // Otherwise the next arrival re-arms the tick.
}

void ClusterSimulation::on_boot_complete(VmId id) {
  const cloud::VmInstance* vm = provider_.find(id);
  // The VM may have crashed (and been reaped) while booting; the stale
  // boot-complete event then fires as a no-op.
  if (vm == nullptr || vm->state != cloud::VmState::kBooting) return;
  if (vm->boot_failed) {
    detail::sim_context().set(sim_.now(), "boot-fail");
    fstats_.paid_wasted_seconds +=
        provider_.fail_boot(id, sim_.now()) * kSecondsPerHour;
    if (recorder_ != nullptr) recorder_->counter_add("engine.boot_failures", 1.0);
    return;
  }
  provider_.finish_boot(id, sim_.now());
}

void ClusterSimulation::on_vm_crash(VmId id) {
  const cloud::VmInstance* vm = provider_.find(id);
  // Stale event: the VM was already released (or boot-failed). Nothing to do.
  if (vm == nullptr) return;
  const SimTime now = sim_.now();
  detail::sim_context().set(now, "vm-crash");
  if (vm->state == cloud::VmState::kBusy) kill_running_job(vm->running_job, id, now);
  fstats_.paid_wasted_seconds += provider_.crash(id, now) * kSecondsPerHour;
  if (recorder_ != nullptr) recorder_->counter_add("engine.vm_crashes", 1.0);
  // No arm_tick: whenever a live VM exists a tick is already armed, and the
  // resubmission path re-arms through enqueue().
}

void ClusterSimulation::on_spot_warning(VmId id) {
  const cloud::VmInstance* vm = provider_.find(id);
  // Stale event: the lease was already released (or revoked early). No-op.
  if (vm == nullptr || vm->doomed) return;
  detail::sim_context().set(sim_.now(), "spot-warning");
  provider_.mark_doomed(id, sim_.now());
  if (recorder_ != nullptr) recorder_->counter_add("engine.spot_warnings", 1.0);
}

void ClusterSimulation::on_spot_revoke(VmId id) {
  const cloud::VmInstance* vm = provider_.find(id);
  // Stale event: the lease was already released. Nothing to settle.
  if (vm == nullptr) return;
  const SimTime now = sim_.now();
  detail::sim_context().set(now, "spot-revoke");
  // A revocation is a crash carrying a price signal: the running slice dies
  // through the same bounded-resubmission machinery, only the settlement
  // differs (spot-priced, counted as revocation waste).
  if (vm->state == cloud::VmState::kBusy) kill_running_job(vm->running_job, id, now);
  provider_.revoke(id, now);
  if (recorder_ != nullptr) recorder_->counter_add("engine.spot_revocations", 1.0);
}

void ClusterSimulation::kill_running_job(JobId id, VmId crashed_vm, SimTime now) {
  const auto it = running_.find(id);
  PSCHED_ASSERT_MSG(it != running_.end(), "crash kill for a job not running");
  const Running& running = it->second;
  sim_.cancel(running.finish_event);
  for (const VmId vm : running.vms) {
    if (vm == crashed_vm) continue;  // the caller settles the crashed lease
    provider_.unassign(vm, now);
  }
  ++fstats_.job_kills;
  fstats_.wasted_proc_seconds += running.job->procs * (now - running.start);
  if (recorder_ != nullptr) recorder_->counter_add("engine.job_kills", 1.0);
  if (checker_) checker_->on_job_killed(id, now);
  const workload::Job* job = running.job;
  running_.erase(it);

  if (++kills_[id] <= config_.resilience.max_resubmits) {
    ++fstats_.job_resubmissions;
    if (recorder_ != nullptr) recorder_->counter_add("engine.job_resubmissions", 1.0);
    // Re-queued with eligibility at the kill instant: its wait clock restarts.
    enqueue(*job, now);
  } else {
    kill_final(*job, now);
  }
}

void ClusterSimulation::kill_final(const workload::Job& job, SimTime now) {
  detail::sim_context().set(now, "job-kill-final");
  dead_jobs_.insert(job.id);
  ++fstats_.jobs_killed_final;
  if (recorder_ != nullptr) recorder_->counter_add("engine.jobs_killed_final", 1.0);
  // Cascade: every transitive dependent can never become eligible. A dead
  // dependent can only be blocked (counted now) or unarrived (counted when
  // its arrival fires) — never queued or running.
  std::vector<const workload::Job*> frontier{&job};
  while (!frontier.empty()) {
    const workload::Job* dead = frontier.back();
    frontier.pop_back();
    const auto deps = dependents_.find(dead->id);
    if (deps == dependents_.end()) continue;
    for (const workload::Job* dependent : deps->second) {
      if (!dead_jobs_.insert(dependent->id).second) continue;
      const auto blocked = arrived_blocked_.find(dependent->id);
      if (blocked != arrived_blocked_.end()) {
        arrived_blocked_.erase(blocked);
        ++fstats_.jobs_killed_final;
        if (recorder_ != nullptr)
          recorder_->counter_add("engine.jobs_killed_final", 1.0);
      }
      frontier.push_back(dependent);
    }
  }
}

void ClusterSimulation::on_job_finish(JobId id) {
  detail::sim_context().set(sim_.now(), "job-finish");
  const auto it = running_.find(id);
  PSCHED_ASSERT_MSG(it != running_.end(), "finish event for unknown job");
  const Running& running = it->second;
  const SimTime now = sim_.now();

  for (const VmId vm : running.vms) provider_.unassign(vm, now);

  metrics::JobRecord record;
  record.id = id;
  record.submit = running.job->submit;
  record.eligible = running.eligible;
  record.start = running.start;
  record.finish = now;
  record.procs = running.job->procs;
  record.runtime = running.job->runtime;
  record.workflow = running.job->workflow;
  collector_.record(record);
  if (checker_) checker_->on_job_finished(record, now);

  if (recorder_ != nullptr) recorder_->counter_add("engine.jobs_finished", 1.0);
  predictor_.observe_completion(*running.job);
  running_.erase(it);

  // Release workflow dependents whose last dependency just completed.
  const auto deps = dependents_.find(id);
  if (deps != dependents_.end()) {
    for (const workload::Job* dependent : deps->second) {
      auto open = open_deps_.find(dependent->id);
      PSCHED_ASSERT(open != open_deps_.end() && open->second > 0);
      if (--open->second == 0) {
        const auto blocked = arrived_blocked_.find(dependent->id);
        if (blocked != arrived_blocked_.end()) {
          arrived_blocked_.erase(blocked);
          enqueue(*dependent, now);
        }
        // Not yet arrived: on_arrival() will enqueue it at submission.
      }
    }
  }
}

void ClusterSimulation::set_vm_allowance(std::size_t allowance) {
  PSCHED_ASSERT_MSG(allowance >= provider_.leased_count(),
                    "allowance below the live fleet (arbiter floors violated)");
  provider_.set_vm_cap(allowance);
}

ClusterSimulation::LoadView ClusterSimulation::load_view() const {
  LoadView view;
  view.leased_vms = provider_.leased_count();
  for (const Waiting& w : queue_)
    view.queued_procs += static_cast<std::size_t>(w.job->procs);
  return view;
}

void ClusterSimulation::start() {
  PSCHED_ASSERT_MSG(!started_ && collector_.jobs() == 0,
                    "ClusterSimulation is single-shot");
  started_ = true;
  // All arrivals are scheduled up front so they carry lower sequence
  // numbers than any tick: a batch of jobs submitted at the same instant is
  // fully enqueued before the scheduling tick at that instant fires.
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    sim_.at(trace_.jobs()[i].submit, [this] { on_arrival(); });
  }
}

void ClusterSimulation::advance_until(SimTime horizon) {
  PSCHED_ASSERT_MSG(started_, "advance_until before start()");
  sim_.run_until(horizon);
}

RunResult ClusterSimulation::run() {
  start();
  {
    const obs::Recorder::Scope run_scope(recorder_, "engine.run", 0);
    sim_.run();
  }
  return finish();
}

RunResult ClusterSimulation::finish() {
  PSCHED_ASSERT_MSG(started_ && !sim_.has_pending(),
                    "finish() before the event queue drained");
  detail::sim_context().set(sim_.now(), "run-end");

  PSCHED_ASSERT_MSG(queue_.empty(), "simulation ended with waiting jobs");
  PSCHED_ASSERT_MSG(running_.empty(), "simulation ended with running jobs");
  PSCHED_ASSERT_MSG(arrived_blocked_.empty(),
                    "simulation ended with dependency-blocked jobs (cyclic or "
                    "unsatisfiable workflow dependencies)");
  PSCHED_ASSERT_MSG(provider_.leased_count() == 0,
                    "simulation ended with leased VMs");
  RunResult result;
  result.trace_name = trace_.name();
  result.scheduler_name = scheduler_.name();
  result.metrics = collector_.finalize();
  result.metrics.rv_charged_seconds =
      provider_.charged_hours_released() * kSecondsPerHour;
  result.metrics.failures = failure_stats();
  if (pricing_model_ != nullptr) {
    metrics::PricingStats& p = result.metrics.pricing;
    p.families = pricing_model_->family_count();
    p.on_demand_leases = provider_.leases_of_tier(cloud::PurchaseTier::kOnDemand);
    p.spot_leases = provider_.leases_of_tier(cloud::PurchaseTier::kSpot);
    p.reserved_leases = provider_.leases_of_tier(cloud::PurchaseTier::kReserved);
    p.spot_warnings = provider_.spot_warnings();
    p.spot_revocations = provider_.spot_revocations();
    p.spend_on_demand_dollars = provider_.spend_on_demand_dollars();
    p.spend_spot_dollars = provider_.spend_spot_dollars();
    // The commitment is billed up front for the whole term, independent of
    // how much of it the run actually used.
    p.spend_reserved_dollars =
        pricing_model_->commitment_cost(config_.provider.billing_quantum);
    p.spot_savings_dollars = provider_.spot_savings_dollars();
    p.revoked_charged_seconds = provider_.revoked_charged_seconds();
  }
  result.ticks = ticks_run_;
  result.events = sim_.events_dispatched();
  result.total_leases = provider_.total_leases();
  if (config_.keep_job_records) result.job_records = collector_.records();
  result.telemetry = std::move(telemetry_);
  if (checker_) {
    checker_->on_run_end(result.metrics, sim_, provider_.charged_hours_released());
    result.invariant_checks = checker_->checks_run();
    result.invariant_violations = checker_->violations();
  }
  detail::sim_context().clear();
  return result;
}

metrics::FailureStats ClusterSimulation::failure_stats() const {
  // All zero without a failure model, except that spot revocations reuse
  // the kill/resubmit machinery and so count job-level kills.
  metrics::FailureStats stats = fstats_;
  stats.boot_failures = provider_.boot_failures();
  stats.vm_crashes = provider_.crashes();
  stats.api_rejected_leases = provider_.api_rejected_leases();
  stats.api_rejected_releases = provider_.api_rejected_releases();
  return stats;
}

void ClusterSimulation::capture_state(util::StateDigest& digest) const {
  // Event-loop position. Captured at a quiescent horizon, so the pending
  // queue's *content* is implied by the deterministic replay; its size and
  // the next due time pin the position bit-exactly.
  digest.add_double("sim.now", sim_.now());
  digest.add_u64("sim.events", sim_.events_dispatched());
  digest.add_size("sim.pending", sim_.queue().size());
  digest.add_bool("sim.started", started_);
  digest.add_u64("sim.ticks", ticks_run_);
  digest.add_bool("sim.tick_armed", tick_armed_);
  digest.add_size("sim.next_arrival", next_arrival_);

  // Provider fleet, in id order (vms() is id-ordered: order-sensitive fold).
  std::uint64_t fleet = 0;
  for (const cloud::VmInstance& vm : provider_.vms()) {
    fleet = util::digest_mix(fleet, static_cast<std::uint64_t>(vm.id));
    fleet = util::digest_mix(fleet, vm.lease_time);
    fleet = util::digest_mix(fleet, vm.boot_complete);
    fleet = util::digest_mix(fleet, static_cast<std::uint64_t>(vm.state));
    fleet = util::digest_mix(fleet, static_cast<std::uint64_t>(vm.running_job));
    fleet = util::digest_mix(fleet, vm.busy_until);
    fleet = util::digest_mix(fleet, vm.predicted_end);
    fleet = util::digest_mix(fleet, static_cast<std::uint64_t>(vm.boot_failed));
    fleet = util::digest_mix(fleet, vm.crash_at);
    fleet = util::digest_mix(fleet, static_cast<std::uint64_t>(vm.family));
    fleet = util::digest_mix(fleet, static_cast<std::uint64_t>(vm.tier));
    fleet = util::digest_mix(fleet, vm.revoke_warning_at);
    fleet = util::digest_mix(fleet, vm.revoke_at);
    fleet = util::digest_mix(fleet, static_cast<std::uint64_t>(vm.doomed));
  }
  digest.add_u64("provider.fleet", fleet);
  digest.add_size("provider.leased", provider_.leased_count());
  digest.add_size("provider.total_leases", provider_.total_leases());
  digest.add_double("provider.charged_hours", provider_.charged_hours_released());
  digest.add_size("provider.spot_warnings", provider_.spot_warnings());
  digest.add_size("provider.spot_revocations", provider_.spot_revocations());
  digest.add_double("provider.spend_on_demand", provider_.spend_on_demand_dollars());
  digest.add_double("provider.spend_spot", provider_.spend_spot_dollars());
  digest.add_double("provider.revoked_charged", provider_.revoked_charged_seconds());
  digest.add_size("provider.reserved_live", provider_.reserved_live());

  // Waiting queue (submit order: order-sensitive).
  std::uint64_t waiting = 0;
  for (const Waiting& w : queue_) {
    waiting = util::digest_mix(waiting, static_cast<std::uint64_t>(w.job->id));
    waiting = util::digest_mix(waiting, w.eligible);
  }
  digest.add_u64("engine.queue", waiting);
  digest.add_size("engine.queue_len", queue_.size());

  // Running jobs (unordered container: commutative fold).
  util::UnorderedFold running;
  // psched-lint: order-insensitive(UnorderedFold is commutative)
  for (const auto& [id, r] : running_) {
    std::uint64_t item = util::digest_mix(0, static_cast<std::uint64_t>(id));
    item = util::digest_mix(item, r.start);
    item = util::digest_mix(item, r.eligible);
    for (const VmId vm : r.vms) item = util::digest_mix(item, static_cast<std::uint64_t>(vm));
    running.absorb(item);
  }
  digest.add_fold("engine.running", running);

  // Workflow dependency tracking.
  util::UnorderedFold deps;
  // psched-lint: order-insensitive(UnorderedFold is commutative)
  for (const auto& [id, open] : open_deps_)
    deps.absorb(util::digest_mix(util::digest_mix(0, static_cast<std::uint64_t>(id)),
                                 static_cast<std::uint64_t>(open)));
  digest.add_fold("engine.open_deps", deps);
  digest.add_size("engine.arrived_blocked", arrived_blocked_.size());
  util::UnorderedFold dead;
  // psched-lint: order-insensitive(UnorderedFold is commutative)
  for (const JobId id : dead_jobs_) dead.absorb(static_cast<std::uint64_t>(id));
  digest.add_fold("engine.dead_jobs", dead);

  // Failure/resilience/pricing stream positions.
  if (failure_model_ != nullptr) failure_model_->capture_digest(digest);
  lease_backoff_.capture_digest(digest);
  digest.add_double("engine.next_lease_attempt", next_lease_attempt_);
  if (pricing_model_ != nullptr) pricing_model_->capture_digest(digest);
  util::UnorderedFold kills;
  // psched-lint: order-insensitive(UnorderedFold is commutative)
  for (const auto& [id, count] : kills_)
    kills.absorb(util::digest_mix(util::digest_mix(0, static_cast<std::uint64_t>(id)),
                                  static_cast<std::uint64_t>(count)));
  digest.add_fold("resubmits.kills", kills);
  const metrics::FailureStats failures = failure_stats();
  metrics::visit_fields(
      [&](const char* key, metrics::Fold, const auto& value) {
        digest.add_u64(std::string("failures.") + key, std::bit_cast<std::uint64_t>(value));
      },
      failures);

  // Metrics accumulated so far, and the scheduler's cross-tick state.
  collector_.capture_digest(digest);
  scheduler_.capture_state(digest);
}

}  // namespace psched::engine
