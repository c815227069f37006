#include "engine/tenant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "cloud/failure.hpp"
#include "util/assert.hpp"
#include "util/seed_streams.hpp"

namespace psched::engine {

namespace {

/// SplitMix finalizer: decorrelates the per-tenant index from a stream seed.
std::uint64_t mix_index(std::uint64_t seed, std::size_t tenant) {
  std::uint64_t mixed =
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(tenant) + 1);
  mixed ^= mixed >> 30;
  mixed *= 0xbf58476d1ce4e5b9ULL;
  mixed ^= mixed >> 27;
  mixed *= 0x94d049bb133111ebULL;
  mixed ^= mixed >> 31;
  return mixed;
}

/// Split `units` integer units by weight with largest-remainder rounding.
/// Remainder ties (equal fractional parts) go to the lower index, so the
/// division is a pure function of (weights, units). Sums to exactly `units`.
std::vector<std::size_t> weighted_split(const std::vector<double>& weights,
                                        std::size_t units) {
  const std::size_t n = weights.size();
  std::vector<std::size_t> out(n, 0);
  double total = 0.0;
  for (const double w : weights) total += w;
  if (n == 0 || total <= 0.0 || units == 0) return out;
  std::vector<std::pair<double, std::size_t>> remainders;
  remainders.reserve(n);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double quota = static_cast<double>(units) * weights[i] / total;
    out[i] = static_cast<std::size_t>(quota);
    assigned += out[i];
    remainders.emplace_back(quota - std::floor(quota), i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first > b.first;
                     return a.second < b.second;
                   });
  for (std::size_t k = 0; k < remainders.size() && assigned < units; ++k) {
    ++out[remainders[k].second];
    ++assigned;
  }
  // FP slack can leave the floor sum a unit off in either direction; trim
  // deterministically from the highest index so the split stays exact.
  for (std::size_t i = n; i-- > 0 && assigned > units;) {
    while (out[i] > 0 && assigned > units) {
      --out[i];
      --assigned;
    }
  }
  return out;
}

}  // namespace

std::uint64_t tenant_workload_seed(std::uint64_t root, std::size_t tenant) {
  return mix_index(
      cloud::derive_stream_seed(root, util::kStreamTenantWorkload), tenant);
}

std::uint64_t tenant_failure_seed(std::uint64_t root, std::size_t tenant) {
  return mix_index(cloud::derive_stream_seed(root, util::kStreamTenantFailure),
                   tenant);
}

std::vector<double> quota_shares(std::size_t global_cap, const std::vector<double>& weights) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<double> shares = weights;
  for (double& share : shares) share = static_cast<double>(global_cap) * share / total;
  return shares;
}

std::vector<std::size_t> arbitrate_capacity(
    const std::vector<TenantDemand>& demands, std::size_t global_cap) {
  const std::size_t n = demands.size();
  std::vector<std::size_t> alloc(n, 0);
  std::size_t used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    alloc[i] = demands[i].floor_vms;
    used += alloc[i];
  }
  PSCHED_ASSERT_MSG(used <= global_cap, "tenant floors exceed the global cap");
  std::size_t remaining = global_cap - used;

  // Progressive filling: grant one VM at a time to the eligible tenant with
  // unmet demand and the lowest allocation-per-weight ratio (ties to the
  // lower tenant id). This is exact weighted max-min over the floors — the
  // marginal VM always goes to the most deprived hungry tenant, so no
  // tenant can sit below its quota share with unmet demand while another
  // grows past its own share (the tenant.fairness invariant).
  const auto fill = [&](const auto& eligible) {
    while (remaining > 0) {
      std::size_t best = n;
      double best_ratio = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!eligible(i) || demands[i].demand_vms <= alloc[i]) continue;
        const double ratio =
            static_cast<double>(alloc[i]) / demands[i].weight;
        if (best == n || ratio < best_ratio) {
          best = i;
          best_ratio = ratio;
        }
      }
      if (best == n) break;  // every eligible demand is met
      ++alloc[best];
      --remaining;
    }
  };
  // In-budget tenants first; over-budget ones only take what is left.
  fill([&](std::size_t i) { return !demands[i].over_budget; });
  fill([&](std::size_t i) { return demands[i].over_budget; });

  // Leftover headroom: allowances are caps, not reservations, so capacity
  // nobody demanded is split across in-budget tenants by weight — demand
  // arriving mid-epoch leases immediately instead of waiting out the
  // arbitration lag. (This also makes symmetric tenants' allowances exactly
  // equal, which the standalone-equivalence tests rely on.)
  if (remaining > 0 && n > 0) {
    std::vector<std::size_t> idx;
    std::vector<double> weights;
    for (std::size_t i = 0; i < n; ++i) {
      if (!demands[i].over_budget) {
        idx.push_back(i);
        weights.push_back(demands[i].weight);
      }
    }
    if (idx.empty()) {
      for (std::size_t i = 0; i < n; ++i) {
        idx.push_back(i);
        weights.push_back(demands[i].weight);
      }
    }
    const std::vector<std::size_t> share = weighted_split(weights, remaining);
    for (std::size_t k = 0; k < idx.size(); ++k) alloc[idx[k]] += share[k];
    remaining = 0;
  }
  return alloc;
}

MultiTenantExperiment::MultiTenantExperiment(MultiTenantConfig config,
                                             util::ThreadPool* pool)
    : config_(std::move(config)), pool_(pool) {
  PSCHED_ASSERT_MSG(!config_.tenants.empty(), "a multi-tenant run needs tenants");
  PSCHED_ASSERT_MSG(config_.arbitration_period_ticks > 0,
                    "arbitration_period_ticks must be positive");
  PSCHED_ASSERT_MSG(
      config_.portfolio != nullptr || config_.policy.provisioning != nullptr,
      "either a portfolio or a fixed policy triple is required");
  for (const TenantConfig& t : config_.tenants) {
    PSCHED_ASSERT_MSG(t.trace != nullptr, "tenant without a trace");
    PSCHED_ASSERT_MSG(t.weight > 0.0, "tenant weights must be positive");
  }
}

MultiTenantResult MultiTenantExperiment::run() {
  PSCHED_ASSERT_MSG(!ran_, "MultiTenantExperiment::run is single-shot");
  ran_ = true;
  const std::size_t n = config_.tenants.size();
  const std::size_t cap = config_.engine.provider.max_vms;

  // Per-tenant engine stacks. Tenant simulations never see a Recorder (it
  // is not safe to share across concurrent engines); the service report is
  // assembled from results instead.
  std::vector<std::unique_ptr<core::Scheduler>> schedulers;
  std::vector<std::unique_ptr<predict::RuntimePredictor>> predictors;
  std::vector<std::unique_ptr<ClusterSimulation>> sims;
  std::vector<double> weights;
  schedulers.reserve(n);
  predictors.reserve(n);
  sims.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TenantConfig& t = config_.tenants[i];
    weights.push_back(t.weight);
    EngineConfig ec = config_.engine;
    ec.failure = t.failure;
    if (config_.portfolio != nullptr) {
      schedulers.push_back(std::make_unique<core::PortfolioScheduler>(
          *config_.portfolio, config_.scheduler, pool_));
    } else {
      schedulers.push_back(
          std::make_unique<core::SinglePolicyScheduler>(config_.policy));
    }
    predictors.push_back(make_predictor(config_.predictor));
    sims.push_back(std::make_unique<ClusterSimulation>(
        ec, *t.trace, *schedulers.back(), *predictors.back(), nullptr));
  }
  // Liveness: a job wider than its tenant's guaranteed quota share could
  // starve forever when every tenant stays hungry (weighted max-min then
  // pins each tenant near its quota). Clean tenant traces to the quota
  // floor — see tenant_trace cleaning in the CLI and fuzz harness.
  const std::vector<double> quotas = quota_shares(cap, weights);
  for (std::size_t i = 0; i < n; ++i) {
    for (const workload::Job& j : config_.tenants[i].trace->jobs()) {
      PSCHED_ASSERT_MSG(static_cast<double>(j.procs) <= quotas[i],
                        "tenant job wider than its quota share could livelock");
    }
  }

  // Service-level checker: arbitration decisions and per-tenant conservation
  // are judged here; per-tenant engine invariants run on each tenant's own
  // checker inside its ClusterSimulation.
  std::unique_ptr<validate::InvariantChecker> checker;
  if (config_.engine.validation.check_invariants) {
    cloud::ProviderConfig intended = config_.engine.provider;
    intended.inject_fault = validate::FaultInjection::kNone;
    checker = std::make_unique<validate::InvariantChecker>(
        config_.engine.validation, intended);
  }

  MultiTenantResult result;

  struct AllocationStats {
    std::size_t min = std::numeric_limits<std::size_t>::max();
    std::size_t max = 0;
    double sum = 0.0;
  };
  std::vector<AllocationStats> alloc_stats(n);

  // The last decision: its inputs, its output, and the checker's view of it.
  std::vector<TenantDemand> demands(n);
  std::vector<std::size_t> alloc;
  std::vector<validate::TenantAllocation> decision(n);
  const validate::FaultInjection fault = config_.engine.validation.inject_fault;
  bool unfair_share_injected = false;

  const auto arbitrate = [&](SimTime now) {
    std::size_t fleet = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const ClusterSimulation::LoadView view = sims[i]->load_view();
      TenantDemand& d = demands[i];
      d.tenant = i;
      d.weight = config_.tenants[i].weight;
      d.floor_vms = view.leased_vms;
      d.demand_vms = view.leased_vms + view.queued_procs;
      d.over_budget = config_.tenants[i].budget_vm_hours > 0.0 &&
                      sims[i]->charged_hours_so_far() >=
                          config_.tenants[i].budget_vm_hours;
      fleet += view.leased_vms;
    }
    // A misbehaving provider (injected faults) can leave the summed fleets
    // above the cap; the arbiter never evicts, so widen its cap to the live
    // fleet and let the checker record the tenant.global-cap violation
    // against the *intended* cap below.
    alloc = arbitrate_capacity(demands, std::max(cap, fleet));
    // Seeded faults (validation self-test): the service checker must catch a
    // broken arbiter.
    if (fault == validate::FaultInjection::kTenantCapOvershoot) {
      alloc[0] += 1;  // allocations already sum to the cap: any extra overshoots
    } else if (fault == validate::FaultInjection::kTenantUnfairShare &&
               !unfair_share_injected) {
      // Tenant 0 gets all but the other fleets at the first decision where
      // that breaks tenant.fairness, and only then: an arbiter unfair for
      // good would starve queued tenants for good. The starved tenant's
      // queued job keeps it ticking, so no skipped epoch repeats this split.
      std::size_t others = 0;
      bool starved = false;
      for (std::size_t i = 1; i < n; ++i) {
        const TenantDemand& d = demands[i];
        others += d.floor_vms;
        starved = starved || (!d.over_budget && d.demand_vms > d.floor_vms &&
                              static_cast<double>(d.floor_vms + 1) < quotas[i]);
      }
      const std::size_t hoard = cap - others;
      if (starved && hoard > demands[0].floor_vms &&
          static_cast<double>(hoard) > quotas[0] + 1.0) {
        for (std::size_t i = 1; i < n; ++i) alloc[i] = demands[i].floor_vms;
        alloc[0] = hoard;
        unfair_share_injected = true;
      }
    }
    if (checker) {
      for (std::size_t i = 0; i < n; ++i) {
        decision[i].tenant = i;
        decision[i].weight = demands[i].weight;
        decision[i].leased_vms = demands[i].floor_vms;
        decision[i].demand_vms = demands[i].demand_vms;
        decision[i].allocated_vms = alloc[i];
        decision[i].over_budget = demands[i].over_budget;
      }
      checker->on_tenant_arbitration(decision, cap, now);
    }
    for (std::size_t i = 0; i < n; ++i) {
      sims[i]->set_vm_allowance(alloc[i]);
      AllocationStats& stats = alloc_stats[i];
      stats.min = std::min(stats.min, alloc[i]);
      stats.max = std::max(stats.max, alloc[i]);
      stats.sum += static_cast<double>(alloc[i]);
    }
    result.peak_leased = std::max(result.peak_leased, fleet);
    ++result.arbitrations;
  };

  // Epoch e ends at tick e × arbitration_period_ticks of the tenants' grid.
  const SimDuration period = config_.engine.schedule_period;
  const std::uint64_t epoch_ticks = config_.arbitration_period_ticks;
  const auto horizon_of = [&](std::uint64_t e) { return sim::tick_time(e * epoch_ticks, period); };

  // Epochs [first, end) that the loop skips: the last decision holds for
  // each, and the checker judges it once per epoch, at that epoch's horizon.
  const auto repeat_decision = [&](std::uint64_t first, std::uint64_t end) {
    const std::uint64_t k = end - first;
    if (checker) {
      for (std::uint64_t e = first; e < end; ++e)
        checker->on_tenant_arbitration(decision, cap, horizon_of(e));
    }
    // Exact: the allocations are integers, and every partial sum is below 2^53.
    for (std::size_t i = 0; i < n; ++i)
      alloc_stats[i].sum += static_cast<double>(k) * static_cast<double>(alloc[i]);
    result.arbitrations += k;
  };

  // A tenant with no event due by the horizon is left where it is: it would
  // dispatch nothing, and it holds no VM (a leased tenant's next tick is
  // due by the next horizon, DESIGN.md §13.2), so its charged hours do not
  // depend on its clock. One due tenant runs on this thread.
  std::vector<std::size_t> due;
  const auto advance_wave = [&](SimTime horizon) {
    due.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const bool is_due = sims[i]->next_event_time() <= horizon;
      PSCHED_ASSERT_MSG(is_due || demands[i].floor_vms == 0,
                        "a tenant holding a VM has no tick due by the horizon");
      if (is_due) due.push_back(i);
    }
    util::run_batch(pool_, due.size(), due.size(), [&](std::size_t k, std::size_t) {
      sims[due[k]]->advance_until(horizon);
    });
  };

  for (std::size_t i = 0; i < n; ++i) sims[i]->start();
  arbitrate(0.0);
  while (true) {
    SimTime next = kTimeNever;
    for (const auto& sim : sims) next = std::min(next, sim->next_event_time());
    if (next == kTimeNever) break;  // every tenant has drained
    // An epoch whose horizon comes before every tenant's next event changes
    // none of the arbiter's inputs: nothing leases, queues or releases, and
    // no tenant holds a VM (see advance_wave). Its decision is the last one,
    // so jump to the first epoch whose horizon reaches that event.
    const std::uint64_t first_due =
        (sim::first_tick_at_or_after(next, period) + epoch_ticks - 1) / epoch_ticks;
    const std::uint64_t e = std::max(result.epochs + 1, first_due);
    repeat_decision(result.epochs + 1, e);
    result.epochs = e;
    const SimTime horizon = horizon_of(e);
    advance_wave(horizon);
    arbitrate(horizon);
  }

  // Finish every tenant (coordinator thread, tenant-id order) and aggregate.
  result.is_portfolio = config_.portfolio != nullptr;
  std::vector<metrics::RunMetrics> tenant_metrics;
  SimTime end_time = 0.0;
  for (std::size_t i = 0; i < n; ++i) end_time = std::max(end_time, sims[i]->now());
  for (std::size_t i = 0; i < n; ++i) {
    const TenantConfig& t = config_.tenants[i];
    TenantResult tr;
    tr.name = "tenant-" + std::to_string(i);
    tr.weight = t.weight;
    tr.budget_vm_hours = t.budget_vm_hours;
    tr.scenario.run = sims[i]->finish();
    tr.scenario.is_portfolio = result.is_portfolio;
    if (result.is_portfolio)
      tr.scenario.portfolio = portfolio_stats(
          static_cast<const core::PortfolioScheduler&>(*schedulers[i]).reflection());
    const metrics::RunMetrics& m = tr.scenario.run.metrics;
    tr.charged_hours = m.charged_hours();
    tr.over_budget = t.budget_vm_hours > 0.0 && tr.charged_hours >= t.budget_vm_hours;
    tr.min_allocation = alloc_stats[i].min;
    tr.max_allocation = alloc_stats[i].max;
    tr.mean_allocation = alloc_stats[i].sum / static_cast<double>(result.arbitrations);

    if (checker) {
      checker->on_tenant_run_end(i, t.trace->size(), m.jobs,
                                 m.failures.jobs_killed_final, end_time);
    }

    tenant_metrics.push_back(m);
    result.ticks += tr.scenario.run.ticks;
    result.events += tr.scenario.run.events;
    result.total_leases += tr.scenario.run.total_leases;
    result.invariant_checks += tr.scenario.run.invariant_checks;
    for (const validate::Violation& v : tr.scenario.run.invariant_violations)
      result.invariant_violations.push_back(v);
    if (result.is_portfolio) {
      result.portfolio.invocations += tr.scenario.portfolio.invocations;
      result.portfolio.total_selection_cost_ms +=
          tr.scenario.portfolio.total_selection_cost_ms;
      result.portfolio.mean_simulated_per_invocation +=
          tr.scenario.portfolio.mean_simulated_per_invocation *
          static_cast<double>(tr.scenario.portfolio.invocations);
      if (result.portfolio.chosen_counts.size() <
          tr.scenario.portfolio.chosen_counts.size()) {
        result.portfolio.chosen_counts.resize(
            tr.scenario.portfolio.chosen_counts.size(), 0);
      }
      for (std::size_t k = 0; k < tr.scenario.portfolio.chosen_counts.size(); ++k)
        result.portfolio.chosen_counts[k] += tr.scenario.portfolio.chosen_counts[k];
    }
    result.tenants.push_back(std::move(tr));
  }
  result.metrics = metrics::aggregate(tenant_metrics);
  if (result.is_portfolio && result.portfolio.invocations > 0) {
    result.portfolio.mean_simulated_per_invocation /=
        static_cast<double>(result.portfolio.invocations);
  }
  if (checker) {
    result.invariant_checks += checker->checks_run();
    for (const validate::Violation& v : checker->violations())
      result.invariant_violations.push_back(v);
  }
  result.trace_name = "tenants[" + std::to_string(n) + "] " +
                      config_.tenants.front().trace->name();
  result.scheduler_name = result.tenants.front().scenario.run.scheduler_name;
  return result;
}

obs::RunReportInputs multi_tenant_report_inputs(const MultiTenantResult& result,
                                                const MultiTenantConfig& config) {
  obs::RunReportInputs inputs;
  inputs.trace_name = result.trace_name;
  inputs.scheduler_name = result.scheduler_name;
  inputs.metrics = result.metrics;
  inputs.utility = config.engine.utility;
  inputs.ticks = result.ticks;
  inputs.events = result.events;
  inputs.total_leases = result.total_leases;
  inputs.invariant_checks = result.invariant_checks;
  inputs.invariant_violations = result.invariant_violations.size();
  bool any_failures = false;
  for (const TenantConfig& t : config.tenants)
    any_failures = any_failures || t.failure.enabled();
  inputs.failures_enabled = any_failures;
  inputs.pricing_enabled = config.engine.pricing.enabled();
  if (result.is_portfolio) inputs.portfolio = result.portfolio;
  inputs.tenants.present = true;
  inputs.tenants.global_cap = config.engine.provider.max_vms;
  inputs.tenants.arbitration_period_ticks = config.arbitration_period_ticks;
  inputs.tenants.epochs = result.epochs;
  inputs.tenants.arbitrations = result.arbitrations;
  inputs.tenants.peak_leased = result.peak_leased;
  for (const TenantResult& tr : result.tenants) {
    obs::ReportTenant entry;
    entry.name = tr.name;
    entry.weight = tr.weight;
    entry.budget_vm_hours = tr.budget_vm_hours;
    entry.over_budget = tr.over_budget;
    entry.jobs = tr.scenario.run.metrics.jobs;
    entry.killed = tr.scenario.run.metrics.failures.jobs_killed_final;
    entry.charged_hours = tr.charged_hours;
    entry.min_allocation = tr.min_allocation;
    entry.mean_allocation = tr.mean_allocation;
    entry.max_allocation = tr.max_allocation;
    inputs.tenants.tenants.push_back(std::move(entry));
  }
  return inputs;
}

}  // namespace psched::engine
