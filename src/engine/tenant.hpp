#pragma once
// Multi-tenant service mode (DESIGN.md §13): N sharded virtual clusters on
// shared provider capacity.
//
// The paper evaluates one portfolio scheduler driving one virtual cluster;
// a scheduling *service* runs many. MultiTenantExperiment instantiates one
// ClusterSimulation per tenant — each with its own workload trace, scheduler
// (portfolio or fixed policy), runtime predictor, failure seeds, and VM-hour
// budget — over one shared capacity pool, and steps them in lockstep epochs:
//
//   1. every tenant with an event due (or a VM leased) advances to the
//      epoch boundary, wave-parallel on the shared thread pool (a tenant is
//      an ordinary engine that owns all of its state, crash-kill counts
//      included, so a wave is embarrassingly parallel and bit-identical at
//      any worker count);
//   2. the coordinator reads each tenant's demand (live fleet + queued
//      width) and runs the deterministic fairness arbiter;
//   3. each tenant's provider cap is set to its allowance for the next
//      epoch. Allowances are caps, not reservations: unclaimed capacity is
//      redistributed, and a tenant's cap never drops below its live fleet.
//
// While no VM is leased anywhere, the epochs before the tenants' earliest
// pending event change none of the arbiter's inputs; the loop applies the
// last decision to all of them in one step (DESIGN.md §13.2).
//
// The arbiter is weighted max-min over requested VM(-epoch) units with ties
// broken by tenant id: floors (live fleets) are protected first, then
// capacity progressively fills in-budget tenants with unmet demand — one VM
// at a time to the lowest allocation-per-weight ratio, ties to the lower
// tenant id — then over-budget tenants the same way, then all leftover
// headroom is split by weight (largest-remainder rounding) so demand
// arriving mid-epoch can lease immediately. Every unit of the global cap is
// always allocated. Determinism: demands are read and allowances
// applied on the coordinating thread in tenant-id order, so the schedule is
// a pure function of configs and seeds regardless of eval_threads.
//
// Per-tenant seed streams derive from one root via the registered
// "tenant-workload" / "tenant-failure" streams (util/seed_streams.hpp,
// psched-lint D5) so tenant i's draws are uncorrelated with tenant j's and
// with every other subsystem's.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "policy/portfolio.hpp"
#include "util/thread_pool.hpp"

namespace psched::engine {

/// One tenant of a multi-tenant experiment. The trace is borrowed and must
/// outlive the experiment's run().
struct TenantConfig {
  /// Fairness weight: quota share = global_cap * weight / sum(weights).
  double weight = 1.0;
  /// VM-hour budget; past it the tenant keeps its live fleet but drops to
  /// the lowest arbitration class (no growth while in-budget demand is
  /// unmet). 0 means unlimited.
  double budget_vm_hours = 0.0;
  /// Per-tenant failure injection; derive the seed via tenant_failure_seed()
  /// so tenants draw uncorrelated failure streams from one root.
  cloud::FailureConfig failure;
  /// The tenant's workload (borrowed).
  const workload::Trace* trace = nullptr;
};

/// Configuration of a multi-tenant run.
struct MultiTenantConfig {
  /// Global template: `engine.provider.max_vms` is the SHARED capacity cap;
  /// every other setting applies to every tenant, except `engine.failure`,
  /// which each TenantConfig replaces.
  EngineConfig engine;
  /// Portfolio mode when non-null (borrowed): every tenant runs its own
  /// PortfolioScheduler over this portfolio with `scheduler` below.
  const policy::Portfolio* portfolio = nullptr;
  core::PortfolioSchedulerConfig scheduler;
  /// Fixed-policy mode when `portfolio` is null.
  policy::PolicyTriple policy;
  PredictorKind predictor = PredictorKind::kPerfect;
  std::vector<TenantConfig> tenants;
  /// Epoch length in scheduling ticks: the arbiter re-divides capacity
  /// every `arbitration_period_ticks * engine.schedule_period` seconds.
  std::size_t arbitration_period_ticks = 1;
};

/// One tenant's demand snapshot, priced by the arbiter.
struct TenantDemand {
  std::size_t tenant = 0;
  double weight = 1.0;
  std::size_t floor_vms = 0;   ///< live fleet: the allocation never evicts
  std::size_t demand_vms = 0;  ///< live fleet + queued width
  bool over_budget = false;    ///< lowest arbitration class
};

/// Deterministic weighted max-min division of `global_cap` VMs (see the
/// header comment). Returns one allowance per demand, in input order;
/// allowances sum to exactly `global_cap` and never fall below the floors
/// (which must themselves fit under the cap). Exposed for unit tests.
[[nodiscard]] std::vector<std::size_t> arbitrate_capacity(
    const std::vector<TenantDemand>& demands, std::size_t global_cap);

/// Per-tenant seed derivation from one root through the registered streams:
/// stable, uncorrelated across tenant indices and across the two streams.
[[nodiscard]] std::uint64_t tenant_workload_seed(std::uint64_t root,
                                                 std::size_t tenant);
[[nodiscard]] std::uint64_t tenant_failure_seed(std::uint64_t root,
                                                std::size_t tenant);

/// One tenant's slice of a finished multi-tenant run.
struct TenantResult {
  std::string name;              ///< "tenant-<id>"
  double weight = 1.0;
  double budget_vm_hours = 0.0;
  bool over_budget = false;      ///< budget exhausted by the end of the run
  double charged_hours = 0.0;
  ScenarioResult scenario;       ///< the tenant's own engine result
  std::size_t min_allocation = 0;   ///< across arbitrations
  std::size_t max_allocation = 0;
  double mean_allocation = 0.0;
};

/// Aggregate + per-tenant outputs of a multi-tenant run.
struct MultiTenantResult {
  std::string trace_name;      ///< "tenants[N] <first trace>"
  std::string scheduler_name;
  std::vector<TenantResult> tenants;
  /// Service-level aggregate: jobs/RJ/RV/workflow counts summed, slowdown
  /// and wait job-weighted, makespan the max across tenants.
  metrics::RunMetrics metrics;
  std::uint64_t ticks = 0;
  std::uint64_t events = 0;
  std::size_t total_leases = 0;
  std::uint64_t epochs = 0;        ///< epoch boundaries passed, skipped ones included
  /// Arbiter decisions: one per epoch plus the t=0 one, counting the
  /// decisions a skipped epoch repeats.
  std::uint64_t arbitrations = 0;
  std::size_t peak_leased = 0;     ///< max over arbitrations of summed fleets
  bool is_portfolio = false;
  metrics::PortfolioStats portfolio;  ///< summed across tenants, iff is_portfolio
  std::uint64_t invariant_checks = 0;  ///< per-tenant + service-level
  std::vector<validate::Violation> invariant_violations;
};

/// Runs N tenant simulations in lockstep epochs over shared capacity. The
/// thread pool (optional, borrowed) hosts both the tenant waves and every
/// tenant selector's candidate waves; null runs everything serially with
/// bit-identical results.
class MultiTenantExperiment {
 public:
  explicit MultiTenantExperiment(MultiTenantConfig config,
                                 util::ThreadPool* pool = nullptr);

  /// Execute every tenant's trace to completion. Single-shot.
  [[nodiscard]] MultiTenantResult run();

 private:
  MultiTenantConfig config_;
  util::ThreadPool* pool_;
  bool ran_ = false;
};

/// Assemble obs::RunReportInputs (with the "psched-tenants/v1" section) from
/// a finished multi-tenant run.
[[nodiscard]] obs::RunReportInputs multi_tenant_report_inputs(
    const MultiTenantResult& result, const MultiTenantConfig& config);

}  // namespace psched::engine
