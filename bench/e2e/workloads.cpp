#include "workloads.hpp"

#include <memory>
#include <stdexcept>

#include "engine/experiment.hpp"
#include "engine/tenant.hpp"
#include "layers.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace psched::e2e {

namespace {

constexpr int kMaxProcs = 64;        // the paper's cleaning rule
constexpr std::size_t kTenants = 4;  // tenants-mixed: 4 x 64 = the 256-VM cap

// Every workload simulates one fixed sample of its archetype. The simulated
// work of a portfolio run varies by 25-80 % between samples, far beyond
// any useful regression bound (README.md, "Why fixed trace samples"), so
// --seed picks a work-preserving variant of the sample instead.
constexpr std::uint64_t kSampleSeed = 20130717;

/// The seed's variant of a trace: job ids sent through an increasing affine
/// map. Submit order and tie order are unchanged, so every output must be
/// too (a metamorphic check on job-id independence).
workload::Trace relabeled(const workload::Trace& trace, std::uint64_t seed) {
  const auto stride = static_cast<JobId>(1 + seed % 16);
  const auto offset = static_cast<JobId>(seed % 1'000'000'007);
  std::vector<workload::Job> jobs = trace.jobs();
  for (workload::Job& job : jobs) {
    job.id = job.id * stride + offset;
    for (JobId& dep : job.deps) dep = dep * stride + offset;
  }
  return workload::Trace(trace.name(), trace.system_cpus(), std::move(jobs));
}

workload::GeneratorConfig archetype(const std::string& name, double days) {
  for (workload::GeneratorConfig& config : workload::paper_archetypes(days))
    if (config.name == name) return config;
  throw std::invalid_argument("unknown archetype " + name);
}

Outcome outcome_of(const engine::RunResult& run, const metrics::UtilityParams& utility,
                   std::size_t submitted) {
  const metrics::RunMetrics& m = run.metrics;
  Outcome o;
  o.utility = m.utility(utility);
  o.avg_bsd = m.avg_bounded_slowdown;
  o.charged_vm_hours = m.charged_hours();
  o.jobs_submitted = submitted;
  o.jobs_finished = m.jobs;
  o.ticks = run.ticks;
  o.events = run.events;
  o.leases = run.total_leases;
  o.job_kills = m.failures.job_kills;
  o.resubmits = m.failures.job_resubmissions;
  o.spot_leases = m.pricing.spot_leases;
  o.spot_revocations = m.pricing.spot_revocations;
  return o;
}

engine::RunResult simulate(const engine::EngineConfig& config, const workload::Trace& trace,
                           core::Scheduler& scheduler, Probe* probe) {
  const auto predictor = engine::make_predictor(engine::PredictorKind::kPerfect);
  if (probe != nullptr) return probe->run(config, trace, scheduler, *predictor);
  engine::ClusterSimulation sim(config, trace, scheduler, *predictor);
  return sim.run();
}

Outcome run_portfolio(const engine::EngineConfig& engine, const workload::Trace& trace,
                      const Inputs& inputs, std::size_t threads, Probe* probe) {
  core::PortfolioSchedulerConfig config = inputs.scheduler;
  config.selector.eval_threads = threads;
  core::PortfolioScheduler scheduler(inputs.portfolio, config);
  Outcome o = outcome_of(simulate(engine, trace, scheduler, probe), engine.utility,
                         trace.size());
  o.selections = scheduler.reflection().invocations();
  return o;
}

Outcome run_sweep(const Inputs& inputs, Probe* probe) {
  const workload::Trace& trace = inputs.traces.front();
  Outcome best;
  std::uint64_t ticks = 0;
  std::uint64_t events = 0;
  std::size_t leases = 0;
  const std::vector<policy::PolicyTriple>& policies = inputs.portfolio.policies();
  for (std::size_t i = 0; i < policies.size(); ++i) {
    core::SinglePolicyScheduler scheduler(policies[i]);
    Outcome o = outcome_of(simulate(inputs.engine, trace, scheduler, probe),
                           inputs.engine.utility, trace.size());
    ticks += o.ticks;
    events += o.events;
    leases += o.leases;
    if (i == 0 || o.utility > best.utility) {
      best = o;
      best.best_policy = i;
    }
  }
  best.ticks = ticks;
  best.events = events;
  best.leases = leases;
  return best;
}

Outcome run_tenants(const Inputs& inputs, std::size_t threads) {
  engine::MultiTenantConfig config;
  config.engine = inputs.engine;
  config.portfolio = &inputs.portfolio;
  config.scheduler = inputs.scheduler;
  config.scheduler.selector.eval_threads = threads;
  config.arbitration_period_ticks = 1;
  std::size_t submitted = 0;
  for (std::size_t i = 0; i < inputs.traces.size(); ++i) {
    engine::TenantConfig tenant;
    tenant.failure = inputs.tenant_failures[i];
    tenant.trace = &inputs.traces[i];
    config.tenants.push_back(tenant);
    submitted += inputs.traces[i].size();
  }
  // One pool shared by the tenant waves and every tenant's selector; its
  // workers plus the coordinating thread make `threads`.
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads - 1);
  engine::MultiTenantExperiment experiment(config, pool.get());
  const engine::MultiTenantResult result = experiment.run();

  engine::RunResult totals;
  totals.metrics = result.metrics;
  totals.ticks = result.ticks;
  totals.events = result.events;
  totals.total_leases = result.total_leases;
  Outcome o = outcome_of(totals, inputs.engine.utility, submitted);
  o.selections = result.portfolio.invocations;
  o.epochs = result.epochs;
  return o;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  // One workload runs its selector on two evaluation threads, the others on
  // one. Four threads fill the 4-vCPU machine, and their wall time then
  // follows the host's steal time more than the program (README.md, "Noise
  // and bounds"). The traced pass still runs every workload but the sweep at
  // 1 and at 4 threads.
  static const std::vector<WorkloadSpec> specs = {
      {"das2-t2", "DAS2-fs0", 3.5, Kind::kPortfolio, 2},
      {"lpc-t1", "LPC-EGEE", 2.5, Kind::kPortfolio, 1},
      {"sweep-sdsc", "SDSC-SP2", 3.5, Kind::kSweep, 1},
      {"tenants-mixed", "KTH-SP2", 7.0, Kind::kTenants, 1},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads())
    if (name == spec.name) return &spec;
  return nullptr;
}

std::size_t Inputs::simulations(const WorkloadSpec& spec) const {
  return spec.kind == Kind::kSweep ? portfolio.size() : traces.size();
}

std::size_t Inputs::jobs() const {
  std::size_t n = 0;
  for (const workload::Trace& trace : traces) n += trace.size();
  return n;
}

Inputs set_up(const WorkloadSpec& spec, std::uint64_t seed, double days) {
  Inputs in;
  in.engine = engine::paper_engine_config();
  workload::GeneratorConfig gen = archetype(spec.archetype, days);
  std::vector<std::uint64_t> sample_seeds = {kSampleSeed};
  if (spec.kind == Kind::kTenants) {
    // Each tenant gets a quarter of the archetype's load: four full-rate
    // traces on a quarter of the cap each overload the service (README.md).
    gen.target_load /= static_cast<double>(kTenants);
    sample_seeds.clear();
    for (std::size_t i = 0; i < kTenants; ++i)
      sample_seeds.push_back(engine::tenant_workload_seed(kSampleSeed, i));
  }

  const double t0 = now_s();
  std::vector<workload::Trace> raw;
  for (const std::uint64_t s : sample_seeds)
    raw.push_back(workload::TraceGenerator(gen).generate(s));
  const double t1 = now_s();
  for (const workload::Trace& trace : raw)
    in.traces.push_back(relabeled(trace.cleaned(kMaxProcs), seed));
  in.portfolio = spec.kind == Kind::kTenants ? policy::Portfolio::pricing_portfolio()
                                             : policy::Portfolio::paper_portfolio();
  in.generate_s = t1 - t0;
  in.setup_s = now_s() - t0;

  if (spec.kind == Kind::kTenants) {
    cloud::PricingConfig& pricing = in.engine.pricing;
    pricing.families = {cloud::VmFamily{"small", 0.5, 30.0, 64},
                        cloud::VmFamily{"std", 1.0, 120.0, 0}};
    pricing.spot_price_fraction = 0.3;
    pricing.spot_mtbf_seconds = 6.0 * kSecondsPerHour;
    pricing.spot_warning_seconds = 120.0;
    pricing.seed = kSampleSeed;
    for (std::size_t i = 0; i < kTenants; ++i) {
      cloud::FailureConfig failure;
      failure.p_boot_fail = 0.02;
      failure.vm_mtbf_seconds = 7.0 * 24.0 * kSecondsPerHour;
      failure.seed = engine::tenant_failure_seed(kSampleSeed, i);
      in.tenant_failures.push_back(failure);
    }
  }
  in.scheduler = engine::paper_portfolio_config(in.engine);
  if (spec.kind == Kind::kTenants) {
    in.scheduler.selector.budget_mode = core::BudgetMode::kFixedCount;
    in.scheduler.selector.fixed_count = 12;
  }
  return in;
}

double Outcome::jobs_failed_frac() const {
  if (jobs_submitted == 0) return 0.0;
  return static_cast<double>(jobs_submitted - jobs_finished) /
         static_cast<double>(jobs_submitted);
}

Outcome run(const WorkloadSpec& spec, const Inputs& inputs, std::size_t threads,
            Probe* probe) {
  switch (spec.kind) {
    case Kind::kPortfolio:
      return run_portfolio(inputs.engine, inputs.traces.front(), inputs, threads, probe);
    case Kind::kSweep: return run_sweep(inputs, probe);
    case Kind::kTenants: return run_tenants(inputs, threads);
  }
  return {};
}

Outcome run_tenant_proxy(const Inputs& inputs, Probe* probe) {
  engine::EngineConfig engine = inputs.engine;
  engine.failure = inputs.tenant_failures.front();
  return run_portfolio(engine, inputs.traces.front(), inputs, 1, probe);
}

}  // namespace psched::e2e
