// psched — command-line driver for the library.
//
// Subcommands:
//   list-policies
//       Print the 60-policy portfolio.
//   generate  --archetype NAME --days N [--seed S] [--out FILE.swf]
//             [--workflows] [--rate WF_PER_DAY]
//       Generate a synthetic trace (or workflow campaign) and write SWF.
//   characterize  FILE.swf | --archetype NAME --days N [--seed S]
//       Print the workload profile (Table-1 summary + distributions).
//   run  [FILE.swf | --archetype NAME] [--days N] [--seed S]
//        [--scheduler portfolio|POLICY-NAME] [--predictor accurate|predicted|
//         user-estimate|last-runtime|running-mean|ewma]
//        [--delta MS] [--budget-mode wallclock|fixed-count] [--fixed-count N]
//        [--eval-threads N] [--period TICKS] [--backfill]
//        [--on-change] [--reflection] [--quantum SECONDS] [--csv FILE]
//        [--check-invariants] [--inject-fault NAME] [--differential]
//        [--obs-level off|counters|trace] [--report-out FILE.json]
//        [--trace-out FILE.json]
//        [--failures] [--boot-fail-rate P] [--vm-mtbf SECONDS]
//        [--api-outage SECONDS] [--api-outage-duration SECONDS]
//        [--failure-seed S] [--max-resubmits N]
//        [--vm-families NAME:PRICE[:BOOT[:CAP]],...] [--spot-rate F[:MTBF[:WARN]]]
//        [--price-schedule T:MULT,...[,walk:STEP]] [--reserved N[:DISCOUNT]]
//        [--pricing-seed S]
//        [--tenants N] [--tenant-weights W1,...,WN] [--tenant-budget HOURS]
//        [--arbitration-ticks T]
//       Run one scenario and print the paper's metrics. --eval-threads N
//       simulates selector candidates in parallel waves of N (0 = hardware
//       concurrency; default 1 = the sequential algorithm).
//       --budget-mode fixed-count accounts the selection budget as a
//       per-round simulation count (--fixed-count N, 0 = unbounded) instead
//       of wall-clock milliseconds: no clock reads, so runs are bit-identical
//       across machines and --eval-threads widths.
//       Validation: --check-invariants attaches the runtime invariant
//       checker (aborts with context on the first violation);
//       --inject-fault NAME seeds a known-bad behavior in record mode and
//       reports what the checker caught (exit 2): none (the default),
//       billing-off-by-one, skip-boot-delay, cap-overshoot,
//       candidate-throw, and, with --tenants only, tenant-cap-overshoot
//       and tenant-unfair-share (which starves all but tenant 0 once, at
//       the first decision where that is unfair); --differential runs the
//       inner-vs-outer simulator oracle on the workload instead of a
//       normal experiment (see src/validate/differential.hpp).
//       Observability (DESIGN.md §9): --obs-level selects the recording
//       level (default off); --report-out writes the machine-readable
//       "psched-run-report/v1" JSON (implies at least counters);
//       --trace-out writes a chrome://tracing-loadable event trace
//       (implies trace). Recording never changes scheduling decisions:
//       metrics are bit-identical at every level.
//       Failure model (DESIGN.md §10): --failures enables a demo failure
//       mix (2% boot failures, 7-day VM MTBF, 6-hourly 300-second API
//       outages); --boot-fail-rate, --vm-mtbf, and --api-outage set the
//       individual rates (any nonzero rate enables the model),
//       --api-outage-duration the outage length, --failure-seed the named
//       seed streams, and --max-resubmits the per-job resubmission budget.
//       All-zero rates (the default) are a provable no-op: output is
//       bit-identical to a failure-free build.
//       Pricing model (DESIGN.md §12): --vm-families lists heterogeneous VM
//       families (per-quantum price, optional boot delay and cap);
//       --spot-rate F[:MTBF[:WARN]] enables the spot market at price
//       fraction F with mean revocation interval MTBF and warning lead
//       WARN; --price-schedule sets piecewise-constant market multipliers
//       ("0:1.0,7200:1.5") with an optional seeded random walk
//       (",walk:0.1"); --reserved N[:DISCOUNT] pre-pays a capacity
//       commitment; --pricing-seed seeds the "spot"/"walk" streams. Any
//       pricing flag switches the portfolio to the 108-policy tier-aware
//       set; no pricing flags (the default) is a provable no-op.
//       Multi-tenant service mode (DESIGN.md §13): --tenants N (N >= 2)
//       runs N sharded virtual clusters over the shared provider cap, the
//       deterministic fairness arbiter re-dividing capacity every
//       --arbitration-ticks scheduling periods (default 1). A generated
//       archetype gives every tenant its own independently seeded
//       instance of the workload (the registered "tenant-workload" seed
//       stream); a trace file or --workflows campaign is sharded
//       round-robin. --tenant-weights sets per-tenant fairness weights
//       (comma list, default equal); --tenant-budget sets one per-tenant
//       VM-hour budget (0 = unlimited). The run report gains the
//       "psched-tenants/v1" section; --trace-out and --differential are
//       not supported in this mode.
//
// A flag the subcommand does not read is a usage error.
// Exit codes: 0 success, 1 usage error, 2 runtime error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/tenant.hpp"
#include "obs/report.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "validate/differential.hpp"
#include "workload/characterize.hpp"
#include "workload/generator.hpp"
#include "workload/swf.hpp"
#include "workload/workflow.hpp"

namespace {

using namespace psched;

int usage() {
  std::fputs(
      "usage: psched <list-policies|generate|characterize|run> [flags]\n"
      "       see the header of tools/psched_cli.cpp or README.md\n",
      stderr);
  return 1;
}

/// The flags trace_from_args reads.
constexpr std::string_view kTraceFlags[] = {"archetype", "days",      "seed",
                                            "max-procs", "workflows", "rate"};

/// Usage check, before a subcommand that takes a trace does any work: every
/// flag given must be one of trace_from_args's or of `own`.
void reject_unknown_flags(const util::ArgParser& args,
                          std::initializer_list<std::string_view> own) {
  std::vector<std::string_view> known(std::begin(kTraceFlags), std::end(kTraceFlags));
  known.insert(known.end(), own);
  args.reject_unknown_flags(known);
}

workload::Trace trace_from_args(const util::ArgParser& args, bool& ok) {
  ok = true;
  const double days = args.get_double("days", 7.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20130717));

  // Positional SWF file wins.
  for (const std::string& positional : args.positional()) {
    if (positional.find(".swf") != std::string::npos) {
      try {
        return workload::load_swf(positional).cleaned(
            static_cast<int>(args.get_int("max-procs", 64)));
      } catch (const workload::SwfError& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        ok = false;
        return {};
      }
    }
  }
  if (args.get_bool("workflows")) {
    workload::WorkflowConfig config;
    config.duration_days = days;
    config.workflows_per_day = args.get_double("rate", 96.0);
    return workload::generate_workflows(config, seed);
  }
  const std::string archetype = args.get("archetype", "KTH-SP2");
  for (const auto& config : workload::paper_archetypes(days)) {
    if (config.name == archetype)
      return workload::TraceGenerator(config).generate(seed).cleaned(64);
  }
  std::fprintf(stderr,
               "error: unknown archetype '%s' (KTH-SP2, SDSC-SP2, DAS2-fs0, "
               "LPC-EGEE)\n",
               archetype.c_str());
  ok = false;
  return {};
}

int cmd_list_policies(const util::ArgParser& args) {
  args.reject_unknown_flags({});
  const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  for (const policy::PolicyTriple& triple : portfolio.policies())
    std::printf("%s\n", triple.name().c_str());
  return 0;
}

int cmd_generate(const util::ArgParser& args) {
  reject_unknown_flags(args, {"out"});
  bool ok = true;
  const workload::Trace trace = trace_from_args(args, ok);
  if (!ok) return 2;
  const std::string out = args.get("out", "trace.swf");
  try {
    workload::save_swf(out, trace);
  } catch (const workload::SwfError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
  std::printf("wrote %zu jobs to %s\n", trace.size(), out.c_str());
  return 0;
}

int cmd_characterize(const util::ArgParser& args) {
  reject_unknown_flags(args, {});
  bool ok = true;
  const workload::Trace trace = trace_from_args(args, ok);
  if (!ok) return 2;
  const auto summary = trace.summarize(64);
  std::printf("%s: %zu jobs, %.2f months, load %.1f%% on %d CPUs\n",
              trace.name().c_str(), summary.total_jobs, summary.months,
              summary.load_percent, summary.cpus);
  std::fputs(workload::to_string(workload::characterize(trace)).c_str(), stdout);
  return 0;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
}

bool to_double(const std::string& text, double& out) {
  // Strict: whole-string, finite. "nan"/"inf" prices must not slip past the
  // range checks below (NaN compares false against every bound).
  return util::ArgParser::parse_double(text, out);
}

/// "name:price[:boot[:cap]],..." — one VM family per comma entry.
bool parse_vm_families(const std::string& text, std::vector<cloud::VmFamily>& out) {
  for (const std::string& entry : split(text, ',')) {
    const std::vector<std::string> fields = split(entry, ':');
    if (fields.size() < 2 || fields.size() > 4 || fields[0].empty()) return false;
    cloud::VmFamily family;
    family.name = fields[0];
    if (!to_double(fields[1], family.price) || family.price <= 0.0) return false;
    if (fields.size() > 2 &&
        (!to_double(fields[2], family.boot_delay) || family.boot_delay < 0.0))
      return false;
    if (fields.size() > 3) {
      double cap = 0.0;
      if (!to_double(fields[3], cap) || cap < 0.0) return false;
      family.max_vms = static_cast<std::size_t>(cap);
    }
    out.push_back(family);
  }
  return !out.empty();
}

/// "fraction[:mtbf[:warning]]" — spot price fraction in (0,1], seconds.
bool parse_spot_rate(const std::string& text, cloud::PricingConfig& pricing) {
  const std::vector<std::string> fields = split(text, ':');
  if (fields.empty() || fields.size() > 3) return false;
  if (!to_double(fields[0], pricing.spot_price_fraction) ||
      pricing.spot_price_fraction <= 0.0 || pricing.spot_price_fraction > 1.0)
    return false;
  if (fields.size() > 1 && (!to_double(fields[1], pricing.spot_mtbf_seconds) ||
                            pricing.spot_mtbf_seconds < 0.0))
    return false;
  if (fields.size() > 2 && (!to_double(fields[2], pricing.spot_warning_seconds) ||
                            pricing.spot_warning_seconds < 0.0))
    return false;
  return true;
}

/// "t:mult,..." steps plus an optional trailing "walk:step" entry.
bool parse_price_schedule(const std::string& text, cloud::PricingConfig& pricing) {
  for (const std::string& entry : split(text, ',')) {
    const std::vector<std::string> fields = split(entry, ':');
    if (fields.size() != 2) return false;
    if (fields[0] == "walk") {
      if (!to_double(fields[1], pricing.walk_step) || pricing.walk_step <= 0.0 ||
          pricing.walk_step >= 1.0)
        return false;
      continue;
    }
    cloud::PricePoint point;
    if (!to_double(fields[0], point.at) || point.at < 0.0) return false;
    if (!to_double(fields[1], point.multiplier) || point.multiplier <= 0.0)
      return false;
    pricing.schedule.push_back(point);
  }
  return true;
}

/// "count[:discount]" — reserved-capacity commitment.
bool parse_reserved(const std::string& text, cloud::PricingConfig& pricing) {
  const std::vector<std::string> fields = split(text, ':');
  if (fields.empty() || fields.size() > 2) return false;
  double count = 0.0;
  if (!to_double(fields[0], count) || count < 0.0) return false;
  pricing.reserved_count = static_cast<std::size_t>(count);
  if (fields.size() > 1 &&
      (!to_double(fields[1], pricing.reserved_price_fraction) ||
       pricing.reserved_price_fraction < 0.0 ||
       pricing.reserved_price_fraction > 1.0))
    return false;
  return true;
}

engine::PredictorKind predictor_from(const std::string& name, bool& ok) {
  ok = true;
  if (name == "accurate") return engine::PredictorKind::kPerfect;
  if (name == "predicted") return engine::PredictorKind::kTsafrir;
  if (name == "user-estimate") return engine::PredictorKind::kUserEstimate;
  if (name == "last-runtime") return engine::PredictorKind::kLastRuntime;
  if (name == "running-mean") return engine::PredictorKind::kRunningMean;
  if (name == "ewma") return engine::PredictorKind::kEwma;
  ok = false;
  return engine::PredictorKind::kPerfect;
}

/// `run --differential`: the inner-vs-outer oracle on this workload,
/// swept across every 6th portfolio policy.
int cmd_differential(const engine::EngineConfig& config, const workload::Trace& trace) {
  std::vector<workload::Job> jobs = trace.jobs();
  constexpr std::size_t kMaxJobs = 120;  // 10 policies x engine run each
  if (jobs.size() > kMaxJobs) jobs.resize(kMaxJobs);
  const std::vector<workload::Job> closed =
      validate::normalize_closed_instance(std::move(jobs), config);

  const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  const validate::DifferentialReport report =
      validate::run_differential_portfolio(config, closed, portfolio);

  util::Table table({"Policy", "BSD", "Cost [VM-h]", "Verdict"});
  for (const validate::DifferentialResult& r : report.results) {
    table.add_row({r.policy, util::Cell(r.actual.avg_bounded_slowdown, 3),
                   util::Cell(r.actual.charged_hours(), 1),
                   r.pass ? "agree" : "DISAGREE"});
    if (!r.pass) std::fprintf(stderr, "%s: %s\n", r.policy.c_str(), r.detail.c_str());
  }
  std::fputs(table.render("psched run --differential").c_str(), stdout);
  std::printf("%zu policies, %zu disagreements (%zu closed jobs)\n",
              report.results.size(), report.failures, closed.size());
  return report.pass() ? 0 : 2;
}

/// The Metric/Value table of a finished run, built from the inputs of its
/// JSON report: the tenant rows when the run had tenants, the workflow,
/// portfolio, failure and pricing rows when the run has them, and the
/// invariant rows when `checking`.
util::Table results_table(const obs::RunReportInputs& in,
                          engine::PredictorKind predictor, bool checking) {
  const metrics::RunMetrics& m = in.metrics;
  util::Table table({"Metric", "Value"});
  table.add_row({"scheduler", in.scheduler_name});
  table.add_row({"trace", in.trace_name});
  table.add_row({"predictor", engine::to_string(predictor)});
  if (in.tenants.present) {
    const obs::ReportTenants& t = in.tenants;
    table.add_row({"tenants", t.tenants.size()});
    table.add_row({"global cap [VMs]", t.global_cap});
    table.add_row({"arbitration period [ticks]", t.arbitration_period_ticks});
    table.add_row({"epochs / arbitrations",
                   std::to_string(t.epochs) + "/" + std::to_string(t.arbitrations)});
    table.add_row({"peak leased [VMs]", t.peak_leased});
  }
  table.add_row({"jobs", m.jobs});
  table.add_row({"avg bounded slowdown", util::Cell(m.avg_bounded_slowdown, 3)});
  table.add_row({"avg wait [s]", util::Cell(m.avg_wait, 1)});
  table.add_row({"charged cost [VM-h]", util::Cell(m.charged_hours(), 1)});
  table.add_row({"utilization [%]", util::Cell(100.0 * m.utilization(), 1)});
  table.add_row({"utility", util::Cell(m.utility(in.utility), 2)});
  if (m.workflows > 0) {
    table.add_row({"workflows", m.workflows});
    table.add_row({"avg workflow makespan [min]",
                   util::Cell(m.avg_workflow_makespan / 60.0, 1)});
  }
  if (in.portfolio) {
    table.add_row({"selection invocations", in.portfolio->invocations});
    table.add_row({"policies simulated/selection",
                   util::Cell(in.portfolio->mean_simulated_per_invocation, 1)});
  }
  if (in.failures_enabled) {
    const metrics::FailureStats& f = m.failures;
    table.add_row({"boot failures", f.boot_failures});
    table.add_row({"vm crashes", f.vm_crashes});
    table.add_row({"api rejections (lease/release)",
                   std::to_string(f.api_rejected_leases) + "/" +
                       std::to_string(f.api_rejected_releases)});
    table.add_row({"lease retries", f.lease_retries});
    table.add_row({"job kills / resubmits / killed for good",
                   std::to_string(f.job_kills) + "/" +
                       std::to_string(f.job_resubmissions) + "/" +
                       std::to_string(f.jobs_killed_final)});
    table.add_row({"goodput [proc-h]", util::Cell(m.goodput_proc_seconds() / 3600.0, 1)});
    table.add_row({"paid-but-wasted [VM-h]", util::Cell(f.paid_wasted_seconds / 3600.0, 1)});
  }
  if (in.pricing_enabled) {
    const metrics::PricingStats& p = m.pricing;
    table.add_row({"vm families", p.families});
    table.add_row({"leases od/spot/reserved",
                   std::to_string(p.on_demand_leases) + "/" +
                       std::to_string(p.spot_leases) + "/" +
                       std::to_string(p.reserved_leases)});
    table.add_row({"spot warnings / revocations",
                   std::to_string(p.spot_warnings) + "/" +
                       std::to_string(p.spot_revocations)});
    char spend[96];
    std::snprintf(spend, sizeof spend, "%.2f/%.2f/%.2f", p.spend_on_demand_dollars,
                  p.spend_spot_dollars, p.spend_reserved_dollars);
    table.add_row({"spend od/spot/reserved [$]", spend});
    table.add_row({"total spend [$]", util::Cell(p.total_spend_dollars(), 2)});
    table.add_row({"spot savings [$]", util::Cell(p.spot_savings_dollars, 2)});
    table.add_row({"revocation waste [VM-h]",
                   util::Cell(p.revoked_charged_seconds / 3600.0, 1)});
  }
  if (checking) {
    table.add_row({"invariant checks", in.invariant_checks});
    table.add_row({"invariant violations", in.invariant_violations});
  }
  return table;
}

/// Print a finished run's results table (then `per_tenant`, if any) and its
/// invariant violations, and write what --csv, --report-out and --trace-out
/// ask for. Returns the command's exit code.
int finish_run(const util::ArgParser& args, const obs::RunReportInputs& inputs,
               engine::PredictorKind predictor, bool checking,
               const std::vector<validate::Violation>& violations,
               const obs::Recorder* rec, const util::Table* per_tenant) {
  const util::Table table = results_table(inputs, predictor, checking);
  std::fputs(table.render(inputs.tenants.present ? "psched run --tenants" : "psched run")
                 .c_str(),
             stdout);
  if (per_tenant != nullptr) std::fputs(per_tenant->render("tenants").c_str(), stdout);

  for (const validate::Violation& v : violations)
    std::fprintf(stderr, "invariant violated: %s at t=%.3f s\n  %s\n",
                 v.invariant.c_str(), v.when, v.detail.c_str());

  const std::string csv = args.get("csv", "");
  if (!csv.empty() && !table.save_csv(csv)) {
    std::fprintf(stderr, "error: cannot write %s\n", csv.c_str());
    return 2;
  }
  const std::string report_out = args.get("report-out", "");
  const std::string trace_out = args.get("trace-out", "");
  bool written = report_out.empty() ||
                 obs::write_text_file(report_out, obs::run_report_json(inputs, rec));
  if (!trace_out.empty() && rec != nullptr)
    written = obs::write_text_file(trace_out, obs::chrome_trace_json(*rec)) && written;
  if (!written) {
    std::fputs("error: cannot write --report-out/--trace-out file\n", stderr);
    return 2;
  }
  return violations.empty() ? 0 : 2;
}

/// Per-tenant workloads for `run --tenants N`. A generated archetype gives
/// every tenant its own independently seeded instance via the registered
/// "tenant-workload" stream; a trace file or --workflows campaign is sharded
/// round-robin. Either way each tenant's jobs are cleaned to its quota floor
/// so the arbiter can always make progress.
std::vector<workload::Trace> tenant_traces_from_args(
    const util::ArgParser& args, const workload::Trace& shared,
    const std::vector<double>& quotas) {
  const std::size_t count = quotas.size();
  bool generated = !args.get_bool("workflows");
  for (const std::string& positional : args.positional())
    if (positional.find(".swf") != std::string::npos) generated = false;

  std::vector<workload::Trace> traces;
  traces.reserve(count);
  if (generated) {
    const double days = args.get_double("days", 7.0);
    const auto root = static_cast<std::uint64_t>(args.get_int("seed", 20130717));
    const std::string archetype = args.get("archetype", "KTH-SP2");
    for (const auto& config : workload::paper_archetypes(days)) {
      if (config.name != archetype) continue;
      for (std::size_t i = 0; i < count; ++i)
        traces.push_back(workload::TraceGenerator(config)
                             .generate(engine::tenant_workload_seed(root, i))
                             .cleaned(std::min(static_cast<int>(quotas[i]), 64)));
    }
    return traces;
  }
  std::vector<workload::Trace> shards = workload::shard_round_robin(shared, count);
  for (std::size_t i = 0; i < count; ++i)
    traces.push_back(shards[i].cleaned(static_cast<int>(quotas[i])));
  return traces;
}

/// `run --tenants N`: the multi-tenant service mode (DESIGN.md §13).
/// `portfolio` is null in fixed-policy mode (then `triple` is the policy).
int cmd_run_tenants(const util::ArgParser& args, const engine::EngineConfig& config,
                    const workload::Trace& trace,
                    const policy::Portfolio* portfolio,
                    const core::PortfolioSchedulerConfig& pconfig,
                    const policy::PolicyTriple* triple,
                    engine::PredictorKind predictor, const obs::Recorder* rec,
                    std::size_t count) {
  const std::int64_t ticks = args.get_int("arbitration-ticks", 1, 1);
  const double budget = args.get_double("tenant-budget", 0.0);
  if (budget < 0.0) {
    std::fputs("error: --tenant-budget must be >= 0 VM-hours\n", stderr);
    return 1;
  }
  std::vector<double> weights(count, 1.0);
  const std::string weights_arg = args.get("tenant-weights", "");
  if (!weights_arg.empty()) {
    const std::vector<std::string> parts = split(weights_arg, ',');
    bool weights_ok = parts.size() == count;
    for (std::size_t i = 0; weights_ok && i < count; ++i)
      weights_ok = to_double(parts[i], weights[i]) && weights[i] > 0.0;
    if (!weights_ok) {
      std::fprintf(stderr,
                   "error: --tenant-weights wants %zu comma-separated weights "
                   "> 0\n",
                   count);
      return 1;
    }
  }
  const std::vector<double> quotas = engine::quota_shares(config.provider.max_vms, weights);
  for (std::size_t i = 0; i < count; ++i) {
    if (quotas[i] < 1.0) {
      std::fprintf(stderr,
                   "error: tenant %zu's quota floor is zero — raise the cap "
                   "(%zu VMs across %zu tenants) or its weight\n",
                   i, config.provider.max_vms, count);
      return 1;
    }
  }

  const std::vector<workload::Trace> tenant_traces =
      tenant_traces_from_args(args, trace, quotas);
  if (tenant_traces.size() != count) {
    std::fputs("error: could not build per-tenant traces\n", stderr);
    return 2;
  }

  engine::MultiTenantConfig mt;
  mt.engine = config;
  mt.portfolio = portfolio;
  mt.scheduler = pconfig;
  if (triple != nullptr) mt.policy = *triple;
  mt.predictor = predictor;
  mt.arbitration_period_ticks = static_cast<std::size_t>(ticks);
  for (std::size_t i = 0; i < count; ++i) {
    engine::TenantConfig tenant;
    tenant.weight = weights[i];
    tenant.budget_vm_hours = budget;
    tenant.failure = config.failure;
    if (config.failure.enabled())
      tenant.failure.seed = engine::tenant_failure_seed(config.failure.seed, i);
    tenant.trace = &tenant_traces[i];
    mt.tenants.push_back(std::move(tenant));
  }

  // The pool hosts both tenant waves and every tenant selector's candidate
  // batches; results are bit-identical at any width (0 = hardware
  // concurrency). The calling thread joins every batch, so K threads need
  // K - 1 workers, as in the selector's own pool.
  const std::size_t eval_threads = util::resolve_threads(
      static_cast<std::size_t>(args.get_int("eval-threads", 1, 0)));
  std::unique_ptr<util::ThreadPool> pool;
  if (eval_threads > 1) pool = std::make_unique<util::ThreadPool>(eval_threads - 1);
  engine::MultiTenantExperiment experiment(mt, pool.get());
  const engine::MultiTenantResult result = experiment.run();

  util::Table per_tenant({"Tenant", "Weight", "Jobs", "Killed", "BSD",
                          "Cost [VM-h]", "Budget [VM-h]", "Alloc min/mean/max"});
  for (const engine::TenantResult& t : result.tenants) {
    const auto& tm = t.scenario.run.metrics;
    char alloc[64];
    std::snprintf(alloc, sizeof alloc, "%zu/%.1f/%zu", t.min_allocation,
                  t.mean_allocation, t.max_allocation);
    std::string budget_cell = "unlimited";
    if (t.budget_vm_hours > 0.0) {
      char text[48];
      std::snprintf(text, sizeof text, "%.1f%s", t.budget_vm_hours,
                    t.over_budget ? " (over)" : "");
      budget_cell = text;
    }
    per_tenant.add_row({t.name, util::Cell(t.weight, 1), tm.jobs,
                        tm.failures.jobs_killed_final,
                        util::Cell(tm.avg_bounded_slowdown, 3),
                        util::Cell(t.charged_hours, 1), budget_cell, alloc});
  }
  return finish_run(args, engine::multi_tenant_report_inputs(result, mt), predictor,
                    config.validation.check_invariants, result.invariant_violations,
                    rec, &per_tenant);
}

int cmd_run(const util::ArgParser& args) {
  reject_unknown_flags(
      args, {"scheduler", "predictor", "delta", "budget-mode", "fixed-count",
             "eval-threads", "period", "backfill", "on-change", "reflection", "quantum",
             "csv", "check-invariants", "inject-fault", "differential", "obs-level",
             "report-out", "trace-out", "failures", "boot-fail-rate", "vm-mtbf",
             "api-outage", "api-outage-duration", "failure-seed", "max-resubmits",
             "vm-families", "spot-rate", "price-schedule", "reserved", "pricing-seed",
             "tenants", "tenant-weights", "tenant-budget", "arbitration-ticks"});
  bool ok = true;
  const workload::Trace trace = trace_from_args(args, ok);
  if (!ok) return 2;
  if (trace.empty()) {
    std::fputs("error: empty trace\n", stderr);
    return 2;
  }

  const engine::PredictorKind predictor =
      predictor_from(args.get("predictor", "accurate"), ok);
  if (!ok) {
    std::fputs("error: unknown --predictor\n", stderr);
    return 1;
  }

  engine::EngineConfig config = engine::paper_engine_config();
  if (args.get_bool("backfill"))
    config.allocation = policy::AllocationMode::kEasyBackfill;
  config.provider.billing_quantum = args.get_double("quantum", 3600.0);
  if (config.provider.billing_quantum <= 0.0) {
    std::fprintf(stderr, "error: --quantum wants a number > 0, got '%s'\n",
                 args.get("quantum", "").c_str());
    return 1;
  }

  // Failure model: --failures picks a demo mix; the individual rate flags
  // override it (and any nonzero rate enables the model by itself).
  if (args.get_bool("failures")) {
    config.failure.p_boot_fail = 0.02;
    config.failure.vm_mtbf_seconds = 7.0 * 24.0 * kSecondsPerHour;
    config.failure.api_outage_gap_seconds = 6.0 * kSecondsPerHour;
    config.failure.api_outage_duration_seconds = 300.0;
  }
  config.failure.p_boot_fail =
      args.get_double("boot-fail-rate", config.failure.p_boot_fail);
  config.failure.vm_mtbf_seconds =
      args.get_double("vm-mtbf", config.failure.vm_mtbf_seconds);
  config.failure.api_outage_gap_seconds =
      args.get_double("api-outage", config.failure.api_outage_gap_seconds);
  config.failure.api_outage_duration_seconds = args.get_double(
      "api-outage-duration", config.failure.api_outage_duration_seconds);
  config.failure.seed = static_cast<std::uint64_t>(
      args.get_int("failure-seed", static_cast<std::int64_t>(config.failure.seed)));
  config.resilience.max_resubmits = static_cast<std::size_t>(args.get_int(
      "max-resubmits", static_cast<std::int64_t>(config.resilience.max_resubmits), 0));
  if (config.failure.p_boot_fail < 0.0 || config.failure.p_boot_fail > 1.0 ||
      config.failure.vm_mtbf_seconds < 0.0 ||
      config.failure.api_outage_gap_seconds < 0.0) {
    std::fputs("error: --boot-fail-rate must be in [0,1]; --vm-mtbf and "
               "--api-outage must be >= 0\n",
               stderr);
    return 1;
  }

  // Pricing model: each flag enables its slice; any of them switches the
  // run to the tier-aware portfolio.
  const std::string families_arg = args.get("vm-families", "");
  if (!families_arg.empty() &&
      !parse_vm_families(families_arg, config.pricing.families)) {
    std::fputs("error: --vm-families wants NAME:PRICE[:BOOT[:CAP]],... with "
               "PRICE > 0, BOOT >= 0, CAP >= 0\n",
               stderr);
    return 1;
  }
  const std::string spot_arg = args.get("spot-rate", "");
  if (!spot_arg.empty() && !parse_spot_rate(spot_arg, config.pricing)) {
    std::fputs("error: --spot-rate wants FRACTION[:MTBF[:WARNING]] with "
               "FRACTION in (0,1] and seconds >= 0\n",
               stderr);
    return 1;
  }
  const std::string schedule_arg = args.get("price-schedule", "");
  if (!schedule_arg.empty() && !parse_price_schedule(schedule_arg, config.pricing)) {
    std::fputs("error: --price-schedule wants T:MULT,... (T >= 0, MULT > 0) "
               "with an optional walk:STEP entry, STEP in (0,1)\n",
               stderr);
    return 1;
  }
  const std::string reserved_arg = args.get("reserved", "");
  if (!reserved_arg.empty() && !parse_reserved(reserved_arg, config.pricing)) {
    std::fputs("error: --reserved wants COUNT[:DISCOUNT] with COUNT >= 0 and "
               "DISCOUNT in [0,1]\n",
               stderr);
    return 1;
  }
  config.pricing.seed = static_cast<std::uint64_t>(
      args.get_int("pricing-seed", static_cast<std::int64_t>(config.pricing.seed)));

  // Enable-only: a PSCHED_VALIDATE build turns checking on in the default
  // config, and the absence of the flag must not turn it back off.
  if (args.get_bool("check-invariants")) config.validation.check_invariants = true;
  config.validation.inject_fault =
      validate::fault_from_string(args.get("inject-fault", "none"), ok);
  if (!ok) {
    std::fputs(
        "error: unknown --inject-fault (none, billing-off-by-one, "
        "skip-boot-delay, cap-overshoot, candidate-throw, "
        "tenant-cap-overshoot, tenant-unfair-share)\n",
        stderr);
    return 1;
  }

  if (config.validation.inject_fault != validate::FaultInjection::kNone) {
    // A seeded fault is a checker self-test: record violations and report
    // them instead of dying on the first one.
    config.validation.check_invariants = true;
    config.validation.abort_on_violation = false;
  }

  // Multi-tenant service mode: N >= 2 sharded virtual clusters (handled
  // inside the scheduler dispatch below, once the selector is configured).
  const std::int64_t tenants_arg = args.get_int("tenants", 0);
  if (tenants_arg != 0 && tenants_arg < 2) {
    std::fputs("error: --tenants wants N >= 2 virtual clusters\n", stderr);
    return 1;
  }
  const auto tenant_count = static_cast<std::size_t>(tenants_arg);
  // A tenant fault lives in the arbiter, which a single cluster never runs.
  if (tenant_count == 0 &&
      (config.validation.inject_fault == validate::FaultInjection::kTenantCapOvershoot ||
       config.validation.inject_fault == validate::FaultInjection::kTenantUnfairShare)) {
    std::fprintf(stderr, "error: --inject-fault %s needs --tenants N\n",
                 validate::to_string(config.validation.inject_fault));
    return 1;
  }
  if (tenant_count > 0 && args.get_bool("differential")) {
    std::fputs("error: --differential is not supported with --tenants\n", stderr);
    return 1;
  }

  if (args.get_bool("differential")) return cmd_differential(config, trace);

  // Observability: the requested outputs raise the level to what they need
  // (--trace-out needs the event tracer, --report-out at least counters).
  const std::string report_out = args.get("report-out", "");
  const std::string trace_out = args.get("trace-out", "");
  if (tenant_count > 0 && !trace_out.empty()) {
    std::fputs("error: --trace-out is not supported with --tenants\n", stderr);
    return 1;
  }
  obs::ObsConfig obs_config;
  obs_config.level = obs::obs_level_from_string(args.get("obs-level", "off"), ok);
  if (!ok) {
    std::fputs("error: --obs-level must be off, counters, or trace\n", stderr);
    return 1;
  }
  if (!trace_out.empty()) obs_config.level = obs::ObsLevel::kTrace;
  else if (!report_out.empty() && obs_config.level == obs::ObsLevel::kOff)
    obs_config.level = obs::ObsLevel::kCounters;
  obs::Recorder recorder(obs_config);
  obs::Recorder* rec = obs_config.level != obs::ObsLevel::kOff ? &recorder : nullptr;

  const policy::Portfolio portfolio = config.pricing.enabled()
                                          ? policy::Portfolio::pricing_portfolio()
                                          : policy::Portfolio::paper_portfolio();
  const std::string scheduler = args.get("scheduler", "portfolio");

  engine::ScenarioResult result;
  if (scheduler == "portfolio") {
    auto pconfig = engine::paper_portfolio_config(config);
    pconfig.selector.time_constraint_ms = args.get_double("delta", 0.0);
    const std::string budget_mode = args.get("budget-mode", "wallclock");
    if (budget_mode == "fixed-count") {
      pconfig.selector.budget_mode = core::BudgetMode::kFixedCount;
      pconfig.selector.fixed_count =
          static_cast<std::size_t>(args.get_int("fixed-count", 0, 0));
    } else if (budget_mode != "wallclock") {
      std::fputs("error: --budget-mode must be wallclock or fixed-count\n",
                 stderr);
      return 1;
    }
    pconfig.selector.eval_threads =
        static_cast<std::size_t>(args.get_int("eval-threads", 1, 0));
    pconfig.selection_period_ticks =
        static_cast<std::uint64_t>(args.get_int("period", 1, 1));
    if (args.get_bool("on-change")) pconfig.trigger = core::SelectionTrigger::kOnChange;
    pconfig.use_reflection_hints = args.get_bool("reflection");
    // candidate-throw lives in the selector, not the provider: every online
    // candidate simulation throws and the run must still complete (graceful
    // degradation), exiting 0 with zero invariant violations.
    if (config.validation.inject_fault == validate::FaultInjection::kCandidateThrow)
      pconfig.online_sim.inject_fault = validate::FaultInjection::kCandidateThrow;
    if (tenant_count > 0)
      return cmd_run_tenants(args, config, trace, &portfolio, pconfig,
                             /*triple=*/nullptr, predictor, rec, tenant_count);
    result = engine::run_portfolio(config, trace, portfolio, pconfig, predictor,
                                   /*eval_pool=*/nullptr, rec);
  } else {
    const policy::PolicyTriple* triple = portfolio.find(scheduler);
    if (triple == nullptr) {
      std::fprintf(stderr, "error: unknown policy '%s' (try list-policies)\n",
                   scheduler.c_str());
      return 1;
    }
    if (tenant_count > 0)
      return cmd_run_tenants(args, config, trace, /*portfolio=*/nullptr,
                             core::PortfolioSchedulerConfig{}, triple, predictor,
                             rec, tenant_count);
    result = engine::run_single_policy(config, trace, *triple, predictor, rec);
  }

  return finish_run(args, engine::report_inputs(result, config), predictor,
                    config.validation.check_invariants, result.run.invariant_violations,
                    rec, /*per_tenant=*/nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const util::ArgParser args(argc - 1, argv + 1);
  if (command == "list-policies") return cmd_list_policies(args);
  if (command == "generate") return cmd_generate(args);
  if (command == "characterize") return cmd_characterize(args);
  if (command == "run") return cmd_run(args);
  return usage();
}
