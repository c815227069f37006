// psched-e2e: end-to-end benchmark of the psched library (README.md).
//
//   psched_e2e [--workload NAME] [--seed N] [--seconds S] [--reps N]
//              [--trace 0|1] [--smoke] [--report FILE] [--spans-out FILE]
//
// Each workload runs one warm-up repetition, then untraced repetitions: at
// least --reps, and with --trace 0 more until --seconds have passed since
// the warm-up began. Before each one it builds its inputs again in a timed
// batch of set-ups (its fixed trace sample in the variant --seed picks,
// workloads.cpp) and times a reference computation for the host's speed
// (calibrate.hpp). Timings are reported as means scaled by that speed, peak
// memory as a median. With --trace 1, the default, it then runs one
// repetition at 1 and at 4 evaluation threads, one traced repetition, and
// replays the selection rounds that repetition captured, for the per-layer
// metrics. Without --workload every workload runs. Every metric is printed
// by name with its unit. With --workload, the last line of stdout is one
// JSON object with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1).
//
// Exit status: 0 when every correctness check passes, 1 when one fails,
// 2 on a usage error.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "calibrate.hpp"
#include "layers.hpp"
#include "obs/bench_gate.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "util/argparse.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace {

using namespace psched;
using namespace psched::e2e;

constexpr std::uint64_t kDefaultSeed = 20130717;

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
  obs::ColumnKind gate;  ///< how --report compares two runs
};

constexpr obs::ColumnKind kExact = obs::ColumnKind::kExact;
constexpr obs::ColumnKind kLower = obs::ColumnKind::kLowerBetter;
constexpr obs::ColumnKind kHigher = obs::ColumnKind::kHigherBetter;
constexpr obs::ColumnKind kInfo = obs::ColumnKind::kInformational;

// Every metric, in print order. BENCHMARK.json lists the same names.
constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", true, kLower},
    {"wall_s", "s", true, kLower},
    {"sim_days_per_s", "trace-days/s", true, kHigher},
    {"cpu_s", "s", true, kLower},
    {"peak_rss_mb", "MB", true, kLower},
    {"result.utility", "U", false, kExact},
    {"result.avg_bsd", "slowdown", false, kExact},
    {"result.charged_vm_hours", "VM-h", false, kExact},
    {"result.jobs_failed_frac", "ratio", false, kExact},
    {"workload.generate_s", "s", false, kLower},
    {"workload.jobs", "count", false, kExact},
    {"engine.run_s", "s", false, kLower},
    {"engine.self_s", "s", false, kLower},
    {"engine.ticks", "count", false, kExact},
    {"engine.events", "count", false, kExact},
    {"engine.us_per_tick", "us", false, kLower},
    {"predict.calls", "count", false, kExact},
    {"predict.observe_calls", "count", false, kExact},
    {"predict.busy_s", "s", false, kLower},
    {"scheduler.calls", "count", false, kExact},
    {"scheduler.busy_s", "s", false, kLower},
    {"scheduler.tick_us.p50", "us", false, kLower},
    {"scheduler.tick_us.p99", "us", false, kLower},
    {"scheduler.queue_len.mean", "jobs", false, kExact},
    {"scheduler.queue_len.max", "jobs", false, kExact},
    {"selector.rounds", "count", false, kExact},
    {"selector.candidates", "count", false, kExact},
    {"selector.round_s", "s", false, kLower},
    {"selector.share", "ratio", false, kInfo},
    {"selector.select_us.p50", "us", false, kLower},
    {"selector.select_us.p99", "us", false, kLower},
    {"selector.candidates_per_s", "1/s", false, kHigher},
    {"selector.quarantined_frac", "ratio", false, kExact},
    {"online_sim.snapshot_us.p50", "us", false, kLower},
    {"online_sim.candidate_us.p50", "us", false, kLower},
    {"online_sim.candidate_us.p99", "us", false, kLower},
    {"online_sim.decisions_per_candidate", "count", false, kExact},
    {"online_sim.ns_per_decision", "ns", false, kLower},
    {"selector.select_us_t4.p50", "us", false, kLower},
    {"selector.replay_speedup_t4", "ratio", false, kHigher},
    {"parallel.wall_s_t1", "s", false, kLower},
    {"parallel.wall_s_t4", "s", false, kLower},
    {"parallel.speedup_t4", "ratio", false, kHigher},
    {"tenant.epochs", "count", false, kExact},
    {"tenant.epoch_us", "us", false, kLower},
    {"cloud.leases", "count", false, kExact},
    {"cloud.job_kills", "count", false, kExact},
    {"cloud.resubmits", "count", false, kExact},
    {"cloud.spot_leases", "count", false, kExact},
    {"cloud.spot_revocations", "count", false, kExact},
    {"obs.traced_overhead_frac", "ratio", false, kInfo},
    {"host.reference_ms", "ms", false, kInfo},
};

struct Options {
  std::vector<const WorkloadSpec*> workloads;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;     ///< keep repeating untraced runs at least this long
  std::size_t reps = 3;     ///< ... and at least this many times
  bool traced = true;
  double days = 0.0;        ///< 0 = each workload's own horizon
  double setup_batch_s = 0.2;  ///< each setup_s sample: mean set-up over this long
  double reference_share = 0.5;  ///< host-speed reference time per repetition time
  std::size_t max_rounds = 2000;
  bool check_expected = false;
};

/// One timed repetition.
struct Sample {
  Outcome outcome;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;  ///< peak resident set during the repetition
};

double cpu_now_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set of this address space (Linux VmHWM). Not ru_maxrss:
/// that keeps the peak of the program that exec'd this one (run.py).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

/// Start a fresh peak-RSS window: hand freed heap back to the system, then
/// drop VmHWM to the current RSS (Linux). Per-repetition windows keep one
/// repetition whose pool threads grew extra malloc arenas from setting the
/// reported (median) peak.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

Sample timed(const std::function<Outcome()>& run_once) {
  Sample s;
  reset_peak_rss();
  const double wall0 = now_s();
  const double cpu0 = cpu_now_s();
  s.outcome = run_once();
  s.cpu_s = cpu_now_s() - cpu0;
  s.wall_s = now_s() - wall0;
  s.peak_rss_mb = peak_rss_mb();
  return s;
}

/// The deterministic fields of an Outcome, by name (expected.json, checks).
std::vector<std::pair<const char*, double>> outcome_fields(const Outcome& o) {
  const auto d = [](auto v) { return static_cast<double>(v); };
  return {{"utility", o.utility},
          {"avg_bsd", o.avg_bsd},
          {"charged_vm_hours", o.charged_vm_hours},
          {"jobs_failed_frac", o.jobs_failed_frac()},
          {"jobs_submitted", d(o.jobs_submitted)},
          {"jobs_finished", d(o.jobs_finished)},
          {"best_policy", d(o.best_policy)},
          {"ticks", d(o.ticks)},
          {"events", d(o.events)},
          {"selections", d(o.selections)},
          {"leases", d(o.leases)},
          {"job_kills", d(o.job_kills)},
          {"resubmits", d(o.resubmits)},
          {"spot_leases", d(o.spot_leases)},
          {"spot_revocations", d(o.spot_revocations)},
          {"epochs", d(o.epochs)}};
}

std::string describe(const Outcome& o) {
  std::string out;
  for (const auto& [name, value] : outcome_fields(o)) {
    if (!out.empty()) out += ' ';
    out += std::string(name) + '=' + obs::json_number(value);
  }
  return out;
}

/// Everything one workload produced.
struct WorkloadReport {
  const WorkloadSpec* spec = nullptr;
  MetricMap metrics;
  Outcome outcome;
  std::vector<double> rep_wall_s;  ///< untraced repetitions, in run order
  std::vector<std::string> failures;
  std::size_t simulations = 0;  ///< simulation runs attempted
};

class Checks {
 public:
  explicit Checks(WorkloadReport& report) : report_(report) {}
  void same(const Outcome& expected, const Outcome& got, const std::string& what) {
    if (expected == got) return;
    report_.failures.push_back(what + " differs: expected {" + describe(expected) +
                               "} got {" + describe(got) + "}");
  }
  void require(bool ok, const std::string& what) {
    if (!ok) report_.failures.push_back(what);
  }

 private:
  WorkloadReport& report_;
};

/// Compare the outcome with its entry in expected.json. On a mismatch the
/// run's own entry goes to stderr, ready to paste when the change is meant.
void check_expected(const obs::JsonValue& expected, const WorkloadReport& report,
                    Checks& checks) {
  const obs::JsonValue* workloads = expected.find("workloads");
  const obs::JsonValue* entry =
      workloads == nullptr ? nullptr : workloads->find(report.spec->name);
  const std::size_t failures_before = report.failures.size();
  checks.require(entry != nullptr, "expected.json has no entry for this workload");
  std::string got;
  for (const auto& [name, value] : outcome_fields(report.outcome)) {
    got += std::string(got.empty() ? "" : ", ") + '"' + name + "\": " + obs::json_number(value);
    if (entry == nullptr) continue;
    const obs::JsonValue* want = entry->find(name);
    checks.require(want != nullptr && want->is(obs::JsonValue::Type::kNumber) &&
                       want->number == value,  // NOLINT: exact by design
                   std::string("expected ") + name + " = " +
                       (want == nullptr ? "?" : obs::json_number(want->number)) +
                       ", got " + obs::json_number(value));
  }
  if (report.failures.size() != failures_before)
    std::fprintf(stderr, "this run's expected.json entry:\n    \"%s\": {%s}\n",
                 report.spec->name, got.c_str());
}

WorkloadReport measure(const WorkloadSpec& spec, const Options& opt, SpanLog& spans,
                       const obs::JsonValue* expected) {
  WorkloadReport report;
  report.spec = &spec;
  Checks checks(report);
  MetricMap& m = report.metrics;
  const double days = opt.days > 0.0 ? opt.days : spec.days;

  // Untraced repetitions: the end-to-end metrics. A traced run needs only
  // --reps of them, as the baseline of the traced repetition. Each one runs
  // on inputs from a fresh batch of set-ups (generate, clean, build the
  // portfolio), timed for setup_s. One set-up takes milliseconds, so each
  // setup_s sample is the mean over a batch of at least setup_batch_s
  // seconds, and the batches are spread over the whole run, as the
  // repetitions are.
  //
  // A shared host runs this machine several tenths slower or faster for
  // minutes at a time (README.md, "Noise and bounds"). So before every
  // repetition and after the last, the benchmark times its own reference
  // computation for reference_share of the repetition before, and scales
  // every end-to-end timing by the host speed that measured. The scaled
  // timings are means, like the reference: a burst that slows part of a run
  // slows both alike.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<Sample> samples;
  HostSpeed host;
  const double seconds = opt.traced ? 0.0 : opt.seconds;
  const double loop_start = now_s();
  // Warm-up: one set-up and repetition, left out of the metrics, so that the
  // allocator and the caches are warm before the first measured one. Its
  // outcome is the one every later run must reproduce; its wall time sizes
  // the first reference sample.
  std::optional<Inputs> inputs(set_up(spec, opt.seed, days));
  const Sample warm_up = timed([&] { return run(spec, *inputs, spec.threads); });
  const Outcome& outcome = warm_up.outcome;
  report.simulations += inputs->simulations(spec);
  double last_wall_s = warm_up.wall_s;
  while (samples.size() < opt.reps || now_s() - loop_start < seconds) {
    double setup_sum = 0.0;
    double generate_sum = 0.0;
    std::size_t count = 0;
    const double batch_start = now_s();
    do {
      inputs.emplace(set_up(spec, opt.seed, days));
      setup_sum += inputs->setup_s;
      generate_sum += inputs->generate_s;
      ++count;
    } while (now_s() - batch_start < opt.setup_batch_s);
    setup_s.push_back(setup_sum / static_cast<double>(count));
    generate_s.push_back(generate_sum / static_cast<double>(count));

    host.sample(opt.reference_share * last_wall_s);
    samples.push_back(timed([&] { return run(spec, *inputs, spec.threads); }));
    last_wall_s = samples.back().wall_s;
    report.simulations += inputs->simulations(spec);
    checks.same(outcome, samples.back().outcome,
                "repetition " + std::to_string(samples.size()));
  }
  host.sample(opt.reference_share * last_wall_s);
  checks.require(host.consistent(), "the host-speed reference computed a different checksum");
  const Inputs& in = *inputs;
  const auto sims = in.simulations(spec);
  std::vector<double> cpus;
  std::vector<double> rss;
  for (const Sample& s : samples) {
    report.rep_wall_s.push_back(s.wall_s);
    cpus.push_back(s.cpu_s);
    rss.push_back(s.peak_rss_mb);
  }
  report.outcome = outcome;
  const double raw_wall_s = util::mean_of(report.rep_wall_s);
  const double wall_s = raw_wall_s * host.scale();
  m["setup_s"] = util::mean_of(setup_s) * host.scale();
  m["wall_s"] = wall_s;
  m["sim_days_per_s"] = days * static_cast<double>(sims) / wall_s;
  m["cpu_s"] = util::mean_of(cpus) * host.scale();
  m["peak_rss_mb"] = util::median(rss);
  if (opt.check_expected && expected != nullptr) check_expected(*expected, report, checks);
  if (!opt.traced) return report;

  // Traced pass: per-layer metrics. Their timings are not scaled by the
  // host speed; host.reference_ms gives it.
  const std::int32_t root = spans.open(spec.name, -1, now_s());
  m["host.reference_ms"] = host.reference_s() * 1e3;
  m["result.utility"] = outcome.utility;
  m["result.avg_bsd"] = outcome.avg_bsd;
  m["result.charged_vm_hours"] = outcome.charged_vm_hours;
  m["result.jobs_failed_frac"] = outcome.jobs_failed_frac();
  m["workload.generate_s"] = util::median(generate_s);
  m["workload.jobs"] = static_cast<double>(in.jobs());
  m["cloud.leases"] = static_cast<double>(outcome.leases);
  m["cloud.job_kills"] = static_cast<double>(outcome.job_kills);
  m["cloud.resubmits"] = static_cast<double>(outcome.resubmits);
  m["cloud.spot_leases"] = static_cast<double>(outcome.spot_leases);
  m["cloud.spot_revocations"] = static_cast<double>(outcome.spot_revocations);

  // Decisions must not depend on the thread count: one repetition each at
  // 1 and 4 evaluation threads, besides the workload's own width. The sweep
  // has no evaluation threads.
  const auto wall_at = [&](std::size_t threads) {
    if (threads == spec.threads) return raw_wall_s;
    const Sample s = timed([&] { return run(spec, in, threads); });
    report.simulations += sims;
    checks.same(outcome, s.outcome, "the " + std::to_string(threads) + "-thread run");
    return s.wall_s;
  };
  const bool sweep = spec.kind == Kind::kSweep;
  const double wall_t1 = sweep ? 0.0 : wall_at(1);
  const double wall_t4 = sweep ? 0.0 : wall_at(4);
  m["parallel.wall_s_t1"] = wall_t1;
  m["parallel.wall_s_t4"] = wall_t4;
  m["parallel.speedup_t4"] = sweep ? 0.0 : wall_t1 / wall_t4;
  const bool tenants = spec.kind == Kind::kTenants;
  m["tenant.epochs"] = static_cast<double>(outcome.epochs);
  m["tenant.epoch_us"] =
      tenants ? raw_wall_s * 1e6 / static_cast<double>(outcome.epochs) : 0.0;
  if (tenants) {
    checks.require(outcome.job_kills > 0 && outcome.spot_leases > 0 &&
                       outcome.spot_revocations > 0,
                   "tenants-mixed is vacuous: no job kills, spot leases or revocations");
  }

  // The multi-tenant experiment takes no scheduler or predictor from the
  // caller, so its layers are timed on tenant 0 alone (workloads.hpp), with
  // untraced runs of that proxy as the baseline.
  const auto traced_target = [&](Probe* probe) {
    return tenants ? run_tenant_proxy(in, probe) : run(spec, in, spec.threads, probe);
  };
  Outcome traced_baseline = outcome;
  double untraced_wall_s = raw_wall_s;
  if (tenants) {
    std::vector<double> proxy_walls;
    for (std::size_t i = 0; i < opt.reps; ++i) {
      const Sample s = timed([&] { return traced_target(nullptr); });
      if (i == 0) traced_baseline = s.outcome;
      checks.same(traced_baseline, s.outcome, "tenant-0 proxy repetition");
      proxy_walls.push_back(s.wall_s);
      ++report.simulations;
    }
    untraced_wall_s = util::median(proxy_walls);
  }
  Probe probe(spans, root, opt.max_rounds);
  const Sample traced = timed([&] { return traced_target(&probe); });
  report.simulations += tenants ? 1 : sims;
  checks.same(traced_baseline, traced.outcome, "the traced run");
  m["obs.traced_overhead_frac"] = traced.wall_s / untraced_wall_s - 1.0;
  probe.report(m);
  checks.require(replay(probe.rounds(), in.portfolio, in.scheduler, spans, root, m),
                 "selector replay chose differently at 1 and 4 threads");
  spans.close(root, now_s());
  return report;
}

void print(const WorkloadReport& report) {
  std::printf("== %s ==\n  wall_s of %zu repetitions, unscaled:", report.spec->name,
              report.rep_wall_s.size());
  for (const double wall : report.rep_wall_s) std::printf(" %.4g", wall);
  std::printf("\n");
  for (const MetricDef& def : kMetrics) {
    const auto it = report.metrics.find(def.name);
    if (it == report.metrics.end()) continue;
    std::printf("  %-36s %14.6g %s\n", def.name, it->second, def.unit);
  }
  for (const std::string& failure : report.failures)
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  std::fflush(stdout);
}

/// "psched-bench-report/v1": one row per workload, one column per metric,
/// with the gate row psched-bench-gate compares by. Nine decimals per cell
/// are enough to tell two different outcomes apart.
std::string bench_report(const std::vector<WorkloadReport>& reports) {
  std::vector<const MetricDef*> columns;
  std::vector<std::string> headers = {"workload"};
  std::vector<obs::ColumnKind> gate = {kExact};
  for (const MetricDef& def : kMetrics) {
    if (!reports.front().metrics.contains(def.name)) continue;
    columns.push_back(&def);
    headers.emplace_back(def.name);
    gate.push_back(def.gate);
  }
  util::Table table(std::move(headers));
  for (const WorkloadReport& report : reports) {
    std::vector<util::Cell> row = {report.spec->name};
    for (const MetricDef* def : columns) row.emplace_back(report.metrics.at(def->name), 9);
    table.add_row(std::move(row));
  }
  return bench::bench_report_json(table, "psched-e2e", gate);
}

/// The --workload result line: the end-to-end or the per-layer metrics.
std::string result_line(const WorkloadReport& report, bool correct, bool per_layer) {
  std::string metrics;
  for (const MetricDef& def : kMetrics) {
    if (def.end_to_end == per_layer) continue;
    if (!metrics.empty()) metrics += ',';
    metrics += '"' + std::string(def.name) + "\":{\"value\":" +
               obs::json_number(report.metrics.at(def.name)) + ",\"unit\":\"" + def.unit +
               "\"}";
  }
  const std::size_t failed = std::min(report.failures.size(), report.simulations);
  return std::string("{\"correct\":") + (correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(report.simulations) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{" + metrics + "}}";
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

int usage(const char* message) {
  std::fprintf(stderr, "error: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  Options opt;
  const std::string only = args.get("workload", "");
  if (only.empty()) {
    for (const WorkloadSpec& spec : workloads()) opt.workloads.push_back(&spec);
  } else if (const WorkloadSpec* spec = find_workload(only)) {
    opt.workloads.push_back(spec);
  } else {
    return usage("unknown --workload (das2-t2, lpc-t1, sweep-sdsc, tenants-mixed)");
  }
  const std::int64_t seed = args.get_int("seed", static_cast<std::int64_t>(kDefaultSeed));
  const std::int64_t reps = args.get_int("reps", 3);
  opt.seconds = args.get_double("seconds", 0.0);
  opt.traced = args.get_bool("trace", true);
  if (seed < 0 || reps < 1 || opt.seconds < 0.0)
    return usage("--seed and --seconds want >= 0, --reps >= 1");
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.reps = static_cast<std::size_t>(reps);
  const bool smoke = args.get_bool("smoke");
  if (smoke) {
    opt.days = 0.25;
    opt.reps = 1;
    opt.setup_batch_s = 0.0;
    opt.max_rounds = 50;
  }
  // Every seed runs a work-preserving variant of the same trace sample
  // (workloads.cpp), so every seed must reproduce the recorded outputs.
  opt.check_expected = !smoke;

  std::optional<obs::JsonValue> expected;
  if (opt.check_expected) {
    const std::optional<std::string> text = read_file(PSCHED_E2E_EXPECTED);
    obs::JsonParseResult parsed = obs::json_parse(text.value_or(""));
    if (!parsed.ok) return usage("cannot read " PSCHED_E2E_EXPECTED);
    expected = std::move(parsed.value);
  }

  // Spans cost memory, which later workloads of this process would count
  // in their peak RSS; keep them only when asked to write them.
  const std::string spans_path = args.get("spans-out", "");
  SpanLog spans(spans_path.empty() ? 0 : 200'000);
  std::vector<WorkloadReport> reports;
  bool correct = true;
  for (const WorkloadSpec* spec : opt.workloads) {
    reports.push_back(measure(*spec, opt, spans, expected ? &*expected : nullptr));
    print(reports.back());
    correct = correct && reports.back().failures.empty();
  }

  bool wrote = true;
  const std::string report_path = args.get("report", "");
  if (!report_path.empty())
    wrote = obs::write_text_file(report_path, bench_report(reports)) && wrote;
  if (!spans_path.empty()) wrote = spans.write(spans_path) && wrote;
  if (!wrote) std::fprintf(stderr, "error: could not write an output file\n");

  std::printf("%s\n", correct ? "all correctness checks passed" : "CORRECTNESS CHECKS FAILED");
  if (!only.empty()) std::printf("%s\n", result_line(reports.front(), correct, opt.traced).c_str());
  return correct && wrote ? 0 : 1;
}
