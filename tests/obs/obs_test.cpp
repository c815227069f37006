// Observability layer (DESIGN.md §9): Recorder counter/timer semantics,
// JSON helpers, artifact schemas (run report + Chrome trace), and the
// obs-off/obs-on determinism contract — observation must never change
// simulation output, including under wave-parallel candidate evaluation.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "engine/experiment.hpp"
#include "expect_same_metrics.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "workload/generator.hpp"

namespace psched::obs {
namespace {

// --- levels -----------------------------------------------------------------

TEST(ObsLevel, ParsesAndRoundTrips) {
  bool ok = false;
  EXPECT_EQ(obs_level_from_string("off", ok), ObsLevel::kOff);
  EXPECT_TRUE(ok);
  EXPECT_EQ(obs_level_from_string("counters", ok), ObsLevel::kCounters);
  EXPECT_TRUE(ok);
  EXPECT_EQ(obs_level_from_string("trace", ok), ObsLevel::kTrace);
  EXPECT_TRUE(ok);
  (void)obs_level_from_string("bogus", ok);
  EXPECT_FALSE(ok);
  EXPECT_EQ(to_string(ObsLevel::kOff), "off");
  EXPECT_EQ(to_string(ObsLevel::kCounters), "counters");
  EXPECT_EQ(to_string(ObsLevel::kTrace), "trace");
}

// --- Recorder counters / gauges / phases ------------------------------------

TEST(Recorder, CountersGaugesAndPhasesAccumulate) {
  Recorder rec(ObsConfig{ObsLevel::kCounters});
  rec.counter_add("jobs", 3.0);
  rec.counter_add("jobs", 2.0);
  rec.gauge_set("vms", 7.0);
  rec.gauge_set("vms", 5.0);  // gauges overwrite
  rec.phase_add("tick", 100.0);
  rec.phase_add("tick", 50.0);

  ASSERT_EQ(rec.counters().count("jobs"), 1u);
  EXPECT_DOUBLE_EQ(rec.counters().at("jobs"), 5.0);
  EXPECT_DOUBLE_EQ(rec.gauges().at("vms"), 5.0);
  ASSERT_EQ(rec.phases().count("tick"), 1u);
  EXPECT_EQ(rec.phases().at("tick").calls, 2u);
  EXPECT_DOUBLE_EQ(rec.phases().at("tick").total_us, 150.0);
}

TEST(Recorder, OffRecorderIsFullyInert) {
  Recorder rec(ObsConfig{ObsLevel::kOff});
  rec.counter_add("jobs", 1.0);
  rec.gauge_set("vms", 1.0);
  rec.phase_add("tick", 1.0);
  rec.instant("x", 0);
  rec.record_round(SelectionRoundRecord{});
  EXPECT_TRUE(rec.counters().empty());
  EXPECT_TRUE(rec.gauges().empty());
  EXPECT_TRUE(rec.phases().empty());
  EXPECT_TRUE(rec.rounds().empty());
  EXPECT_TRUE(rec.events_snapshot().empty());
  EXPECT_EQ(rec.now_us(), 0);  // an off recorder never reads a clock
}

TEST(Recorder, ScopeIsSafeOnNullAndOffRecorders) {
  { const Recorder::Scope s(nullptr, "phase", 0); }
  Recorder off(ObsConfig{ObsLevel::kOff});
  { const Recorder::Scope s(&off, "phase", 0); }
  EXPECT_TRUE(off.phases().empty());
}

TEST(Recorder, ScopeAccumulatesPhaseAtCountersLevel) {
  Recorder rec(ObsConfig{ObsLevel::kCounters});
  { const Recorder::Scope s(&rec, "work", 0); }
  { const Recorder::Scope s(&rec, "work", 0); }
  ASSERT_EQ(rec.phases().count("work"), 1u);
  EXPECT_EQ(rec.phases().at("work").calls, 2u);
  EXPECT_GE(rec.phases().at("work").total_us, 0.0);
  // Counters level records no trace events.
  EXPECT_TRUE(rec.events_snapshot().empty());
}

TEST(Recorder, ScopeEmitsMatchedBeginEndAtTraceLevel) {
  Recorder rec(ObsConfig{ObsLevel::kTrace});
  { const Recorder::Scope s(&rec, "work", 3); }
  const auto events = rec.events_snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].phase, 'E');
  EXPECT_STREQ(events[0].name, "work");
  EXPECT_STREQ(events[1].name, "work");
  EXPECT_EQ(events[0].tid, 3u);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
}

TEST(Recorder, AppendedEventsKeepCallerOrder) {
  Recorder rec(ObsConfig{ObsLevel::kTrace});
  rec.append_event(TraceEvent{"a", 'B', 1, 1, ""});
  rec.append_event(TraceEvent{"a", 'E', 2, 1, ""});
  rec.instant("marker", 0, "{\"k\":1}");
  const auto events = rec.events_snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_EQ(events[2].phase, 'i');
  EXPECT_EQ(events[2].args_json, "{\"k\":1}");
}

// --- JSON helpers ------------------------------------------------------------

TEST(Json, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, NumbersSerializeAndNonFiniteBecomesNull) {
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(Json, ParserAcceptsValidDocuments) {
  const auto r = json_parse(R"({"a": [1, 2.5, "x\n", true, null], "b": {}})");
  ASSERT_TRUE(r.ok) << r.error;
  const JsonValue* a = r.value.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is(JsonValue::Type::kArray));
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_EQ(a->array[2].string, "x\n");
  EXPECT_TRUE(a->array[3].boolean);
  EXPECT_TRUE(a->array[4].is(JsonValue::Type::kNull));
  ASSERT_NE(r.value.find("b"), nullptr);
  EXPECT_EQ(r.value.find("missing"), nullptr);
}

TEST(Json, ParserRejectsMalformedDocuments) {
  EXPECT_FALSE(json_parse("{").ok);
  EXPECT_FALSE(json_parse("{\"a\": }").ok);
  EXPECT_FALSE(json_parse("[1,]").ok);
  EXPECT_FALSE(json_parse("{} trailing").ok);
  EXPECT_FALSE(json_parse("").ok);
}

TEST(Json, ParserEnforcesNestingDepthLimit) {
  // Up to kJsonMaxDepth nested containers parse; one more is rejected. The
  // limit guards the recursive-descent parser against stack exhaustion on
  // adversarial input (deeply nested "[[[[...").
  const auto nested = [](std::size_t depth) {
    std::string doc(depth, '[');
    doc.append(depth, ']');
    return doc;
  };
  const auto too_deep = json_parse(nested(kJsonMaxDepth + 1));
  EXPECT_FALSE(too_deep.ok);
  EXPECT_NE(too_deep.error.find("depth"), std::string::npos) << too_deep.error;
  EXPECT_TRUE(json_parse(nested(kJsonMaxDepth)).ok);

  // Objects count against the same limit.
  std::string objects;
  for (std::size_t i = 0; i < kJsonMaxDepth + 1; ++i) objects += "{\"k\":";
  objects += "1";
  objects.append(kJsonMaxDepth + 1, '}');
  EXPECT_FALSE(json_parse(objects).ok);

  // Depth is about nesting, not size: a wide, shallow document with many
  // sibling containers is fine (the counter must decrement on close).
  std::string wide = "[";
  for (int i = 0; i < 200; ++i) wide += "[1],";
  wide += "[1]]";
  EXPECT_TRUE(json_parse(wide).ok);
}

// --- trace validation --------------------------------------------------------

TEST(TraceValidation, RejectsNonMonotoneAndUnmatchedEvents) {
  // Timestamps must be non-decreasing per (pid, tid) lane.
  EXPECT_FALSE(validate_chrome_trace(
                   R"({"traceEvents":[
                        {"name":"a","ph":"B","ts":10,"pid":1,"tid":0},
                        {"name":"a","ph":"E","ts":5,"pid":1,"tid":0}]})")
                   .ok);
  // Every B needs a LIFO-matching E with the same name.
  EXPECT_FALSE(validate_chrome_trace(
                   R"({"traceEvents":[
                        {"name":"a","ph":"B","ts":1,"pid":1,"tid":0}]})")
                   .ok);
  EXPECT_FALSE(validate_chrome_trace(
                   R"({"traceEvents":[
                        {"name":"a","ph":"B","ts":1,"pid":1,"tid":0},
                        {"name":"b","ph":"E","ts":2,"pid":1,"tid":0}]})")
                   .ok);
  EXPECT_FALSE(validate_chrome_trace("not json").ok);
}

TEST(TraceValidation, AcceptsAWellFormedRecorderTrace) {
  Recorder rec(ObsConfig{ObsLevel::kTrace});
  {
    const Recorder::Scope outer(&rec, "outer", 0);
    const Recorder::Scope inner(&rec, "inner", 0);
    rec.instant("mark", 0, "{\"vm\":1}");
  }
  const std::string doc = chrome_trace_json(rec);
  const ValidationResult v = validate_chrome_trace(doc);
  EXPECT_TRUE(v.ok) << v.detail;
}

// --- run-report schema -------------------------------------------------------

TEST(RunReport, ValidatorRejectsWrongSchemaAndMissingSections) {
  EXPECT_FALSE(validate_run_report("{}").ok);
  EXPECT_FALSE(validate_run_report(R"({"schema":"something-else/v1"})").ok);
  EXPECT_FALSE(validate_run_report("not json").ok);
}

/// Replace the first occurrence of `from` in `doc` (asserting it exists);
/// used to mutate generated reports into near-valid documents.
std::string mutated(std::string doc, const std::string& from, const std::string& to) {
  const std::size_t at = doc.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) doc.replace(at, from.size(), to);
  return doc;
}

TEST(RunReport, ValidatorChecksFailuresSection) {
  // Build a real report (the only practical way to satisfy every other
  // required section) and mutate just the failures key.
  const engine::EngineConfig config = engine::paper_engine_config();
  const workload::Trace trace =
      workload::TraceGenerator(workload::kth_sp2_like(0.1)).generate(3).cleaned(64);
  const auto result = engine::run_single_policy(
      config, trace, policy::Portfolio::paper_portfolio().policies()[0],
      engine::PredictorKind::kPerfect);
  const std::string doc =
      run_report_json(engine::report_inputs(result, config), nullptr);
  ASSERT_TRUE(validate_run_report(doc).ok);
  ASSERT_NE(doc.find("\"failures\":null"), std::string::npos);

  // Missing key entirely.
  EXPECT_FALSE(validate_run_report(
                   mutated(doc, "\"failures\":null", "\"failurez\":null")).ok);
  // Wrong inner schema tag.
  EXPECT_FALSE(validate_run_report(
                   mutated(doc, "\"failures\":null",
                           "\"failures\":{\"schema\":\"wrong/v1\"}")).ok);
  // An object missing the counter fields.
  EXPECT_FALSE(
      validate_run_report(
          mutated(doc, "\"failures\":null",
                  "\"failures\":{\"schema\":\"psched-failures/v1\"}")).ok);
  // Neither null nor object.
  EXPECT_FALSE(validate_run_report(
                   mutated(doc, "\"failures\":null", "\"failures\":7")).ok);
}

TEST(BenchReport, ValidatorAcceptsRectangularTablesOnly) {
  // The shape bench_report_json emits: string + numeric cells, every row as
  // wide as the header list.
  const std::string valid = R"({"schema":"psched-bench-report/v1",
    "title":"Table 1","headers":["policy","U","cost"],
    "rows":[["ODM-FCFS-FirstFit",0.82,415.5],["ODA-SJF-BestFit",0.79,391]]})";
  const ValidationResult v = validate_bench_report(valid);
  EXPECT_TRUE(v.ok) << v.detail;

  EXPECT_FALSE(validate_bench_report("not json").ok);
  // A run report is not a bench report.
  EXPECT_FALSE(validate_bench_report(R"({"schema":"psched-run-report/v1"})").ok);
  // Ragged row: two cells against three headers.
  EXPECT_FALSE(validate_bench_report(R"({"schema":"psched-bench-report/v1",
    "title":"t","headers":["a","b","c"],"rows":[["x",1]]})").ok);
  // Cells must be numbers or strings.
  EXPECT_FALSE(validate_bench_report(R"({"schema":"psched-bench-report/v1",
    "title":"t","headers":["a"],"rows":[[null]]})").ok);
}

// --- end-to-end: real runs, schemas, and the determinism contract ------------

const policy::Portfolio& test_portfolio() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

workload::Trace small_trace() {
  return workload::TraceGenerator(workload::kth_sp2_like(0.3)).generate(7).cleaned(64);
}

TEST(RunReport, ValidatorRequiresEveryMetricField) {
  // A real report with the failures and pricing sections on: dropping any
  // field a visit_fields list names must fail validation.
  engine::EngineConfig config = engine::paper_engine_config();
  config.failure.vm_mtbf_seconds = 2.0 * kSecondsPerHour;
  config.failure.seed = 9;
  config.pricing.families.push_back(cloud::VmFamily{"small", 0.5, 30.0, 16});
  config.pricing.families.push_back(cloud::VmFamily{"std", 1.0, 120.0, 0});
  const auto result = engine::run_single_policy(
      config, small_trace(), test_portfolio().policies()[0],
      engine::PredictorKind::kPerfect);
  const std::string doc =
      run_report_json(engine::report_inputs(result, config), nullptr);
  const ValidationResult v = validate_run_report(doc);
  ASSERT_TRUE(v.ok) << v.detail;

  // Derived keys follow the visited ones, so `"key":value,` is the member.
  const auto drops = [&doc](std::string section) {
    return [&doc, section](const char* key, metrics::Fold, const auto&) {
      const std::size_t open = doc.find('"' + section + "\":{");
      ASSERT_NE(open, std::string::npos) << section;
      const std::size_t at = doc.find('"' + std::string(key) + "\":", open);
      ASSERT_NE(at, std::string::npos) << section << '.' << key;
      std::string without = doc;
      without.erase(at, doc.find(',', at) + 1 - at);
      EXPECT_FALSE(validate_run_report(without).ok) << section << '.' << key;
    };
  };
  const metrics::RunMetrics& m = result.run.metrics;
  metrics::visit_fields(drops("metrics"), m);
  metrics::visit_fields(drops("failures"), m.failures);
  metrics::visit_fields(drops("pricing"), m.pricing);
}

TEST(ObsEndToEnd, SinglePolicyReportValidates) {
  const engine::EngineConfig config = engine::paper_engine_config();
  const workload::Trace trace = small_trace();
  Recorder rec(ObsConfig{ObsLevel::kCounters});
  const auto result = engine::run_single_policy(
      config, trace, test_portfolio().policies()[0], engine::PredictorKind::kPerfect,
      &rec);

  // The engine instrumentation fed the recorder.
  EXPECT_GT(rec.counters().count("engine.jobs_finished"), 0u);
  EXPECT_GT(rec.phases().count("engine.tick"), 0u);

  const std::string doc = run_report_json(engine::report_inputs(result, config), &rec);
  const ValidationResult v = validate_run_report(doc);
  EXPECT_TRUE(v.ok) << v.detail;

  // Single-policy runs carry a null portfolio section.
  const auto parsed = json_parse(doc);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const JsonValue* portfolio = parsed.value.find("portfolio");
  ASSERT_NE(portfolio, nullptr);
  EXPECT_TRUE(portfolio->is(JsonValue::Type::kNull));
}

TEST(ObsEndToEnd, FailureEnabledReportEmitsFailuresObject) {
  engine::EngineConfig config = engine::paper_engine_config();
  config.failure.p_boot_fail = 0.2;
  config.failure.vm_mtbf_seconds = 2.0 * kSecondsPerHour;
  config.failure.seed = 9;
  const workload::Trace trace = small_trace();
  Recorder rec(ObsConfig{ObsLevel::kCounters});
  const auto result = engine::run_single_policy(
      config, trace, test_portfolio().policies()[0], engine::PredictorKind::kPerfect,
      &rec);
  const metrics::FailureStats& f = result.run.metrics.failures;
  ASSERT_TRUE(f.any());  // the run actually exercised the failure paths

  // Obs counters cover the failure events the engine saw.
  if (f.boot_failures > 0) {
    EXPECT_DOUBLE_EQ(rec.counters().at("engine.boot_failures"),
                     static_cast<double>(f.boot_failures));
  }
  if (f.vm_crashes > 0) {
    EXPECT_DOUBLE_EQ(rec.counters().at("engine.vm_crashes"),
                     static_cast<double>(f.vm_crashes));
  }
  if (f.job_kills > 0) {
    EXPECT_DOUBLE_EQ(rec.counters().at("engine.job_kills"),
                     static_cast<double>(f.job_kills));
  }

  const std::string doc = run_report_json(engine::report_inputs(result, config), &rec);
  const ValidationResult v = validate_run_report(doc);
  EXPECT_TRUE(v.ok) << v.detail;
  const auto parsed = json_parse(doc);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const JsonValue* failures = parsed.value.find("failures");
  ASSERT_NE(failures, nullptr);
  ASSERT_TRUE(failures->is(JsonValue::Type::kObject));
  const JsonValue* crashes = failures->find("vm_crashes");
  ASSERT_NE(crashes, nullptr);
  EXPECT_DOUBLE_EQ(crashes->number, static_cast<double>(f.vm_crashes));
  const JsonValue* goodput = failures->find("goodput_proc_seconds");
  ASSERT_NE(goodput, nullptr);
  EXPECT_DOUBLE_EQ(goodput->number, result.run.metrics.goodput_proc_seconds());
}

TEST(ObsEndToEnd, PortfolioTraceAndReportValidate) {
  const engine::EngineConfig config = engine::paper_engine_config();
  const workload::Trace trace = small_trace();
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("eval_threads=" + std::to_string(width));
    auto pconfig = engine::paper_portfolio_config(config);
    pconfig.selector.eval_threads = width;
    Recorder rec(ObsConfig{ObsLevel::kTrace});
    const auto result =
        engine::run_portfolio(config, trace, test_portfolio(), pconfig,
                              engine::PredictorKind::kPerfect, nullptr, &rec);

    // Selection-round telemetry matches the engine's own reflection.
    EXPECT_EQ(rec.rounds().size(), result.portfolio.invocations);
    ASSERT_FALSE(rec.rounds().empty());
    std::size_t attempted = 0;
    for (const SelectionRoundRecord& round : rec.rounds()) {
      EXPECT_EQ(round.smart_out + round.stale_out + round.poor_out,
                test_portfolio().size());
      EXPECT_GT(round.simulated, 0u);
      EXPECT_STRNE(round.tie_path, "");
      attempted += round.simulated + round.quarantined;
    }
    // An unbounded round is one evaluation batch, pooled or inline.
    EXPECT_DOUBLE_EQ(rec.counters().at("selector.batches"),
                     rec.counters().at("selector.rounds"));
    // Selection siblings share runs, so there are never more simulator
    // runs than attempted candidates.
    const double quarantined = rec.counters().count("selector.quarantined") != 0
                                   ? rec.counters().at("selector.quarantined")
                                   : 0.0;
    EXPECT_LE(rec.counters().at("selector.simulations"),
              rec.counters().at("selector.candidates") + quarantined);
    // Every attempted candidate has exactly one span, on lane 1 + the
    // run_batch lane that simulated it.
    std::size_t spans = 0;
    for (const TraceEvent& e : rec.events_snapshot()) {
      if (std::string(e.name) != "selector.candidate" || e.phase != 'B') continue;
      ++spans;
      EXPECT_GE(e.tid, 1u);
      EXPECT_LE(e.tid, width);
    }
    EXPECT_EQ(spans, attempted);
    // Provider lease/release flowed through the ProviderTracer.
    EXPECT_DOUBLE_EQ(rec.counters().at("provider.leases"),
                     static_cast<double>(result.run.total_leases));
    EXPECT_DOUBLE_EQ(rec.counters().at("provider.releases"),
                     static_cast<double>(result.run.total_leases));

    const std::string report =
        run_report_json(engine::report_inputs(result, config), &rec);
    const ValidationResult rv = validate_run_report(report);
    EXPECT_TRUE(rv.ok) << rv.detail;
    const auto parsed = json_parse(report);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const JsonValue* selection = parsed.value.find("selection");
    ASSERT_NE(selection, nullptr);
    ASSERT_TRUE(selection->is(JsonValue::Type::kObject));
    const JsonValue* rounds = selection->find("rounds");
    ASSERT_NE(rounds, nullptr);
    EXPECT_DOUBLE_EQ(rounds->number, static_cast<double>(rec.rounds().size()));

    const std::string tracedoc = chrome_trace_json(rec);
    const ValidationResult tv = validate_chrome_trace(tracedoc);
    EXPECT_TRUE(tv.ok) << tv.detail;
  }
}

TEST(ObsEndToEnd, ObservationNeverChangesSimulationOutput) {
  // The determinism contract: an observed run (full tracing, wave-parallel
  // evaluation) must be bit-identical to the unobserved run. EXPECT_EQ on
  // doubles is deliberate.
  const engine::EngineConfig config = engine::paper_engine_config();
  const workload::Trace trace = small_trace();
  auto pconfig = engine::paper_portfolio_config(config);
  pconfig.selector.eval_threads = 4;

  const auto baseline =
      engine::run_portfolio(config, trace, test_portfolio(), pconfig,
                            engine::PredictorKind::kPerfect);
  Recorder rec(ObsConfig{ObsLevel::kTrace});
  const auto observed =
      engine::run_portfolio(config, trace, test_portfolio(), pconfig,
                            engine::PredictorKind::kPerfect, nullptr, &rec);

  expect_same_metrics(baseline.run.metrics, observed.run.metrics);
  EXPECT_EQ(baseline.run.ticks, observed.run.ticks);
  EXPECT_EQ(baseline.run.events, observed.run.events);
  EXPECT_EQ(baseline.run.total_leases, observed.run.total_leases);
  EXPECT_EQ(baseline.portfolio.invocations, observed.portfolio.invocations);
  EXPECT_EQ(baseline.portfolio.chosen_counts, observed.portfolio.chosen_counts);

  // And the observed run actually observed something.
  EXPECT_FALSE(rec.events_snapshot().empty());
  EXPECT_FALSE(rec.rounds().empty());
}

}  // namespace
}  // namespace psched::obs
