#include "obs/report.hpp"

#include <cstdint>
#include <initializer_list>
#include <map>
#include <utility>

#include "obs/atomic_file.hpp"
#include "obs/json.hpp"

namespace psched::obs {

namespace {

constexpr const char* kRunReportSchema = "psched-run-report/v1";
constexpr const char* kFailuresSchema = "psched-failures/v1";
constexpr const char* kPricingSchema = "psched-pricing/v1";
constexpr const char* kTenantsSchema = "psched-tenants/v1";

void append_kv(std::string& out, const char* key, const std::string& value_json,
               bool& first) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += key;
  out += "\":";
  out += value_json;
}

std::string quoted(std::string_view text) {
  std::string out = "\"";
  out += json_escape(text);
  out += '"';
  return out;
}

std::string number_map_json(const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : values)
    append_kv(out, name.c_str(), json_number(value), first);
  out += '}';
  return out;
}

/// One number per field that `s`'s visit_fields names, keyed by the field.
template <typename S>
void append_fields(std::string& out, const S& s, bool& first) {
  metrics::visit_fields(
      [&](const char* key, metrics::Fold, const auto& value) {
        append_kv(out, key, json_number(static_cast<double>(value)), first);
      },
      s);
}

std::string metrics_json(const metrics::RunMetrics& m,
                         const metrics::UtilityParams& utility) {
  std::string out = "{";
  bool first = true;
  append_fields(out, m, first);
  append_kv(out, "charged_hours", json_number(m.charged_hours()), first);
  append_kv(out, "utilization", json_number(m.utilization()), first);
  append_kv(out, "utility", json_number(m.utility(utility)), first);
  out += '}';
  return out;
}

std::string failures_json(const RunReportInputs& inputs) {
  if (!inputs.failures_enabled) return "null";
  std::string out = "{";
  bool first = true;
  append_kv(out, "schema", quoted(kFailuresSchema), first);
  append_fields(out, inputs.metrics.failures, first);
  append_kv(out, "goodput_proc_seconds",
            json_number(inputs.metrics.goodput_proc_seconds()), first);
  out += '}';
  return out;
}

std::string pricing_json(const RunReportInputs& inputs) {
  if (!inputs.pricing_enabled) return "null";
  const metrics::PricingStats& p = inputs.metrics.pricing;
  std::string out = "{";
  bool first = true;
  append_kv(out, "schema", quoted(kPricingSchema), first);
  append_fields(out, p, first);
  append_kv(out, "total_spend_dollars", json_number(p.total_spend_dollars()), first);
  out += '}';
  return out;
}

std::string tenants_json(const ReportTenants& t) {
  if (!t.present) return "null";
  std::string out = "{";
  bool first = true;
  append_kv(out, "schema", quoted(kTenantsSchema), first);
  append_kv(out, "count", json_number(static_cast<double>(t.tenants.size())), first);
  append_kv(out, "global_cap", json_number(static_cast<double>(t.global_cap)), first);
  append_kv(out, "arbitration_period_ticks",
            json_number(static_cast<double>(t.arbitration_period_ticks)), first);
  append_kv(out, "epochs", json_number(static_cast<double>(t.epochs)), first);
  append_kv(out, "arbitrations",
            json_number(static_cast<double>(t.arbitrations)), first);
  append_kv(out, "peak_leased", json_number(static_cast<double>(t.peak_leased)),
            first);
  std::string rows = "[";
  for (std::size_t i = 0; i < t.tenants.size(); ++i) {
    const ReportTenant& row = t.tenants[i];
    if (i != 0) rows += ',';
    std::string entry = "{";
    bool rfirst = true;
    append_kv(entry, "name", quoted(row.name), rfirst);
    append_kv(entry, "weight", json_number(row.weight), rfirst);
    append_kv(entry, "budget_vm_hours", json_number(row.budget_vm_hours), rfirst);
    append_kv(entry, "over_budget", row.over_budget ? "true" : "false", rfirst);
    append_kv(entry, "jobs", json_number(static_cast<double>(row.jobs)), rfirst);
    append_kv(entry, "killed", json_number(static_cast<double>(row.killed)), rfirst);
    append_kv(entry, "charged_hours", json_number(row.charged_hours), rfirst);
    append_kv(entry, "min_allocation",
              json_number(static_cast<double>(row.min_allocation)), rfirst);
    append_kv(entry, "mean_allocation", json_number(row.mean_allocation), rfirst);
    append_kv(entry, "max_allocation",
              json_number(static_cast<double>(row.max_allocation)), rfirst);
    entry += '}';
    rows += entry;
  }
  rows += ']';
  append_kv(out, "per_tenant", rows, first);
  out += '}';
  return out;
}

std::string portfolio_json(const std::optional<metrics::PortfolioStats>& p) {
  if (!p) return "null";
  std::string out = "{";
  bool first = true;
  append_kv(out, "invocations", json_number(static_cast<double>(p->invocations)), first);
  append_kv(out, "total_selection_cost_ms", json_number(p->total_selection_cost_ms), first);
  append_kv(out, "mean_simulated_per_invocation",
            json_number(p->mean_simulated_per_invocation), first);
  std::string counts = "[";
  for (std::size_t i = 0; i < p->chosen_counts.size(); ++i) {
    if (i != 0) counts += ',';
    counts += json_number(static_cast<double>(p->chosen_counts[i]));
  }
  counts += ']';
  append_kv(out, "chosen_counts", counts, first);
  out += '}';
  return out;
}

/// Aggregate the per-round telemetry into a compact report section; the
/// full round list stays in memory for tests, the report carries totals and
/// means so long runs stay small.
std::string selection_json(const Recorder* recorder) {
  if (recorder == nullptr || recorder->rounds().empty()) return "null";
  const auto& rounds = recorder->rounds();
  double simulated = 0.0, charged = 0.0;
  double smart = 0.0, stale = 0.0, poor = 0.0;
  std::size_t churn = 0;
  std::map<std::string, double> tie_paths;
  for (const SelectionRoundRecord& r : rounds) {
    simulated += static_cast<double>(r.simulated);
    charged += r.budget_charged;
    smart += static_cast<double>(r.smart_out);
    stale += static_cast<double>(r.stale_out);
    poor += static_cast<double>(r.poor_out);
    churn += r.smart_churn;
    tie_paths[r.tie_path] += 1.0;
  }
  const auto n = static_cast<double>(rounds.size());
  std::string out = "{";
  bool first = true;
  append_kv(out, "rounds", json_number(n), first);
  append_kv(out, "total_simulated", json_number(simulated), first);
  append_kv(out, "total_budget_charged", json_number(charged), first);
  append_kv(out, "mean_smart", json_number(smart / n), first);
  append_kv(out, "mean_stale", json_number(stale / n), first);
  append_kv(out, "mean_poor", json_number(poor / n), first);
  append_kv(out, "total_smart_churn", json_number(static_cast<double>(churn)), first);
  append_kv(out, "tie_paths", number_map_json(tie_paths), first);
  out += '}';
  return out;
}

std::string phases_json(const Recorder* recorder) {
  if (recorder == nullptr) return "{}";
  std::string out = "{";
  bool first = true;
  for (const auto& [name, stat] : recorder->phases()) {
    std::string entry = "{\"calls\":";
    entry += json_number(static_cast<double>(stat.calls));
    entry += ",\"total_us\":";
    entry += json_number(stat.total_us);
    entry += '}';
    append_kv(out, name.c_str(), entry, first);
  }
  out += '}';
  return out;
}

}  // namespace

std::string run_report_json(const RunReportInputs& inputs, const Recorder* recorder) {
  std::string out = "{";
  bool first = true;
  append_kv(out, "schema", quoted(kRunReportSchema), first);
  append_kv(out, "trace", quoted(inputs.trace_name), first);
  append_kv(out, "scheduler", quoted(inputs.scheduler_name), first);
  append_kv(out, "metrics", metrics_json(inputs.metrics, inputs.utility), first);

  std::string engine = "{";
  bool efirst = true;
  append_kv(engine, "ticks", json_number(static_cast<double>(inputs.ticks)), efirst);
  append_kv(engine, "events", json_number(static_cast<double>(inputs.events)), efirst);
  append_kv(engine, "total_leases",
            json_number(static_cast<double>(inputs.total_leases)), efirst);
  append_kv(engine, "invariant_checks",
            json_number(static_cast<double>(inputs.invariant_checks)), efirst);
  append_kv(engine, "invariant_violations",
            json_number(static_cast<double>(inputs.invariant_violations)), efirst);
  engine += '}';
  append_kv(out, "engine", engine, first);

  append_kv(out, "failures", failures_json(inputs), first);
  append_kv(out, "pricing", pricing_json(inputs), first);
  append_kv(out, "tenants", tenants_json(inputs.tenants), first);
  append_kv(out, "portfolio", portfolio_json(inputs.portfolio), first);
  append_kv(out, "selection", selection_json(recorder), first);
  append_kv(out, "phases", phases_json(recorder), first);
  append_kv(out, "counters",
            number_map_json(recorder != nullptr ? recorder->counters()
                                                : std::map<std::string, double>{}),
            first);
  append_kv(out, "gauges",
            number_map_json(recorder != nullptr ? recorder->gauges()
                                                : std::map<std::string, double>{}),
            first);
  append_kv(out, "obs_level",
            quoted(to_string(recorder != nullptr ? recorder->level() : ObsLevel::kOff)),
            first);
  out += "}\n";
  return out;
}

std::string chrome_trace_json(const Recorder& recorder) {
  const std::vector<TraceEvent> events = recorder.events_snapshot();
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i != 0) out += ',';
    out += "{\"name\":";
    out += quoted(e.name);
    out += ",\"ph\":\"";
    out += e.phase;
    out += "\",\"ts\":";
    out += json_number(static_cast<double>(e.ts_us));
    out += ",\"pid\":1,\"tid\":";
    out += json_number(static_cast<double>(e.tid));
    if (e.phase == 'i') out += ",\"s\":\"t\"";  // thread-scoped instant
    if (!e.args_json.empty()) {
      out += ",\"args\":";
      out += e.args_json;
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

namespace {

ValidationResult fail(std::string detail) { return {false, std::move(detail)}; }

const JsonValue* require(const JsonValue& object, const char* key,
                         JsonValue::Type type, ValidationResult& status) {
  const JsonValue* member = object.find(key);
  if (member == nullptr) {
    status = fail(std::string("missing key \"") + key + '"');
    return nullptr;
  }
  if (!member->is(type)) {
    status = fail(std::string("key \"") + key + "\" has wrong JSON type");
    return nullptr;
  }
  return member;
}

/// Sets `status` to a failure unless `section` holds a number (or, with
/// `allow_null`, null) under every key `S`'s visit_fields names and under
/// each of the `derived` keys written after them.
template <typename S>
bool require_fields(const JsonValue& section, const std::string& name,
                    std::initializer_list<const char*> derived, ValidationResult& status,
                    bool allow_null = false) {
  const auto check = [&](const char* key) {
    const JsonValue* field = section.find(key);
    const bool ok = field != nullptr && (field->is(JsonValue::Type::kNumber) ||
                                         (allow_null && field->is(JsonValue::Type::kNull)));
    if (status.ok && !ok) status = fail(name + '.' + key + " missing or not a number");
  };
  const S defaults;
  metrics::visit_fields([&](const char* key, metrics::Fold, const auto&) { check(key); },
                        defaults);
  for (const char* key : derived) check(key);
  return status.ok;
}

}  // namespace

ValidationResult validate_run_report(std::string_view json) {
  const JsonParseResult parsed = json_parse(json);
  if (!parsed.ok)
    return fail("report is not valid JSON: " + parsed.error + " at byte " +
                std::to_string(parsed.error_pos));
  const JsonValue& root = parsed.value;
  if (!root.is(JsonValue::Type::kObject)) return fail("report root is not an object");

  ValidationResult status;
  const JsonValue* schema = require(root, "schema", JsonValue::Type::kString, status);
  if (schema == nullptr) return status;
  if (schema->string != kRunReportSchema)
    return fail("unexpected schema tag \"" + schema->string + '"');

  if (require(root, "trace", JsonValue::Type::kString, status) == nullptr) return status;
  if (require(root, "scheduler", JsonValue::Type::kString, status) == nullptr)
    return status;

  const JsonValue* metrics = require(root, "metrics", JsonValue::Type::kObject, status);
  if (metrics == nullptr) return status;
  if (!require_fields<metrics::RunMetrics>(
          *metrics, "metrics", {"charged_hours", "utilization", "utility"}, status, true))
    return status;

  const JsonValue* engine = require(root, "engine", JsonValue::Type::kObject, status);
  if (engine == nullptr) return status;
  for (const char* key : {"ticks", "events", "total_leases"}) {
    const JsonValue* field = engine->find(key);
    if (field == nullptr || !field->is(JsonValue::Type::kNumber))
      return fail(std::string("engine.") + key + " missing or not a number");
  }

  const JsonValue* failures = root.find("failures");
  if (failures == nullptr) return fail("missing key \"failures\"");
  if (failures->is(JsonValue::Type::kObject)) {
    const JsonValue* fschema = failures->find("schema");
    if (fschema == nullptr || !fschema->is(JsonValue::Type::kString))
      return fail("failures.schema missing or not a string");
    if (fschema->string != kFailuresSchema)
      return fail("unexpected failures schema tag \"" + fschema->string + '"');
    if (!require_fields<metrics::FailureStats>(*failures, "failures",
                                               {"goodput_proc_seconds"}, status))
      return status;
  } else if (!failures->is(JsonValue::Type::kNull)) {
    return fail("failures is neither null nor an object");
  }

  const JsonValue* pricing = root.find("pricing");
  if (pricing == nullptr) return fail("missing key \"pricing\"");
  if (pricing->is(JsonValue::Type::kObject)) {
    const JsonValue* pschema = pricing->find("schema");
    if (pschema == nullptr || !pschema->is(JsonValue::Type::kString))
      return fail("pricing.schema missing or not a string");
    if (pschema->string != kPricingSchema)
      return fail("unexpected pricing schema tag \"" + pschema->string + '"');
    if (!require_fields<metrics::PricingStats>(*pricing, "pricing",
                                               {"total_spend_dollars"}, status))
      return status;
  } else if (!pricing->is(JsonValue::Type::kNull)) {
    return fail("pricing is neither null nor an object");
  }

  const JsonValue* tenants = root.find("tenants");
  if (tenants == nullptr) return fail("missing key \"tenants\"");
  if (tenants->is(JsonValue::Type::kObject)) {
    const JsonValue* tschema = tenants->find("schema");
    if (tschema == nullptr || !tschema->is(JsonValue::Type::kString))
      return fail("tenants.schema missing or not a string");
    if (tschema->string != kTenantsSchema)
      return fail("unexpected tenants schema tag \"" + tschema->string + '"');
    for (const char* key : {"count", "global_cap", "arbitration_period_ticks",
                            "epochs", "arbitrations", "peak_leased"}) {
      const JsonValue* field = tenants->find(key);
      if (field == nullptr || !field->is(JsonValue::Type::kNumber))
        return fail(std::string("tenants.") + key + " missing or not a number");
    }
    const JsonValue* rows = tenants->find("per_tenant");
    if (rows == nullptr || !rows->is(JsonValue::Type::kArray))
      return fail("tenants.per_tenant missing or not an array");
    const JsonValue* count = tenants->find("count");
    if (rows->array.size() != static_cast<std::size_t>(count->number))
      return fail("tenants.per_tenant length does not match tenants.count");
    for (std::size_t i = 0; i < rows->array.size(); ++i) {
      const JsonValue& row = rows->array[i];
      const std::string at = " (tenant " + std::to_string(i) + ")";
      if (!row.is(JsonValue::Type::kObject))
        return fail("per_tenant entry is not an object" + at);
      const JsonValue* name = row.find("name");
      if (name == nullptr || !name->is(JsonValue::Type::kString))
        return fail("per_tenant name missing or not a string" + at);
      const JsonValue* over = row.find("over_budget");
      if (over == nullptr || !over->is(JsonValue::Type::kBool))
        return fail("per_tenant over_budget missing or not a boolean" + at);
      for (const char* key :
           {"weight", "budget_vm_hours", "jobs", "killed", "charged_hours",
            "min_allocation", "mean_allocation", "max_allocation"}) {
        const JsonValue* field = row.find(key);
        if (field == nullptr || !field->is(JsonValue::Type::kNumber))
          return fail(std::string("per_tenant ") + key +
                      " missing or not a number" + at);
      }
    }
  } else if (!tenants->is(JsonValue::Type::kNull)) {
    return fail("tenants is neither null nor an object");
  }

  const JsonValue* portfolio = root.find("portfolio");
  if (portfolio == nullptr) return fail("missing key \"portfolio\"");
  if (!portfolio->is(JsonValue::Type::kNull) &&
      !portfolio->is(JsonValue::Type::kObject))
    return fail("portfolio is neither null nor an object");

  const JsonValue* selection = root.find("selection");
  if (selection == nullptr) return fail("missing key \"selection\"");
  if (selection->is(JsonValue::Type::kObject)) {
    for (const char* key : {"rounds", "total_simulated", "total_budget_charged"}) {
      const JsonValue* field = selection->find(key);
      if (field == nullptr || !field->is(JsonValue::Type::kNumber))
        return fail(std::string("selection.") + key + " missing or not a number");
    }
  } else if (!selection->is(JsonValue::Type::kNull)) {
    return fail("selection is neither null nor an object");
  }

  if (require(root, "phases", JsonValue::Type::kObject, status) == nullptr)
    return status;
  const JsonValue* counters = require(root, "counters", JsonValue::Type::kObject, status);
  if (counters == nullptr) return status;
  for (const auto& [name, value] : counters->object)
    if (!value.is(JsonValue::Type::kNumber))
      return fail("counter \"" + name + "\" is not a number");

  if (require(root, "obs_level", JsonValue::Type::kString, status) == nullptr)
    return status;
  return {};
}

ValidationResult validate_chrome_trace(std::string_view json) {
  const JsonParseResult parsed = json_parse(json);
  if (!parsed.ok)
    return fail("trace is not valid JSON: " + parsed.error + " at byte " +
                std::to_string(parsed.error_pos));
  const JsonValue& root = parsed.value;
  if (!root.is(JsonValue::Type::kObject)) return fail("trace root is not an object");
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is(JsonValue::Type::kArray))
    return fail("traceEvents missing or not an array");

  // Per-lane monotonicity + LIFO B/E matching. Lanes are (pid, tid) pairs.
  std::map<std::pair<double, double>, double> last_ts;
  std::map<std::pair<double, double>, std::vector<std::string>> open;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = " (event " + std::to_string(i) + ")";
    if (!e.is(JsonValue::Type::kObject)) return fail("event is not an object" + at);
    const JsonValue* name = e.find("name");
    const JsonValue* ph = e.find("ph");
    const JsonValue* ts = e.find("ts");
    const JsonValue* pid = e.find("pid");
    const JsonValue* tid = e.find("tid");
    if (name == nullptr || !name->is(JsonValue::Type::kString))
      return fail("event name missing or not a string" + at);
    if (ph == nullptr || !ph->is(JsonValue::Type::kString) || ph->string.size() != 1)
      return fail("event ph missing or malformed" + at);
    if (ts == nullptr || !ts->is(JsonValue::Type::kNumber))
      return fail("event ts missing or not a number" + at);
    if (pid == nullptr || !pid->is(JsonValue::Type::kNumber) || tid == nullptr ||
        !tid->is(JsonValue::Type::kNumber))
      return fail("event pid/tid missing or not numbers" + at);

    const char phase = ph->string[0];
    if (phase != 'B' && phase != 'E' && phase != 'i')
      return fail(std::string("unsupported phase '") + phase + '\'' + at);

    const std::pair<double, double> lane{pid->number, tid->number};
    const auto seen = last_ts.find(lane);
    if (seen != last_ts.end() && ts->number < seen->second)
      return fail("non-monotone ts on lane tid=" +
                  std::to_string(static_cast<std::int64_t>(tid->number)) + at);
    last_ts[lane] = ts->number;

    if (phase == 'B') {
      open[lane].push_back(name->string);
    } else if (phase == 'E') {
      auto& stack = open[lane];
      if (stack.empty()) return fail("'E' without matching 'B'" + at);
      if (stack.back() != name->string)
        return fail("'E' name \"" + name->string + "\" does not match open 'B' \"" +
                    stack.back() + '"' + at);
      stack.pop_back();
    }
  }
  for (const auto& [lane, stack] : open)
    if (!stack.empty())
      return fail("unclosed 'B' \"" + stack.back() + "\" on lane tid=" +
                  std::to_string(static_cast<std::int64_t>(lane.second)));
  return {};
}

ValidationResult validate_bench_report(std::string_view json) {
  const JsonParseResult parsed = json_parse(json);
  if (!parsed.ok)
    return fail("bench report is not valid JSON: " + parsed.error + " at byte " +
                std::to_string(parsed.error_pos));
  const JsonValue& root = parsed.value;
  if (!root.is(JsonValue::Type::kObject))
    return fail("bench report root is not an object");

  ValidationResult status;
  const JsonValue* schema = require(root, "schema", JsonValue::Type::kString, status);
  if (schema == nullptr) return status;
  if (schema->string != "psched-bench-report/v1")
    return fail("unexpected schema tag \"" + schema->string + '"');
  if (require(root, "title", JsonValue::Type::kString, status) == nullptr) return status;

  const JsonValue* headers = require(root, "headers", JsonValue::Type::kArray, status);
  if (headers == nullptr) return status;
  for (const JsonValue& h : headers->array)
    if (!h.is(JsonValue::Type::kString)) return fail("header is not a string");

  // Optional regression-gate annotation (see obs/bench_gate.hpp): when
  // present it must be one known kind name per column.
  if (const JsonValue* gate = root.find("gate"); gate != nullptr) {
    if (!gate->is(JsonValue::Type::kArray))
      return fail("\"gate\" is not an array");
    if (gate->array.size() != headers->array.size())
      return fail("\"gate\" length does not match header count");
    for (const JsonValue& kind : gate->array) {
      if (!kind.is(JsonValue::Type::kString) ||
          (kind.string != "exact" && kind.string != "lower-better" &&
           kind.string != "higher-better" && kind.string != "informational"))
        return fail("\"gate\" entry is not a known column kind");
    }
  }

  const JsonValue* rows = require(root, "rows", JsonValue::Type::kArray, status);
  if (rows == nullptr) return status;
  for (std::size_t i = 0; i < rows->array.size(); ++i) {
    const JsonValue& row = rows->array[i];
    const std::string at = " (row " + std::to_string(i) + ")";
    if (!row.is(JsonValue::Type::kArray)) return fail("row is not an array" + at);
    if (row.array.size() != headers->array.size())
      return fail("row width does not match header count" + at);
    for (const JsonValue& cell : row.array)
      if (!cell.is(JsonValue::Type::kNumber) && !cell.is(JsonValue::Type::kString))
        return fail("cell is neither number nor string" + at);
  }
  return {};
}

bool write_text_file(const std::string& path, std::string_view content) {
  return write_file_atomic(path, content);
}

}  // namespace psched::obs
