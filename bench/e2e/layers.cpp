#include "layers.hpp"

#include <algorithm>
#include <chrono>

#include "core/round_snapshot.hpp"
#include "core/selector.hpp"
#include "core/sim_arena.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "util/stats.hpp"

namespace psched::e2e {

namespace {

constexpr std::uint64_t kCaptureEveryTicks = 8;

/// Times every policy_for_tick call and captures selection inputs.
class TimedScheduler final : public core::Scheduler {
 public:
  TimedScheduler(core::Scheduler& inner, Probe::Totals& totals, SpanLog& spans,
                 std::int32_t parent, std::size_t max_rounds)
      : inner_(inner), totals_(totals), spans_(spans), parent_(parent),
        max_rounds_(max_rounds) {}

  policy::PolicyTriple policy_for_tick(std::uint64_t tick,
                                       std::span<const policy::QueuedJob> queue,
                                       const cloud::CloudProfile& profile) override {
    const double start = now_s();
    const policy::PolicyTriple policy = inner_.policy_for_tick(tick, queue, profile);
    const double end = now_s();
    ++totals_.scheduler_calls;
    totals_.scheduler_busy_s += end - start;
    if (queue.empty()) return policy;
    // Empty-queue calls return at once; only calls with work are sampled.
    totals_.tick_us.push_back((end - start) * 1e6);
    totals_.queue_len_sum += static_cast<double>(queue.size());
    totals_.queue_len_max = std::max(totals_.queue_len_max, queue.size());
    spans_.close(spans_.open("scheduler.policy_for_tick", parent_, start), end);
    if (tick % kCaptureEveryTicks == 0 && totals_.rounds.size() < max_rounds_)
      totals_.rounds.push_back(Round{{queue.begin(), queue.end()}, profile});
    return policy;
  }

  std::string name() const override { return inner_.name(); }
  void set_recorder(obs::Recorder* recorder) override { inner_.set_recorder(recorder); }

 private:
  core::Scheduler& inner_;
  Probe::Totals& totals_;
  SpanLog& spans_;
  std::int32_t parent_;
  std::size_t max_rounds_;
};

/// Times every predict and observe_completion call (aggregates only: the
/// engine calls predict once per queued job per tick).
class TimedPredictor final : public predict::RuntimePredictor {
 public:
  TimedPredictor(predict::RuntimePredictor& inner, Probe::Totals& totals)
      : inner_(inner), totals_(totals) {}

  double predict(const workload::Job& job) const override {
    const double start = now_s();
    const double runtime = inner_.predict(job);
    totals_.predict_busy_s += now_s() - start;
    ++totals_.predict_calls;
    return runtime;
  }

  void observe_completion(const workload::Job& job) override {
    const double start = now_s();
    inner_.observe_completion(job);
    totals_.predict_busy_s += now_s() - start;
    ++totals_.observe_calls;
  }

  std::string name() const override { return inner_.name(); }

 private:
  predict::RuntimePredictor& inner_;
  Probe::Totals& totals_;  // predict() is const; the totals live outside
};

double mean(double sum, std::size_t n) { return n == 0 ? 0.0 : sum / static_cast<double>(n); }

}  // namespace

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin).count();
}

std::int32_t SpanLog::open(const char* name, std::int32_t parent, double start_s) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, start_s, start_s, parent});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::close(std::int32_t id, double end_s) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_s = end_s;
}

bool SpanLog::write(const std::string& path) const {
  std::string out = "{\"schema\":\"psched-e2e-spans/v1\",\"spans\":" +
                    std::to_string(spans_.size()) +
                    ",\"dropped\":" + std::to_string(dropped_) + "}\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + obs::json_escape(s.name) +
           "\",\"start_us\":" + obs::json_number(s.start_s * 1e6) +
           ",\"dur_us\":" + obs::json_number((s.end_s - s.start_s) * 1e6) +
           ",\"parent\":" + std::to_string(s.parent) + "}\n";
  }
  return obs::write_text_file(path, out);
}

Probe::Probe(SpanLog& spans, std::int32_t parent, std::size_t max_rounds)
    : spans_(spans), parent_(parent), max_rounds_(max_rounds),
      recorder_(obs::ObsConfig{obs::ObsLevel::kCounters}) {}

engine::RunResult Probe::run(const engine::EngineConfig& config,
                             const workload::Trace& trace, core::Scheduler& scheduler,
                             predict::RuntimePredictor& predictor) {
  const double start = now_s();
  const std::int32_t span = spans_.open("engine.run", parent_, start);
  TimedScheduler timed_scheduler(scheduler, totals_, spans_, span, max_rounds_);
  TimedPredictor timed_predictor(predictor, totals_);
  engine::ClusterSimulation sim(config, trace, timed_scheduler, timed_predictor, &recorder_);
  engine::RunResult result = sim.run();
  const double end = now_s();
  spans_.close(span, end);
  totals_.engine_run_s += end - start;
  totals_.ticks += result.ticks;
  totals_.events += result.events;
  return result;
}

void Probe::report(MetricMap& out) const {
  const Totals& t = totals_;
  const double self_s = t.engine_run_s - t.scheduler_busy_s - t.predict_busy_s;
  out["engine.run_s"] = t.engine_run_s;
  out["engine.self_s"] = self_s;
  out["engine.ticks"] = static_cast<double>(t.ticks);
  out["engine.events"] = static_cast<double>(t.events);
  out["engine.us_per_tick"] = t.ticks == 0 ? 0.0 : self_s * 1e6 / static_cast<double>(t.ticks);
  out["predict.calls"] = static_cast<double>(t.predict_calls);
  out["predict.observe_calls"] = static_cast<double>(t.observe_calls);
  out["predict.busy_s"] = t.predict_busy_s;
  out["scheduler.calls"] = static_cast<double>(t.scheduler_calls);
  out["scheduler.busy_s"] = t.scheduler_busy_s;
  out["scheduler.tick_us.p50"] = util::median(t.tick_us);
  out["scheduler.tick_us.p99"] = util::percentile(t.tick_us, 99.0);
  out["scheduler.queue_len.mean"] = mean(t.queue_len_sum, t.tick_us.size());
  out["scheduler.queue_len.max"] = static_cast<double>(t.queue_len_max);

  const auto counter = [this](const char* name) {
    const auto it = recorder_.counters().find(name);
    return it == recorder_.counters().end() ? 0.0 : it->second;
  };
  const auto phase_s = [this](const char* name) {
    const auto it = recorder_.phases().find(name);
    return it == recorder_.phases().end() ? 0.0 : it->second.total_us / 1e6;
  };
  out["selector.rounds"] = counter("selector.rounds");
  out["selector.candidates"] = counter("selector.candidates");
  out["selector.round_s"] = phase_s("selector.round");
  const double engine_s = phase_s("engine.run");
  out["selector.share"] = engine_s > 0.0 ? phase_s("selector.round") / engine_s : 0.0;
}

bool replay(const std::vector<Round>& rounds, const policy::Portfolio& portfolio,
            const core::PortfolioSchedulerConfig& config, SpanLog& spans,
            std::int32_t parent, MetricMap& out) {
  struct Width {
    std::size_t threads;
    const char* span;
    std::vector<double> select_us;
    std::vector<std::size_t> chosen;
    double total_s = 0.0;
    double candidates = 0.0;
    double quarantined = 0.0;
  };
  Width widths[] = {{1, "replay.select_t1", {}, {}}, {4, "replay.select_t4", {}, {}}};
  for (Width& w : widths) {
    core::SelectorConfig selector_config = config.selector;
    selector_config.eval_threads = w.threads;
    core::TimeConstrainedSelector selector(portfolio, core::OnlineSimulator(config.online_sim),
                                           selector_config);
    const std::int32_t root = spans.open(w.span, parent, now_s());
    for (const Round& round : rounds) {
      const double start = now_s();
      const core::SelectionResult result = selector.select(round.queue, round.profile);
      const double end = now_s();
      spans.close(spans.open("selector.select", root, start), end);
      w.select_us.push_back((end - start) * 1e6);
      w.total_s += end - start;
      w.chosen.push_back(result.best_index);
      w.candidates += static_cast<double>(result.simulated());
      w.quarantined += static_cast<double>(result.quarantined);
    }
    spans.close(root, now_s());
  }
  const Width& t1 = widths[0];
  const Width& t4 = widths[1];
  out["selector.select_us.p50"] = util::median(t1.select_us);
  out["selector.select_us.p99"] = util::percentile(t1.select_us, 99.0);
  out["selector.candidates_per_s"] = t1.total_s > 0.0 ? t1.candidates / t1.total_s : 0.0;
  const double attempted = t1.candidates + t1.quarantined;
  out["selector.quarantined_frac"] = attempted > 0.0 ? t1.quarantined / attempted : 0.0;
  out["selector.select_us_t4.p50"] = util::median(t4.select_us);
  out["selector.replay_speedup_t4"] = t4.total_s > 0.0 ? t1.total_s / t4.total_s : 0.0;

  const core::OnlineSimulator simulator(config.online_sim);
  core::RoundSnapshot snapshot;
  core::SimArena arena;
  std::vector<double> snapshot_us;
  std::vector<double> candidate_us;
  double sim_s = 0.0;
  double decisions = 0.0;
  const std::int32_t root = spans.open("replay.online_sim", parent, now_s());
  for (const Round& round : rounds) {
    const double start = now_s();
    snapshot.build(round.queue, round.profile);
    const double built = now_s();
    spans.close(spans.open("round_snapshot.build", root, start), built);
    snapshot_us.push_back((built - start) * 1e6);
    for (const policy::PolicyTriple& policy : portfolio.policies()) {
      const double sim_start = now_s();
      const core::SimOutcome outcome = simulator.simulate(snapshot, policy, arena);
      const double sim_end = now_s();
      spans.close(spans.open("online_sim.simulate", root, sim_start), sim_end);
      candidate_us.push_back((sim_end - sim_start) * 1e6);
      sim_s += sim_end - sim_start;
      decisions += static_cast<double>(outcome.decisions);
    }
  }
  spans.close(root, now_s());
  out["online_sim.snapshot_us.p50"] = util::median(snapshot_us);
  out["online_sim.candidate_us.p50"] = util::median(candidate_us);
  out["online_sim.candidate_us.p99"] = util::percentile(candidate_us, 99.0);
  out["online_sim.decisions_per_candidate"] =
      candidate_us.empty() ? 0.0 : decisions / static_cast<double>(candidate_us.size());
  out["online_sim.ns_per_decision"] = decisions > 0.0 ? sim_s * 1e9 / decisions : 0.0;
  return t1.chosen == t4.chosen;
}

}  // namespace psched::e2e
