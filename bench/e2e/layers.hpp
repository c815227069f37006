#pragma once
// Per-layer timing for psched-e2e, taken from outside the library. Every
// number comes from timing calls into public functions: decorators over
// core::Scheduler and predict::RuntimePredictor, the existing obs::Recorder
// at kCounters, and a replay of captured selection rounds through the
// selector, the round snapshot and the online simulator.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "engine/cluster_sim.hpp"
#include "obs/obs.hpp"
#include "predict/predictor.hpp"

namespace psched::e2e {

/// Seconds on the monotonic clock since the program started.
[[nodiscard]] double now_s();

/// Metric name -> value.
using MetricMap = std::map<std::string, double>;

/// One timed call into a public library function.
struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::int32_t parent = -1;  ///< index of the span that caused it; -1 = root
};

/// In-memory spans of the traced repetitions, written out by --spans-out.
/// Bounded: once `capacity` spans are kept, further ones are only counted.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}

  /// Open a span (its end is set by close); returns its id, or -1 when full.
  std::int32_t open(const char* name, std::int32_t parent, double start_s);
  void close(std::int32_t id, double end_s);
  /// Write one JSON object per line: a header, then every span.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// A captured selection input, replayed after the traced repetition.
struct Round {
  std::vector<policy::QueuedJob> queue;
  cloud::CloudProfile profile;
};

/// Times the layers of one traced repetition. Each simulation gets the
/// real scheduler and predictor wrapped in timing decorators, plus an
/// obs::Recorder at kCounters; the totals accumulate over every simulation
/// the repetition runs. The decorators also capture (queue, profile) on
/// every 8th tick with a non-empty queue, up to `max_rounds`.
class Probe {
 public:
  /// Spans go to `spans` under the span `parent`.
  Probe(SpanLog& spans, std::int32_t parent, std::size_t max_rounds);

  /// Run one simulation with every layer timed.
  [[nodiscard]] engine::RunResult run(const engine::EngineConfig& config,
                                      const workload::Trace& trace,
                                      core::Scheduler& scheduler,
                                      predict::RuntimePredictor& predictor);

  [[nodiscard]] const std::vector<Round>& rounds() const noexcept { return totals_.rounds; }

  /// Add the engine.*, predict.*, scheduler.* metrics and the Recorder's
  /// selector.rounds/candidates/round_s/share.
  void report(MetricMap& out) const;

  /// What the decorators accumulate.
  struct Totals {
    double engine_run_s = 0.0;
    std::uint64_t ticks = 0;
    std::uint64_t events = 0;
    std::uint64_t scheduler_calls = 0;
    double scheduler_busy_s = 0.0;
    std::vector<double> tick_us;      ///< calls with a non-empty queue
    double queue_len_sum = 0.0;       ///< over the same calls
    std::size_t queue_len_max = 0;
    std::uint64_t predict_calls = 0;
    std::uint64_t observe_calls = 0;
    double predict_busy_s = 0.0;
    std::vector<Round> rounds;
  };

 private:
  SpanLog& spans_;
  std::int32_t parent_;
  std::size_t max_rounds_;
  obs::Recorder recorder_;
  Totals totals_;
};

/// Replay `rounds` through TimeConstrainedSelector::select at 1 and 4
/// threads, and through RoundSnapshot::build plus OnlineSimulator::simulate
/// for every policy of `portfolio`. Adds the selector.* and online_sim.*
/// replay metrics to `out` (selector.select_us.*, candidates_per_s and
/// quarantined_frac from the 1-thread replay, the serial cost of a round).
/// Spans go under `parent`. Returns false when the two widths choose
/// differently on any round.
[[nodiscard]] bool replay(const std::vector<Round>& rounds,
                          const policy::Portfolio& portfolio,
                          const core::PortfolioSchedulerConfig& config, SpanLog& spans,
                          std::int32_t parent, MetricMap& out);

}  // namespace psched::e2e
