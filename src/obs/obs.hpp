#pragma once
// Structured observability for experiment runs (DESIGN.md §9): named
// counters/gauges, scoped phase timers, a Chrome-trace event sink, and
// per-selection-round telemetry records.
//
// Design constraints, in order of priority:
//
//  1. Zero perturbation when off. Every instrumentation site holds a
//     `Recorder*` that is null (or a Recorder at ObsLevel::kOff) in
//     unobserved runs, so the disabled cost is one predictable branch and
//     the observed simulation output is bit-identical to an uninstrumented
//     build. Observability never feeds back into scheduling decisions: no
//     RNG draw, queue order, or budget charge depends on recorder state.
//  2. Single clock site. All wall-clock reads live in obs.cpp
//     (Recorder::now_us), which is on psched-lint's D1 allowlist; the rest
//     of the tree stays clock-free so rule D1 keeps meaning something.
//  3. Deterministic merging under eval_threads > 1. Wave workers write
//     TraceEvents into per-slot buffers owned by the coordinating thread
//     and merged in wave order after the batch barrier; the shared sink is
//     still mutex-guarded (annotated like util/thread_pool) so recorders
//     shared across scenario sweeps stay correct.
//
// One Recorder instance observes one run. Counters, gauges, phase stats,
// and round records are confined to the run's coordinating thread; only the
// trace-event sink is thread-safe.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/thread_annotations.hpp"

namespace psched::obs {

/// How much a run records. Each level includes the previous one.
enum class ObsLevel {
  kOff,       ///< nothing: null-branch cost, no clock reads
  kCounters,  ///< counters, gauges, phase timers, selection-round records
  kTrace,     ///< + Chrome-trace events (engine ticks, selector rounds,
              ///<   candidate simulations, provider lease/release)
};

struct ObsConfig {
  ObsLevel level = ObsLevel::kOff;
};

[[nodiscard]] std::string to_string(ObsLevel level);
/// Parse "off" / "counters" / "trace"; `ok` reports success.
[[nodiscard]] ObsLevel obs_level_from_string(const std::string& name, bool& ok);

/// One Chrome-trace event (the JSON serialization lives in obs/report.hpp).
/// `phase` uses the Chrome trace-format codes: 'B' begin, 'E' end,
/// 'i' instant. Timestamps are microseconds since the Recorder's epoch;
/// `tid` is a logical lane (0 = the run's coordinating thread, 1 + k = wave
/// slot k), not an OS thread id — slots are deterministic, OS ids are not.
struct TraceEvent {
  const char* name = "";      ///< static string (instrumentation-site literal)
  char phase = 'B';
  std::int64_t ts_us = 0;
  std::uint32_t tid = 0;
  std::string args_json;      ///< pre-serialized JSON object, or empty
};

/// Accumulated time of one named phase (scoped-timer aggregate).
struct PhaseStat {
  std::uint64_t calls = 0;
  double total_us = 0.0;
};

/// Telemetry for one portfolio selection round (Algorithm 1 invocation).
struct SelectionRoundRecord {
  double sim_now = 0.0;           ///< simulated clock at selection time
  std::size_t simulated = 0;      ///< |Q| — candidate policies evaluated
  double budget_delta = 0.0;      ///< configured Delta (ms or count; 0 = unbounded)
  double budget_charged = 0.0;    ///< budget actually consumed
  std::size_t smart_in = 0, stale_in = 0, poor_in = 0;    ///< set sizes before
  std::size_t smart_out = 0, stale_out = 0, poor_out = 0; ///< set sizes after
  std::size_t smart_churn = 0;    ///< |new Smart \ old Smart|
  std::size_t quarantined = 0;    ///< candidates whose simulation threw
  std::size_t chosen = 0;         ///< winning portfolio index
  double chosen_utility = 0.0;
  std::size_t tie_set = 0;        ///< scores tied with the best
  const char* tie_path = "";      ///< "unique", "random", "sticky",
                                  ///< "first-index", "degraded"
};

class Recorder {
 public:
  explicit Recorder(ObsConfig config);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  [[nodiscard]] ObsLevel level() const noexcept { return config_.level; }
  [[nodiscard]] bool counters_on() const noexcept {
    return config_.level != ObsLevel::kOff;
  }
  [[nodiscard]] bool tracing_on() const noexcept {
    return config_.level == ObsLevel::kTrace;
  }

  /// Microseconds since this recorder's construction (monotonic). The only
  /// wall-clock read in the observability layer; no-ops (returns 0) when the
  /// recorder is off so a disabled recorder never touches a clock.
  [[nodiscard]] std::int64_t now_us() const;

  // --- counters & gauges (coordinating thread only) -------------------------
  void counter_add(const char* name, double delta);
  void gauge_set(const char* name, double value);

  // --- phase timers ----------------------------------------------------------
  /// RAII scoped timer: accumulates into the named phase, and at kTrace also
  /// emits a B/E event pair on lane `tid`. Safe to construct with a null or
  /// disabled recorder (fully inert, no clock read).
  class Scope {
   public:
    Scope(Recorder* recorder, const char* name, std::uint32_t tid);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder* rec_;  ///< null when disabled
    const char* name_;
    std::uint32_t tid_;
    std::int64_t start_us_ = 0;
  };

  void phase_add(const char* name, double us);

  // --- trace events ----------------------------------------------------------
  /// Append one event to the shared sink (thread-safe).
  void append_event(TraceEvent event);
  /// Append an instant event ('i') stamped now on lane `tid`.
  void instant(const char* name, std::uint32_t tid, std::string args_json = {});

  // --- selection-round telemetry (coordinating thread only) ------------------
  void record_round(const SelectionRoundRecord& record);

  // --- introspection (coordinating thread; used by report.cpp and tests) -----
  [[nodiscard]] const std::map<std::string, double>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges() const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, PhaseStat>& phases() const noexcept {
    return phases_;
  }
  [[nodiscard]] const std::vector<SelectionRoundRecord>& rounds() const noexcept {
    return rounds_;
  }
  /// Snapshot of the trace-event sink (locked copy).
  [[nodiscard]] std::vector<TraceEvent> events_snapshot() const;

 private:
  ObsConfig config_;
  /// Set eagerly in the constructor when the recorder is enabled (an off
  /// recorder never reads the clock at all, not even at construction), so
  /// wave workers can read it without synchronization: the constructor
  /// happens-before every now_us() call and the value never changes after.
  std::int64_t epoch_ns_ = 0;

  // Aggregates are written by the run's coordinating thread only (the same
  // thread that drives ClusterSimulation::run / select()); wave workers
  // never touch them. Enforced by the obs on/off determinism test.
  std::map<std::string, double> counters_ PSCHED_CONFINED_TO("run coordinating thread");
  std::map<std::string, double> gauges_ PSCHED_CONFINED_TO("run coordinating thread");
  std::map<std::string, PhaseStat> phases_ PSCHED_CONFINED_TO("run coordinating thread");
  std::vector<SelectionRoundRecord> rounds_ PSCHED_CONFINED_TO("run coordinating thread");

  mutable util::Mutex events_mu_;
  std::vector<TraceEvent> events_ PSCHED_GUARDED_BY(events_mu_);
};

}  // namespace psched::obs
