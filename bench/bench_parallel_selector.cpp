// Wave-parallel selector throughput — policies simulated per budget Delta
// and wall-clock selection latency at eval_threads = 1/2/4/8.
//
// Three tables:
//  1. Figure-10 synthetic-cost configuration (Delta = 200 ms, 10 ms/policy,
//     measured cost off): budget accounting is deterministic, so the
//     "policies simulated per Delta" column shows exactly how much more of
//     the portfolio a wave of k candidates buys (a wave is charged once,
//     not k times). The acceptance bar is >= 2x at eval_threads = 4.
//  2. Unbounded selection (Delta = 0, whole portfolio every time) with
//     wall-clock timing: the real speedup of draining all 60 candidates
//     through the shared thread pool.
//  3. Hot-path table (gated, DESIGN.md §11): candidate throughput of the
//     snapshot + arena fast path at eval_threads = 1/2/4, every round
//     fresh. The deterministic column (candidates per selection) is gated
//     exactly against bench/baselines/BENCH_selector.json; the throughput
//     column is gated with a generous timing tolerance. Emitted last so
//     --report captures this table.
//
// All tables replay the same deterministic sequence of selection events
// (synthetic queue snapshots of varying size/width/runtimes).
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "core/selector.hpp"
#include "util/rng.hpp"

namespace {

using namespace psched;

struct SelectionEvent {
  std::vector<policy::QueuedJob> queue;
  cloud::CloudProfile profile;
};

std::vector<SelectionEvent> make_events(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<SelectionEvent> events;
  events.reserve(count);
  for (std::size_t e = 0; e < count; ++e) {
    SelectionEvent event;
    event.profile.now = 20.0 * static_cast<double>(e);
    event.profile.max_vms = 256;
    event.profile.boot_delay = 120.0;
    const auto jobs = static_cast<std::size_t>(rng.uniform_int(2, 12));
    for (std::size_t j = 0; j < jobs; ++j) {
      policy::QueuedJob job;
      job.id = static_cast<JobId>(e * 100 + j);
      job.submit = event.profile.now - rng.uniform(0.0, 600.0);
      job.procs = static_cast<int>(rng.uniform_int(1, 16));
      job.predicted_runtime = rng.uniform(30.0, 1800.0);
      event.queue.push_back(job);
    }
    events.push_back(std::move(event));
  }
  return events;
}

struct Sample {
  double simulated_per_selection = 0.0;
  double wall_ms_per_selection = 0.0;
};

Sample replay(const std::vector<SelectionEvent>& events, core::SelectorConfig config) {
  core::TimeConstrainedSelector selector(
      bench::paper_portfolio(), core::OnlineSimulator(core::OnlineSimConfig{}), config);
  std::size_t simulated = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const SelectionEvent& event : events) {
    simulated += selector.select(event.queue, event.profile).simulated();
  }
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  Sample sample;
  sample.simulated_per_selection =
      static_cast<double>(simulated) / static_cast<double>(events.size());
  sample.wall_ms_per_selection = elapsed.count() / static_cast<double>(events.size());
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psched;
  const bench::BenchEnv env = bench::parse_env(argc, argv);
  bench::banner("Wave-parallel selector: policies simulated per Delta", env);

  const std::size_t widths[] = {1, 2, 4, 8};
  const std::vector<SelectionEvent> events = make_events(200, env.seed);

  // Table 1: Figure-10 configuration — deterministic budget accounting.
  util::Table budget_table({"eval_threads", "Simulated/selection", "x vs 1 thread",
                            "Budget charged [ms]"});
  double base_simulated = 0.0;
  for (const std::size_t width : widths) {
    core::SelectorConfig config;
    config.time_constraint_ms = 200.0;
    config.synthetic_overhead_ms = 10.0;  // paper Section 6.5
    config.use_measured_cost = false;     // deterministic budget
    config.eval_threads = width;
    const Sample sample = replay(events, config);
    if (width == 1) base_simulated = sample.simulated_per_selection;
    budget_table.add_row({util::Cell(static_cast<double>(width), 0),
                          util::Cell(sample.simulated_per_selection, 1),
                          util::Cell(sample.simulated_per_selection / base_simulated, 2),
                          util::Cell(200.0, 0)});
  }
  bench::emit(env, budget_table,
              "Policies simulated per selection (Delta = 200 ms, 10 ms/policy "
              "synthetic, 60-policy portfolio)");

  // Table 2: unbounded selection — wall-clock speedup of the wave scheduler.
  util::Table wall_table({"eval_threads", "Wall ms/selection", "Speedup vs 1 thread"});
  std::vector<Sample> unbounded;
  double base_wall = 0.0;
  for (const std::size_t width : widths) {
    core::SelectorConfig config;
    config.time_constraint_ms = 0.0;  // unbounded: all 60 policies per event
    config.eval_threads = width;
    const Sample sample = unbounded.emplace_back(replay(events, config));
    if (width == 1) base_wall = sample.wall_ms_per_selection;
    wall_table.add_row({util::Cell(static_cast<double>(width), 0),
                        util::Cell(sample.wall_ms_per_selection, 3),
                        util::Cell(base_wall / sample.wall_ms_per_selection, 2)});
  }
  bench::emit(env, wall_table,
              "Wall-clock selection latency, unbounded Delta (whole portfolio)");
  std::printf(
      "note: wall-clock speedup is bounded by the %u hardware thread(s) of this "
      "machine; the budget table above is machine-independent.\n",
      std::thread::hardware_concurrency());

  // Table 3 (gated, emitted last so --report carries it): candidate
  // throughput of the snapshot + arena hot path, from the unbounded replays
  // at eval_threads 1/2/4.
  util::Table hot_table({"eval_threads", "Fresh simulated/selection",
                         "Fresh candidates/s"});
  static constexpr obs::ColumnKind kHotGate[] = {obs::ColumnKind::kExact,
                                                 obs::ColumnKind::kExact,
                                                 obs::ColumnKind::kHigherBetter};
  for (std::size_t i = 0; i < 3; ++i) {
    const Sample& sample = unbounded[i];
    hot_table.add_row({util::Cell(static_cast<double>(widths[i]), 0),
                       util::Cell(sample.simulated_per_selection, 0),
                       util::Cell(1000.0 * sample.simulated_per_selection /
                                      sample.wall_ms_per_selection,
                                  0)});
  }
  bench::emit(env, hot_table,
              "Selector hot path: fresh rounds (unbounded Delta, 60-policy "
              "portfolio)",
              kHotGate);
  return 0;
}
