// Wave-parallel selector: determinism across eval_threads, budget-math
// throughput, and the OnlineSimulator const-thread-safety contract.
#include <gtest/gtest.h>

#include <vector>

#include "core/selector.hpp"
#include "engine/experiment.hpp"
#include "expect_same_metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace psched::core {
namespace {

OnlineSimConfig sim_config() {
  OnlineSimConfig c;
  c.utility = metrics::UtilityParams{100.0, 1.0, 1.0};
  return c;
}

const policy::Portfolio& portfolio() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

struct ReplayEvent {
  std::vector<policy::QueuedJob> queue;
  cloud::CloudProfile profile;
};

/// A deterministic stream of selection events: queue snapshots of varying
/// size, width, and predicted runtimes at advancing cloud times.
std::vector<ReplayEvent> make_events(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ReplayEvent> events;
  events.reserve(count);
  for (std::size_t e = 0; e < count; ++e) {
    ReplayEvent event;
    event.profile.now = 20.0 * static_cast<double>(e);
    event.profile.max_vms = 256;
    event.profile.boot_delay = 120.0;
    const auto jobs = static_cast<std::size_t>(rng.uniform_int(2, 6));
    for (std::size_t j = 0; j < jobs; ++j) {
      policy::QueuedJob job;
      job.id = static_cast<JobId>(e * 100 + j);
      job.submit = event.profile.now - rng.uniform(0.0, 300.0);
      job.procs = static_cast<int>(rng.uniform_int(1, 8));
      job.predicted_runtime = rng.uniform(30.0, 900.0);
      event.queue.push_back(job);
    }
    events.push_back(std::move(event));
  }
  return events;
}

void expect_identical(const SelectionResult& a, const SelectionResult& b,
                      std::size_t event) {
  ASSERT_EQ(a.simulated(), b.simulated()) << "event " << event;
  EXPECT_EQ(a.best_index, b.best_index) << "event " << event;
  EXPECT_EQ(a.best_utility, b.best_utility) << "event " << event;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i].index, b.scores[i].index) << "event " << event;
    EXPECT_EQ(a.scores[i].utility, b.scores[i].utility) << "event " << event;
    EXPECT_EQ(a.scores[i].cost_ms, b.scores[i].cost_ms) << "event " << event;
  }
}

TEST(SelectorParallel, IdenticalResultSequencesAcrossThreadCounts) {
  // 1000-event replay, unbounded Delta with no simulation costs: every
  // SelectionResult field — winner, utilities, score order, charged budget —
  // must match bit-for-bit between eval_threads = 1 and eval_threads = 4.
  // (Wave grouping, score merge order, and all RNG draws happen on the
  // coordinating thread, so thread count must not leak into results.)
  const auto events = make_events(1000, 0xabcdef);
  SelectorConfig sequential;
  sequential.time_constraint_ms = 0.0;
  sequential.synthetic_overhead_ms = 0.0;
  sequential.use_measured_cost = false;
  SelectorConfig waved = sequential;
  waved.eval_threads = 4;

  TimeConstrainedSelector a(portfolio(), OnlineSimulator(sim_config()), sequential);
  TimeConstrainedSelector b(portfolio(), OnlineSimulator(sim_config()), waved);
  for (std::size_t e = 0; e < events.size(); ++e) {
    const SelectionResult ra = a.select(events[e].queue, events[e].profile);
    const SelectionResult rb = b.select(events[e].queue, events[e].profile);
    expect_identical(ra, rb, e);
    EXPECT_EQ(ra.total_cost_ms, rb.total_cost_ms) << "event " << e;
  }
}

TEST(SelectorParallel, DeterminismMatrixAcrossWidthsAndRepeats) {
  // Determinism matrix (validation suite satellite): for every wave width in
  // {1, 2, 4, 8}, two consecutive same-seed replays on fresh selector
  // instances must reproduce the eval_threads = 1 reference bit-for-bit.
  // This pins down both axes separately — thread-count independence (results
  // do not depend on the width) and run-to-run determinism (no hidden state,
  // iteration-order, or scheduling dependence between repeats).
  const auto events = make_events(200, 0xd15c0);
  SelectorConfig base;
  base.time_constraint_ms = 0.0;
  base.synthetic_overhead_ms = 0.0;
  base.use_measured_cost = false;

  // Reference sequence from the sequential selector.
  std::vector<SelectionResult> reference;
  reference.reserve(events.size());
  TimeConstrainedSelector ref(portfolio(), OnlineSimulator(sim_config()), base);
  for (const ReplayEvent& event : events)
    reference.push_back(ref.select(event.queue, event.profile));

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SelectorConfig config = base;
    config.eval_threads = threads;
    for (int repeat = 0; repeat < 2; ++repeat) {
      TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), config);
      for (std::size_t e = 0; e < events.size(); ++e) {
        const SelectionResult r = s.select(events[e].queue, events[e].profile);
        SCOPED_TRACE(testing::Message()
                     << "threads=" << threads << " repeat=" << repeat);
        expect_identical(reference[e], r, e);
      }
    }
  }
}

TEST(SelectorParallel, WaveChargingBuysMorePoliciesPerDelta) {
  // Figure-10 configuration, Delta = 120 ms at 10 ms/policy: the sequential
  // selector affords 12 simulations; waves of 4 are charged once per wave,
  // so the same budget simulates 48 candidates. Scores and winner remain
  // deterministic for each width.
  const auto events = make_events(4, 0x515);
  SelectorConfig config;
  config.time_constraint_ms = 120.0;
  config.synthetic_overhead_ms = 10.0;
  config.use_measured_cost = false;

  TimeConstrainedSelector seq(portfolio(), OnlineSimulator(sim_config()), config);
  const SelectionResult rs = seq.select(events[0].queue, events[0].profile);
  EXPECT_EQ(rs.simulated(), 12u);
  EXPECT_DOUBLE_EQ(rs.total_cost_ms, 120.0);

  config.eval_threads = 4;
  TimeConstrainedSelector wav(portfolio(), OnlineSimulator(sim_config()), config);
  const SelectionResult rw = wav.select(events[0].queue, events[0].profile);
  EXPECT_EQ(rw.simulated(), 48u);
  EXPECT_DOUBLE_EQ(rw.total_cost_ms, 120.0);  // 12 waves x 10 ms
  // Per-policy scores still carry the per-candidate cost.
  for (const PolicyScore& s : rw.scores) EXPECT_DOUBLE_EQ(s.cost_ms, 10.0);
}

TEST(SelectorParallel, UnboundedWaveChargeIsPerWave) {
  // Unbounded, synthetic 10 ms: the whole 60-policy portfolio simulates in
  // ceil(60/4) = 15 waves -> 150 ms charged, vs 600 ms sequentially. The
  // score sequence itself is unchanged.
  const auto events = make_events(1, 0x60);
  SelectorConfig sequential;
  sequential.synthetic_overhead_ms = 10.0;
  sequential.use_measured_cost = false;
  SelectorConfig waved = sequential;
  waved.eval_threads = 4;

  TimeConstrainedSelector a(portfolio(), OnlineSimulator(sim_config()), sequential);
  TimeConstrainedSelector b(portfolio(), OnlineSimulator(sim_config()), waved);
  const SelectionResult ra = a.select(events[0].queue, events[0].profile);
  const SelectionResult rb = b.select(events[0].queue, events[0].profile);
  expect_identical(ra, rb, 0);
  EXPECT_DOUBLE_EQ(ra.total_cost_ms, 600.0);
  EXPECT_DOUBLE_EQ(rb.total_cost_ms, 150.0);
}

TEST(SelectorParallel, PartitionInvariantHoldsUnderWaves) {
  const auto events = make_events(25, 0x77);
  SelectorConfig config;
  config.time_constraint_ms = 200.0;
  config.synthetic_overhead_ms = 10.0;
  config.use_measured_cost = false;
  config.eval_threads = 4;
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), config);
  for (const ReplayEvent& event : events) {
    (void)s.select(event.queue, event.profile);
    EXPECT_EQ(s.smart().size() + s.stale().size() + s.poor().size(), 60u);
  }
}

TEST(SelectorParallel, SharedPoolMatchesOwnedPool) {
  // A selector driving waves on a borrowed pool (the engine-sweep sharing
  // path) must produce the same results as one owning its pool.
  const auto events = make_events(50, 0x99);
  SelectorConfig config;
  config.time_constraint_ms = 0.0;
  config.synthetic_overhead_ms = 0.0;
  config.use_measured_cost = false;
  config.eval_threads = 4;

  util::ThreadPool shared(3);
  TimeConstrainedSelector owned(portfolio(), OnlineSimulator(sim_config()), config);
  TimeConstrainedSelector borrowed(portfolio(), OnlineSimulator(sim_config()), config,
                                   &shared);
  for (std::size_t e = 0; e < events.size(); ++e) {
    const SelectionResult ra = owned.select(events[e].queue, events[e].profile);
    const SelectionResult rb = borrowed.select(events[e].queue, events[e].profile);
    expect_identical(ra, rb, e);
  }
}

TEST(SelectorParallel, SharedPoolLargerThanWidthMatchesOwnedPool) {
  // A shared pool with more workers than eval_threads (as in a multi-tenant
  // run) must still run each batch on at most eval_threads lanes: lanes
  // index the selector's arenas.
  const auto events = make_events(50, 0x4242);
  SelectorConfig config;
  config.time_constraint_ms = 0.0;
  config.synthetic_overhead_ms = 0.0;
  config.use_measured_cost = false;
  config.eval_threads = 2;

  util::ThreadPool shared(4);
  TimeConstrainedSelector owned(portfolio(), OnlineSimulator(sim_config()), config);
  TimeConstrainedSelector borrowed(portfolio(), OnlineSimulator(sim_config()), config,
                                   &shared);
  for (std::size_t e = 0; e < events.size(); ++e) {
    const SelectionResult ra = owned.select(events[e].queue, events[e].profile);
    const SelectionResult rb = borrowed.select(events[e].queue, events[e].profile);
    expect_identical(ra, rb, e);
  }
}

TEST(SelectorParallel, EngineRunIsIdenticalAcrossEvalThreads) {
  // End to end: a full cluster-simulation run with the portfolio scheduler
  // must produce identical engine metrics whether selector candidates are
  // evaluated sequentially or in waves of 4 (unbounded budget: the same
  // policies are simulated, in the same score order).
  const workload::Trace trace =
      workload::TraceGenerator(workload::kth_sp2_like(0.3)).generate(7).cleaned(64);
  const engine::EngineConfig config = engine::paper_engine_config();
  auto pconfig = engine::paper_portfolio_config(config);

  const engine::ScenarioResult seq = engine::run_portfolio(
      config, trace, portfolio(), pconfig, engine::PredictorKind::kPerfect);
  pconfig.selector.eval_threads = 4;
  const engine::ScenarioResult wav = engine::run_portfolio(
      config, trace, portfolio(), pconfig, engine::PredictorKind::kPerfect);

  expect_same_metrics(seq.run.metrics, wav.run.metrics);
  EXPECT_EQ(seq.portfolio.invocations, wav.portfolio.invocations);
  EXPECT_EQ(seq.portfolio.chosen_counts, wav.portfolio.chosen_counts);
}

TEST(SelectorParallel, FixedCountMatrixIsBitIdenticalAcrossWidths) {
  // The fixed-count budget mode's whole point: with Delta accounted as a
  // simulation count (no clock reads anywhere in the selection path), a
  // *bounded* budget must also reproduce bit-for-bit across eval_threads
  // widths — the wave fill is capped at ceil(remaining quota), so every
  // width simulates exactly the candidates the sequential algorithm would,
  // and the selector's RNG and Smart/Stale/Poor state end each round the
  // same. (Contrast the wallclock matrix above, which must run unbounded to
  // be width-independent.) 17 is deliberately not a multiple of any wave
  // width; 75 exceeds the 60-policy portfolio, so every set's quota exceeds
  // its size and Smart's and Stale's leftovers fold into the Poor quota.
  const auto events = make_events(200, 0xf1c5ed);
  for (const std::size_t fixed_count : {std::size_t{17}, std::size_t{75}}) {
    SelectorConfig base;
    base.budget_mode = BudgetMode::kFixedCount;
    base.fixed_count = fixed_count;

    std::vector<SelectionResult> reference;
    std::vector<util::StateDigest> reference_state(events.size());
    reference.reserve(events.size());
    TimeConstrainedSelector ref(portfolio(), OnlineSimulator(sim_config()), base);
    for (std::size_t e = 0; e < events.size(); ++e) {
      reference.push_back(ref.select(events[e].queue, events[e].profile));
      ref.capture_state(reference_state[e]);
    }

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      SelectorConfig config = base;
      config.eval_threads = threads;
      for (int repeat = 0; repeat < 2; ++repeat) {
        TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), config);
        for (std::size_t e = 0; e < events.size(); ++e) {
          SCOPED_TRACE(testing::Message() << "fixed_count=" << fixed_count
                                          << " threads=" << threads
                                          << " repeat=" << repeat);
          const SelectionResult r = s.select(events[e].queue, events[e].profile);
          expect_identical(reference[e], r, e);
          EXPECT_EQ(reference[e].total_cost_ms, r.total_cost_ms) << "event " << e;
          util::StateDigest state;
          s.capture_state(state);
          EXPECT_TRUE(state == reference_state[e]) << "event " << e;
        }
      }
    }
  }
}

TEST(SelectorParallel, FixedCountBudgetBuysExactlyThatManySimulations) {
  // First invocation, all 60 policies Smart: fixed_count = 12 must buy
  // exactly 12 unit-cost simulations — for the sequential selector and for
  // waves of 8 alike (8 + 4, capped by the remaining quota), unlike
  // wallclock waves where a wave charges once for all members.
  const auto events = make_events(1, 0xc0);
  SelectorConfig config;
  config.budget_mode = BudgetMode::kFixedCount;
  config.fixed_count = 12;

  for (const std::size_t threads : {1u, 8u}) {
    config.eval_threads = threads;
    TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), config);
    const SelectionResult r = s.select(events[0].queue, events[0].profile);
    EXPECT_EQ(r.simulated(), 12u) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.total_cost_ms, 12.0) << "threads=" << threads;
    for (const PolicyScore& score : r.scores) EXPECT_DOUBLE_EQ(score.cost_ms, 1.0);
  }
}

TEST(SelectorParallel, FixedCountZeroMeansUnbounded) {
  // fixed_count = 0 simulates the whole portfolio, mirroring Delta <= 0 in
  // wallclock mode; each candidate still charges one unit.
  const auto events = make_events(1, 0x00b);
  SelectorConfig config;
  config.budget_mode = BudgetMode::kFixedCount;
  config.fixed_count = 0;
  TimeConstrainedSelector s(portfolio(), OnlineSimulator(sim_config()), config);
  const SelectionResult r = s.select(events[0].queue, events[0].profile);
  EXPECT_EQ(r.simulated(), 60u);
  EXPECT_DOUBLE_EQ(r.total_cost_ms, 60.0);
}

TEST(SelectorParallel, ConcurrentSimulateMatchesSequential) {
  // The OnlineSimulator thread-safety contract (online_sim.hpp): concurrent
  // simulate() calls on one shared instance must race-free reproduce the
  // sequential outcomes. Run under -DPSCHED_SANITIZE=thread to let TSan
  // check the "race-free" half; the value checks hold everywhere.
  const auto events = make_events(1, 0x5afe);
  const OnlineSimulator simulator(sim_config());
  const auto& policies = portfolio().policies();

  std::vector<double> reference(policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    reference[i] =
        simulator.simulate(events[0].queue, events[0].profile, policies[i]).utility;
  }

  util::ThreadPool pool(8);
  constexpr std::size_t kRepeats = 4;
  std::vector<double> concurrent(policies.size() * kRepeats);
  pool.run_batch(concurrent.size(), pool.size() + 1, [&](std::size_t k, std::size_t) {
    const std::size_t i = k % policies.size();
    concurrent[k] =
        simulator.simulate(events[0].queue, events[0].profile, policies[i]).utility;
  });
  for (std::size_t k = 0; k < concurrent.size(); ++k) {
    EXPECT_EQ(concurrent[k], reference[k % policies.size()]) << "slot " << k;
  }
}

}  // namespace
}  // namespace psched::core
