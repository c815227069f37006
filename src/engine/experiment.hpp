#pragma once
// Experiment-level helpers shared by benches, examples, and integration
// tests: construct predictor/scheduler stacks, run one (trace, scheduler)
// scenario, and sweep many scenarios across a thread pool.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/cluster_sim.hpp"
#include "obs/report.hpp"
#include "predict/suite.hpp"
#include "predict/tsafrir.hpp"
#include "util/thread_pool.hpp"

namespace psched::engine {

/// The three information regimes of the paper's evaluation (Section 6.3),
/// plus the extended predictor suite (predict/suite.hpp).
enum class PredictorKind {
  kPerfect,       ///< accurate runtimes (Figure 4)
  kTsafrir,       ///< system-generated k-NN predictions, k=2 (Figure 7)
  kUserEstimate,  ///< raw user estimates (Figure 8)
  kLastRuntime,   ///< user's last completed runtime (k-NN, k=1)
  kRunningMean,   ///< user's all-time mean runtime
  kEwma,          ///< exponentially weighted moving average (alpha=0.5)
};

[[nodiscard]] std::string to_string(PredictorKind kind);
[[nodiscard]] std::unique_ptr<predict::RuntimePredictor> make_predictor(PredictorKind kind);

struct ScenarioResult {
  RunResult run;
  bool is_portfolio = false;
  metrics::PortfolioStats portfolio;  ///< valid iff is_portfolio
};

/// A portfolio scheduler's reflection totals, as a run reports them.
[[nodiscard]] metrics::PortfolioStats portfolio_stats(
    const core::ReflectionStore& reflection);

/// Run one fixed constituent policy over a trace. `recorder` (optional,
/// borrowed) observes the run; see ClusterSimulation.
[[nodiscard]] ScenarioResult run_single_policy(const EngineConfig& config,
                                               const workload::Trace& trace,
                                               policy::PolicyTriple triple,
                                               PredictorKind predictor,
                                               obs::Recorder* recorder = nullptr);

/// Run the portfolio scheduler over a trace. `eval_pool` (optional,
/// borrowed) hosts the selector's wave-parallel candidate evaluation when
/// `pconfig.selector.eval_threads > 1`; without one the selector owns a
/// pool of eval_threads - 1 workers.
/// `recorder` (optional, borrowed) additionally captures per-round
/// selection telemetry through the scheduler's selector.
[[nodiscard]] ScenarioResult run_portfolio(const EngineConfig& config,
                                           const workload::Trace& trace,
                                           const policy::Portfolio& portfolio,
                                           const core::PortfolioSchedulerConfig& pconfig,
                                           PredictorKind predictor,
                                           util::ThreadPool* eval_pool = nullptr,
                                           obs::Recorder* recorder = nullptr);

/// Assemble obs::RunReportInputs from a finished scenario (the glue between
/// engine results and the report writer in obs/report.hpp).
[[nodiscard]] obs::RunReportInputs report_inputs(const ScenarioResult& result,
                                                 const EngineConfig& config);

/// Run `tasks` scenario thunks on `threads` threads (0 = hardware
/// concurrency): the caller plus a private pool of threads - 1 workers, in
/// one run_batch. Results keep task order. Each task owns its engine:
/// engines are thread-compatible (one engine per thread, no shared mutable
/// state). The sweep's pool is private, so a task that runs a portfolio
/// with eval_threads > 1 gets its own selector pool.
[[nodiscard]] std::vector<ScenarioResult> run_parallel(
    const std::vector<std::function<ScenarioResult()>>& tasks, std::size_t threads = 0);

/// Default engine configuration matching the paper's setup: 256 VMs,
/// 120 s boot delay, 20 s scheduling period, 10 s slowdown bound,
/// U(kappa=100, alpha=1, beta=1).
[[nodiscard]] EngineConfig paper_engine_config();

/// Default portfolio scheduler configuration matching the engine config:
/// unbounded selection budget, lambda=0.6, selection every tick.
[[nodiscard]] core::PortfolioSchedulerConfig paper_portfolio_config(
    const EngineConfig& engine);

}  // namespace psched::engine
