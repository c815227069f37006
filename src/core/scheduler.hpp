#pragma once
// Scheduler front-ends for the experiment engine. The engine calls
// policy_for_tick() on every scheduling period; a SinglePolicyScheduler
// always answers the same policy (the paper's constituent-policy baselines),
// while the PortfolioScheduler re-runs the time-constrained selection every
// `selection_period_ticks` ticks (paper default: every tick = every 20 s).

#include <memory>
#include <span>
#include <string>

#include "cloud/profile.hpp"
#include "core/reflection.hpp"
#include "core/selector.hpp"
#include "core/trigger.hpp"
#include "policy/portfolio.hpp"
#include "util/state_digest.hpp"

namespace psched::core {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// The policy governing this scheduling tick. `tick` counts scheduling
  /// periods from 0; the queue carries predicted runtimes.
  ///
  /// Profile contract: with a non-empty queue `profile.vms` lists every
  /// leased VM. With an empty queue the engine skips its fleet pass, so
  /// `profile.vms` is empty; `now`, the caps and the market view are still
  /// current. An implementation must therefore not read `profile.vms` when
  /// `queue` is empty (every scheduler in the tree returns at once then).
  [[nodiscard]] virtual policy::PolicyTriple policy_for_tick(
      std::uint64_t tick, std::span<const policy::QueuedJob> queue,
      const cloud::CloudProfile& profile) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Attach an observability recorder (borrowed; null = unobserved). The
  /// base implementation ignores it; the portfolio scheduler forwards it to
  /// its selector for round telemetry and candidate trace spans.
  virtual void set_recorder(obs::Recorder* /*recorder*/) {}

  /// Determinism probe (DESIGN.md §7.5): fold the scheduler's cross-tick
  /// mutable state into `digest`, bit-exactly. The base implementation is a
  /// no-op — a fixed policy carries no state; the portfolio scheduler folds
  /// its selection cadence, selector partition, and RNG position.
  virtual void capture_state(util::StateDigest& /*digest*/) const {}
};

/// Applies one fixed policy forever.
class SinglePolicyScheduler final : public Scheduler {
 public:
  explicit SinglePolicyScheduler(policy::PolicyTriple policy);

  [[nodiscard]] policy::PolicyTriple policy_for_tick(
      std::uint64_t tick, std::span<const policy::QueuedJob> queue,
      const cloud::CloudProfile& profile) override;
  [[nodiscard]] std::string name() const override;

 private:
  policy::PolicyTriple policy_;
};

/// When the selection process re-runs.
enum class SelectionTrigger {
  /// Every `selection_period_ticks` scheduling ticks (the paper's mode;
  /// Figure 9 sweeps the period).
  kPeriodic,
  /// Only when the workload signature changes (the paper's future-work
  /// item #2), with `max_stale_ticks` as a staleness safety net.
  kOnChange,
};

struct PortfolioSchedulerConfig {
  SelectorConfig selector;
  OnlineSimConfig online_sim;
  /// Selection runs every this many scheduling ticks (paper Figure 9 sweeps
  /// 1..16). Selection is skipped while the queue is empty and retried at
  /// the next non-empty tick.
  std::uint64_t selection_period_ticks = 1;
  SelectionTrigger trigger = SelectionTrigger::kPeriodic;
  /// kOnChange: re-select at the latest after this many ticks even if the
  /// workload signature has not changed.
  std::uint64_t max_stale_ticks = 32;
  /// The paper's reflection step (future-work item #1): feed up to six
  /// policies that historically won under the current workload signature
  /// to the selector as front-of-Smart hints. Matters under tight time
  /// budgets.
  bool use_reflection_hints = false;
};

class PortfolioScheduler final : public Scheduler {
 public:
  /// Borrows `portfolio` (must outlive the scheduler). `eval_pool`
  /// (optional, borrowed) is forwarded to the selector for wave-parallel
  /// candidate evaluation when `config.selector.eval_threads > 1`; a
  /// multi-tenant run shares one pool between its tenant waves and every
  /// tenant's selector waves so the machine is not oversubscribed (see
  /// DESIGN.md §6).
  PortfolioScheduler(const policy::Portfolio& portfolio, PortfolioSchedulerConfig config,
                     util::ThreadPool* eval_pool = nullptr);

  [[nodiscard]] policy::PolicyTriple policy_for_tick(
      std::uint64_t tick, std::span<const policy::QueuedJob> queue,
      const cloud::CloudProfile& profile) override;
  [[nodiscard]] std::string name() const override { return "portfolio"; }

  [[nodiscard]] const ReflectionStore& reflection() const noexcept { return reflection_; }
  [[nodiscard]] const TimeConstrainedSelector& selector() const noexcept {
    return selector_;
  }
  [[nodiscard]] const policy::Portfolio& portfolio() const noexcept { return portfolio_; }

  void set_recorder(obs::Recorder* recorder) override {
    selector_.set_recorder(recorder);
  }

  void capture_state(util::StateDigest& digest) const override;

 private:
  const policy::Portfolio& portfolio_;
  PortfolioSchedulerConfig config_;
  TimeConstrainedSelector selector_;
  ReflectionStore reflection_;
  policy::PolicyTriple current_;
  std::size_t current_index_ = 0;
  std::uint64_t next_selection_tick_ = 0;
  bool selected_once_ = false;
  std::uint64_t last_selection_tick_ = 0;
  WorkloadSignature last_signature_;
};

}  // namespace psched::core
