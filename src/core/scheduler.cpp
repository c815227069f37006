#include "core/scheduler.hpp"

#include "util/assert.hpp"

namespace psched::core {

namespace {

/// Reflection hints fed to the selector per round (use_reflection_hints).
constexpr std::size_t kReflectionHints = 6;

}  // namespace

SinglePolicyScheduler::SinglePolicyScheduler(policy::PolicyTriple policy)
    : policy_(policy) {
  PSCHED_ASSERT(policy.provisioning && policy.job_selection && policy.vm_selection);
}

policy::PolicyTriple SinglePolicyScheduler::policy_for_tick(
    std::uint64_t /*tick*/, std::span<const policy::QueuedJob> /*queue*/,
    const cloud::CloudProfile& /*profile*/) {
  return policy_;
}

std::string SinglePolicyScheduler::name() const { return policy_.name(); }

PortfolioScheduler::PortfolioScheduler(const policy::Portfolio& portfolio,
                                       PortfolioSchedulerConfig config,
                                       util::ThreadPool* eval_pool)
    : portfolio_(portfolio),
      config_(config),
      selector_(portfolio, OnlineSimulator(config.online_sim), config.selector, eval_pool),
      reflection_(portfolio.size()),
      current_(portfolio.policies().front()) {
  PSCHED_ASSERT(config_.selection_period_ticks >= 1);
}

policy::PolicyTriple PortfolioScheduler::policy_for_tick(
    std::uint64_t tick, std::span<const policy::QueuedJob> queue,
    const cloud::CloudProfile& profile) {
  // An empty queue always defers selection to the next non-empty tick (the
  // previously selected policy keeps governing until then).
  if (queue.empty()) return current_;

  const WorkloadSignature signature = signature_of(queue, profile);
  bool due = false;
  if (config_.trigger == SelectionTrigger::kPeriodic) {
    due = tick >= next_selection_tick_;
  } else {
    due = !selected_once_ || signature != last_signature_ ||
          tick - last_selection_tick_ >= config_.max_stale_ticks;
  }
  if (due) {
    std::vector<std::size_t> hints;
    if (config_.use_reflection_hints) {
      hints = reflection_.top_for_context(signature_key(signature), kReflectionHints);
    }
    const SelectionResult result =
        selector_.select(queue, profile, current_index_, hints);
    reflection_.record(profile.now, result, signature_key(signature));
    current_index_ = result.best_index;
    current_ = portfolio_.policies()[result.best_index];
    next_selection_tick_ = tick + config_.selection_period_ticks;
    last_selection_tick_ = tick;
    last_signature_ = signature;
    selected_once_ = true;
  }
  return current_;
}

void PortfolioScheduler::capture_state(util::StateDigest& digest) const {
  digest.add_size("scheduler.current_index", current_index_);
  digest.add_u64("scheduler.next_selection_tick", next_selection_tick_);
  digest.add_bool("scheduler.selected_once", selected_once_);
  digest.add_u64("scheduler.last_selection_tick", last_selection_tick_);
  digest.add_u64("scheduler.last_signature", signature_key(last_signature_));
  selector_.capture_state(digest);
  reflection_.capture_digest(digest);
}

}  // namespace psched::core
