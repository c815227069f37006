#include "core/reflection.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace psched::core {

ReflectionStore::ReflectionStore(std::size_t portfolio_size)
    : chosen_counts_(portfolio_size, 0) {
  PSCHED_ASSERT(portfolio_size > 0);
}

void ReflectionStore::record(const SelectionResult& result, std::uint64_t context) {
  PSCHED_ASSERT(result.best_index < chosen_counts_.size());
  ++invocations_;
  ++chosen_counts_[result.best_index];
  total_cost_ms_ += result.total_cost_ms;
  total_simulated_ += result.simulated();
  if (context != 0) ++context_wins_[context][result.best_index];
}

std::vector<std::size_t> ReflectionStore::top_for_context(std::uint64_t context,
                                                          std::size_t k) const {
  const auto it = context_wins_.find(context);
  if (it == context_wins_.end()) return {};
  std::vector<std::pair<std::size_t, std::size_t>> wins(it->second.begin(),
                                                        it->second.end());
  std::sort(wins.begin(), wins.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<std::size_t> top;
  for (std::size_t i = 0; i < wins.size() && i < k; ++i) top.push_back(wins[i].first);
  return top;
}

std::vector<double> ReflectionStore::invocation_ratios() const {
  std::vector<double> ratios(chosen_counts_.size(), 0.0);
  if (invocations_ == 0) return ratios;
  for (std::size_t i = 0; i < chosen_counts_.size(); ++i)
    ratios[i] = static_cast<double>(chosen_counts_[i]) /
                static_cast<double>(invocations_);
  return ratios;
}

void ReflectionStore::capture_digest(util::StateDigest& digest) const {
  digest.add_size("reflection.invocations", invocations_);
  digest.add_size("reflection.total_simulated", total_simulated_);
  std::uint64_t chosen = 0;
  for (const std::size_t c : chosen_counts_)
    chosen = util::digest_mix(chosen, static_cast<std::uint64_t>(c));
  digest.add_u64("reflection.chosen_counts", chosen);
  util::UnorderedFold contexts;
  // psched-lint: order-insensitive(UnorderedFold is commutative)
  for (const auto& [context, wins] : context_wins_) {
    util::UnorderedFold inner;
    // psched-lint: order-insensitive(UnorderedFold is commutative)
    for (const auto& [policy, count] : wins) {
      inner.absorb(util::digest_mix(util::digest_mix(0, static_cast<std::uint64_t>(policy)),
                                    static_cast<std::uint64_t>(count)));
    }
    contexts.absorb(util::digest_mix(util::digest_mix(0, context), inner.value()));
  }
  digest.add_fold("reflection.context_wins", contexts);
}

double ReflectionStore::mean_simulated_per_invocation() const noexcept {
  return invocations_ ? static_cast<double>(total_simulated_) /
                            static_cast<double>(invocations_)
                      : 0.0;
}

}  // namespace psched::core
