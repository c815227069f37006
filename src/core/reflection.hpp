#pragma once
// The reflection database of the abstract scheduling model (paper §2): every
// selection outcome is recorded so the scheduler's behaviour can be analyzed
// afterwards — which policies were chosen how often (Figure 5), how many
// selection processes ran (Figure 9d), and what the selection overhead was.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/selector.hpp"
#include "util/types.hpp"

namespace psched::core {

/// One recorded selection event.
struct SelectionRecord {
  SimTime when = 0.0;
  std::size_t chosen = 0;      ///< portfolio index of the applied policy
  double utility = 0.0;        ///< its simulated utility
  std::size_t simulated = 0;   ///< |Q| — policies evaluated this round
  double cost_ms = 0.0;        ///< budget consumed
  std::uint64_t context = 0;   ///< workload-signature key (see core/trigger.hpp)
};

class ReflectionStore {
 public:
  /// `portfolio_size` sizes the per-policy counters; `keep_history` bounds
  /// the stored record list (0 = keep everything).
  explicit ReflectionStore(std::size_t portfolio_size, std::size_t max_history = 0);

  /// Record a selection outcome; `context` tags it with the workload
  /// signature it was made under (0 = untagged).
  void record(SimTime when, const SelectionResult& result, std::uint64_t context = 0);

  /// The paper's reflection step: policies that historically won selections
  /// under workload context `context`, best first, at most `k`. Empty when
  /// the context has never been seen.
  [[nodiscard]] std::vector<std::size_t> top_for_context(std::uint64_t context,
                                                         std::size_t k) const;

  /// Number of selection processes run.
  [[nodiscard]] std::size_t invocations() const noexcept { return invocations_; }

  /// How often each policy was chosen (indexed like Portfolio::policies()).
  [[nodiscard]] const std::vector<std::size_t>& chosen_counts() const noexcept {
    return chosen_counts_;
  }

  /// chosen_counts normalized to fractions summing to 1 (all zeros when no
  /// selection has run) — the Figure-5 "ratio of invocations".
  [[nodiscard]] std::vector<double> invocation_ratios() const;

  /// Total and mean per-invocation selection cost (budget units, ms).
  [[nodiscard]] double total_cost_ms() const noexcept { return total_cost_ms_; }
  [[nodiscard]] double mean_simulated_per_invocation() const noexcept;

  [[nodiscard]] const std::vector<SelectionRecord>& history() const noexcept {
    return history_;
  }

  /// Determinism probe (DESIGN.md §7.5): fold the deterministic reflection
  /// state — invocation counters, per-policy chosen counts, and the
  /// per-context win tables that feed reflection hints — into `digest`.
  /// Wall-clock cost totals are excluded (psched-lint D1): they vary run to
  /// run in measured mode and are derived state in deterministic modes.
  void capture_digest(util::StateDigest& digest) const;

 private:
  std::size_t max_history_;
  std::size_t invocations_ = 0;
  double total_cost_ms_ = 0.0;
  std::size_t total_simulated_ = 0;
  std::vector<std::size_t> chosen_counts_;
  std::vector<SelectionRecord> history_;
  // context key -> (policy index -> times chosen under that context)
  std::unordered_map<std::uint64_t, std::unordered_map<std::size_t, std::size_t>>
      context_wins_;
};

}  // namespace psched::core
