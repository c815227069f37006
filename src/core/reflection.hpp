#pragma once
// The reflection database of the abstract scheduling model (paper §2): it
// keeps the aggregates of every selection outcome — which policies were
// chosen how often (Figure 5), how many selection processes ran (Figure 9d),
// what the selection overhead was, and which policies won under each
// workload context. Per-round records are the observability Recorder's
// (obs::Recorder::rounds(), at ObsLevel::kCounters and above).

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/selector.hpp"

namespace psched::core {

class ReflectionStore {
 public:
  /// `portfolio_size` sizes the per-policy counters.
  explicit ReflectionStore(std::size_t portfolio_size);

  /// Record a selection outcome; `context` tags it with the workload
  /// signature it was made under (0 = untagged).
  void record(const SelectionResult& result, std::uint64_t context = 0);

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

  /// Determinism probe (DESIGN.md §7.5): fold the deterministic reflection
  /// state — invocation counters, per-policy chosen counts, and the
  /// per-context win tables that feed reflection hints — into `digest`.
  /// Wall-clock cost totals are excluded (psched-lint D1): they vary run to
  /// run in measured mode and are derived state in deterministic modes.
  void capture_digest(util::StateDigest& digest) const;

 private:
  std::size_t invocations_ = 0;
  double total_cost_ms_ = 0.0;
  std::size_t total_simulated_ = 0;
  std::vector<std::size_t> chosen_counts_;
  // context key -> (policy index -> times chosen under that context)
  std::unordered_map<std::uint64_t, std::unordered_map<std::size_t, std::size_t>>
      context_wins_;
};

}  // namespace psched::core
