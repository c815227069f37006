#pragma once
// Property-based fuzz harness: run randomized workloads through full engine
// experiments with the InvariantChecker attached (record mode) and report
// the first violating seed, after shrinking its trace to a smaller
// still-violating prefix.
//
// Each seed deterministically derives one scenario — archetype, horizon,
// provider shape (small caps so the cap invariant is exercised, nonzero
// boot delays, three billing quanta), release rule, allocation mode,
// predictor, and policy (a random constituent triple; every fifth seed runs
// the full portfolio scheduler instead). On top of that shape, every third
// seed draws a FailureConfig (boot failures, VM MTBF, API outages), every
// third seed offset from those a PricingConfig (VM families, spot market
// with revocations, price schedule/walk, reserved commitments) and every
// fourth seed a multi-tenant mix (2-4 tenants sharing the cap), so the
// resilience, pricing and arbitration invariants run under the checker
// too. Seed i of a run is `base_seed + i`, so a failure report like
// "seed 17" reproduces with `psched_fuzz --seeds 1 --base-seed 17`.
//
// The harness doubles as the validation subsystem's self-test: with
// FuzzConfig::inject_fault set, every scenario's provider misbehaves in a
// known way and the harness must *fail* — the suite asserts that each
// seeded fault is caught (see tests/validate/fuzz_harness_test.cpp).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "validate/invariant_checker.hpp"

namespace psched::validate {

struct FuzzConfig {
  std::uint64_t base_seed = 1;     ///< scenario i uses seed base_seed + i
  std::size_t num_seeds = 50;
  /// Wall-clock budget; 0 = unlimited. When the cap is hit the report is
  /// marked timed_out and seeds_run tells how far the run got — a capped
  /// clean run is still a pass over the seeds it covered.
  double time_cap_seconds = 0.0;
  /// Self-test mutation applied to every scenario's provider.
  FaultInjection inject_fault = FaultInjection::kNone;
  bool shrink = true;              ///< shrink the first failing trace
  std::size_t max_jobs = 160;      ///< per-scenario job cap (keeps seeds fast)
};

/// The first violating seed, with its (possibly shrunk) instance size and
/// the recorded violations.
struct FuzzFailure {
  std::uint64_t seed = 0;
  std::size_t jobs = 0;            ///< jobs in the shrunk failing instance
  std::size_t original_jobs = 0;   ///< jobs before shrinking
  std::string scenario;            ///< human-readable scenario description
  std::vector<Violation> violations;
};

struct FuzzReport {
  std::size_t seeds_requested = 0;
  std::size_t seeds_run = 0;
  std::uint64_t total_checks = 0;  ///< invariant checks across all seeds
  bool timed_out = false;          ///< time cap hit before all seeds ran
  std::optional<FuzzFailure> failure;
  [[nodiscard]] bool pass() const noexcept { return !failure.has_value(); }
};

/// Run the harness. Deterministic given the config (wall-clock cap aside).
[[nodiscard]] FuzzReport run_fuzz(const FuzzConfig& config);

}  // namespace psched::validate
