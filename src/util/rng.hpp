#pragma once
// Deterministic random-number generation.
//
// We deliberately avoid <random>'s distribution objects: their output
// sequences are implementation-defined, which would make experiment results
// differ across standard libraries. The engine is SplitMix64 (Steele et al.,
// "Fast splittable pseudorandom number generators", OOPSLA'14), and every
// distribution below is implemented directly so a given seed reproduces the
// exact same trace everywhere.

#include <cstdint>
#include <vector>

namespace psched::util {

/// SplitMix64 engine. Passes BigCrush; 2^64 period; trivially splittable,
/// which we use to derive independent per-component streams from one seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next_u64() noexcept;

  /// Derive an independent child stream (stable: same parent state + same
  /// call order -> same child). Advances this stream once.
  [[nodiscard]] Rng split() noexcept { return Rng(next_u64() ^ 0x9e3779b97f4a7c15ULL); }

  /// Uniform in [0, 1).
  double uniform() noexcept;

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept;

  /// Exponential with rate lambda (mean 1/lambda).
  double exponential(double lambda) noexcept;

  /// Standard normal via Box-Muller (deterministic variant, no caching).
  double normal(double mean = 0.0, double stddev = 1.0) noexcept;

  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// Weibull with shape k and scale lambda.
  double weibull(double shape, double scale) noexcept;

  /// Pareto (bounded): inverse-CDF sampling in [lo, hi] with tail index alpha.
  double bounded_pareto(double alpha, double lo, double hi) noexcept;

  /// Zipf-distributed rank in [1, n] with exponent s (rejection-inversion,
  /// W. Hormann & G. Derflinger). Used for user-activity skew.
  std::int64_t zipf(std::int64_t n, double s) noexcept;

  /// Sample an index in [0, weights.size()) proportionally to weights.
  /// Weights need not be normalized; requires at least one positive weight.
  std::size_t weighted_index(const std::vector<double>& weights) noexcept;

  /// Current stream position (the whole engine state is one word). Exposed
  /// for state digests (util/state_digest.hpp): two Rngs with equal
  /// state produce identical draw sequences forever.
  [[nodiscard]] std::uint64_t state() const noexcept { return state_; }

 private:
  std::uint64_t state_;
};

}  // namespace psched::util
