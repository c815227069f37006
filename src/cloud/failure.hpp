#pragma once
// Deterministic cloud-failure model (DESIGN.md §10).
//
// Real IaaS clouds violate three assumptions the paper's provider makes:
// VMs do not always boot, booted VMs do not always survive to release, and
// the provisioning API is not always up. `FailureModel` injects all three —
// boot failures (Bernoulli per granted VM), mid-lease crashes (exponential
// MTBF per VM), and provider API outage windows (exponential gaps between
// fixed-length windows) — from independent named-seed streams, so enabling
// or re-parameterizing one failure class never perturbs the draws of
// another (psched-lint D3 idiom: every stream's seed is derived from the
// config seed plus the class name; we use util::Rng, the repo-wide
// deterministic engine, rather than mt19937 so sequences are identical
// across standard libraries).
//
// The model is pure decision logic: it draws outcomes, the `CloudProvider`
// applies them, and the engine supplies resilience (retry/backoff on
// rejected leases, bounded job resubmission after crashes). With every rate
// at zero `FailureConfig::enabled()` is false and the engine never
// constructs a model — failure-off runs are provably bit-identical to a
// build without this header.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/rng.hpp"
#include "util/state_digest.hpp"
#include "util/types.hpp"

namespace psched::cloud {

/// Failure-injection rates. All-zero (the default) means "failures off";
/// see `enabled()`.
struct FailureConfig {
  /// Probability that a granted VM's boot fails: the VM never reaches
  /// kIdle, and its lease is still charged (ceil-hour) when it is reaped at
  /// boot-complete time. 0 disables boot failures. Requires boot_delay > 0
  /// to observe (with instant boot there is no boot phase to fail).
  double p_boot_fail = 0.0;
  /// Mean time between failures for a leased VM, in sim seconds: each VM
  /// draws an exponential crash time at lease. A crash kills the job slice
  /// running on the VM and terminates (and charges) the lease. 0 disables
  /// crashes.
  SimDuration vm_mtbf_seconds = 0.0;
  /// Mean gap between provider API outage windows, in sim seconds
  /// (exponential). During a window every lease/release API call is
  /// rejected. 0 disables outages.
  SimDuration api_outage_gap_seconds = 0.0;
  /// Fixed length of each outage window, in sim seconds.
  SimDuration api_outage_duration_seconds = 300.0;
  /// Root seed for the named failure streams ("boot", "crash", "outage";
  /// the engine derives "backoff" from the same root).
  std::uint64_t seed = 0xfa1fa1;

  /// True when any failure class is active. False (the default) makes the
  /// whole layer a no-op: the engine skips model construction entirely.
  [[nodiscard]] bool enabled() const noexcept {
    return p_boot_fail > 0.0 || vm_mtbf_seconds > 0.0 ||
           api_outage_gap_seconds > 0.0;
  }
};

/// Scheduler-side resilience knobs, consulted only when the failure model
/// is enabled (they have no effect — and no draws — otherwise).
struct ResilienceConfig {
  /// First retry delay after a rejected lease call, in sim seconds.
  SimDuration retry_backoff_base = 40.0;
  /// Backoff delays double per consecutive rejection up to this cap.
  SimDuration retry_backoff_cap = 640.0;
  /// Deterministic jitter: each delay is stretched by a factor in
  /// [1, 1 + retry_jitter) drawn from the "backoff" stream. 0 disables.
  double retry_jitter = 0.25;
  /// How many times a crash-killed job is re-queued before it is dropped
  /// for good (counted as killed-final). 0 means the first kill is final.
  std::size_t max_resubmits = 3;
};

/// Which provider API call a failure decision applies to.
enum class FailureOp {
  kLease,
  kRelease,
};

[[nodiscard]] const char* to_string(FailureOp op) noexcept;

/// Derive the seed of a named stream from a root seed: FNV-1a over the
/// stream name, mixed into the root. Stable across platforms; exposed so
/// tests can pin stream independence and the engine can derive its
/// "backoff" stream from the same root the model uses. Stream names are
/// registered once in util/seed_streams.hpp; psched-lint rule D5 rejects
/// call sites that pass an unregistered name (a silent name collision
/// would correlate two "independent" streams without failing any test).
[[nodiscard]] std::uint64_t derive_stream_seed(std::uint64_t root,
                                               std::string_view name) noexcept;

/// Draws failure outcomes from independent named-seed streams. Mutable
/// (every query advances a stream); single-threaded by design — the engine
/// event loop owns it (PSCHED_CONFINED_TO: coordinating thread).
class FailureModel {
 public:
  explicit FailureModel(const FailureConfig& config);

  [[nodiscard]] const FailureConfig& config() const noexcept { return config_; }

  /// Draw the boot outcome for one granted VM ("boot" stream). Always
  /// advances the stream when p_boot_fail > 0.
  [[nodiscard]] bool boot_fails();

  /// Draw a crash delay (sim seconds from lease) for one granted VM
  /// ("crash" stream); kTimeNever when crashes are disabled.
  [[nodiscard]] SimDuration crash_delay();

  /// Whether the provider API is inside an outage window at `now`
  /// ("outage" stream). Queries must be non-decreasing in `now` (the
  /// engine only asks at event times, which are monotone): windows are
  /// materialized lazily and never rewound.
  [[nodiscard]] bool api_blocked(SimTime now);

  /// Determinism probe (DESIGN.md §7.5): fold every stream position and the
  /// materialized outage window into `digest`, bit-exactly.
  void capture_digest(util::StateDigest& digest) const {
    digest.add_u64("failure.boot_rng", boot_rng_.state());
    digest.add_u64("failure.crash_rng", crash_rng_.state());
    digest.add_u64("failure.outage_rng", outage_rng_.state());
    digest.add_double("failure.outage_start", outage_start_);
    digest.add_double("failure.outage_end", outage_end_);
  }

 private:
  FailureConfig config_;
  util::Rng boot_rng_;
  util::Rng crash_rng_;
  util::Rng outage_rng_;
  SimTime outage_start_ = kTimeNever;  ///< current/next window [start, end)
  SimTime outage_end_ = kTimeNever;
};

/// Capped exponential backoff with deterministic jitter, advanced in sim
/// time: delay(n) = min(base * 2^n, cap) * (1 + jitter * U[0,1)). The
/// jitter stream is seeded once, so a fixed seed reproduces the exact
/// delay sequence (unit-tested). The exponential saturates: the number of
/// doublings is clamped to the point where the cap is reached (precomputed
/// at construction), and the attempt counter itself saturates rather than
/// wrapping, so arbitrarily long rejection storms keep returning the capped
/// delay in O(1) instead of walking — or overflowing — the exponent.
class BackoffSchedule {
 public:
  BackoffSchedule() : BackoffSchedule(ResilienceConfig{}, 0) {}
  BackoffSchedule(const ResilienceConfig& config, std::uint64_t seed)
      : base_(config.retry_backoff_base),
        cap_(config.retry_backoff_cap),
        jitter_(config.retry_jitter),
        rng_(seed),
        max_doublings_(doublings_to_cap(base_, cap_)) {}

  /// Next delay in sim seconds; advances the attempt counter.
  [[nodiscard]] SimDuration next();

  /// Back to the base delay (call after a successful attempt).
  void reset() noexcept { attempts_ = 0; }

  /// Consecutive failed attempts since the last reset(). Saturates at
  /// SIZE_MAX instead of wrapping back to the base delay.
  [[nodiscard]] std::size_t attempts() const noexcept { return attempts_; }

  /// Determinism probe: the jitter stream position plus the attempt
  /// counter are the schedule's whole mutable state.
  void capture_digest(util::StateDigest& digest) const {
    digest.add_u64("backoff.rng", rng_.state());
    digest.add_size("backoff.attempts", attempts_);
  }

 private:
  /// Doublings must give out by the time the mantissa-exponent budget does.
  static constexpr std::size_t kMaxDoublings = 64;

  /// Smallest number of doublings that carries `base` to `cap` (or the
  /// overflow/progress bound), computed once so next() is O(1).
  [[nodiscard]] static std::size_t doublings_to_cap(SimDuration base,
                                                    SimDuration cap) noexcept;

  SimDuration base_;
  SimDuration cap_;
  double jitter_;
  util::Rng rng_;
  std::size_t max_doublings_ = 0;
  std::size_t attempts_ = 0;
};

}  // namespace psched::cloud
