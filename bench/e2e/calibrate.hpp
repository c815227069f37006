#pragma once
// Host speed for psched-e2e (README.md, "Noise and bounds"). A shared host
// runs this machine's vCPUs at a speed that swings by up to 2x, in bursts
// from a tenth of a second to many minutes. The benchmark runs a fixed
// reference computation of its own between repetitions, and scales its
// timings by how fast that ran, so that they read as seconds on this
// machine at a typical speed. The reference is the benchmark's own code,
// never the library's: a change to the library cannot move it.

#include <cstddef>

namespace psched::e2e {

class HostSpeed {
 public:
  /// Run the reference computation for at least `seconds` (one call at
  /// least), adding to the totals.
  void sample(double seconds);

  /// Seconds one reference call took, on average over every sample so far.
  [[nodiscard]] double reference_s() const;

  /// kNominalReferenceS / reference_s(): how much faster than measured a
  /// duration runs at the typical speed. 1 before any sample.
  [[nodiscard]] double scale() const;

  /// False when a reference call computed a different checksum: the
  /// reference is deterministic, so the machine or the build is broken.
  [[nodiscard]] bool consistent() const { return consistent_; }

 private:
  double busy_s_ = 0.0;
  std::size_t calls_ = 0;
  bool consistent_ = true;
};

}  // namespace psched::e2e
