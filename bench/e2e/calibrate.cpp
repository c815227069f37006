#include "calibrate.hpp"

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "layers.hpp"

namespace psched::e2e {

namespace {

/// Seconds one reference call takes on the 4-vCPU VM of README.md's
/// numbers: the median of 422 samples over 20 minutes (README.md, "Noise
/// and bounds"). Scaled timings read as seconds on that VM at that speed.
constexpr double kNominalReferenceS = 0.002;

/// A fixed piece of work shaped like the simulator's inner loops: an event
/// heap, a first-fit scan over 256 four-core machines and a FIFO queue of
/// waiting jobs, at about 80 % load. Returns a checksum of its decisions.
std::uint64_t reference_call() {
  constexpr std::size_t kMachines = 256;
  constexpr std::uint32_t kCores = 4;
  constexpr int kJobs = 12'000;
  struct Finish {
    std::uint64_t time;
    std::uint32_t machine;
    std::uint32_t cores;
    bool operator>(const Finish& other) const { return time > other.time; }
  };
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint32_t> free_cores(kMachines, kCores);
  std::priority_queue<Finish, std::vector<Finish>, std::greater<>> running;
  std::deque<std::uint32_t> waiting;
  std::uint64_t now = 0;
  std::uint64_t checksum = 0;
  for (int job = 0; job < kJobs; ++job) {
    now += next() % 64;
    while (!running.empty() && running.top().time <= now) {
      free_cores[running.top().machine] += running.top().cores;
      running.pop();
    }
    waiting.push_back(1 + static_cast<std::uint32_t>(next() % kCores));
    while (!waiting.empty()) {
      const std::uint32_t cores = waiting.front();
      std::size_t m = 0;
      while (m < kMachines && free_cores[m] < cores) ++m;
      if (m == kMachines) break;
      free_cores[m] -= cores;
      running.push({now + 1 + next() % 21'000, static_cast<std::uint32_t>(m), cores});
      waiting.pop_front();
      checksum = checksum * 31 + m;
    }
  }
  return checksum + running.size() + waiting.size();
}

}  // namespace

void HostSpeed::sample(double seconds) {
  static const std::uint64_t expected = reference_call();
  const double start = now_s();
  double elapsed = 0.0;
  do {
    consistent_ = reference_call() == expected && consistent_;
    ++calls_;
    elapsed = now_s() - start;
  } while (elapsed < seconds);
  busy_s_ += elapsed;
}

double HostSpeed::reference_s() const {
  return calls_ == 0 ? kNominalReferenceS : busy_s_ / static_cast<double>(calls_);
}

double HostSpeed::scale() const { return kNominalReferenceS / reference_s(); }

}  // namespace psched::e2e
