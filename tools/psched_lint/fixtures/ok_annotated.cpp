// Fixture: hazards neutralized by well-formed suppression annotations and
// the sorted-snapshot idiom. The self-test asserts this file lints clean.
#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>
#include <vector>

struct Tally {
  std::unordered_map<int, long> counts;
  std::unordered_set<int> seen;

  // A commutative fold over values: order genuinely cannot leak.
  long total() const {
    long sum = 0;
    // psched-lint: order-insensitive(integer sum over values is commutative)
    for (const auto& [key, count] : counts) sum += count;
    return sum;
  }

  // The snapshot is sorted before anything order-sensitive consumes it.
  std::vector<int> sorted_ids() const {
    // psched-lint: order-insensitive(snapshot is sorted on the next line)
    std::vector<int> ids(seen.begin(), seen.end());
    std::sort(ids.begin(), ids.end());
    return ids;
  }
};

// A harness measuring real elapsed time, explicitly acknowledged.
double measure_harness_seconds() {
  // psched-lint: suppress(D1) this fixture models a bench harness measuring wall time
  const auto start = std::chrono::steady_clock::now();
  // psched-lint: suppress(D1) end of the same measurement
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

// Exact comparison acknowledged: comparing against a sentinel that is
// assigned, never computed.
bool is_unset(double value) {
  // psched-lint: suppress(D4) -1.0 is an assigned sentinel, never arithmetic
  return value == -1.0;
}
