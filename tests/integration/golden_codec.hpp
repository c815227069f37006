#pragma once
// Golden metric snapshots shared by the golden-trace suites (golden_test,
// failure_golden_test, pricing_golden_test, tenant_golden_test). Each suite
// turns its scenario's result into a Golden with its own collect(); this
// header owns the file format, the regeneration switch and the comparison.
//
// File format: tests/integration/golden/<name>.txt, one `key = value` line
// per metric (12 significant digits), '#' comments ignored.
//
// After an INTENTIONAL behavior change, regenerate the snapshots:
//   PSCHED_UPDATE_GOLDEN=1 ./tests/<suite> && git diff tests/integration/golden
// and commit the diff together with the change that explains it.
//
// Needs PSCHED_GOLDEN_DIR, which tests/CMakeLists.txt defines per suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace psched::golden {

using Golden = std::map<std::string, double>;

/// Relative tolerance for golden comparisons. The runs are deterministic, so
/// this only absorbs the 12-digit formatting round-trip, not behavior drift.
inline constexpr double kRelTol = 1e-9;

inline std::string golden_path(const std::string& name) {
  return std::string(PSCHED_GOLDEN_DIR) + "/" + name + ".txt";
}

inline void write_golden(const std::string& name, const Golden& golden) {
  std::ofstream out(golden_path(name));
  ASSERT_TRUE(out.good()) << "cannot write " << golden_path(name);
  out << "# golden metrics: " << name << " (regenerate: PSCHED_UPDATE_GOLDEN=1)\n";
  for (const auto& [key, value] : golden) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    out << key << " = " << buf << "\n";
  }
}

inline Golden read_golden(const std::string& name) {
  std::ifstream in(golden_path(name));
  EXPECT_TRUE(in.good()) << "missing golden file " << golden_path(name)
                         << " — run once with PSCHED_UPDATE_GOLDEN=1";
  Golden g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, equals;
    double value = 0.0;
    if (fields >> key >> equals >> value && equals == "=") g[key] = value;
  }
  return g;
}

/// Every key of the committed `golden` must be in `actual` and agree within
/// kRelTol * max(1, |expected|). `actual` may carry extra keys. `what`
/// prefixes the failure messages.
inline void expect_contains(const std::string& what, const Golden& golden,
                            const Golden& actual) {
  ASSERT_FALSE(golden.empty()) << what << ": empty golden";
  for (const auto& [key, expected] : golden) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << what << ": metric '" << key << "' disappeared";
    EXPECT_NEAR(it->second, expected, kRelTol * std::max(1.0, std::abs(expected)))
        << what << ": metric '" << key << "' drifted";
  }
}

/// The owning suite's check: with PSCHED_UPDATE_GOLDEN set, rewrite the
/// snapshot `name` from `actual` and skip; otherwise `actual` must match it
/// key for key, with the same metric set.
inline void expect_matches_golden(const std::string& name, const Golden& actual) {
  if (std::getenv("PSCHED_UPDATE_GOLDEN") != nullptr) {
    write_golden(name, actual);
    GTEST_SKIP() << "golden file " << name << " regenerated";
  }
  const Golden golden = read_golden(name);
  expect_contains(name, golden, actual);
  EXPECT_EQ(golden.size(), actual.size()) << name << ": metric set changed";
}

}  // namespace psched::golden
