#pragma once
// Bit-identity check for run metrics, shared by the test suites. It walks
// every field of RunMetrics and of its failure and pricing blocks through
// their visit_fields lists, so a new metric is compared without a test edit.

#include <gtest/gtest.h>

#include "metrics/collector.hpp"

namespace psched {

/// EXPECT_EQ on every field: bit-identical, not approximately equal. Each
/// mismatch names its field, e.g. "failures.api_rejected_releases".
inline void expect_same_metrics(const metrics::RunMetrics& a,
                                const metrics::RunMetrics& b) {
  const auto same = [](const char* section) {
    return [section](const char* key, metrics::Fold, const auto& x, const auto& y) {
      EXPECT_EQ(x, y) << "field " << section << key;
    };
  };
  metrics::visit_fields(same(""), a, b);
  metrics::visit_fields(same("failures."), a.failures, b.failures);
  metrics::visit_fields(same("pricing."), a.pricing, b.pricing);
}

}  // namespace psched
