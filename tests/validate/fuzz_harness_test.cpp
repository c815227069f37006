// Property-based fuzz harness: clean seeds run violation-free, every seeded
// fault is caught (the suite's mutation-testing requirement), failures are
// shrunk and reproducible from their reported seed, and the wall-clock cap
// stops long runs early.
#include <gtest/gtest.h>

#include <algorithm>

#include "validate/fuzz.hpp"

namespace psched::validate {
namespace {

bool mentions(const std::vector<Violation>& violations, const std::string& invariant) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.invariant == invariant; });
}

TEST(FuzzHarness, CleanSeedsRunViolationFree) {
  FuzzConfig config;
  config.base_seed = 1;
  config.num_seeds = 20;
  const FuzzReport report = run_fuzz(config);
  EXPECT_EQ(report.seeds_run, 20u);
  EXPECT_FALSE(report.timed_out);
  EXPECT_GT(report.total_checks, 0u);
  ASSERT_TRUE(report.pass())
      << "seed " << report.failure->seed << ": " << report.failure->scenario;
}

/// The self-test requirement: a checker that cannot catch a known-bad
/// mutation is decoration. All three faults must surface, each through its
/// expected invariant.
struct FaultCase {
  FaultInjection fault;
  const char* invariant;
  std::size_t seeds;  ///< enough randomized scenarios to hit the fault's path
};

class FuzzFaultTest : public testing::TestWithParam<FaultCase> {};

TEST_P(FuzzFaultTest, SeededFaultIsCaughtAndShrunk) {
  const FaultCase& c = GetParam();
  FuzzConfig config;
  config.base_seed = 1;
  config.num_seeds = c.seeds;
  config.inject_fault = c.fault;
  const FuzzReport report = run_fuzz(config);

  ASSERT_FALSE(report.pass()) << "fault " << to_string(c.fault) << " not caught";
  const FuzzFailure& failure = *report.failure;
  EXPECT_TRUE(mentions(failure.violations, c.invariant))
      << "expected " << c.invariant << " in " << failure.scenario;
  EXPECT_GE(failure.seed, config.base_seed);
  EXPECT_LE(failure.jobs, failure.original_jobs);  // shrinking never grows
  EXPECT_GE(failure.jobs, 1u);

  // The reported seed reproduces the failure on its own.
  FuzzConfig repro;
  repro.base_seed = failure.seed;
  repro.num_seeds = 1;
  repro.inject_fault = c.fault;
  const FuzzReport again = run_fuzz(repro);
  ASSERT_FALSE(again.pass());
  EXPECT_TRUE(mentions(again.failure->violations, c.invariant));
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, FuzzFaultTest,
    testing::Values(FaultCase{FaultInjection::kBillingOffByOne, "billing.ceil", 10},
                    FaultCase{FaultInjection::kSkipBootDelay, "vm.boot-before-run", 10},
                    FaultCase{FaultInjection::kCapOvershoot, "vm.cap", 40},
                    // Tenant faults force every scenario multi-tenant, so the
                    // arbitration-level checks see each seed (engine/tenant.hpp).
                    FaultCase{FaultInjection::kTenantCapOvershoot,
                              "tenant.global-cap", 10},
                    FaultCase{FaultInjection::kTenantUnfairShare,
                              "tenant.fairness", 10}),
    [](const testing::TestParamInfo<FaultCase>& info) {
      switch (info.param.fault) {
        case FaultInjection::kBillingOffByOne: return "BillingOffByOne";
        case FaultInjection::kSkipBootDelay: return "SkipBootDelay";
        case FaultInjection::kCapOvershoot: return "CapOvershoot";
        case FaultInjection::kTenantCapOvershoot: return "TenantCapOvershoot";
        case FaultInjection::kTenantUnfairShare: return "TenantUnfairShare";
        // candidate-throw is a selector-level fault: the engine/provider
        // checkers never see it, so it has no place in this provider-fault
        // suite (the selector degradation tests cover it).
        case FaultInjection::kCandidateThrow: break;
        case FaultInjection::kNone: break;
      }
      return "None";
    });

TEST(FuzzHarness, ShrinkingDisabledKeepsOriginalSize) {
  FuzzConfig config;
  config.num_seeds = 5;
  config.inject_fault = FaultInjection::kBillingOffByOne;
  config.shrink = false;
  const FuzzReport report = run_fuzz(config);
  ASSERT_FALSE(report.pass());
  EXPECT_EQ(report.failure->jobs, report.failure->original_jobs);
}

TEST(FuzzHarness, TimeCapStopsEarly) {
  FuzzConfig config;
  config.num_seeds = 100000;       // far more than the cap allows
  config.time_cap_seconds = 0.05;  // generous for a few seeds, not for 100k
  const FuzzReport report = run_fuzz(config);
  EXPECT_TRUE(report.timed_out);
  EXPECT_LT(report.seeds_run, config.num_seeds);
  EXPECT_TRUE(report.pass());  // a capped clean run is still a pass
}

}  // namespace
}  // namespace psched::validate
