// Billing-quantum coverage: the generalized charged_seconds_for and the
// provider under non-hourly quanta (modern per-second billing).
#include <gtest/gtest.h>

#include "cloud/provider.hpp"
#include "cloud/vm.hpp"

namespace psched::cloud {
namespace {

TEST(BillingQuantum, PerMinuteRounding) {
  EXPECT_DOUBLE_EQ(charged_seconds_for(0.0, 0.0, 60.0), 60.0);   // minimum
  EXPECT_DOUBLE_EQ(charged_seconds_for(0.0, 59.0, 60.0), 60.0);
  EXPECT_DOUBLE_EQ(charged_seconds_for(0.0, 60.0, 60.0), 60.0);
  EXPECT_DOUBLE_EQ(charged_seconds_for(0.0, 61.0, 60.0), 120.0);
}

TEST(BillingQuantum, PerSecondIsNearlyExact) {
  EXPECT_DOUBLE_EQ(charged_seconds_for(0.0, 1234.0, 1.0), 1234.0);
  EXPECT_DOUBLE_EQ(charged_seconds_for(0.0, 1234.5, 1.0), 1235.0);
}

TEST(BillingQuantum, HourlyMatchesLegacyHelpers) {
  EXPECT_DOUBLE_EQ(charged_seconds_for(100.0, 100.0 + 3601.0), 2.0 * 3600.0);
  EXPECT_DOUBLE_EQ(charged_hours_for(100.0, 100.0 + 3601.0), 2.0);
}

TEST(BillingQuantum, RemainingPaidUnderMinuteQuantum) {
  EXPECT_DOUBLE_EQ(remaining_paid_at(0.0, 0.0, 60.0), 60.0);
  EXPECT_DOUBLE_EQ(remaining_paid_at(0.0, 45.0, 60.0), 15.0);
  EXPECT_DOUBLE_EQ(remaining_paid_at(0.0, 60.0, 60.0), 0.0);
}

TEST(BillingQuantum, ProviderChargesPerMinute) {
  ProviderConfig config;
  config.max_vms = 4;
  config.boot_delay = 0.0;
  config.billing_quantum = 60.0;
  CloudProvider provider(config);
  const auto ids = provider.lease(1, 0.0);
  provider.release(ids[0], 130.0);  // 130 s -> 3 minutes -> 180 s = 0.05 h
  EXPECT_DOUBLE_EQ(provider.charged_hours_released(), 180.0 / 3600.0);
}

TEST(BillingQuantum, ReleaseExpiringUsesQuantum) {
  ProviderConfig config;
  config.max_vms = 2;
  config.boot_delay = 0.0;
  config.billing_quantum = 60.0;
  CloudProvider provider(config);
  (void)provider.lease(1, 0.0);
  // 5 s before the minute boundary, a 20 s window catches it.
  EXPECT_EQ(provider.release_expiring_idle(55.0, 20.0), 1u);
}

// Regression pins: a VM released exactly on an hour boundary pays exactly
// the elapsed hours — no phantom extra hour from ceil() landing on an
// integral quotient. Crash-terminated leases follow the same rule.

TEST(BillingBoundary, ReleaseOnExactHourBoundaryChargesNoPhantomHour) {
  EXPECT_DOUBLE_EQ(charged_hours_for(0.0, 3600.0), 1.0);
  EXPECT_DOUBLE_EQ(charged_hours_for(0.0, 7200.0), 2.0);
  EXPECT_DOUBLE_EQ(charged_hours_for(500.0, 500.0 + 3600.0), 1.0);

  ProviderConfig config;
  config.max_vms = 2;
  config.boot_delay = 0.0;
  CloudProvider provider(config);
  const auto ids = provider.lease(1, 0.0);
  provider.release(ids[0], 3600.0);  // exactly one paid hour
  EXPECT_DOUBLE_EQ(provider.charged_hours_released(), 1.0);
}

TEST(BillingBoundary, CrashOnExactHourBoundaryChargesNoPhantomHour) {
  ProviderConfig config;
  config.max_vms = 2;
  config.boot_delay = 0.0;
  CloudProvider provider(config);
  const auto ids = provider.lease(1, 0.0);
  const double charged = provider.crash(ids[0], 3600.0);
  EXPECT_DOUBLE_EQ(charged, 1.0);
  EXPECT_DOUBLE_EQ(provider.charged_hours_released(), 1.0);
  EXPECT_EQ(provider.crashes(), 1u);
  EXPECT_EQ(provider.leased_count(), 0u);
}

TEST(BillingBoundary, MidHourCrashStillPaysTheStartedHour) {
  ProviderConfig config;
  config.max_vms = 2;
  config.boot_delay = 0.0;
  CloudProvider provider(config);
  const auto ids = provider.lease(1, 0.0);
  EXPECT_DOUBLE_EQ(provider.crash(ids[0], 3601.0), 2.0);  // second hour started
}

TEST(BillingBoundary, BootFailChargesTheStartedQuantum) {
  ProviderConfig config;
  config.max_vms = 2;
  config.boot_delay = 120.0;
  CloudProvider provider(config);
  const auto ids = provider.lease(1, 0.0);
  // Boot fails at boot-complete time: the lease still pays its first hour.
  EXPECT_DOUBLE_EQ(provider.fail_boot(ids[0], 120.0), 1.0);
  EXPECT_EQ(provider.boot_failures(), 1u);
  EXPECT_EQ(provider.leased_count(), 0u);
}

}  // namespace
}  // namespace psched::cloud
