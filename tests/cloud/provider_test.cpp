#include "cloud/provider.hpp"

#include <gtest/gtest.h>

#include "cloud/profile.hpp"

namespace psched::cloud {
namespace {

ProviderConfig small_config() {
  ProviderConfig c;
  c.max_vms = 4;
  c.boot_delay = 120.0;
  return c;
}

TEST(CloudProvider, LeaseGrantsRequested) {
  CloudProvider p(small_config());
  const auto ids = p.lease(3, 0.0);
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(p.leased_count(), 3u);
  EXPECT_EQ(p.booting_count(), 3u);
  EXPECT_EQ(p.idle_count(), 0u);
}

TEST(CloudProvider, CapLimitsLease) {
  CloudProvider p(small_config());
  EXPECT_EQ(p.lease(10, 0.0).size(), 4u);
  EXPECT_EQ(p.lease_headroom(), 0u);
  EXPECT_TRUE(p.lease(1, 1.0).empty());
}

TEST(CloudProvider, ZeroBootDelayIsImmediatelyIdle) {
  ProviderConfig c;
  c.max_vms = 2;
  c.boot_delay = 0.0;
  CloudProvider p(c);
  p.lease(1, 0.0);
  EXPECT_EQ(p.idle_count(), 1u);
}

TEST(CloudProvider, BootTransition) {
  CloudProvider p(small_config());
  const auto ids = p.lease(1, 0.0);
  p.finish_boot(ids[0], 120.0);
  EXPECT_EQ(p.idle_count(), 1u);
  EXPECT_EQ(p.booting_count(), 0u);
}

TEST(CloudProvider, AssignUnassignCycle) {
  CloudProvider p(small_config());
  const auto ids = p.lease(1, 0.0);
  p.finish_boot(ids[0], 120.0);
  p.assign(ids[0], /*job=*/7, /*until=*/500.0, /*predicted_end=*/900.0, /*now=*/120.0);
  EXPECT_EQ(p.busy_count(), 1u);
  EXPECT_EQ(p.find(ids[0])->running_job, 7);
  EXPECT_DOUBLE_EQ(p.find(ids[0])->busy_until, 500.0);
  EXPECT_DOUBLE_EQ(p.find(ids[0])->predicted_end, 900.0);
  p.unassign(ids[0], 500.0);
  EXPECT_EQ(p.idle_count(), 1u);
  EXPECT_EQ(p.find(ids[0])->running_job, kInvalidJob);
  EXPECT_DOUBLE_EQ(p.find(ids[0])->busy_until, 0.0);
  EXPECT_DOUBLE_EQ(p.find(ids[0])->predicted_end, 0.0);
}

TEST(CloudProvider, ReleaseChargesRoundedHours) {
  CloudProvider p(small_config());
  const auto ids = p.lease(1, 0.0);
  p.finish_boot(ids[0], 120.0);
  p.release(ids[0], 3700.0);  // 3700 s -> 2 charged hours
  EXPECT_DOUBLE_EQ(p.charged_hours_released(), 2.0);
  EXPECT_EQ(p.leased_count(), 0u);
  EXPECT_EQ(p.find(ids[0]), nullptr);
}

TEST(CloudProvider, ChargedHoursTotalIncludesLiveVms) {
  CloudProvider p(small_config());
  p.lease(2, 0.0);
  EXPECT_DOUBLE_EQ(p.charged_hours_total(10.0), 2.0);    // 2 live VMs, 1 h min
  EXPECT_DOUBLE_EQ(p.charged_hours_total(3601.0), 4.0);  // 2 h each
}

TEST(CloudProvider, ReleaseExpiringIdle) {
  CloudProvider p(small_config());
  const auto ids = p.lease(2, 0.0);
  for (const auto id : ids) p.finish_boot(id, 120.0);
  // At 3590 s both VMs have 10 s of paid time left.
  EXPECT_EQ(p.release_expiring_idle(3590.0, 20.0), 2u);
  EXPECT_EQ(p.leased_count(), 0u);
  EXPECT_DOUBLE_EQ(p.charged_hours_released(), 2.0);
}

TEST(CloudProvider, ReleaseExpiringSkipsBusyAndFresh) {
  CloudProvider p(small_config());
  const auto ids = p.lease(2, 0.0);
  p.finish_boot(ids[0], 120.0);
  p.finish_boot(ids[1], 120.0);
  p.assign(ids[0], 1, 4000.0, 4000.0, 120.0);
  // Busy VM must survive; the idle one has 3480 s left -> not expiring.
  EXPECT_EQ(p.release_expiring_idle(120.0, 20.0), 0u);
  EXPECT_EQ(p.leased_count(), 2u);
}

TEST(CloudProvider, ReleaseAllDrainsEverything) {
  CloudProvider p(small_config());
  p.lease(3, 0.0);
  p.release_all(100.0);
  EXPECT_EQ(p.leased_count(), 0u);
  EXPECT_DOUBLE_EQ(p.charged_hours_released(), 3.0);
}

TEST(CloudProvider, IdleVmsListsIdsInOrder) {
  CloudProvider p(small_config());
  const auto ids = p.lease(3, 0.0);
  for (const auto id : ids) p.finish_boot(id, 120.0);
  p.assign(ids[1], 5, 1000.0, 1000.0, 120.0);
  std::vector<VmId> idle{99, 98, 97, 96};  // stale content is replaced
  p.idle_vms(idle);
  ASSERT_EQ(idle.size(), 2u);
  EXPECT_EQ(idle[0], ids[0]);
  EXPECT_EQ(idle[1], ids[2]);
}

TEST(CloudProvider, TotalLeasesAccumulates) {
  CloudProvider p(small_config());
  p.lease(2, 0.0);
  const auto more = p.lease(2, 10.0);
  for (const auto id : more) (void)id;
  EXPECT_EQ(p.total_leases(), 4u);
}

TEST(CloudProvider, ContractViolationsAbort) {
  CloudProvider p(small_config());
  const auto ids = p.lease(1, 0.0);
  EXPECT_DEATH(p.release(ids[0], 1.0), "non-idle");       // still booting
  EXPECT_DEATH(p.assign(ids[0], 1, 5.0, 5.0, 1.0), "non-idle");
  EXPECT_DEATH(p.unassign(ids[0], 1.0), "non-busy");
  EXPECT_DEATH(p.release(999, 1.0), "unknown");
}

TEST(CloudProfileViews, HeadroomAndCounts) {
  CloudProfile profile;
  profile.now = 100.0;
  profile.max_vms = 5;
  profile.boot_delay = 120.0;
  profile.vms = {
      {0.0, 100.0, false},   // idle
      {50.0, 170.0, false},  // booting until 170
      {0.0, 900.0, true},    // busy until 900
  };
  EXPECT_EQ(profile.idle_count(), 1u);
  EXPECT_EQ(profile.booting_count(), 1u);
  EXPECT_EQ(profile.lease_headroom(), 2u);
}

}  // namespace
}  // namespace psched::cloud
