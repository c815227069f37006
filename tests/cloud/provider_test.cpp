#include "cloud/provider.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cloud/profile.hpp"
#include "util/rng.hpp"

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

/// Every (state, doomed) tally equals a recount over the live fleet.
void expect_tallies_match_fleet(const CloudProvider& p, const char* after) {
  for (const VmState state : {VmState::kBooting, VmState::kIdle, VmState::kBusy}) {
    for (const bool doomed : {false, true}) {
      const auto recount = static_cast<std::size_t>(
          std::count_if(p.vms().begin(), p.vms().end(), [&](const VmInstance& vm) {
            return vm.state == state && vm.doomed == doomed;
          }));
      ASSERT_EQ(p.count(state, doomed), recount)
          << "after " << after << ": state " << static_cast<int>(state) << ", doomed "
          << doomed;
    }
  }
  ASSERT_EQ(p.idle_count() + p.booting_count() + p.busy_count(), p.leased_count())
      << "after " << after;
}

TEST(CloudProvider, TalliesMatchARecountAfterEveryTransition) {
  // Random walks over every transition with both models attached: boot
  // failures, API outages, two families (one booting instantly), spot and
  // reserved tiers. Crashes and spot warnings land on VMs in every state.
  FailureConfig failure;
  failure.p_boot_fail = 0.25;
  failure.vm_mtbf_seconds = 20000.0;
  failure.api_outage_gap_seconds = 3000.0;
  failure.api_outage_duration_seconds = 300.0;
  PricingConfig pricing;
  pricing.families = {VmFamily{"std", 1.0, 120.0, 0}, VmFamily{"instant", 2.0, 0.0, 6}};
  pricing.spot_price_fraction = 0.3;
  pricing.spot_mtbf_seconds = 7200.0;
  pricing.reserved_count = 3;
  std::size_t crashed_in[3] = {0, 0, 0};
  std::size_t warned_in[3] = {0, 0, 0};
  std::size_t boot_failures = 0;
  std::size_t revocations = 0;
  std::size_t expired = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    failure.seed = seed;
    pricing.seed = seed;
    FailureModel failure_model(failure);
    PricingModel pricing_model(pricing);
    CloudProvider p({.max_vms = 16, .boot_delay = 120.0, .billing_quantum = 600.0});
    p.set_failure_model(&failure_model);
    p.set_pricing_model(&pricing_model);
    util::Rng rng(seed);
    SimTime now = 0.0;
    std::vector<VmId> matches;
    // A random live VM satisfying `pred`, or kInvalidVm when none does.
    const auto pick = [&](auto pred) {
      matches.clear();
      for (const VmInstance& vm : p.vms())
        if (pred(vm)) matches.push_back(vm.id);
      if (matches.empty()) return kInvalidVm;
      return matches[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(matches.size()) - 1))];
    };
    const auto state_of = [&](VmId id) {
      return static_cast<std::size_t>(p.find(id)->state);
    };
    for (int step = 0; step < 400; ++step) {
      now += rng.uniform(0.0, 90.0);
      const char* op = "nothing";
      VmId id = kInvalidVm;
      switch (rng.uniform_int(0, 10)) {
        case 0:
        case 1: {
          const LeaseRequest request{static_cast<std::size_t>(rng.uniform_int(1, 3)),
                                     static_cast<std::uint32_t>(rng.uniform_int(0, 1)),
                                     static_cast<PurchaseTier>(rng.uniform_int(0, 2))};
          (void)p.lease(request, now);
          op = "lease";
          break;
        }
        case 2:
          id = pick([&](const VmInstance& vm) {
            return vm.state == VmState::kBooting && !vm.boot_failed && vm.boot_complete <= now;
          });
          if (id != kInvalidVm) {
            p.finish_boot(id, now);
            op = "finish_boot";
          }
          break;
        case 3:
          id = pick([](const VmInstance& vm) {
            return vm.state == VmState::kBooting && vm.boot_failed;
          });
          if (id != kInvalidVm) {
            (void)p.fail_boot(id, now);
            ++boot_failures;
            op = "fail_boot";
          }
          break;
        case 4:
          id = pick([](const VmInstance& vm) { return vm.state == VmState::kIdle; });
          if (id != kInvalidVm) {
            p.assign(id, step, now + 100.0, now + 80.0, now);
            op = "assign";
          }
          break;
        case 5:
          id = pick([](const VmInstance& vm) { return vm.state == VmState::kBusy; });
          if (id != kInvalidVm) {
            p.unassign(id, now);
            op = "unassign";
          }
          break;
        case 6:
          id = pick([](const VmInstance& vm) { return vm.state == VmState::kIdle; });
          if (id != kInvalidVm) {
            p.release(id, now);
            op = "release";
          }
          break;
        case 7:
          id = pick([](const VmInstance&) { return true; });
          if (id != kInvalidVm) {
            ++crashed_in[state_of(id)];
            (void)p.crash(id, now);
            op = "crash";
          }
          break;
        case 8:
          id = pick([](const VmInstance& vm) {
            return vm.tier == PurchaseTier::kSpot && !vm.doomed;
          });
          if (id != kInvalidVm) {
            ++warned_in[state_of(id)];
            p.mark_doomed(id, now);
            op = "mark_doomed";
          }
          break;
        case 9:
          id = pick([](const VmInstance& vm) { return vm.tier == PurchaseTier::kSpot; });
          if (id != kInvalidVm) {
            (void)p.revoke(id, now);
            ++revocations;
            op = "revoke";
          }
          break;
        default:
          expired += p.release_expiring_idle(now, rng.uniform(0.0, 600.0),
                                             static_cast<std::size_t>(rng.uniform_int(0, 2)));
          op = "release_expiring_idle";
          break;
      }
      expect_tallies_match_fleet(p, op);
      if (step == 200) {
        p.release_all(now);  // mid-walk, with VMs in every state
        expect_tallies_match_fleet(p, "release_all");
      }
    }
    p.release_all(now);
    expect_tallies_match_fleet(p, "release_all");
    EXPECT_EQ(p.leased_count(), 0u);
  }
  // The walks reached every transition the tallies follow.
  for (std::size_t state = 0; state < 3; ++state) {
    EXPECT_GT(crashed_in[state], 0u) << "no crash in state " << state;
    EXPECT_GT(warned_in[state], 0u) << "no spot warning in state " << state;
  }
  EXPECT_GT(boot_failures, 0u);
  EXPECT_GT(revocations, 0u);
  EXPECT_GT(expired, 0u);
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
