// Selector hot path (DESIGN.md §11): round-snapshot rebuilds, the arena
// fast path vs the convenience wrapper, and arena reuse across rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/online_sim.hpp"
#include "core/round_snapshot.hpp"
#include "core/sim_arena.hpp"
#include "util/rng.hpp"

namespace psched::core {
namespace {

OnlineSimConfig sim_config() {
  OnlineSimConfig c;
  c.utility = metrics::UtilityParams{100.0, 1.0, 1.0};
  return c;
}

const policy::Portfolio& portfolio() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

std::vector<policy::QueuedJob> make_queue(std::size_t depth, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<policy::QueuedJob> queue;
  for (std::size_t i = 0; i < depth; ++i) {
    policy::QueuedJob q;
    q.id = static_cast<JobId>(i);
    q.submit = static_cast<double>(i) * 3.0;
    q.procs = 1 << rng.uniform_int(0, 4);
    q.predicted_runtime = rng.uniform(10.0, 2000.0);
    queue.push_back(q);
  }
  return queue;
}

cloud::CloudProfile make_profile(std::size_t vms, std::uint64_t seed) {
  cloud::CloudProfile profile;
  profile.now = 5000.0;
  profile.max_vms = 64;
  profile.boot_delay = 120.0;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < vms; ++i) {
    cloud::VmView vm;
    vm.lease_time = profile.now - rng.uniform(0.0, 3600.0);
    vm.busy = rng.bernoulli(0.5);
    vm.available_at = vm.busy ? profile.now + rng.uniform(10.0, 600.0) : profile.now;
    profile.vms.push_back(vm);
  }
  return profile;
}

/// Field-by-field bit equality of two SimOutcomes.
void expect_bit_identical(const SimOutcome& a, const SimOutcome& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.utility), std::bit_cast<std::uint64_t>(b.utility));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.avg_bounded_slowdown),
            std::bit_cast<std::uint64_t>(b.avg_bounded_slowdown));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rj_proc_seconds),
            std::bit_cast<std::uint64_t>(b.rj_proc_seconds));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rv_charged_seconds),
            std::bit_cast<std::uint64_t>(b.rv_charged_seconds));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sim_makespan),
            std::bit_cast<std::uint64_t>(b.sim_makespan));
  EXPECT_EQ(a.decisions, b.decisions);
}

TEST(RoundSnapshot, StableAcrossRebuilds) {
  const auto queue = make_queue(12, 11);
  auto profile = make_profile(8, 13);
  // Distinct families and tiers, and one idle VM whose availability
  // predates the snapshot instant, so no field can be dropped unseen.
  for (std::size_t i = 0; i < profile.vms.size(); ++i) {
    profile.vms[i].family = static_cast<std::uint32_t>(i % 3);
    profile.vms[i].tier = static_cast<cloud::PurchaseTier>(i % 3);
  }
  cloud::VmView stale_idle;
  stale_idle.lease_time = profile.now - 900.0;
  stale_idle.available_at = profile.now - 60.0;
  profile.vms.push_back(stale_idle);
  RoundSnapshot a;
  RoundSnapshot b;
  a.build(queue, profile);
  b.build(make_queue(30, 17), make_profile(20, 19));
  // Rebuilding an instance that held a bigger round (the capacity reuse
  // path) must leave exactly the new round's rows behind.
  b.build(queue, profile);
  for (const RoundSnapshot* snapshot : {&a, &b}) {
    EXPECT_EQ(snapshot->t0, profile.now);
    EXPECT_EQ(snapshot->max_vms, profile.max_vms);
    EXPECT_EQ(snapshot->billing_quantum, profile.billing_quantum);
    ASSERT_EQ(snapshot->job_count(), queue.size());
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const policy::QueuedJob& row = snapshot->queue[i];
      EXPECT_EQ(row.id, queue[i].id);
      EXPECT_EQ(row.submit, queue[i].submit);
      EXPECT_EQ(row.procs, queue[i].procs);
      EXPECT_EQ(row.predicted_runtime, queue[i].predicted_runtime);
    }
    ASSERT_EQ(snapshot->vm_count(), profile.vms.size());
    ASSERT_EQ(snapshot->facts.size(), profile.vms.size());
    for (std::size_t i = 0; i < profile.vms.size(); ++i) {
      const cloud::VmView& view = profile.vms[i];
      const policy::VmAvail& row = snapshot->vms[i];
      const VmFacts& fact = snapshot->facts[i];
      EXPECT_EQ(row.id, static_cast<VmId>(i));
      EXPECT_EQ(row.lease_time, view.lease_time);
      EXPECT_EQ(row.available_at, std::max(view.available_at, profile.now));
      EXPECT_EQ(fact.busy, view.busy);
      EXPECT_FALSE(fact.fresh);
      EXPECT_EQ(fact.family, view.family);
      EXPECT_EQ(fact.tier, view.tier);
    }
  }
}

TEST(OnlineSimHotPath, FastPathMatchesWrapperApi) {
  // The snapshot/arena fast path and the allocating convenience wrapper
  // must produce bit-identical outcomes for every portfolio policy.
  const OnlineSimulator sim(sim_config());
  const auto queue = make_queue(16, 31);
  const auto profile = make_profile(10, 33);
  RoundSnapshot snapshot;
  snapshot.build(queue, profile);
  SimArena arena;
  for (const policy::PolicyTriple& policy : portfolio().policies()) {
    const SimOutcome wrapped = sim.simulate(queue, profile, policy);
    const SimOutcome fast = sim.simulate(snapshot, policy, arena);
    expect_bit_identical(wrapped, fast);
  }
}

TEST(OnlineSimHotPath, ArenaReuseAcrossRoundsIsClean) {
  // One arena reused across many rounds of different shape (growing and
  // shrinking queues/VM fleets) must match a fresh arena every time — this
  // is the stale-state tripwire, and under the asan-ubsan preset it also
  // proves the reset path frees/reuses memory correctly.
  const OnlineSimulator sim(sim_config());
  SimArena reused;
  for (std::uint64_t round = 0; round < 12; ++round) {
    const auto queue = make_queue(1 + (round * 7) % 40, 100 + round);
    const auto profile = make_profile((round * 5) % 20, 200 + round);
    RoundSnapshot snapshot;
    snapshot.build(queue, profile);
    const auto& policy = portfolio().policies()[round % portfolio().size()];
    SimArena fresh;
    expect_bit_identical(sim.simulate(snapshot, policy, fresh),
                         sim.simulate(snapshot, policy, reused));
  }
}

TEST(OnlineSimHotPath, ArenaReuseAfterReleasesMatchesFreshArena) {
  // Round A's kBoundary releases swap-remove rows, so its arena ends with a
  // permuted id -> row map that is stale for the released ids. Round B, in
  // the same arena, starts from another fleet and must not see any of it:
  // its 16-proc job takes every VM, and a stale map would leave one of
  // them free for the 1-proc job.
  OnlineSimConfig config = sim_config();
  config.release_rule = ReleaseRule::kBoundary;
  const OnlineSimulator sim(config);

  cloud::CloudProfile fleet_a;
  fleet_a.now = 5000.0;
  fleet_a.max_vms = 64;
  for (int i = 0; i < 16; ++i) {
    cloud::VmView vm;
    vm.busy = i % 2 == 0;
    // Idle VMs sit 5 s before their paid boundary.
    vm.lease_time = vm.busy ? fleet_a.now - 100.0 : fleet_a.now - 3600.0 + 5.0;
    vm.available_at = vm.busy ? fleet_a.now + 600.0 + 10.0 * i : fleet_a.now;
    fleet_a.vms.push_back(vm);
  }
  std::vector<policy::QueuedJob> jobs_a;
  for (int k = 0; k < 3; ++k)
    jobs_a.push_back(policy::QueuedJob{k, fleet_a.now - 30.0 + k, 1, 300.0});

  cloud::CloudProfile fleet_b;
  fleet_b.now = 9000.0;
  fleet_b.max_vms = 64;
  for (int i = 0; i < 16; ++i) {
    cloud::VmView vm;
    vm.lease_time = fleet_b.now - 100.0 - i;
    vm.available_at = fleet_b.now;
    fleet_b.vms.push_back(vm);
  }
  const std::vector<policy::QueuedJob> jobs_b = {
      policy::QueuedJob{10, fleet_b.now - 20.0, 16, 900.0},
      policy::QueuedJob{11, fleet_b.now - 10.0, 1, 400.0}};

  RoundSnapshot round_a;
  RoundSnapshot round_b;
  round_a.build(jobs_a, fleet_a);
  round_b.build(jobs_b, fleet_b);
  for (const policy::PolicyTriple& policy : portfolio().policies()) {
    SCOPED_TRACE(policy.name());
    SimArena reused;
    (void)sim.simulate(round_a, policy, reused);
    ASSERT_LT(reused.vm_count(), reused.vm_row.size()) << "round A released no VM";
    SimArena fresh;
    expect_bit_identical(sim.simulate(round_b, policy, fresh),
                         sim.simulate(round_b, policy, reused));
  }
}

}  // namespace
}  // namespace psched::core
