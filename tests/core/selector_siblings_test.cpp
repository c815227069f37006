// Selection siblings (DESIGN.md §11.5): candidates with the same
// provisioning share one online-sim run while their job selection orders
// the queue alike and their VM choices agree, and every score must still
// equal the candidate's own run, bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/selector.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace psched::core {
namespace {

const policy::Portfolio& portfolio() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

struct Round {
  std::vector<policy::QueuedJob> queue;
  cloud::CloudProfile profile;
};

/// Which queues make_round draws.
enum class Shape {
  kMixed,   ///< 2-9 jobs, most serial, some 2-4 wide
  kOneJob,  ///< one job: every job selection orders it alike
  kSerial,  ///< 2-9 serial jobs: LXF, UNICEF and WFP3 all rank by wait/runtime
};

/// A random round on a fleet with pre-existing idle VMs: with `equal_phases`
/// every idle VM was leased at the same instant (BestFit, FirstFit and
/// WorstFit then break their ties the same way), otherwise at random points
/// of the billing hour.
Round make_round(util::Rng& rng, bool equal_phases, double boot_delay, Shape shape) {
  Round round;
  cloud::CloudProfile& profile = round.profile;
  profile.now = 10000.0 + rng.uniform(0.0, 3600.0);
  profile.max_vms = 24;
  profile.boot_delay = boot_delay;
  const SimTime shared_lease = profile.now - rng.uniform(0.0, 3600.0);
  const auto idle = rng.uniform_int(2, 7);
  for (std::int64_t i = 0; i < idle; ++i) {
    const SimTime lease =
        equal_phases ? shared_lease : profile.now - rng.uniform(0.0, 3600.0);
    profile.vms.push_back(cloud::VmView{lease, profile.now});
  }
  const auto busy = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < busy; ++i) {
    profile.vms.push_back(cloud::VmView{profile.now - rng.uniform(0.0, 3600.0),
                                        profile.now + rng.uniform(30.0, 900.0), true});
  }
  const auto jobs = shape == Shape::kOneJob ? 1 : rng.uniform_int(2, 9);
  for (std::int64_t j = 0; j < jobs; ++j) {
    policy::QueuedJob job;
    job.id = static_cast<JobId>(j);
    job.submit = profile.now - rng.uniform(0.0, 600.0);
    job.procs = shape == Shape::kMixed && !rng.bernoulli(0.7)
                    ? static_cast<int>(rng.uniform_int(2, 4))
                    : 1;
    job.predicted_runtime = rng.uniform(20.0, 1500.0);
    round.queue.push_back(job);
  }
  return round;
}

/// Distinct (provisioning, job selection) pairs among `indices`.
std::size_t selection_pairs(const std::vector<std::size_t>& indices) {
  std::set<std::pair<const void*, const void*>> keys;
  for (const std::size_t i : indices) {
    const policy::PolicyTriple& t = portfolio().policies()[i];
    keys.emplace(t.provisioning, t.job_selection);
  }
  return keys.size();
}

/// Distinct sibling groups among `indices`: (provisioning, the order its job
/// selection gives `round`'s queue at the snapshot instant).
std::size_t sibling_groups(const std::vector<std::size_t>& indices, const Round& round) {
  std::set<std::pair<const void*, std::vector<JobId>>> keys;
  for (const std::size_t i : indices) {
    const policy::PolicyTriple& t = portfolio().policies()[i];
    std::vector<policy::QueuedJob> ordered = round.queue;
    policy::order_queue(ordered, *t.job_selection, round.profile.now);
    std::vector<JobId> ids;
    for (const policy::QueuedJob& job : ordered) ids.push_back(job.id);
    keys.emplace(t.provisioning, std::move(ids));
  }
  return keys.size();
}

/// A selection budget: whole-round batches (kFixedCount, unbounded or not)
/// or a bounded kWallclock Delta, evaluated wave by wave; synthetic costs
/// keep the latter deterministic.
struct Budget {
  const char* name;
  BudgetMode mode;
  std::size_t fixed_count;
  double delta_ms;
};

TEST(SelectorSiblings, EveryScoreEqualsItsCandidateSimulatedAlone) {
  using policy::AllocationMode;
  const Budget budgets[] = {{"unbounded", BudgetMode::kFixedCount, 0, 0.0},
                            {"fixed_count 17", BudgetMode::kFixedCount, 17, 0.0},
                            {"wallclock waves", BudgetMode::kWallclock, 0, 17.0}};
  // Whether some configuration ran fewer simulations than it listed
  // (provisioning, job selection) pairs: only sharing across job
  // selections can do that.
  bool below_pairs = false;
  for (const AllocationMode allocation :
       {AllocationMode::kHeadOfLine, AllocationMode::kEasyBackfill}) {
    for (const ReleaseRule release : {ReleaseRule::kEagerSurplus, ReleaseRule::kBoundary}) {
      for (const double boot_delay : {0.0, 120.0}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
          for (const Budget& budget : budgets) {
            const std::string where =
                std::string(allocation == AllocationMode::kEasyBackfill ? "EASY" : "HOL") +
                (release == ReleaseRule::kBoundary ? " boundary" : " eager") + " boot " +
                std::to_string(static_cast<int>(boot_delay)) + " threads " +
                std::to_string(threads) + " " + budget.name;
            SCOPED_TRACE(where);
            OnlineSimConfig sim_config;
            sim_config.utility = metrics::UtilityParams{100.0, 1.0, 1.0};
            sim_config.allocation = allocation;
            sim_config.release_rule = release;
            const OnlineSimulator sim(sim_config);
            SelectorConfig config;
            config.budget_mode = budget.mode;
            config.fixed_count = budget.fixed_count;
            config.time_constraint_ms = budget.delta_ms;
            config.synthetic_overhead_ms = 1.0;
            config.use_measured_cost = false;
            config.eval_threads = threads;
            TimeConstrainedSelector selector(portfolio(), sim, config);
            obs::Recorder rec(obs::ObsConfig{obs::ObsLevel::kCounters});
            selector.set_recorder(&rec);

            util::Rng rng(0x51b5 + threads);
            RoundSnapshot snapshot;
            SimArena arena;
            std::size_t groups = 0;
            std::size_t pairs = 0;
            for (int r = 0; r < 12; ++r) {
              const Shape shape = r % 3 == 0   ? Shape::kMixed
                                  : r % 3 == 1 ? Shape::kOneJob
                                               : Shape::kSerial;
              const Round round = make_round(rng, r % 2 == 0, boot_delay, shape);
              const SelectionResult result = selector.select(round.queue, round.profile);
              ASSERT_EQ(result.quarantined, 0u);
              snapshot.build(round.queue, round.profile);
              std::vector<std::size_t> listed;
              for (const PolicyScore& score : result.scores) {
                listed.push_back(score.index);
                const SimOutcome alone =
                    sim.simulate(snapshot, portfolio().policies()[score.index], arena);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(score.utility),
                          std::bit_cast<std::uint64_t>(alone.utility))
                    << "round " << r << ", policy "
                    << portfolio().policies()[score.index].name();
              }
              groups += sibling_groups(listed, round);
              pairs += selection_pairs(listed);
            }
            const double simulations = rec.counters().at("selector.simulations");
            const double candidates = rec.counters().at("selector.candidates");
            if (budget.mode == BudgetMode::kWallclock && threads == 1) {
              // Waves of one candidate: nothing to share.
              EXPECT_EQ(simulations, candidates);
            } else {
              // Some siblings shared a run, and some had to be re-run.
              EXPECT_LT(simulations, candidates);
              EXPECT_GT(simulations, static_cast<double>(groups));
              if (simulations < static_cast<double>(pairs)) below_pairs = true;
            }
          }
        }
      }
    }
  }
  EXPECT_TRUE(below_pairs);
}

}  // namespace
}  // namespace psched::core
