#pragma once
// Time-constrained portfolio simulation — the paper's Algorithm 1.
//
// The portfolio is partitioned into three sets:
//   Smart — top performers of the previous invocation,
//   Stale — policies (from Smart and Poor) not simulated last time,
//   Poor  — bottom performers of the previous invocation.
// A time budget Delta is split across the sets proportionally to their
// sizes; Smart and Stale are simulated in order, then the remaining budget
// samples Poor uniformly at random. The simulated policies are re-ranked by
// utility: the top lambda fraction becomes the new Smart set, the rest join
// Poor; un-simulated Smart leftovers append to Stale (ordered by
// staleness). The best simulated policy is returned for real scheduling.
//
// The budget can count measured wall time, a fixed synthetic per-policy
// cost (for the deterministic Figure-10 experiment), or both — or, with
// BudgetMode::kFixedCount, a plain simulation count, which removes every
// clock read from the selection path and makes a round reproducible
// bit-for-bit across machines and eval_threads widths.
//
// Every candidate goes through one evaluation routine, which simulates a
// run of the round's candidate list in one util::ThreadPool::run_batch (or
// inline without a pool), one task per group of selection siblings:
// candidates with the same provisioning policy whose job selection orders
// the round's queue alike at its first decision. A group shares one
// online-sim run for as long as its members order the queue alike and their
// VM choices agree (DESIGN.md §11.5). The list is built on the coordinating
// thread in Algorithm 1's order and grouped per set into waves of up to
// SelectorConfig::eval_threads candidates; a wave is charged against the
// budget as the maximum of its members' measured costs plus one synthetic
// overhead — concurrent simulations overlap in wall time, so Delta buys up
// to eval_threads× more candidates. When the list cannot depend on a
// measurement (unbounded Delta, or kFixedCount) the whole round is one
// batch, charged wave by wave afterwards; a bounded kWallclock Delta
// simulates and charges one wave per batch, since each wave's measured cost
// decides whether the next runs. A wave of one is the sequential algorithm.
// All sequencing decisions (which candidates form a wave, Poor-set RNG
// draws, score order) happen on the coordinating thread, so results are
// deterministic for a fixed eval_threads, and eval_threads = 1 is
// bit-identical to the original sequential algorithm.
//
// Graceful degradation (DESIGN.md §10): a candidate whose online simulation
// throws — or, under a candidate_timeout_ms bound, blows its per-candidate
// budget — is quarantined to the Poor set instead of aborting the run. If a
// whole round yields no usable score, select() returns a degraded result
// that carries the last-known-good (preferred) policy forward.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "core/online_sim.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/state_digest.hpp"
#include "util/thread_annotations.hpp"

namespace psched::util {
class ThreadPool;
}  // namespace psched::util

namespace psched::core {

/// How to resolve exact utility ties at the top of the ranking. Ties are
/// the common case, not a corner: on a one-job queue with ample capacity,
/// every provisioning/allocation combination that starts the job at the
/// same instant scores identically (often 48 of the 60 policies).
enum class TieBreak {
  kRandom,      ///< uniform among the tied-best (default; reproduces the
                ///< paper's near-even invocation ratios, Figure 5a)
  kSticky,      ///< keep the currently applied policy if it is tied-best
  kFirstIndex,  ///< lowest portfolio index (fully deterministic ranking)
};

/// How the selection budget Delta is accounted.
enum class BudgetMode {
  /// Delta is wall time: each simulation charges measured steady_clock
  /// milliseconds (use_measured_cost) plus synthetic_overhead_ms. Matches
  /// the paper's deployment model; machine-dependent by design.
  kWallclock,
  /// Delta is a simulation count: every candidate charges exactly one unit
  /// and the selector reads no clock at all, so a round's outcome is a pure
  /// function of (portfolio, queue, profile, seed) — bit-identical across
  /// machines, load conditions, and eval_threads widths. use_measured_cost
  /// and synthetic_overhead_ms are ignored.
  kFixedCount,
};

struct SelectorConfig {
  /// Budget accounting mode; kFixedCount removes every wall-clock read from
  /// the selection path (psched-lint rule D1's allowlist covers only the
  /// kWallclock branch).
  BudgetMode budget_mode = BudgetMode::kWallclock;
  /// Per-round simulation budget when budget_mode = kFixedCount: the number
  /// of candidate simulations Delta buys (split across Smart/Stale/Poor
  /// proportionally, exactly like the millisecond budget). 0 means
  /// unbounded. Ignored in kWallclock mode.
  std::size_t fixed_count = 0;
  /// Delta in milliseconds; <= 0 means unbounded (simulate the whole
  /// portfolio — the paper's Sections 6.1-6.4 operating point).
  /// Ignored in kFixedCount mode.
  double time_constraint_ms = 0.0;
  /// Tie resolution among equal-best policies.
  TieBreak tie_break = TieBreak::kRandom;
  /// Fraction of simulated policies promoted to Smart (paper: 0.6).
  double lambda = 0.6;
  /// Deterministic extra cost charged per policy simulation (paper §6.5
  /// adds 10 ms per policy to make the budget bind).
  double synthetic_overhead_ms = 0.0;
  /// Whether measured wall time also counts against the budget. Disable
  /// together with a positive synthetic overhead for machine-independent
  /// experiments.
  bool use_measured_cost = true;
  /// Seed for the random sampling of the Poor set.
  std::uint64_t rng_seed = 0x5eed;
  /// Candidates simulated concurrently per evaluation wave. 1 (default)
  /// preserves the sequential Algorithm 1 bit-for-bit; k > 1 drains
  /// Smart/Stale/Poor in deterministic waves of up to k candidates, each
  /// wave charged max(member measured cost) + synthetic_overhead_ms, so a
  /// budget Delta simulates up to k× more policies. 0 means hardware
  /// concurrency.
  std::size_t eval_threads = 1;
  /// Per-candidate budget blow-out bound (kWallclock mode only): a
  /// candidate whose charged cost exceeds this many milliseconds is
  /// quarantined to Poor instead of entering the ranking. <= 0 (default)
  /// disables the bound. With use_measured_cost the comparison involves
  /// measured wall time and is machine-dependent, like the mode itself;
  /// with synthetic-only accounting it is deterministic. Ignored in
  /// kFixedCount mode (every candidate charges exactly one unit there).
  double candidate_timeout_ms = 0.0;
};

/// Utility score of one simulated policy.
struct PolicyScore {
  std::size_t index = 0;    ///< into Portfolio::policies()
  double utility = 0.0;
  double cost_ms = 0.0;     ///< budget charged for this simulation
};

struct SelectionResult {
  std::size_t best_index = 0;
  double best_utility = 0.0;
  std::vector<PolicyScore> scores;  ///< all policies simulated this round
  /// Budget actually charged: the sum of per-wave costs. Equal to the sum
  /// of the scores' cost_ms when eval_threads = 1; smaller with parallel
  /// waves (concurrent members overlap in wall time).
  double total_cost_ms = 0.0;
  /// Candidates quarantined this round: their online simulation threw, or
  /// (kWallclock + candidate_timeout_ms) blew the per-candidate budget.
  /// Quarantined candidates charge the budget they consumed, contribute no
  /// score, and are demoted to the Poor set.
  std::size_t quarantined = 0;
  /// True when every attempted candidate was quarantined: no ranking was
  /// possible and best_index is the last-known-good (preferred) policy
  /// carried over with best_utility = 0 — graceful degradation instead of
  /// aborting the run.
  bool degraded = false;

  [[nodiscard]] std::size_t simulated() const noexcept { return scores.size(); }
};

class TimeConstrainedSelector {
 public:
  /// The selector borrows `portfolio` (must outlive the selector). When
  /// `config.eval_threads` exceeds 1, candidate batches run on `shared_pool`
  /// if given (it must outlive the selector; the coordinating thread drains
  /// each batch itself, so a pool already busy with a multi-tenant run's
  /// tenant waves is safe to share, and a pool of any size runs at most
  /// eval_threads lanes) or on an internally owned pool of eval_threads - 1
  /// workers otherwise.
  TimeConstrainedSelector(const policy::Portfolio& portfolio, OnlineSimulator simulator,
                          SelectorConfig config,
                          util::ThreadPool* shared_pool = nullptr);
  // Out of line: the owned pool's deleter needs the complete ThreadPool.
  ~TimeConstrainedSelector();

  /// Run Algorithm 1 on the given problem instance. Requires a non-empty
  /// queue (an empty instance cannot rank policies). `preferred_index` is
  /// the currently applied policy (used by TieBreak::kSticky); pass the
  /// portfolio size (or omit) when there is none. `hints` (the reflection
  /// step's suggestions) are promoted to the front of the Smart set before
  /// the budgeted phases, so historically good policies are simulated first
  /// even under tight budgets.
  [[nodiscard]] SelectionResult select(std::span<const policy::QueuedJob> queue,
                                       const cloud::CloudProfile& profile,
                                       std::size_t preferred_index = SIZE_MAX,
                                       std::span<const std::size_t> hints = {});

  /// Reset Smart/Stale/Poor to the initial state (everything Smart).
  void reset();

  // Set introspection (tests + the stabilization property).
  [[nodiscard]] const std::deque<std::size_t>& smart() const noexcept { return smart_; }
  [[nodiscard]] const std::deque<std::size_t>& stale() const noexcept { return stale_; }
  [[nodiscard]] const std::vector<std::size_t>& poor() const noexcept { return poor_; }

  [[nodiscard]] const SelectorConfig& config() const noexcept { return config_; }
  [[nodiscard]] const OnlineSimulator& simulator() const noexcept { return simulator_; }

  /// Effective candidates per wave and lanes per batch (eval_threads with 0
  /// resolved to the hardware concurrency).
  [[nodiscard]] std::size_t wave_width() const noexcept { return wave_width_; }

  /// Attach (or detach, with nullptr) an observability recorder (borrowed;
  /// must outlive the selector or be detached first). Recording is strictly
  /// passive: no RNG draw, wave composition, score order, or budget charge
  /// depends on the recorder, so selection output is bit-identical with it
  /// attached, detached, or at any ObsLevel.
  void set_recorder(obs::Recorder* recorder) noexcept { recorder_ = recorder; }

  /// Determinism probe (DESIGN.md §7.5): fold the selector's cross-round
  /// mutable state — the Poor-sampling RNG position and the Smart/Stale/Poor
  /// partition — into `digest`, bit-exactly. Wall-clock costs never enter
  /// the digest (psched-lint D1): in measured kWallclock mode they vary run
  /// to run by design, and in the deterministic budget modes they are
  /// derived state. Must be called from the coordinating thread, like
  /// select().
  void capture_state(util::StateDigest& digest) const;

 private:
  /// What list position p leaves for the charge loop: written only by the
  /// lane that simulates p, read by the coordinating thread after the batch.
  struct SlotResult {
    SimOutcome outcome;
    double measured_ms = 0.0;    ///< kWallclock only; 0 in kFixedCount
    bool failed = false;         ///< threw, or (charge loop) blew the timeout
    std::size_t lane = 0;        ///< run_batch lane that simulated it
    std::int64_t begin_us = 0;   ///< candidate trace span (tracing only)
    std::int64_t end_us = 0;
  };

  /// Orders the round snapshot's queue once per job-selection policy and
  /// sets each policy's order class (DESIGN.md §11.5).
  void order_at_t0();
  /// A portfolio index's sibling-group key this round: its provisioning
  /// and the order class of its job selection.
  [[nodiscard]] std::uint32_t group_key(std::size_t index) const noexcept {
    return sibling_key_[index].provisioning + order_class_[sibling_key_[index].job_selection];
  }
  /// The single candidate-evaluation routine: simulates list_[first, last)
  /// against the current round snapshot in one batch (util::run_batch,
  /// inline without a pool, at most wave_width_ lanes), one task per group
  /// of selection siblings (DESIGN.md §11.5). Position p reports into
  /// slots_[p]; a group simulates in the arena of the lane that runs it.
  /// Trace spans go to lane 1 + the run_batch lane. Returns the number of
  /// simulator runs.
  std::size_t evaluate(std::size_t first, std::size_t last);
  /// Simulates the sibling group members_[begin, end) in arenas_[lane]:
  /// the first member leads, the siblings that agreed with it take its
  /// result, and the rest form the next, smaller group. Returns the runs.
  std::size_t evaluate_group(std::size_t begin, std::size_t end, std::size_t lane,
                             bool fixed, bool tracing);
  /// Charges the evaluated wave list_[first, last) in list order: scores
  /// append to `scores` and failed members to `quarantined`. Returns the
  /// budget cost of the wave.
  double charge(std::size_t first, std::size_t last, std::vector<PolicyScore>& scores,
                std::vector<std::size_t>& quarantined);

  const policy::Portfolio& portfolio_;
  OnlineSimulator simulator_;
  SelectorConfig config_;
  obs::Recorder* recorder_ = nullptr;  ///< null = unobserved (default)
  // All sequencing state below is touched only by the coordinating thread
  // that called select(): batch lanes receive disjoint result slots and
  // never see the RNG or the sets. PSCHED_CONFINED_TO documents (but cannot
  // verify) this; the determinism matrix tests enforce it by requiring
  // bit-identical results across eval_threads widths.
  util::Rng rng_ PSCHED_CONFINED_TO("selector coordinating thread");
  std::size_t wave_width_ = 1;
  std::unique_ptr<util::ThreadPool> owned_pool_;  ///< only if no shared pool
  util::ThreadPool* pool_ = nullptr;              ///< non-null iff wave_width_ > 1

  std::deque<std::size_t> smart_ PSCHED_CONFINED_TO("selector coordinating thread");
  std::deque<std::size_t> stale_ PSCHED_CONFINED_TO("selector coordinating thread");
  std::vector<std::size_t> poor_ PSCHED_CONFINED_TO("selector coordinating thread");

  // Hot-path state (DESIGN.md §11). The snapshot and the candidate list are
  // (re)built on the coordinating thread before any batch is dispatched and
  // are strictly read-only while workers run. Within a batch, arena l
  // belongs to lane l and result slot p to whichever lane simulates list
  // position p (disjoint; no sharing); between batches they all belong to
  // the coordinating thread. Arenas are sized wave_width_ and slots the
  // portfolio size once, so no batch allocates scratch.
  RoundSnapshot snapshot_;
  std::vector<SimArena> arenas_;
  std::vector<SlotResult> slots_;
  std::vector<std::size_t> list_;       ///< the round's candidates, in order
  std::vector<std::size_t> wave_ends_;  ///< one-batch rounds: wave boundaries

  // Sibling groups (DESIGN.md §11.5). job_selections_ lists the
  // portfolio's distinct job-selection policies (by pointer). Index i's
  // sibling_key_ holds the first portfolio index with i's provisioning
  // pointer times that list's length, and i's position in the list. Each
  // round, t0_ids_ holds the job ids of the snapshot queue in each job
  // selection's order at t0, one queue length per policy, and
  // order_class_[j] is the first job selection with j's order. Per batch,
  // group g's list positions are members_[group_begin_[g], group_end_[g])
  // in list order; member_triple_ and member_agreed_ run parallel to
  // members_. A group task owns its range and group_runs_[g].
  struct SiblingKey {
    std::uint32_t provisioning = 0;
    std::uint32_t job_selection = 0;
  };
  std::vector<const policy::JobSelectionPolicy*> job_selections_;
  std::vector<SiblingKey> sibling_key_;
  std::vector<std::uint32_t> order_class_;
  std::vector<JobId> t0_ids_;
  std::vector<std::uint32_t> key_group_;  ///< key -> batch group, or none
  std::vector<std::size_t> group_begin_;
  std::vector<std::size_t> group_end_;
  std::vector<std::size_t> group_runs_;
  std::vector<std::size_t> members_;
  std::vector<policy::PolicyTriple> member_triple_;
  std::vector<unsigned char> member_agreed_;
  std::vector<std::size_t> span_order_;  ///< tracing: positions by lane, time
};

}  // namespace psched::core
