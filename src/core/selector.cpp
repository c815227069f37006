#include "core/selector.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace psched::core {

namespace {

constexpr std::uint32_t kNoGroup = UINT32_MAX;

/// Trace-args payload for one candidate simulation.
std::string candidate_args(std::size_t index) {
  return "{\"policy\":" + std::to_string(index) + '}';
}

}  // namespace

TimeConstrainedSelector::TimeConstrainedSelector(const policy::Portfolio& portfolio,
                                                 OnlineSimulator simulator,
                                                 SelectorConfig config,
                                                 util::ThreadPool* shared_pool)
    : portfolio_(portfolio),
      simulator_(std::move(simulator)),
      config_(config),
      rng_(config.rng_seed) {
  PSCHED_ASSERT_MSG(portfolio_.size() > 0, "selector needs a non-empty portfolio");
  PSCHED_ASSERT(config_.lambda > 0.0 && config_.lambda <= 1.0);
  wave_width_ = util::resolve_threads(config_.eval_threads);
  if (wave_width_ > 1) {
    if (shared_pool != nullptr) {
      pool_ = shared_pool;
    } else {
      // The coordinating thread drains every batch too (it is lane 0), so
      // wave_width_ - 1 workers give wave_width_ concurrent simulations.
      owned_pool_ = std::make_unique<util::ThreadPool>(wave_width_ - 1);
      pool_ = owned_pool_.get();
    }
  }
  // One arena per lane (batches cap lanes at wave_width_) and one result
  // slot per list position (a round lists each policy at most once).
  arenas_.resize(wave_width_);
  slots_.resize(portfolio_.size());
  list_.reserve(portfolio_.size());
  wave_ends_.reserve(portfolio_.size());
  // Sibling-group keys (DESIGN.md §11.5): the provisioning part is fixed
  // here, the job-selection part is set each round by order_at_t0().
  const std::vector<policy::PolicyTriple>& policies = portfolio_.policies();
  sibling_key_.resize(policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto it = std::find(job_selections_.begin(), job_selections_.end(),
                              policies[i].job_selection);
    sibling_key_[i].job_selection = static_cast<std::uint32_t>(it - job_selections_.begin());
    if (it == job_selections_.end()) job_selections_.push_back(policies[i].job_selection);
  }
  const std::size_t orders = job_selections_.size();
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto same = [&](const policy::PolicyTriple& t) {
      return t.provisioning == policies[i].provisioning;
    };
    sibling_key_[i].provisioning = static_cast<std::uint32_t>(
        (std::find_if(policies.begin(), policies.end(), same) - policies.begin()) * orders);
  }
  order_class_.resize(orders);
  key_group_.assign(policies.size() * orders, kNoGroup);
  group_begin_.resize(policies.size());
  group_end_.resize(policies.size());
  group_runs_.resize(policies.size());
  members_.resize(policies.size());
  member_triple_.resize(policies.size());
  member_agreed_.resize(policies.size());
  span_order_.reserve(policies.size());
  reset();
}

TimeConstrainedSelector::~TimeConstrainedSelector() = default;

void TimeConstrainedSelector::reset() {
  smart_.clear();
  stale_.clear();
  poor_.clear();
  // First invocation: every policy is in Smart (paper, Section 4).
  for (std::size_t i = 0; i < portfolio_.size(); ++i) smart_.push_back(i);
}

void TimeConstrainedSelector::capture_state(util::StateDigest& digest) const {
  digest.add_u64("selector.rng", rng_.state());
  // The partition sequences are order-sensitive state: Smart/Stale are
  // drained front to back and Poor is indexed by the RNG.
  std::uint64_t partition = 0;
  for (const std::size_t i : smart_) partition = util::digest_mix(partition, static_cast<std::uint64_t>(i));
  digest.add_u64("selector.smart", partition);
  partition = 0;
  for (const std::size_t i : stale_) partition = util::digest_mix(partition, static_cast<std::uint64_t>(i));
  digest.add_u64("selector.stale", partition);
  partition = 0;
  for (const std::size_t i : poor_) partition = util::digest_mix(partition, static_cast<std::uint64_t>(i));
  digest.add_u64("selector.poor", partition);
  digest.add_size("selector.smart_len", smart_.size());
  digest.add_size("selector.stale_len", stale_.size());
  digest.add_size("selector.poor_len", poor_.size());
}

void TimeConstrainedSelector::order_at_t0() {
  // Candidates whose job selection orders the queue differently at the
  // first decision cannot share a run, so they go to separate groups, which
  // the batch can run side by side. Between batches the arenas belong to
  // this thread, so lane 0's queue and ordering scratch do the work. A job
  // selection whose order_queue throws leaves the queue as it was: its
  // candidates throw at their first decision and vouch for no one, so any
  // class will do.
  SimArena& arena = arenas_[0];
  const std::size_t jobs = snapshot_.job_count();
  t0_ids_.resize(job_selections_.size() * jobs);
  for (std::size_t j = 0; j < job_selections_.size(); ++j) {
    arena.pending = snapshot_.queue;
    try {
      policy::order_queue(arena.pending, *job_selections_[j], snapshot_.t0, arena.order);
    } catch (const std::exception&) {
    }
    const auto ids = t0_ids_.begin() + static_cast<std::ptrdiff_t>(j * jobs);
    std::ranges::transform(arena.pending, ids, &policy::QueuedJob::id);
    order_class_[j] = static_cast<std::uint32_t>(j);
    for (std::size_t k = 0; k < j; ++k) {
      if (order_class_[k] == k &&
          std::equal(ids, ids + static_cast<std::ptrdiff_t>(jobs),
                     t0_ids_.begin() + static_cast<std::ptrdiff_t>(k * jobs))) {
        order_class_[j] = static_cast<std::uint32_t>(k);
        break;
      }
    }
  }
}

std::size_t TimeConstrainedSelector::evaluate(std::size_t first, std::size_t last) {
  PSCHED_ASSERT(first <= last && last <= slots_.size());
  const bool fixed = config_.budget_mode == BudgetMode::kFixedCount;
  // Candidate trace spans use the recorder's clock (obs.cpp), independent of
  // the budget clock, so tracing can never perturb budget accounting.
  const bool tracing = recorder_ != nullptr && recorder_->tracing_on();

  // Group the positions by (provisioning, t0 order): groups are numbered by
  // their first member, members kept in list order (a counting sort: sizes
  // into group_end_, then offsets, then placement).
  std::size_t groups = 0;
  for (std::size_t p = first; p < last; ++p) {
    std::uint32_t& g = key_group_[group_key(list_[p])];
    if (g == kNoGroup) {
      g = static_cast<std::uint32_t>(groups++);
      group_end_[g] = 0;
    }
    ++group_end_[g];
  }
  std::size_t offset = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    group_begin_[g] = offset;
    offset += group_end_[g];
    group_end_[g] = group_begin_[g];
  }
  for (std::size_t p = first; p < last; ++p)
    members_[group_end_[key_group_[group_key(list_[p])]]++] = p;
  for (std::size_t p = first; p < last; ++p) key_group_[group_key(list_[p])] = kNoGroup;

  // Group g writes only its members' slots, its members_ range and
  // group_runs_[g]; lane l owns arenas_[l] for the whole batch.
  util::run_batch(pool_, groups, wave_width_, [&](std::size_t g, std::size_t lane) {
    group_runs_[g] = evaluate_group(group_begin_[g], group_end_[g], lane, fixed, tracing);
  });
  std::size_t runs = 0;
  for (std::size_t g = 0; g < groups; ++g) runs += group_runs_[g];

  if (tracing) {
    // Spans go out per lane in execution order, which is time order: a
    // lane's runs do not overlap, and a shared sibling's zero-length span
    // sits at its leader's end.
    span_order_.clear();
    for (std::size_t p = first; p < last; ++p) span_order_.push_back(p);
    std::sort(span_order_.begin(), span_order_.end(), [this](std::size_t a, std::size_t b) {
      const SlotResult& x = slots_[a];
      const SlotResult& y = slots_[b];
      if (x.lane != y.lane) return x.lane < y.lane;
      if (x.begin_us != y.begin_us) return x.begin_us < y.begin_us;
      if (x.end_us != y.end_us) return x.end_us < y.end_us;
      return a < b;
    });
    for (const std::size_t p : span_order_) {
      const SlotResult& slot = slots_[p];
      const auto lane = static_cast<std::uint32_t>(1 + slot.lane);
      recorder_->append_event(obs::TraceEvent{"selector.candidate", 'B', slot.begin_us,
                                              lane, candidate_args(list_[p])});
      recorder_->append_event(
          obs::TraceEvent{"selector.candidate", 'E', slot.end_us, lane, {}});
    }
  }
  return runs;
}

std::size_t TimeConstrainedSelector::evaluate_group(std::size_t begin, std::size_t end,
                                                    std::size_t lane, bool fixed,
                                                    bool tracing) {
  std::size_t runs = 0;
  while (begin < end) {
    const std::size_t leader = members_[begin];
    for (std::size_t m = begin + 1; m < end; ++m)
      member_triple_[m] = portfolio_.policies()[list_[members_[m]]];
    const std::span<const policy::PolicyTriple> siblings(member_triple_.data() + begin + 1,
                                                         end - begin - 1);
    const std::span<unsigned char> agreed(member_agreed_.data() + begin + 1, end - begin - 1);

    // Exceptions are trapped per run so that one never escapes run_batch
    // onto the coordinating thread; a leader that throws vouches for no
    // sibling. kFixedCount reads no budget clock at all.
    SlotResult& slot = slots_[leader];
    slot.lane = lane;
    slot.begin_us = tracing ? recorder_->now_us() : 0;
    slot.failed = false;
    std::chrono::steady_clock::time_point start;
    if (!fixed) start = std::chrono::steady_clock::now();
    try {
      slot.outcome = simulator_.simulate(snapshot_, portfolio_.policies()[list_[leader]],
                                         siblings, agreed, arenas_[lane]);
    } catch (const std::exception&) {
      slot.failed = true;
    }
    slot.measured_ms =
        fixed ? 0.0
              : std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    slot.end_us = tracing ? recorder_->now_us() : 0;
    ++runs;

    // Siblings that agreed get the leader's result (and its lane and
    // measured time) with a zero-length span at its end; the others move
    // up, in list order, to form the next group.
    std::size_t kept = begin + 1;
    for (std::size_t m = begin + 1; m < end; ++m) {
      if (agreed[m - begin - 1] != 0) {
        SlotResult& shared = slots_[members_[m]];
        shared = slot;
        shared.begin_us = slot.end_us;
      } else {
        members_[kept++] = members_[m];
      }
    }
    ++begin;
    end = kept;
  }
  return runs;
}

double TimeConstrainedSelector::charge(std::size_t first, std::size_t last,
                                       std::vector<PolicyScore>& scores,
                                       std::vector<std::size_t>& quarantined) {
  const bool fixed = config_.budget_mode == BudgetMode::kFixedCount;
  // Charge in list order, so the ranking input is independent of which lane
  // ran what. A candidate costs one unit (kFixedCount) or synthetic +
  // measured ms; a failed one spent its time too, so it is charged either
  // way. The wave costs its size, or one synthetic overhead plus its slowest
  // member: concurrent members overlap in wall time.
  double slowest_ms = 0.0;
  for (std::size_t p = first; p < last; ++p) {
    const SlotResult& slot = slots_[p];
    double cost = 1.0;
    if (!fixed) {
      cost = config_.synthetic_overhead_ms;
      if (config_.use_measured_cost) {
        cost += slot.measured_ms;
        slowest_ms = std::max(slowest_ms, slot.measured_ms);
      }
    }
    if (slot.failed)
      quarantined.push_back(list_[p]);
    else
      scores.push_back(PolicyScore{list_[p], slot.outcome.utility, cost});
  }
  return fixed ? static_cast<double>(last - first)
               : config_.synthetic_overhead_ms + slowest_ms;
}

SelectionResult TimeConstrainedSelector::select(
    std::span<const policy::QueuedJob> queue, const cloud::CloudProfile& profile,
    std::size_t preferred_index, std::span<const std::size_t> hints) {
  PSCHED_ASSERT_MSG(!queue.empty(), "selection on an empty queue is undefined");

  // Build the shared round snapshot once (DESIGN.md §11): every candidate
  // wave reads it.
  snapshot_.build(queue, profile);
  order_at_t0();

  const obs::Recorder::Scope round_scope(recorder_, "selector.round", 0);
  const bool obs_on = recorder_ != nullptr && recorder_->counters_on();

  // Reflection hints: pull the suggested policies out of whichever set they
  // sit in and queue them at the head of Smart (first hint simulated first).
  for (std::size_t h = hints.size(); h-- > 0;) {
    const std::size_t hint = hints[h];
    if (hint >= portfolio_.size()) continue;
    const auto drop = [hint](auto& container) {
      const auto it = std::find(container.begin(), container.end(), hint);
      if (it == container.end()) return false;
      container.erase(it);
      return true;
    };
    if (drop(smart_) || drop(stale_) || drop(poor_)) smart_.push_front(hint);
  }

  // Entry snapshot for the round record (after hint promotion, so the sizes
  // describe the sets Algorithm 1 actually drains). Taken only when
  // observed: the unobserved path must not copy the Smart set.
  const std::size_t smart_in = smart_.size();
  const std::size_t stale_in = stale_.size();
  const std::size_t poor_in = poor_.size();
  std::vector<std::size_t> smart_before;
  if (obs_on) smart_before.assign(smart_.begin(), smart_.end());

  const bool fixed = config_.budget_mode == BudgetMode::kFixedCount;
  const bool bounded =
      fixed ? config_.fixed_count > 0 : config_.time_constraint_ms > 0.0;
  const auto n = static_cast<double>(smart_.size() + stale_.size() + poor_.size());
  PSCHED_ASSERT(n > 0.0);

  // Phase 1: split the budget proportionally to the set sizes (Alg. 1 l.1-2).
  // In kFixedCount mode Delta is a simulation count (one unit per candidate);
  // otherwise it is milliseconds. Unbounded mode (Delta <= 0, or
  // fixed_count = 0) simulates the entire portfolio; the quotas are made
  // infinite directly — an empty set's share of infinity would be
  // 0 * inf = NaN and poison the leftover arithmetic.
  const double inf = std::numeric_limits<double>::infinity();
  const double delta = bounded ? (fixed ? static_cast<double>(config_.fixed_count)
                                        : config_.time_constraint_ms)
                               : inf;
  double quota_smart = bounded ? static_cast<double>(smart_.size()) / n * delta : inf;
  double quota_stale = bounded ? static_cast<double>(stale_.size()) / n * delta : inf;
  double quota_poor = bounded ? delta - quota_smart - quota_stale : inf;

  std::vector<PolicyScore> scores;
  scores.reserve(portfolio_.size());
  std::vector<std::size_t> quarantined;  // candidates whose simulation threw
  double charged_ms = 0.0;  // budget actually charged (sum of wave costs)
  std::size_t batches = 0;  // evaluate() calls, pooled or inline
  std::size_t simulations = 0;  // simulator runs: leaders + re-run siblings

  // The round's candidates are listed on the coordinating thread in
  // Algorithm 1's order (front-of-set for Smart and Stale; RNG draws for
  // Poor — coordinating-thread-only, so the draw sequence matches the
  // sequential algorithm's pick-by-pick sampling), grouped into waves of up
  // to wave_width_ per set.
  //
  // Unless a measured wallclock Delta binds, the list does not depend on
  // any measurement: a wave's planning cost is its size (the kFixedCount
  // charge, and irrelevant against an unbounded quota), so the whole list
  // is simulated in one batch and the waves are charged afterwards, in
  // order. A bounded kWallclock round simulates and charges each wave as it
  // closes, since its measured cost decides whether the next one runs.
  //
  // In fixed-count mode a wave additionally never overshoots the remaining
  // quota: the sequential algorithm runs exactly ceil(quota) more unit-cost
  // simulations before the budget flips non-positive, so capping the fill at
  // that count keeps the simulated candidate set — and therefore the whole
  // round — identical for every eval_threads width.
  const bool one_batch = fixed || !bounded;
  list_.clear();
  wave_ends_.clear();
  const auto wave_cap = [&](double quota) {
    if (!(fixed && bounded)) return wave_width_;
    return std::min(wave_width_, static_cast<std::size_t>(std::ceil(quota)));
  };
  const auto close_wave = [&](std::size_t first, double& quota) {
    if (one_batch) {
      wave_ends_.push_back(list_.size());
      quota -= static_cast<double>(list_.size() - first);
      return;
    }
    simulations += evaluate(first, list_.size());
    ++batches;
    const double cost = charge(first, list_.size(), scores, quarantined);
    quota -= cost;
    charged_ms += cost;
  };
  const auto drain_ordered = [&](std::deque<std::size_t>& set, double& quota) {
    while (!set.empty() && quota > 0.0) {
      const std::size_t first = list_.size();
      while (!set.empty() && list_.size() - first < wave_cap(quota)) {
        list_.push_back(set.front());
        set.pop_front();
      }
      close_wave(first, quota);
    }
  };

  // Phase 2a: Smart, in order, while its quota lasts (l.3-7).
  drain_ordered(smart_, quota_smart);
  // Phase 2b: Stale, in staleness order (l.8-12).
  drain_ordered(stale_, quota_stale);
  // Phase 2c: Poor, random picks, with the leftovers folded in (l.13-19).
  double quota = quota_poor + std::max(0.0, quota_smart) + std::max(0.0, quota_stale);
  while (!poor_.empty() && quota > 0.0) {
    const std::size_t first = list_.size();
    while (!poor_.empty() && list_.size() - first < wave_cap(quota)) {
      const auto pick = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(poor_.size()) - 1));
      list_.push_back(poor_[pick]);
      poor_[pick] = poor_.back();
      poor_.pop_back();
    }
    close_wave(first, quota);
  }
  if (one_batch) {
    simulations += evaluate(0, list_.size());
    ++batches;
    std::size_t first = 0;
    for (const std::size_t last : wave_ends_) {
      charged_ms += charge(first, last, scores, quarantined);
      first = last;
    }
  }

  // Phase 3: rearrange (l.20-24). Un-simulated Smart leftovers age into
  // Stale; the simulated policies re-rank into Smart (top lambda) and Poor.
  for (const std::size_t index : smart_) stale_.push_back(index);
  smart_.clear();
  // Quarantined candidates demote straight to Poor: they re-enter the
  // random sampling pool next round but never the ranking.
  for (const std::size_t index : quarantined) poor_.push_back(index);

  PSCHED_ASSERT_MSG(!scores.empty() || !quarantined.empty(),
                    "budget did not allow a single simulation");
  SelectionResult result;
  result.total_cost_ms = charged_ms;
  result.quarantined = quarantined.size();
  std::size_t tied = 0;
  if (scores.empty()) {
    // Graceful degradation: every attempted candidate's simulation threw.
    // Apply the last-known-good policy instead of aborting the run; next
    // round re-samples the quarantined set.
    result.degraded = true;
    result.best_index = preferred_index < portfolio_.size() ? preferred_index : 0;
  } else {
    std::stable_sort(scores.begin(), scores.end(),
                     [](const PolicyScore& a, const PolicyScore& b) {
                       if (a.utility != b.utility) return a.utility > b.utility;
                       return a.index < b.index;
                     });
    // Resolve exact ties at the head of the ranking (see TieBreak). The tie
    // set is the run of scores equal to the best within absolute epsilon.
    tied = 1;
    while (tied < scores.size() &&
           scores[tied].utility >= scores.front().utility - 1e-9)
      ++tied;
    std::size_t winner = 0;
    switch (config_.tie_break) {
      case TieBreak::kFirstIndex:
        break;
      case TieBreak::kRandom:
        winner = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(tied) - 1));
        break;
      case TieBreak::kSticky:
        for (std::size_t i = 0; i < tied; ++i) {
          if (scores[i].index == preferred_index) {
            winner = i;
            break;
          }
        }
        break;
    }
    if (winner != 0) std::swap(scores[0], scores[winner]);

    const auto top = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(config_.lambda * static_cast<double>(scores.size()))));
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (i < top) smart_.push_back(scores[i].index);
      else poor_.push_back(scores[i].index);
    }
    result.best_index = scores.front().index;
    result.best_utility = scores.front().utility;
    result.scores = std::move(scores);
  }

  if (obs_on) {
    obs::SelectionRoundRecord record;
    record.sim_now = profile.now;
    record.simulated = result.scores.size();
    record.budget_delta = bounded ? delta : 0.0;
    record.budget_charged = charged_ms;
    record.smart_in = smart_in;
    record.stale_in = stale_in;
    record.poor_in = poor_in;
    record.smart_out = smart_.size();
    record.stale_out = stale_.size();
    record.poor_out = poor_.size();
    for (const std::size_t index : smart_) {
      if (std::find(smart_before.begin(), smart_before.end(), index) ==
          smart_before.end())
        ++record.smart_churn;
    }
    record.quarantined = result.quarantined;
    record.chosen = result.best_index;
    record.chosen_utility = result.best_utility;
    record.tie_set = tied;
    if (result.degraded) {
      record.tie_path = "degraded";
    } else if (tied <= 1) {
      record.tie_path = "unique";
    } else {
      switch (config_.tie_break) {
        case TieBreak::kRandom: record.tie_path = "random"; break;
        case TieBreak::kSticky: record.tie_path = "sticky"; break;
        case TieBreak::kFirstIndex: record.tie_path = "first-index"; break;
      }
    }
    recorder_->record_round(record);
    recorder_->counter_add("selector.rounds", 1.0);
    recorder_->counter_add("selector.candidates",
                           static_cast<double>(result.scores.size()));
    recorder_->counter_add("selector.simulations", static_cast<double>(simulations));
    recorder_->counter_add("selector.batches", static_cast<double>(batches));
    recorder_->counter_add("selector.budget_charged", charged_ms);
    if (result.quarantined > 0)
      recorder_->counter_add("selector.quarantined",
                             static_cast<double>(result.quarantined));
    if (result.degraded) recorder_->counter_add("selector.degraded_rounds", 1.0);
  }
  return result;
}

}  // namespace psched::core
