#include "core/selector.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace psched::core {

namespace {

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
  wave_width_ = config_.eval_threads != 0
                    ? config_.eval_threads
                    : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (wave_width_ > 1) {
    if (shared_pool != nullptr) {
      pool_ = shared_pool;
    } else {
      // The coordinating thread drains waves too (ThreadPool::run_batch), so
      // wave_width_ - 1 workers give wave_width_ concurrent simulations.
      owned_pool_ = std::make_unique<util::ThreadPool>(wave_width_ - 1);
      pool_ = owned_pool_.get();
    }
  }
  // One arena per wave slot (slot k of every wave simulates in arenas_[k]).
  arenas_.resize(wave_width_);
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

double TimeConstrainedSelector::simulate_one(std::size_t index,
                                             std::vector<PolicyScore>& scores,
                                             std::vector<std::size_t>& quarantined) {
  // Candidate trace spans use the recorder's clock (obs.cpp), independent of
  // the budget clock below, so tracing can never perturb budget accounting.
  const bool tracing = recorder_ != nullptr && recorder_->tracing_on();
  if (tracing)
    recorder_->append_event(obs::TraceEvent{"selector.candidate", 'B',
                                            recorder_->now_us(), 0,
                                            candidate_args(index)});
  if (config_.budget_mode == BudgetMode::kFixedCount) {
    // Deterministic accounting: one unit per candidate, no clock read. A
    // throwing candidate still consumed its budget slot, so the unit is
    // charged either way.
    SimOutcome outcome;
    bool failed = false;
    try {
      outcome = simulator_.simulate(snapshot_, portfolio_.policies()[index], arenas_[0]);
    } catch (const std::exception&) {
      failed = true;
    }
    if (failed)
      quarantined.push_back(index);
    else
      scores.push_back(PolicyScore{index, outcome.utility, 1.0});
    if (tracing)
      recorder_->append_event(
          obs::TraceEvent{"selector.candidate", 'E', recorder_->now_us(), 0, {}});
    return 1.0;
  }
  SimOutcome outcome;
  bool failed = false;
  const auto start = std::chrono::steady_clock::now();
  try {
    outcome = simulator_.simulate(snapshot_, portfolio_.policies()[index], arenas_[0]);
  } catch (const std::exception&) {
    failed = true;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double measured_ms = std::chrono::duration<double, std::milli>(elapsed).count();
  double cost = config_.synthetic_overhead_ms;
  if (config_.use_measured_cost) cost += measured_ms;
  // Per-candidate budget blow-out: the time was spent (cost is charged),
  // but the result is not trusted into the ranking.
  if (!failed && config_.candidate_timeout_ms > 0.0 &&
      cost > config_.candidate_timeout_ms)
    failed = true;
  if (failed)
    quarantined.push_back(index);
  else
    scores.push_back(PolicyScore{index, outcome.utility, cost});
  if (tracing)
    recorder_->append_event(
        obs::TraceEvent{"selector.candidate", 'E', recorder_->now_us(), 0, {}});
  return cost;
}

double TimeConstrainedSelector::run_wave(std::span<const std::size_t> wave,
                                         std::vector<PolicyScore>& scores,
                                         std::vector<std::size_t>& quarantined) {
  PSCHED_ASSERT(!wave.empty());
  // A singleton wave runs inline on the coordinating thread — this is the
  // whole story when eval_threads = 1, which keeps that path bit-identical
  // to the sequential algorithm (no pool, no extra timing scopes).
  if (wave.size() == 1)
    return simulate_one(wave.front(), scores, quarantined);

  PSCHED_ASSERT(pool_ != nullptr);
  // Wave candidate tracing writes into per-slot buffers (lane 1 + slot),
  // merged in slot order after the batch barrier: workers never touch the
  // shared sink directly, so the trace stream is deterministic for a fixed
  // eval_threads even though workers finish in any order.
  const bool tracing = recorder_ != nullptr && recorder_->tracing_on();
  std::vector<std::vector<obs::TraceEvent>> slot_events(tracing ? wave.size() : 0);
  const auto trace_slot = [&](std::size_t k, std::int64_t b_us, std::int64_t e_us) {
    slot_events[k].push_back(obs::TraceEvent{"selector.candidate", 'B', b_us,
                                             static_cast<std::uint32_t>(1 + k),
                                             candidate_args(wave[k])});
    slot_events[k].push_back(obs::TraceEvent{
        "selector.candidate", 'E', e_us, static_cast<std::uint32_t>(1 + k), {}});
  };
  const auto merge_slots = [&] {
    if (!tracing) return;
    for (std::vector<obs::TraceEvent>& buffer : slot_events)
      recorder_->merge_events(std::move(buffer));
  };

  std::vector<SimOutcome> outcomes(wave.size());
  if (config_.budget_mode == BudgetMode::kFixedCount) {
    // Deterministic accounting: workers fill disjoint outcome slots without
    // touching a budget clock; each candidate charges one unit, so a wave
    // costs its size and the budget drains exactly as in the sequential run —
    // that (plus the quota-capped wave fill in select()) is what makes the
    // candidate set identical across eval_threads widths. (Trace timestamps
    // come from the recorder's own clock and feed reporting only.)
    // Worker exceptions must not escape run_batch (it rethrows the first
    // onto the coordinating thread): each slot traps its own failure into a
    // disjoint flag byte (unsigned char, not vector<bool> — slots must be
    // independently writable).
    std::vector<unsigned char> wave_failed(wave.size(), 0);
    pool_->run_batch(wave.size(), [&](std::size_t k) {
      const std::int64_t b_us = tracing ? recorder_->now_us() : 0;
      try {
        outcomes[k] =
            simulator_.simulate(snapshot_, portfolio_.policies()[wave[k]], arenas_[k]);
      } catch (const std::exception&) {
        wave_failed[k] = 1;
      }
      if (tracing) trace_slot(k, b_us, recorder_->now_us());
    });
    merge_slots();
    for (std::size_t k = 0; k < wave.size(); ++k) {
      if (wave_failed[k] != 0)
        quarantined.push_back(wave[k]);
      else
        scores.push_back(PolicyScore{wave[k], outcomes[k].utility, 1.0});
    }
    return static_cast<double>(wave.size());
  }
  std::vector<double> measured_ms(wave.size(), 0.0);
  std::vector<unsigned char> wave_failed(wave.size(), 0);
  pool_->run_batch(wave.size(), [&](std::size_t k) {
    const std::int64_t b_us = tracing ? recorder_->now_us() : 0;
    const auto start = std::chrono::steady_clock::now();
    try {
      outcomes[k] =
          simulator_.simulate(snapshot_, portfolio_.policies()[wave[k]], arenas_[k]);
    } catch (const std::exception&) {
      wave_failed[k] = 1;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    measured_ms[k] = std::chrono::duration<double, std::milli>(elapsed).count();
    if (tracing) trace_slot(k, b_us, recorder_->now_us());
  });
  merge_slots();

  // Scores append in wave (= submission) order, so the ranking input is
  // independent of which worker finished first. The wave's budget charge is
  // the slowest member (they ran concurrently) plus one synthetic overhead;
  // failed members spent that wall time too, so they count toward it.
  double slowest_ms = 0.0;
  for (std::size_t k = 0; k < wave.size(); ++k) {
    double cost = config_.synthetic_overhead_ms;
    if (config_.use_measured_cost) {
      cost += measured_ms[k];
      slowest_ms = std::max(slowest_ms, measured_ms[k]);
    }
    if (wave_failed[k] == 0 && config_.candidate_timeout_ms > 0.0 &&
        cost > config_.candidate_timeout_ms)
      wave_failed[k] = 1;
    if (wave_failed[k] != 0)
      quarantined.push_back(wave[k]);
    else
      scores.push_back(PolicyScore{wave[k], outcomes[k].utility, cost});
  }
  return config_.synthetic_overhead_ms + slowest_ms;
}

SelectionResult TimeConstrainedSelector::select(
    std::span<const policy::QueuedJob> queue, const cloud::CloudProfile& profile,
    std::size_t preferred_index, std::span<const std::size_t> hints) {
  PSCHED_ASSERT_MSG(!queue.empty(), "selection on an empty queue is undefined");

  // Build the shared round snapshot once (DESIGN.md §11): every candidate
  // wave reads it.
  snapshot_.build(queue, profile);

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
  std::vector<std::size_t> quarantined;  // threw / blew per-candidate budget
  double charged_ms = 0.0;  // budget actually charged (sum of wave costs)
  std::vector<std::size_t> wave;
  wave.reserve(wave_width_);

  // Waves fill with up to wave_width_ candidates on the coordinating thread
  // (front-of-set order; for Poor, RNG draws — also coordinating-thread-only,
  // so the draw sequence matches the sequential algorithm's pick-by-pick
  // sampling) and are simulated concurrently by run_wave.
  //
  // In fixed-count mode a wave additionally never overshoots the remaining
  // quota: the sequential algorithm runs exactly ceil(quota) more unit-cost
  // simulations before the budget flips non-positive, so capping the fill at
  // that count keeps the simulated candidate set — and therefore the whole
  // round — identical for every eval_threads width.
  const auto wave_cap = [&](double quota) {
    if (!(fixed && bounded)) return wave_width_;
    return std::min(wave_width_, static_cast<std::size_t>(std::ceil(quota)));
  };
  const auto drain_ordered = [&](std::deque<std::size_t>& set, double& quota) {
    while (!set.empty() && quota > 0.0) {
      wave.clear();
      while (!set.empty() && wave.size() < wave_cap(quota)) {
        wave.push_back(set.front());
        set.pop_front();
      }
      const double cost = run_wave(wave, scores, quarantined);
      quota -= cost;
      charged_ms += cost;
    }
  };

  // Phase 2a: Smart, in order, while its quota lasts (l.3-7).
  drain_ordered(smart_, quota_smart);
  // Phase 2b: Stale, in staleness order (l.8-12).
  drain_ordered(stale_, quota_stale);
  // Phase 2c: Poor, random picks, with the leftovers folded in (l.13-19).
  double quota = quota_poor + std::max(0.0, quota_smart) + std::max(0.0, quota_stale);
  while (!poor_.empty() && quota > 0.0) {
    wave.clear();
    while (!poor_.empty() && wave.size() < wave_cap(quota)) {
      const auto pick = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(poor_.size()) - 1));
      wave.push_back(poor_[pick]);
      poor_[pick] = poor_.back();
      poor_.pop_back();
    }
    const double cost = run_wave(wave, scores, quarantined);
    quota -= cost;
    charged_ms += cost;
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
  if (scores.empty()) {
    // Graceful degradation: every attempted candidate threw or blew its
    // per-candidate budget. Apply the last-known-good policy instead of
    // aborting the run; next round re-samples the quarantined set.
    SelectionResult result;
    result.degraded = true;
    result.quarantined = quarantined.size();
    result.best_index =
        preferred_index < portfolio_.size() ? preferred_index : 0;
    result.best_utility = 0.0;
    result.total_cost_ms = charged_ms;
    if (obs_on) {
      obs::SelectionRoundRecord record;
      record.sim_now = profile.now;
      record.simulated = 0;
      record.budget_delta = bounded ? delta : 0.0;
      record.budget_charged = charged_ms;
      record.smart_in = smart_in;
      record.stale_in = stale_in;
      record.poor_in = poor_in;
      record.smart_out = smart_.size();
      record.stale_out = stale_.size();
      record.poor_out = poor_.size();
      record.quarantined = quarantined.size();
      record.chosen = result.best_index;
      record.chosen_utility = 0.0;
      record.tie_set = 0;
      record.tie_path = "degraded";
      recorder_->record_round(record);
      recorder_->counter_add("selector.rounds", 1.0);
      recorder_->counter_add("selector.quarantined",
                             static_cast<double>(quarantined.size()));
      recorder_->counter_add("selector.degraded_rounds", 1.0);
    }
    return result;
  }
  std::stable_sort(scores.begin(), scores.end(),
                   [](const PolicyScore& a, const PolicyScore& b) {
                     if (a.utility != b.utility) return a.utility > b.utility;
                     return a.index < b.index;
                   });
  // Resolve exact ties at the head of the ranking (see TieBreak). The tie
  // set is the run of scores equal to the best within absolute epsilon.
  std::size_t tied = 1;
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

  SelectionResult result;
  result.best_index = scores.front().index;
  result.best_utility = scores.front().utility;
  result.total_cost_ms = charged_ms;
  result.quarantined = quarantined.size();
  result.scores = std::move(scores);

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
    if (tied <= 1) {
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
    recorder_->counter_add("selector.budget_charged", charged_ms);
    if (result.quarantined > 0)
      recorder_->counter_add("selector.quarantined",
                             static_cast<double>(result.quarantined));
  }
  return result;
}

}  // namespace psched::core
