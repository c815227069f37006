#pragma once
// The four job-selection policies (paper §3.1, after Tang et al.): each
// assigns a priority to every waiting job; the queue is served in
// descending-priority order, strictly from the head (no backfilling — the
// paper defers backfilling to future work).
//
// Notation: qi = wait time, ti = (predicted) runtime, ni = processors.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "policy/context.hpp"

namespace psched::policy {

class JobSelectionPolicy {
 public:
  virtual ~JobSelectionPolicy() = default;

  /// Higher priority = served earlier. Ties broken by submit order.
  [[nodiscard]] virtual double priority(const QueuedJob& job, SimTime now) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// FCFS (baseline): pi = qi.
class FcfsSelection final : public JobSelectionPolicy {
 public:
  [[nodiscard]] double priority(const QueuedJob& job, SimTime now) const override;
  [[nodiscard]] std::string name() const override { return "FCFS"; }
};

/// LXF (Largest-slowdown-First): pi = (qi + ti) / ti.
class LxfSelection final : public JobSelectionPolicy {
 public:
  [[nodiscard]] double priority(const QueuedJob& job, SimTime now) const override;
  [[nodiscard]] std::string name() const override { return "LXF"; }
};

/// WFP3: pi = (qi / ti)^3 * ni — favors wide jobs, cubes the slowdown term.
class Wfp3Selection final : public JobSelectionPolicy {
 public:
  [[nodiscard]] double priority(const QueuedJob& job, SimTime now) const override;
  [[nodiscard]] std::string name() const override { return "WFP3"; }
};

/// UNICEF: pi = qi / (log2(ni) * ti) — fast turnaround for small/short jobs.
/// log2(ni) is clamped below at 1 (serial jobs would otherwise divide by 0;
/// documented deviation, see DESIGN.md).
class UnicefSelection final : public JobSelectionPolicy {
 public:
  [[nodiscard]] double priority(const QueuedJob& job, SimTime now) const override;
  [[nodiscard]] std::string name() const override { return "UNICEF"; }
};

/// Sorts `queue` in service order for the given policy: descending priority,
/// ties by (submit, id), then by queue position, so jobs with equal keys
/// keep their order. A queue already in service order is left untouched
/// (neither sorted nor copied). Throws std::invalid_argument on a NaN
/// priority or submit time.
void order_queue(std::vector<QueuedJob>& queue, const JobSelectionPolicy& policy,
                 SimTime now);

/// Reusable working state for the scratch-taking order_queue overload: the
/// priority-keyed index array and the reorder buffer. Contents are
/// meaningless between calls; reuse only keeps vector capacity warm.
struct OrderScratch {
  std::vector<std::pair<double, std::size_t>> keyed;
  std::vector<QueuedJob> reordered;
};

/// Allocation-free order_queue for the online simulator's decision loop and
/// the engine tick (identical resulting order; see DESIGN.md §11).
void order_queue(std::vector<QueuedJob>& queue, const JobSelectionPolicy& policy,
                 SimTime now, OrderScratch& scratch);

/// Factory by name ("FCFS", "LXF", "WFP3", "UNICEF"); throws on unknown.
[[nodiscard]] std::unique_ptr<JobSelectionPolicy> make_job_selection(const std::string& name);

/// All four, in the paper's order.
[[nodiscard]] std::vector<std::unique_ptr<JobSelectionPolicy>> all_job_selection();

}  // namespace psched::policy
