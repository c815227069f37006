#include "policy/job_selection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace psched::policy {

namespace {
/// Runtime floor: priorities divide by ti, and predictions are >= 1 s by
/// contract, but guard against degenerate inputs in user-built contexts.
double safe_runtime(const QueuedJob& j) noexcept {
  return std::max(1.0, j.predicted_runtime);
}
}  // namespace

double FcfsSelection::priority(const QueuedJob& job, SimTime now) const {
  return job.wait(now);
}

double LxfSelection::priority(const QueuedJob& job, SimTime now) const {
  const double t = safe_runtime(job);
  return (job.wait(now) + t) / t;
}

double Wfp3Selection::priority(const QueuedJob& job, SimTime now) const {
  const double x = job.wait(now) / safe_runtime(job);
  return x * x * x * static_cast<double>(job.procs);
}

double UnicefSelection::priority(const QueuedJob& job, SimTime now) const {
  const double width = std::max(1.0, std::log2(static_cast<double>(std::max(job.procs, 2))));
  return job.wait(now) / (width * safe_runtime(job));
}

void order_queue(std::vector<QueuedJob>& queue, const JobSelectionPolicy& policy,
                 SimTime now, OrderScratch& scratch) {
  // Compute priorities once (they are pure in the job), then sort on them.
  // NaN has no place in the order below (std::sort would be undefined on
  // it), so it is rejected; infinities order like any other value.
  std::vector<std::pair<double, std::size_t>>& keyed = scratch.keyed;
  keyed.resize(queue.size());
  for (std::size_t i = 0; i < queue.size(); ++i) {
    keyed[i] = {policy.priority(queue[i], now), i};
    if (std::isnan(keyed[i].first) || std::isnan(queue[i].submit))
      throw std::invalid_argument("order_queue: NaN job priority or submit time");
  }
  // A total order: the queue position breaks the last ties, so the result
  // equals a stable sort on (priority, submit, id) without its buffer.
  const auto before = [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    const QueuedJob& ja = queue[a.second];
    const QueuedJob& jb = queue[b.second];
    if (ja.submit != jb.submit) return ja.submit < jb.submit;
    if (ja.id != jb.id) return ja.id < jb.id;
    return a.second < b.second;
  };
  // Sorting a queue already in service order is the identity — always so
  // for FCFS after the first decision — so skip it and the copy.
  if (std::is_sorted(keyed.begin(), keyed.end(), before)) return;
  std::sort(keyed.begin(), keyed.end(), before);
  std::vector<QueuedJob>& ordered = scratch.reordered;
  ordered.clear();
  ordered.reserve(queue.size());
  for (const auto& [priority, index] : keyed) ordered.push_back(queue[index]);
  queue.swap(ordered);
}

void order_queue(std::vector<QueuedJob>& queue, const JobSelectionPolicy& policy,
                 SimTime now) {
  OrderScratch scratch;
  order_queue(queue, policy, now, scratch);
}

std::unique_ptr<JobSelectionPolicy> make_job_selection(const std::string& name) {
  if (name == "FCFS") return std::make_unique<FcfsSelection>();
  if (name == "LXF") return std::make_unique<LxfSelection>();
  if (name == "WFP3") return std::make_unique<Wfp3Selection>();
  if (name == "UNICEF") return std::make_unique<UnicefSelection>();
  throw std::invalid_argument("unknown job-selection policy: " + name);
}

std::vector<std::unique_ptr<JobSelectionPolicy>> all_job_selection() {
  std::vector<std::unique_ptr<JobSelectionPolicy>> out;
  for (const char* name : {"FCFS", "LXF", "UNICEF", "WFP3"})
    out.push_back(make_job_selection(name));
  return out;
}

}  // namespace psched::policy
