#include "metrics/collector.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace psched::metrics {

MetricsCollector::MetricsCollector(double slowdown_bound) : bound_(slowdown_bound) {
  PSCHED_ASSERT(slowdown_bound > 0.0);
}

void MetricsCollector::record(const JobRecord& record) {
  PSCHED_ASSERT_MSG(record.start >= record.submit, "job started before submission");
  PSCHED_ASSERT_MSG(record.eligible >= record.submit, "eligible before submission");
  PSCHED_ASSERT_MSG(record.start >= record.eligible, "job started before eligible");
  PSCHED_ASSERT_MSG(record.finish >= record.start, "job finished before it started");
  const double bsd = workload::bounded_slowdown(record.wait(), record.runtime, bound_);
  slowdowns_.add(bsd);
  waits_.add(record.wait());
  rj_ += static_cast<double>(record.procs) * record.runtime;
  makespan_ = std::max(makespan_, record.finish);
  if (record.workflow != workload::kNoWorkflow) {
    const auto [it, inserted] = workflows_.try_emplace(
        record.workflow, WorkflowSpan{record.submit, record.finish});
    if (!inserted) {
      it->second.first_submit = std::min(it->second.first_submit, record.submit);
      it->second.last_finish = std::max(it->second.last_finish, record.finish);
    }
  }
  if (keep_records_) records_.push_back(record);
}

RunMetrics MetricsCollector::finalize() const {
  RunMetrics m;
  m.jobs = slowdowns_.count();
  m.avg_bounded_slowdown = m.jobs ? slowdowns_.mean() : 1.0;
  m.max_bounded_slowdown = m.jobs ? slowdowns_.max() : 1.0;
  m.avg_wait = waits_.mean();
  m.rj_proc_seconds = rj_;
  m.makespan = makespan_;
  m.workflows = workflows_.size();
  // Aggregate through an id-sorted snapshot: the average is a floating-point
  // sum, so folding in hash-table order would make the reported metric
  // depend on the map's hash state (psched-lint D2; pinned by the
  // HashStateDoesNotLeakIntoMetrics regression test).
  // psched-lint: order-insensitive(snapshot is sorted by workflow id below)
  std::vector<std::pair<workload::WorkflowId, WorkflowSpan>> spans(workflows_.begin(),
                                                                   workflows_.end());
  std::sort(spans.begin(), spans.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [id, span] : spans) {
    const double ms = span.last_finish - span.first_submit;
    m.avg_workflow_makespan += ms;
    m.max_workflow_makespan = std::max(m.max_workflow_makespan, ms);
  }
  if (m.workflows > 0)
    m.avg_workflow_makespan /= static_cast<double>(m.workflows);
  return m;
}

void MetricsCollector::capture_digest(util::StateDigest& digest) const {
  digest.add_size("metrics.jobs", slowdowns_.count());
  digest.add_double("metrics.slowdown_mean", slowdowns_.mean());
  digest.add_double("metrics.slowdown_var", slowdowns_.variance());
  digest.add_double("metrics.slowdown_min", slowdowns_.min());
  digest.add_double("metrics.slowdown_max", slowdowns_.max());
  digest.add_double("metrics.slowdown_sum", slowdowns_.sum());
  digest.add_double("metrics.wait_mean", waits_.mean());
  digest.add_double("metrics.wait_var", waits_.variance());
  digest.add_double("metrics.wait_sum", waits_.sum());
  digest.add_double("metrics.rj", rj_);
  digest.add_double("metrics.makespan", makespan_);
  digest.add_size("metrics.records", records_.size());
  util::UnorderedFold workflows;
  // psched-lint: order-insensitive(UnorderedFold is commutative)
  for (const auto& [id, span] : workflows_) {
    std::uint64_t h = util::digest_mix(0, static_cast<std::uint64_t>(id));
    h = util::digest_mix(h, span.first_submit);
    h = util::digest_mix(h, span.last_finish);
    workflows.absorb(h);
  }
  digest.add_fold("metrics.workflows", workflows);
}

namespace {

/// Walks every field of RunMetrics, its failure block and its pricing block.
template <typename Visit, typename... M>
void visit_all_fields(Visit&& visit, M&... m) {
  visit_fields(visit, m...);
  visit_fields(visit, m.failures...);
  visit_fields(visit, m.pricing...);
}

/// The weight a run's mean field carries into the aggregate; 0 for sums
/// and maxes.
double weight_of(Fold fold, const RunMetrics& m) {
  if (fold == Fold::kJobMean) return static_cast<double>(m.jobs);
  return fold == Fold::kWorkflowMean ? static_cast<double>(m.workflows) : 0.0;
}

}  // namespace

RunMetrics aggregate(std::span<const RunMetrics> runs) {
  RunMetrics agg;
  RunMetrics weighted;  // per mean field: sum of value * weight
  visit_all_fields([](const char*, Fold, auto& w) { w = 0; }, weighted);
  for (const RunMetrics& run : runs) {
    visit_all_fields(
        [&run](const char*, Fold fold, auto& a, auto& w, const auto& v) {
          switch (fold) {
            case Fold::kSum: a += v; break;
            case Fold::kMax: a = std::max(a, v); break;
            case Fold::kJobMean:
            case Fold::kWorkflowMean: w += v * weight_of(fold, run); break;
          }
        },
        agg, weighted, run);
  }
  visit_all_fields(
      [&agg](const char*, Fold fold, auto& a, const auto& w) {
        const double weight = weight_of(fold, agg);
        if (weight > 0.0) a = w / weight;
      },
      agg, weighted);
  return agg;
}

}  // namespace psched::metrics
