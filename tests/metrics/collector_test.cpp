#include "metrics/collector.hpp"

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include "expect_same_metrics.hpp"

namespace psched::metrics {
namespace {

JobRecord make_record(JobId id, double submit, double start, double runtime, int procs) {
  JobRecord r;
  r.id = id;
  r.submit = submit;
  r.eligible = submit;  // independent job: eligible at submission
  r.start = start;
  r.finish = start + runtime;
  r.procs = procs;
  r.runtime = runtime;
  return r;
}

TEST(JobRecord, DerivedQuantities) {
  const JobRecord r = make_record(0, 100.0, 150.0, 60.0, 2);
  EXPECT_DOUBLE_EQ(r.wait(), 50.0);
  EXPECT_DOUBLE_EQ(r.response(), 110.0);
}

TEST(MetricsCollector, EmptyFinalize) {
  MetricsCollector c;
  const RunMetrics m = c.finalize();
  EXPECT_EQ(m.jobs, 0u);
  EXPECT_DOUBLE_EQ(m.avg_bounded_slowdown, 1.0);
  EXPECT_DOUBLE_EQ(m.rj_proc_seconds, 0.0);
}

TEST(MetricsCollector, AggregatesJobs) {
  MetricsCollector c(10.0);
  // Job 1: wait 0, runtime 100 -> BSD 1. Job 2: wait 100, runtime 100 -> 2.
  c.record(make_record(0, 0, 0, 100, 2));
  c.record(make_record(1, 0, 100, 100, 4));
  RunMetrics m = c.finalize();
  m.rv_charged_seconds = 7200.0;  // the engine's share: the fleet cost
  EXPECT_EQ(m.jobs, 2u);
  EXPECT_DOUBLE_EQ(m.avg_bounded_slowdown, 1.5);
  EXPECT_DOUBLE_EQ(m.max_bounded_slowdown, 2.0);
  EXPECT_DOUBLE_EQ(m.avg_wait, 50.0);
  EXPECT_DOUBLE_EQ(m.rj_proc_seconds, 600.0);
  EXPECT_DOUBLE_EQ(m.rv_charged_seconds, 7200.0);
  EXPECT_DOUBLE_EQ(m.charged_hours(), 2.0);
  EXPECT_DOUBLE_EQ(m.utilization(), 600.0 / 7200.0);
  EXPECT_DOUBLE_EQ(m.makespan, 200.0);
}

TEST(MetricsCollector, BoundAppliesToShortJobs) {
  MetricsCollector c(10.0);
  // runtime 1, wait 9 -> (9+1)/10 = 1 (bounded), not 10.
  c.record(make_record(0, 0, 9, 1, 1));
  EXPECT_DOUBLE_EQ(c.finalize().avg_bounded_slowdown, 1.0);
}

TEST(MetricsCollector, UtilityDelegation) {
  MetricsCollector c;
  c.record(make_record(0, 0, 0, 1800, 1));
  RunMetrics m = c.finalize();
  m.rv_charged_seconds = 3600.0;
  EXPECT_DOUBLE_EQ(m.utility(UtilityParams{100.0, 1.0, 1.0}), 50.0);
}

TEST(MetricsCollector, RecordsKeptOnlyWhenEnabled) {
  MetricsCollector off;
  off.record(make_record(0, 0, 0, 10, 1));
  EXPECT_TRUE(off.records().empty());

  MetricsCollector on;
  on.keep_records(true);
  on.record(make_record(0, 0, 0, 10, 1));
  ASSERT_EQ(on.records().size(), 1u);
  EXPECT_EQ(on.records()[0].id, 0);
}

TEST(MetricsCollector, RejectsCausalityViolations) {
  MetricsCollector c;
  JobRecord bad = make_record(0, 100, 50, 10, 1);  // started before submit
  EXPECT_DEATH(c.record(bad), "before submission");
  JobRecord worse = make_record(0, 0, 50, 10, 1);
  worse.finish = 40.0;  // finished before start
  EXPECT_DEATH(c.record(worse), "before it started");
}

TEST(MetricsCollector, WaitMeasuredFromEligibility) {
  MetricsCollector c(10.0);
  JobRecord r = make_record(0, 0, 500, 100, 1);
  r.eligible = 450.0;  // blocked on dependencies until 450
  c.record(r);
  // Wait = 500 - 450 = 50 -> BSD (50+100)/100 = 1.5, not (500+100)/100.
  EXPECT_DOUBLE_EQ(c.finalize().avg_bounded_slowdown, 1.5);
  EXPECT_DOUBLE_EQ(c.finalize().avg_wait, 50.0);
}

TEST(MetricsCollector, WorkflowMakespans) {
  MetricsCollector c(10.0);
  // Workflow 1: submit 0, last finish 400. Workflow 2: submit 100, finish 250.
  JobRecord a = make_record(0, 0, 0, 100, 1);
  a.workflow = 1;
  JobRecord b = make_record(1, 0, 300, 100, 1);
  b.eligible = 100.0;
  b.workflow = 1;
  JobRecord d = make_record(2, 100, 150, 100, 1);
  d.workflow = 2;
  JobRecord independent = make_record(3, 0, 0, 50, 1);
  c.record(a);
  c.record(b);
  c.record(d);
  c.record(independent);
  const RunMetrics m = c.finalize();
  EXPECT_EQ(m.workflows, 2u);
  EXPECT_DOUBLE_EQ(m.max_workflow_makespan, 400.0);
  EXPECT_DOUBLE_EQ(m.avg_workflow_makespan, (400.0 + 150.0) / 2.0);
}

TEST(MetricsCollector, NoWorkflowsMeansZeroAggregates) {
  MetricsCollector c;
  c.record(make_record(0, 0, 0, 10, 1));
  const RunMetrics m = c.finalize();
  EXPECT_EQ(m.workflows, 0u);
  EXPECT_DOUBLE_EQ(m.avg_workflow_makespan, 0.0);
}

TEST(MetricsCollector, HashStateDoesNotLeakIntoMetrics) {
  // Regression for psched-lint rule D2 in MetricsCollector::finalize(): the
  // workflow-makespan average is a floating-point sum over an unordered_map,
  // so iterating in bucket order would tie the reported metric to the map's
  // hash state. std::hash cannot be reseeded directly, so the test varies
  // the observable proxy: insertion history (forward / reverse / strided),
  // which changes bucket layout and therefore raw iteration order. The
  // sorted-snapshot emission must make every run bit-identical.
  //
  // Per-job statistics are Welford-accumulated in record order, which is
  // order-sensitive for general inputs — every record therefore carries the
  // *identical* wait and runtime (exact under any order), so any divergence
  // below is attributable to the workflow map alone.
  constexpr std::size_t kWorkflows = 257;  // > default bucket count, forces rehashes
  std::vector<JobRecord> records;
  for (std::size_t w = 0; w < kWorkflows; ++w) {
    const double base = static_cast<double>(w) * 10000.0;
    // Two records per workflow; the span gap 0.1*w is not representable in
    // binary, so the makespan sum order is observable in the last bits.
    JobRecord first = make_record(static_cast<JobId>(2 * w), base, base + 50.0,
                                  100.0, 1);
    first.workflow = static_cast<workload::WorkflowId>(w);
    JobRecord second =
        make_record(static_cast<JobId>(2 * w + 1), base + 0.1 * static_cast<double>(w),
                    base + 0.1 * static_cast<double>(w) + 50.0, 100.0, 1);
    second.workflow = static_cast<workload::WorkflowId>(w);
    records.push_back(first);
    records.push_back(second);
  }

  const auto run = [&](const std::vector<std::size_t>& order) {
    MetricsCollector c(10.0);
    for (const std::size_t i : order) c.record(records[i]);
    return c.finalize();
  };
  std::vector<std::size_t> forward(records.size());
  for (std::size_t i = 0; i < forward.size(); ++i) forward[i] = i;
  std::vector<std::size_t> reverse(forward.rbegin(), forward.rend());
  std::vector<std::size_t> strided;  // co-prime stride: a full permutation
  for (std::size_t i = 0; i < records.size(); ++i)
    strided.push_back(i * 7 % records.size());

  const RunMetrics a = run(forward);
  const RunMetrics b = run(reverse);
  const RunMetrics d = run(strided);
  ASSERT_EQ(a.workflows, kWorkflows);
  expect_same_metrics(a, b);
  expect_same_metrics(a, d);
}

TEST(RunMetrics, AggregateFoldsEveryField) {
  RunMetrics a;
  a.jobs = 2;
  a.avg_bounded_slowdown = 1.5;
  a.max_bounded_slowdown = 4.0;
  a.avg_wait = 10.0;
  a.rj_proc_seconds = 100.0;
  a.rv_charged_seconds = 1000.0;
  a.makespan = 500.0;
  a.workflows = 1;
  a.avg_workflow_makespan = 300.0;
  a.max_workflow_makespan = 350.0;
  a.failures = {3, 5, 6, 7, 8, 9, 11, 12, 12.5, 13.5};
  a.pricing = {19, 14, 15, 16, 17, 18, 20.5, 21.5, 22.5, 23.5, 24.5};
  RunMetrics b;
  b.jobs = 6;
  b.avg_bounded_slowdown = 2.5;
  b.max_bounded_slowdown = 3.25;
  b.avg_wait = 32.0;
  b.rj_proc_seconds = 200.0;
  b.rv_charged_seconds = 3000.0;
  b.makespan = 700.0;
  b.workflows = 3;
  b.avg_workflow_makespan = 100.0;
  b.max_workflow_makespan = 120.0;
  b.failures = {30, 40, 50, 60, 70, 80, 90, 110, 120.25, 130.25};
  b.pricing = {23, 140, 150, 160, 170, 180, 10.25, 20.25, 30.25, 40.25, 50.25};

  const std::vector<RunMetrics> runs = {a, b};
  const RunMetrics m = aggregate(runs);
  EXPECT_EQ(m.jobs, 8u);
  EXPECT_DOUBLE_EQ(m.avg_bounded_slowdown, (1.5 * 2 + 2.5 * 6) / 8);
  EXPECT_DOUBLE_EQ(m.max_bounded_slowdown, 4.0);
  EXPECT_DOUBLE_EQ(m.avg_wait, (10.0 * 2 + 32.0 * 6) / 8);
  EXPECT_DOUBLE_EQ(m.rj_proc_seconds, 300.0);
  EXPECT_DOUBLE_EQ(m.rv_charged_seconds, 4000.0);
  EXPECT_DOUBLE_EQ(m.makespan, 700.0);
  EXPECT_EQ(m.workflows, 4u);
  EXPECT_DOUBLE_EQ(m.avg_workflow_makespan, (300.0 * 1 + 100.0 * 3) / 4);
  EXPECT_DOUBLE_EQ(m.max_workflow_makespan, 350.0);

  const FailureStats& f = m.failures;
  EXPECT_EQ(f.boot_failures, 33u);
  EXPECT_EQ(f.vm_crashes, 45u);
  EXPECT_EQ(f.api_rejected_leases, 56u);
  EXPECT_EQ(f.api_rejected_releases, 67u);
  EXPECT_EQ(f.lease_retries, 78u);
  EXPECT_EQ(f.job_kills, 89u);
  EXPECT_EQ(f.job_resubmissions, 101u);
  EXPECT_EQ(f.jobs_killed_final, 122u);
  EXPECT_DOUBLE_EQ(f.wasted_proc_seconds, 132.75);
  EXPECT_DOUBLE_EQ(f.paid_wasted_seconds, 143.75);

  const PricingStats& p = m.pricing;
  EXPECT_EQ(p.families, 23u);  // the widest market, not a sum
  EXPECT_EQ(p.on_demand_leases, 154u);
  EXPECT_EQ(p.spot_leases, 165u);
  EXPECT_EQ(p.reserved_leases, 176u);
  EXPECT_EQ(p.spot_warnings, 187u);
  EXPECT_EQ(p.spot_revocations, 198u);
  EXPECT_DOUBLE_EQ(p.spend_on_demand_dollars, 30.75);
  EXPECT_DOUBLE_EQ(p.spend_spot_dollars, 41.75);
  EXPECT_DOUBLE_EQ(p.spend_reserved_dollars, 52.75);
  EXPECT_DOUBLE_EQ(p.spot_savings_dollars, 63.75);
  EXPECT_DOUBLE_EQ(p.revoked_charged_seconds, 74.75);

  // Without jobs or workflows the means keep their defaults.
  const std::vector<RunMetrics> idle(2);
  const RunMetrics none = aggregate(idle);
  EXPECT_EQ(none.jobs, 0u);
  EXPECT_DOUBLE_EQ(none.avg_bounded_slowdown, 1.0);
  EXPECT_DOUBLE_EQ(none.max_bounded_slowdown, 1.0);
  EXPECT_DOUBLE_EQ(none.avg_workflow_makespan, 0.0);
}

TEST(RunMetrics, ExpectSameMetricsNamesTheDifferingField) {
  const RunMetrics a;
  RunMetrics b;
  b.failures.api_rejected_releases = 1;
  EXPECT_NONFATAL_FAILURE(expect_same_metrics(a, b), "failures.api_rejected_releases");
}

TEST(RunMetrics, ZeroCostUtilizationIsZero) {
  RunMetrics m;
  m.rj_proc_seconds = 10.0;
  m.rv_charged_seconds = 0.0;
  EXPECT_DOUBLE_EQ(m.utilization(), 0.0);
}

}  // namespace
}  // namespace psched::metrics
