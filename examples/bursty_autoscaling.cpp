// Bursty autoscaling: watch the portfolio scheduler adapt to a bursty
// grid-style workload (DAS2-fs0-like). Uses the lower-level API —
// PortfolioScheduler + ClusterSimulation directly — to read the selection
// rounds a Recorder kept and print an hour-by-hour timeline of arrival
// intensity versus the provisioning cluster the scheduler selected.
//
//   ./bursty_autoscaling [--days N] [--seed S]
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "engine/cluster_sim.hpp"
#include "engine/experiment.hpp"
#include "obs/obs.hpp"
#include "util/argparse.hpp"
#include "util/histogram.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace psched;
  const util::ArgParser args(argc, argv);
  const double days = args.get_double("days", 2.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

  const workload::Trace trace =
      workload::TraceGenerator(workload::das2_fs0_like(days)).generate(seed).cleaned(64);
  std::printf("workload: %zu bursty jobs over %.1f days\n\n", trace.size(), days);

  // Assemble the stack by hand (engine::run_portfolio wraps exactly this).
  const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  const engine::EngineConfig config = engine::paper_engine_config();
  core::PortfolioScheduler scheduler(portfolio,
                                     engine::paper_portfolio_config(config));
  const auto predictor = engine::make_predictor(engine::PredictorKind::kPerfect);
  // A counters-level recorder keeps one record per selection round.
  obs::Recorder recorder(obs::ObsConfig{.level = obs::ObsLevel::kCounters});
  engine::ClusterSimulation sim(config, trace, scheduler, *predictor, &recorder);
  const engine::RunResult result = sim.run();

  // Arrival intensity per hour, for the timeline's left column.
  util::TimeSeriesCounter arrivals(3600.0);
  for (const workload::Job& j : trace.jobs()) arrivals.add(j.submit);

  // Selection rounds -> dominant provisioning cluster per hour.
  struct HourStats {
    std::map<std::string, int> clusters;
    int selections = 0;
  };
  std::vector<HourStats> hours(arrivals.buckets());
  for (const obs::SelectionRoundRecord& record : recorder.rounds()) {
    const auto hour = static_cast<std::size_t>(record.sim_now / 3600.0);
    if (hour >= hours.size()) continue;
    const auto& policy = portfolio.policies()[record.chosen];
    hours[hour].clusters[policy.provisioning->name()]++;
    hours[hour].selections++;
  }

  std::printf("hour  arrivals  selections  dominant provisioning\n");
  std::printf("----  --------  ----------  ---------------------\n");
  for (std::size_t h = 0; h < hours.size(); ++h) {
    std::string dominant = "-";
    int best = 0;
    for (const auto& [name, count] : hours[h].clusters) {
      if (count > best) {
        best = count;
        dominant = name;
      }
    }
    const auto bar_len = std::min<std::size_t>(30, arrivals.count(h) / 4);
    std::printf("%4zu  %8zu  %10d  %-4s %s\n", h, arrivals.count(h),
                hours[h].selections, dominant.c_str(),
                std::string(bar_len, '#').c_str());
  }

  const metrics::RunMetrics& m = result.metrics;
  std::printf("\nsummary: BSD %.3f | cost %.0f VM-h | utilization %.1f%% | U %.2f\n",
              m.avg_bounded_slowdown, m.charged_hours(), 100.0 * m.utilization(),
              m.utility(config.utility));
  std::printf("selection processes: %zu, total simulation cost %.1f ms\n",
              scheduler.reflection().invocations(),
              scheduler.reflection().total_cost_ms());
  return 0;
}
