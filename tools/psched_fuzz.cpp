// psched_fuzz — property-based fuzz driver for the validation subsystem.
//
// Runs randomized full experiments with the runtime invariant checker
// attached (src/validate/fuzz.hpp) and reports the first violating seed,
// shrunk to a smaller still-failing trace prefix.
//
//   psched_fuzz [--seeds N] [--base-seed S] [--max-seconds T]
//               [--inject-fault NAME] [--no-shrink]
//
// --inject-fault (billing-off-by-one, skip-boot-delay, cap-overshoot,
// candidate-throw, tenant-cap-overshoot, tenant-unfair-share) turns the run
// into a checker self-test: it is then EXPECTED to fail. --seeds must be at
// least 1. A flag not listed above is a usage error.
//
// Exit codes: 0 all seeds clean, 1 usage error, 2 invariant violation found.
#include <cstdio>
#include <string>
#include <string_view>

#include "util/argparse.hpp"
#include "validate/fuzz.hpp"

int main(int argc, char** argv) {
  using namespace psched;
  const util::ArgParser args(argc, argv);
  constexpr std::string_view kFlags[] = {"seeds", "base-seed", "max-seconds",
                                         "inject-fault", "no-shrink"};
  args.reject_unknown_flags(kFlags);

  validate::FuzzConfig config;
  config.num_seeds = static_cast<std::size_t>(args.get_int("seeds", 50, 1));
  config.base_seed = static_cast<std::uint64_t>(args.get_int("base-seed", 1));
  config.time_cap_seconds = args.get_double("max-seconds", 0.0);
  config.shrink = !args.get_bool("no-shrink");
  bool ok = true;
  config.inject_fault = validate::fault_from_string(args.get("inject-fault", "none"), ok);
  if (!ok) {
    std::fputs(
        "error: unknown --inject-fault (none, billing-off-by-one, "
        "skip-boot-delay, cap-overshoot, candidate-throw, "
        "tenant-cap-overshoot, tenant-unfair-share)\n",
        stderr);
    return 1;
  }

  const validate::FuzzReport report = validate::run_fuzz(config);
  std::printf("psched_fuzz: %zu/%zu seeds run (base %llu), %llu invariant checks%s\n",
              report.seeds_run, report.seeds_requested,
              static_cast<unsigned long long>(config.base_seed),
              static_cast<unsigned long long>(report.total_checks),
              report.timed_out ? ", time cap hit" : "");

  if (report.pass()) {
    std::printf("no invariant violations\n");
    return 0;
  }

  const validate::FuzzFailure& failure = *report.failure;
  std::printf("VIOLATION at seed %llu (%s)\n",
              static_cast<unsigned long long>(failure.seed), failure.scenario.c_str());
  std::printf("  shrunk to %zu of %zu jobs\n", failure.jobs, failure.original_jobs);
  for (const validate::Violation& v : failure.violations)
    std::printf("  %s at t=%.3f s: %s\n", v.invariant.c_str(), v.when,
                v.detail.c_str());
  std::string repro = "psched_fuzz --seeds 1 --base-seed " + std::to_string(failure.seed);
  if (config.inject_fault != validate::FaultInjection::kNone)
    repro += std::string(" --inject-fault ") + validate::to_string(config.inject_fault);
  std::printf("reproduce: %s\n", repro.c_str());
  return 2;
}
