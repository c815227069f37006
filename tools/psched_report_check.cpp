// psched-report-check — validate observability artifacts (DESIGN.md §9).
//
// usage: psched-report-check [--report FILE.json] [--trace FILE.json]
//                            [--bench FILE.json]
//
// Checks the same schemas the unit tests pin, via the shared validators in
// src/obs/report.hpp: a --report file must be a well-formed
// "psched-run-report/v1" document; a --trace file must be a Chrome
// trace-event document with per-lane monotone timestamps and matched B/E
// pairs; a --bench file must be a rectangular "psched-bench-report/v1"
// table (bench harness `--report` output). CI runs this against the
// artifacts `psched run --report-out --trace-out` emits, so a schema drift
// fails the build rather than the first downstream consumer.
//
// Exit codes: 0 all given files valid, 1 usage error, 2 validation failure.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/report.hpp"
#include "util/argparse.hpp"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Validate one file with `validate`; returns true when it passes.
bool check(const std::string& path, const char* what,
           psched::obs::ValidationResult (*validate)(std::string_view)) {
  std::string content;
  if (!read_file(path, content)) {
    std::fprintf(stderr, "psched-report-check: cannot read %s\n", path.c_str());
    return false;
  }
  const psched::obs::ValidationResult result = validate(content);
  if (!result.ok) {
    std::fprintf(stderr, "psched-report-check: %s %s: %s\n", what, path.c_str(),
                 result.detail.c_str());
    return false;
  }
  std::printf("psched-report-check: %s %s: ok\n", what, path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const psched::util::ArgParser args(argc, argv);
  const std::string report = args.get("report", "");
  const std::string trace = args.get("trace", "");
  const std::string bench = args.get("bench", "");
  if (report.empty() && trace.empty() && bench.empty()) {
    std::fputs(
        "usage: psched-report-check [--report FILE.json] [--trace FILE.json]"
        " [--bench FILE.json]\n",
        stderr);
    return 1;
  }
  bool ok = true;
  if (!report.empty()) ok = check(report, "report", psched::obs::validate_run_report) && ok;
  if (!trace.empty()) ok = check(trace, "trace", psched::obs::validate_chrome_trace) && ok;
  if (!bench.empty()) ok = check(bench, "bench report", psched::obs::validate_bench_report) && ok;
  return ok ? 0 : 2;
}
