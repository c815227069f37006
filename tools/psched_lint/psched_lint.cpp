// psched-lint driver. See lint.hpp for the rule catalog (D1-D8) and
// DESIGN.md §8 for the policy behind it.
//
// Usage:
//   psched_lint [--root <repo>] [subdir...]    lint the tree (default:
//                                              src bench tools)
//   psched_lint --self-test <fixture-dir>      verify the rule engine against
//                                              the known-bad fixture corpus
//   psched_lint --list-rules                   print the rule catalog
//
// Exit status: 0 clean, 1 violations (or failed self-test), 2 usage error.

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

void print_rules() {
  std::cout << "psched-lint rule catalog (suppress with `// psched-lint: "
               "suppress(Dk) why`;\n"
               "D2/D8 also accept `order-insensitive(why)`):\n";
  for (const psched::lint::RuleInfo& rule : psched::lint::rule_catalog())
    std::cout << "  " << rule.id << "  " << rule.summary << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  fs::path root = fs::current_path();
  fs::path self_test_dir;
  bool self_test = false;
  std::vector<std::string> subdirs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--self-test" && i + 1 < argc) {
      self_test = true;
      self_test_dir = argv[++i];
    } else if (arg == "--list-rules") {
      print_rules();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: psched_lint [--root DIR] [subdir...] | "
                   "--self-test FIXTURE_DIR | --list-rules\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "psched-lint: unknown option " << arg << "\n";
      return 2;
    } else {
      subdirs.push_back(arg);
    }
  }

  if (self_test) return psched::lint::run_self_test(self_test_dir) ? 0 : 1;

  if (subdirs.empty()) subdirs = {"src", "bench", "tools"};
  psched::lint::LintOptions options;
  options.root = root;
  const std::vector<psched::lint::Finding> findings =
      psched::lint::lint_tree(options, subdirs, {"tools/psched_lint/fixtures/"});

  for (const psched::lint::Finding& f : findings) {
    std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
              << "\n";
  }
  if (findings.empty()) {
    std::cout << "psched-lint: OK (rules D1-D8 over";
    for (const std::string& s : subdirs) std::cout << " " << s;
    std::cout << ")\n";
    return 0;
  }
  std::cerr << "psched-lint: " << findings.size() << " violation"
            << (findings.size() == 1 ? "" : "s") << " (see DESIGN.md §8)\n";
  return 1;
}
