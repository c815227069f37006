// psched-lint rule engine: one check per rule D1-D8 (detection, allowlist,
// suppression honoring), the SUPP meta-rule, the fixture self-test, and the
// gate itself — the real tree lints clean with zero findings.
//
// Compile-time paths: PSCHED_SOURCE_ROOT (repo root) and
// PSCHED_LINT_FIXTURES (tools/psched_lint/fixtures), injected by CMake.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace psched::lint {
namespace {

/// Fixture-mode options: no file-level allowlists, registrations accepted
/// anywhere (so snippets can exercise D5 without faking src/util/).
LintOptions snippet_options() {
  LintOptions options;
  options.registry_files.clear();
  return options;
}

/// Analyze a set of in-memory files as one program (both passes), returning
/// all findings. This is exactly what lint_tree does per file, minus the
/// include resolution (snippets share one unordered-name table).
std::vector<Finding> lint_program(const std::map<std::string, std::string>& sources,
                                  LintOptions options) {
  std::map<std::string, SourceFile> files;
  std::set<std::string> tu_names;
  for (const auto& [path, code] : sources) {
    SourceFile file = load_source_from_string(code, path);
    tu_names.insert(file.unordered_names.begin(), file.unordered_names.end());
    files.emplace(path, std::move(file));
  }
  const ProgramIndex index = build_index(files, options);
  std::vector<Finding> findings = index.findings;
  for (const auto& [path, file] : files) {
    const std::vector<Finding> file_findings =
        lint_file(file, tu_names, index, options);
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
  }
  return findings;
}

/// Lint one in-memory snippet as `rel_path` (default LintOptions unless
/// overridden), as its own one-file program.
std::vector<Finding> lint_snippet(const std::string& code, const std::string& rel_path,
                                  LintOptions options = {}) {
  return lint_program({{rel_path, code}}, options);
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::string dump(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings)
    out += f.file + ":" + std::to_string(f.line) + " [" + f.rule + "] " +
           f.message + "\n";
  return out;
}

// --- D1-D4 (v1 rules, unchanged semantics) ---------------------------------

TEST(PschedLint, D1FlagsWallClockAndEntropyReads) {
  const std::string code =
      "#include <chrono>\n"
      "double now_ms() {\n"
      "  auto t = std::chrono::system_clock::now();\n"
      "  return double(rand());\n"
      "}\n";
  const auto findings = lint_snippet(code, "src/core/scheduler.cpp");
  EXPECT_TRUE(has_rule(findings, "D1")) << dump(findings);
  // Both the clock read and the rand() call fire.
  EXPECT_GE(findings.size(), 2u) << dump(findings);
}

TEST(PschedLint, D1AllowlistCoversClocksButNeverEntropy) {
  const std::string code =
      "#include <chrono>\n"
      "double tick() {\n"
      "  auto t = std::chrono::steady_clock::now();\n"  // allowlisted
      "  return double(rand());\n"                      // never allowlisted
      "}\n";
  // selector.cpp is on the default clock allowlist.
  const auto findings = lint_snippet(code, "src/core/selector.cpp");
  ASSERT_EQ(findings.size(), 1u) << dump(findings);
  EXPECT_EQ(findings[0].rule, "D1");
  EXPECT_EQ(findings[0].line, 4u);
}

TEST(PschedLint, D2FlagsUnorderedIterationAndHonorsAnnotation) {
  const std::string bad =
      "#include <unordered_map>\n"
      "int sum(const std::unordered_map<int, int>& counts) {\n"
      "  int total = 0;\n"
      "  for (const auto& [k, v] : counts) total += v;\n"
      "  return total;\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_snippet(bad, "src/policy/x.cpp"), "D2"));

  const std::string annotated =
      "#include <unordered_map>\n"
      "int sum(const std::unordered_map<int, int>& counts) {\n"
      "  int total = 0;\n"
      "  // psched-lint: order-insensitive(integer addition is commutative)\n"
      "  for (const auto& [k, v] : counts) total += v;\n"
      "  return total;\n"
      "}\n";
  const auto findings = lint_snippet(annotated, "src/policy/x.cpp");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(PschedLint, D2SeesContainersDeclaredInIncludedHeaders) {
  // The member is declared in the header; the .cpp only iterates it. The
  // per-TU name table must carry the declaration across the include.
  const SourceFile header = load_source_from_string(
      "#include <unordered_set>\n"
      "struct Registry { std::unordered_set<int> live; };\n",
      "src/x/registry.hpp");
  ASSERT_EQ(header.unordered_names.count("live"), 1u);

  const SourceFile impl = load_source_from_string(
      "#include \"x/registry.hpp\"\n"
      "int count(const Registry& r) {\n"
      "  int n = 0;\n"
      "  for (int v : r.live) n += v;\n"
      "  return n;\n"
      "}\n",
      "src/x/registry.cpp");
  const ProgramIndex empty_index;
  // Without the header's names the iteration is invisible...
  EXPECT_FALSE(has_rule(lint_file(impl, impl.unordered_names, empty_index, {}), "D2"));
  // ...with the TU union it is caught.
  std::set<std::string> tu = impl.unordered_names;
  tu.insert(header.unordered_names.begin(), header.unordered_names.end());
  EXPECT_TRUE(has_rule(lint_file(impl, tu, empty_index, {}), "D2"));
}

TEST(PschedLint, D3FlagsUnseededEnginesButAcceptsNamedSeeds) {
  EXPECT_TRUE(has_rule(
      lint_snippet("#include <random>\nstd::mt19937 gen;\n", "src/a.cpp"),
      "D3"));
  EXPECT_TRUE(has_rule(
      lint_snippet("#include <random>\nstd::mt19937 gen(12345);\n", "src/a.cpp"),
      "D3"));
  EXPECT_TRUE(has_rule(
      lint_snippet("#include <random>\n"
                   "std::mt19937_64 gen{std::random_device{}()};\n",
                   "src/a.cpp"),
      "D3"));
  const auto ok = lint_snippet(
      "#include <random>\n"
      "void f(unsigned seed) { std::mt19937 gen(seed); (void)gen; }\n",
      "src/a.cpp");
  EXPECT_FALSE(has_rule(ok, "D3")) << dump(ok);
}

TEST(PschedLint, D4FlagsFloatLiteralEqualityOutsideUtil) {
  const std::string code = "bool settled(double x) { return x == 0.0; }\n";
  EXPECT_TRUE(has_rule(lint_snippet(code, "src/engine/x.cpp"), "D4"));
  // src/util/ hosts the tolerance helpers themselves.
  EXPECT_FALSE(has_rule(lint_snippet(code, "src/util/float_cmp.hpp"), "D4"));
}

// --- D5: seed-stream registry (cross-TU) -----------------------------------

TEST(PschedLint, D5FlagsUnregisteredStreamNamesAndConstants) {
  const auto by_literal = lint_snippet(
      "#include <cstdint>\n"
      "std::uint64_t f(std::uint64_t root) {\n"
      "  return derive_stream_seed(root, \"rogue\");\n"
      "}\n",
      "src/a.cpp", snippet_options());
  EXPECT_TRUE(has_rule(by_literal, "D5")) << dump(by_literal);

  const auto by_ident = lint_snippet(
      "#include <cstdint>\n"
      "std::uint64_t f(std::uint64_t root) {\n"
      "  return derive_stream_seed(root, kNotAStream);\n"
      "}\n",
      "src/a.cpp", snippet_options());
  EXPECT_TRUE(has_rule(by_ident, "D5")) << dump(by_ident);
}

TEST(PschedLint, D5AcceptsRegisteredStreamsAcrossFiles) {
  // Registration in one file, derivation in another: the index carries it.
  const auto findings = lint_program(
      {{"src/util/streams.hpp", "PSCHED_SEED_STREAM(kStreamAb, \"ab\");\n"},
       {"src/b.cpp",
        "#include <cstdint>\n"
        "std::uint64_t f(std::uint64_t root) {\n"
        "  return derive_stream_seed(root, kStreamAb);\n"
        "}\n"}},
      snippet_options());
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(PschedLint, D5FlagsCrossTUNameCollision) {
  // The two registrations live in DIFFERENT files — exactly the hazard a
  // single-TU linter cannot see.
  const auto findings = lint_program(
      {{"src/a.hpp", "PSCHED_SEED_STREAM(kStreamOne, \"shared\");\n"},
       {"src/b.hpp", "PSCHED_SEED_STREAM(kStreamTwo, \"shared\");\n"}},
      snippet_options());
  EXPECT_TRUE(has_rule(findings, "D5")) << dump(findings);
}

TEST(PschedLint, D5FlagsRegistrationOutsideTheRegistryFile) {
  LintOptions options;  // default registry_files = {src/util/seed_streams.hpp}
  const auto findings = lint_snippet(
      "PSCHED_SEED_STREAM(kStreamElsewhere, \"elsewhere\");\n",
      "src/engine/rogue.hpp", options);
  EXPECT_TRUE(has_rule(findings, "D5")) << dump(findings);
}

TEST(PschedLint, D5FlagsComputedStreamNames) {
  const auto findings = lint_snippet(
      "#include <cstdint>\n"
      "std::uint64_t f(std::uint64_t root, const char** names, int i) {\n"
      "  return derive_stream_seed(root, names[i]);\n"
      "}\n",
      "src/a.cpp", snippet_options());
  EXPECT_TRUE(has_rule(findings, "D5")) << dump(findings);
}

// --- D6: time-unit confusion ------------------------------------------------

TEST(PschedLint, D6FlagsAdditiveUnitMixing) {
  const auto findings = lint_snippet(
      "double f(double budget_seconds, double elapsed_ms) {\n"
      "  return budget_seconds - elapsed_ms;\n"
      "}\n",
      "src/a.cpp");
  EXPECT_TRUE(has_rule(findings, "D6")) << dump(findings);
}

TEST(PschedLint, D6FollowsMemberChainsAndComparisons) {
  const auto findings = lint_snippet(
      "struct Cfg { double limit_hours; };\n"
      "bool f(double elapsed_ms, const Cfg& cfg) {\n"
      "  return elapsed_ms > cfg.limit_hours;\n"
      "}\n",
      "src/a.cpp");
  EXPECT_TRUE(has_rule(findings, "D6")) << dump(findings);
}

TEST(PschedLint, D6AllowsMultiplicativeConversionAndSameUnit) {
  const auto findings = lint_snippet(
      "double f(double timeout_ms, double wait_seconds, double grace_seconds) {\n"
      "  double converted = timeout_ms * 0.001;\n"
      "  return converted + wait_seconds + grace_seconds;\n"
      "}\n",
      "src/a.cpp");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(PschedLint, D6HonorsRuleScopedSuppression) {
  const auto findings = lint_snippet(
      "double f(double budget_seconds, double legacy_ms) {\n"
      "  // psched-lint: suppress(D6) legacy API hands us ms, converted below\n"
      "  return budget_seconds - legacy_ms;\n"
      "}\n",
      "src/a.cpp");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(PschedLint, SuppressionIsRuleScoped) {
  // suppress(D6) must NOT silence the D4 on the same line.
  const auto findings = lint_snippet(
      "bool f(double budget_seconds, double legacy_ms) {\n"
      "  // psched-lint: suppress(D6) cross-unit sentinel comparison\n"
      "  return budget_seconds - legacy_ms == 0.0;\n"
      "}\n",
      "src/a.cpp");
  EXPECT_FALSE(has_rule(findings, "D6")) << dump(findings);
  EXPECT_TRUE(has_rule(findings, "D4")) << dump(findings);
}

// --- D7: observer purity ----------------------------------------------------

TEST(PschedLint, D7FlagsMutatingCallsInObserverCallbacks) {
  const auto findings = lint_snippet(
      "struct Sim { void cancel(int id); };\n"
      "class Bad : public SimObserver {\n"
      " public:\n"
      "  void on_dispatch(double now, double when, int id) {\n"
      "    sim_->cancel(id);\n"
      "  }\n"
      " private:\n"
      "  Sim* sim_;\n"
      "};\n",
      "src/a.cpp", snippet_options());
  EXPECT_TRUE(has_rule(findings, "D7")) << dump(findings);
}

TEST(PschedLint, D7SeesSubclassingAcrossFiles) {
  // Class declared (as an observer) in the header; the mutating callback is
  // implemented out-of-line in the .cpp. Only the cross-TU index connects
  // the two.
  const auto findings = lint_program(
      {{"src/x/tracer.hpp",
        "class Tracer : public ProviderObserver {\n"
        " public:\n"
        "  void on_crash(int vm);\n"
        " private:\n"
        "  void* provider_;\n"
        "};\n"},
       {"src/x/tracer.cpp",
        "#include \"x/tracer.hpp\"\n"
        "void Tracer::on_crash(int vm) {\n"
        "  provider_->release(vm);\n"
        "}\n"}},
      snippet_options());
  EXPECT_TRUE(has_rule(findings, "D7")) << dump(findings);
}

TEST(PschedLint, D7AllowsObserversAccumulatingOwnState) {
  const auto findings = lint_snippet(
      "class Fine : public SimObserver {\n"
      " public:\n"
      "  void on_dispatch(double now, double when, int id) {\n"
      "    ++dispatches_;\n"
      "    last_id_ = id;\n"
      "  }\n"
      " private:\n"
      "  long dispatches_ = 0;\n"
      "  int last_id_ = 0;\n"
      "};\n",
      "src/a.cpp", snippet_options());
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(PschedLint, D7IgnoresMutatingCallsOutsideObservers) {
  // A non-observer class may call cancel() freely.
  const auto findings = lint_snippet(
      "struct Sim { void cancel(int id); };\n"
      "class Driver {\n"
      " public:\n"
      "  void on_tick(int id) { sim_->cancel(id); }\n"
      " private:\n"
      "  Sim* sim_;\n"
      "};\n",
      "src/a.cpp", snippet_options());
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

// --- D8: non-commutative parallel folds -------------------------------------

TEST(PschedLint, D8FlagsCrossWorkerFolds) {
  const auto findings = lint_snippet(
      "#include <cstddef>\n"
      "#include <vector>\n"
      "void f(ThreadPool& pool, const std::vector<double>& w) {\n"
      "  double total = 0.0;\n"
      "  pool.run_batch(w.size(), [&](std::size_t k) {\n"
      "    total += w[k];\n"
      "  });\n"
      "}\n",
      "src/a.cpp");
  EXPECT_TRUE(has_rule(findings, "D8")) << dump(findings);
}

TEST(PschedLint, D8AllowsSlotIndexedAndLocalAccumulation) {
  const auto findings = lint_snippet(
      "#include <cstddef>\n"
      "#include <vector>\n"
      "void f(ThreadPool& pool, const std::vector<double>& w,\n"
      "       std::vector<double>& slots) {\n"
      "  pool.run_batch(w.size(), [&](std::size_t k) {\n"
      "    slots[k] += w[k];\n"
      "    double local = 0.0;\n"
      "    local += w[k];\n"
      "    slots[k] = local;\n"
      "  });\n"
      "}\n",
      "src/a.cpp");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(PschedLint, D8HonorsOrderInsensitiveAnnotation) {
  const auto findings = lint_snippet(
      "void f(ThreadPool& pool, int n) {\n"
      "  long hits = 0;\n"
      "  pool.run_batch(n, [&](int k) {\n"
      "    // psched-lint: order-insensitive(integer addition is commutative)\n"
      "    hits += k;\n"
      "  });\n"
      "}\n",
      "src/a.cpp");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

// --- SUPP meta-rule ---------------------------------------------------------

TEST(PschedLint, SuppressionWithoutJustificationIsItselfAFinding) {
  const std::string code =
      "#include <unordered_map>\n"
      "int f(const std::unordered_map<int, int>& m) {\n"
      "  int t = 0;\n"
      "  // psched-lint: order-insensitive\n"
      "  for (const auto& [k, v] : m) t += v;\n"
      "  return t;\n"
      "}\n";
  const auto findings = lint_snippet(code, "src/a.cpp");
  // The bare directive is reported AND grants no suppression.
  EXPECT_TRUE(has_rule(findings, "SUPP")) << dump(findings);
  EXPECT_TRUE(has_rule(findings, "D2")) << dump(findings);
}

TEST(PschedLint, BareRuleScopedSuppressionIsAFinding) {
  const auto findings = lint_snippet(
      "double f(double budget_seconds, double legacy_ms) {\n"
      "  // psched-lint: suppress(D6)\n"
      "  return budget_seconds - legacy_ms;\n"
      "}\n",
      "src/a.cpp");
  EXPECT_TRUE(has_rule(findings, "SUPP")) << dump(findings);
  EXPECT_TRUE(has_rule(findings, "D6")) << dump(findings);
}

TEST(PschedLint, UnknownRuleInSuppressionIsAFinding) {
  const auto findings = lint_snippet(
      "// psched-lint: suppress(D9) no such rule\n"
      "int x = 0;\n",
      "src/a.cpp");
  EXPECT_TRUE(has_rule(findings, "SUPP")) << dump(findings);
}

TEST(PschedLint, UnknownDirectiveGrantsNothing) {
  // Only suppress(Dk) and order-insensitive(why) are directives. Any other
  // word after the marker is prose, so the finding below it still fires.
  const auto findings = lint_snippet(
      "bool f(double x) {\n"
      "  // psched-lint: ignore(D4) sentinel compared verbatim\n"
      "  return x == -1.0;\n"
      "}\n",
      "src/a.cpp");
  EXPECT_TRUE(has_rule(findings, "D4")) << dump(findings);
}

// --- self-test + the real tree ---------------------------------------------

TEST(PschedLint, FixtureSelfTestPasses) {
  EXPECT_TRUE(run_self_test(PSCHED_LINT_FIXTURES));
}

TEST(PschedLint, RealTreeLintsClean) {
  LintOptions options;
  options.root = PSCHED_SOURCE_ROOT;
  const std::vector<Finding> findings =
      lint_tree(options, {"src", "bench", "tools"}, {"tools/psched_lint/fixtures/"});
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

}  // namespace
}  // namespace psched::lint
