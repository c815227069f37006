#pragma once
// psched-lint: the project's determinism-hazard and simulation-semantics
// static analyzer.
//
// A portfolio selector is only trustworthy if repeated runs of the same
// scenario are bit-identical (DESIGN.md §8). The runtime determinism matrix
// tests that property after the fact; this linter rejects the known hazard
// patterns at the source level, before they can become flaky experiments.
//
// v2 is a two-pass, cross-TU analyzer. Pass 1 loads every file and exports
// a per-TU symbol table (unordered-container names, seed-stream literals
// and registrations, observer subclassing, include edges). The tables are
// merged into a whole-program index; pass 2 runs the rules over each file
// with the index in hand, so a hazard whose two halves live in different
// translation units (a stream name registered in one file and misused in
// another, an observer class declared in a header and implemented in a
// .cpp) is still caught.
//
// Rule catalog (IDs appear in reports and in suppression annotations):
//   D1  wall-clock / ambient entropy reads (std::chrono::*_clock::now,
//       time(nullptr), rand(), srand, std::random_device, gettimeofday,
//       localtime, clock()) outside the explicit allowlist — the selector's
//       Delta-budget timing (src/core/selector.cpp), the fuzz harness's
//       wall-time cap (src/validate/fuzz.cpp), the observability layer's
//       single clock site (src/obs/obs.cpp, reporting-only timestamps that
//       never feed a scheduling decision — DESIGN.md §9), and bench/ timing
//       harnesses.
//   D2  range-for or .begin() traversal of a std::unordered_map /
//       std::unordered_set — iteration order is hash-state dependent, so any
//       policy, metric, or engine decision fed from it is nondeterministic.
//       Convert to an ordered container or a sorted snapshot, or annotate
//       the line `// psched-lint: order-insensitive(<why order cannot leak>)`.
//   D3  std::mt19937 / std::mt19937_64 constructions that do not take a
//       named seed parameter (default-constructed, literal-seeded, or seeded
//       from std::random_device). Seeds must be threaded through configs so
//       a run is reproducible from its reported seed.
//   D4  float/double equality (==, !=) against a floating-point literal
//       outside src/util/ — use the util/float_cmp.hpp tolerance helpers.
//   D5  seed-stream registry (cross-TU): every stream name reaching
//       cloud::derive_stream_seed must be registered exactly once, via
//       PSCHED_SEED_STREAM in src/util/seed_streams.hpp. Unregistered
//       literals, unregistered constants, duplicate names, and
//       registrations outside the registry file are all errors — a silent
//       stream-name collision correlates two "independent" streams without
//       failing a single test.
//   D6  time-unit confusion: additive/comparison arithmetic directly mixing
//       a *_ms / *_us quantity with a *_seconds / *_hours quantity (or with
//       kSecondsPerHour). Multiplicative conversion is fine; adding
//       milliseconds to seconds is a unit bug.
//   D7  observer purity: SimObserver / ProviderObserver implementations
//       (transitively, cross-TU) must not mutate the simulation they
//       observe — no const_cast and no mutating simulation API call
//       (lease/release/cancel/after/...) inside an on_* callback body.
//   D8  non-commutative parallel folds: a compound accumulation (+=, -=,
//       *=) onto a non-slot-indexed target inside a ThreadPool::run_batch
//       wave lambda is a cross-worker fold whose result depends on thread
//       interleaving (and is usually also a data race). Write to a per-slot
//       element and merge in slot order after the barrier, or annotate a
//       genuinely commutative fold.
//
// The analysis is token-level with a small amount of structure ("AST-lite"):
// comments and string literals are blanked before matching (the raw text is
// kept so string-valued facts like stream names can still be read at known
// offsets), unordered container names are collected per translation unit by
// resolving project #include directives, and suppressions are honored from
// comments on the flagged line or the line directly above it:
//
//   // psched-lint: order-insensitive(<why order cannot leak>)
//   // psched-lint: suppress(D6) <justification>
//
// `suppress(Dk)` silences exactly one rule, so a justified suppression can
// never mask a different rule that later fires on the same line. A
// justification is mandatory for both forms; a bare suppression is itself
// reported (rule SUPP). Every unsuppressed finding fails the scan.

#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace psched::lint {

/// One reported finding.
struct Finding {
  std::string file;     ///< path relative to the scan root
  std::size_t line = 0; ///< 1-based
  std::string rule;     ///< "D1".."D8" or "SUPP"
  std::string message;
};

struct LintOptions {
  /// Scan root; findings are reported relative to it and the D1/D4
  /// allowlists match against root-relative paths.
  std::filesystem::path root;
  /// Root-relative files allowed to read monotonic/wall clocks (D1).
  std::set<std::string> clock_allowlist = {
      "src/core/selector.cpp",   // Delta-budget wall-clock charging
      "src/obs/obs.cpp",         // Recorder::now_us — reporting-only timestamps
      "src/validate/fuzz.cpp",   // fuzz smoke wall-time cap
  };
  /// Root-relative directory prefixes allowed to read clocks (D1): bench
  /// harnesses measure real wall time by design.
  std::vector<std::string> clock_allowed_prefixes = {"bench/"};
  /// Root-relative directory prefixes where float equality is allowed (D4):
  /// the tolerance helpers themselves live here.
  std::vector<std::string> float_eq_allowed_prefixes = {"src/util/"};
  /// Root-relative files that may register seed streams (D5). When empty,
  /// registrations are accepted anywhere (fixture/self-test mode).
  std::set<std::string> registry_files = {"src/util/seed_streams.hpp"};
  /// Function names whose call-argument span is a parallel wave context
  /// (D8): lambdas passed to them run on worker threads.
  std::set<std::string> parallel_entry_points = {"run_batch"};
};

/// A seed-stream registration site: PSCHED_SEED_STREAM(ident, "name").
struct StreamRegistration {
  std::string ident;  ///< the registered constant, e.g. "kStreamBoot"
  std::string name;   ///< the stream name literal, e.g. "boot"
  std::size_t line = 0;
};

/// A derive_stream_seed call site (pass-1 export for rule D5).
struct StreamUse {
  std::string name;   ///< literal stream name when passed inline, else ""
  std::string ident;  ///< constant identifier when passed by name, else ""
  std::size_t line = 0;
};

/// A class/struct declaration with its base-clause identifiers and body
/// span (offsets into the blanked code). Pass-1 export for rule D7.
struct ClassDecl {
  std::string name;
  std::vector<std::string> bases;      ///< base-clause identifier tokens
  std::size_t body_begin = 0;          ///< offset of '{'
  std::size_t body_end = 0;            ///< offset of matching '}'
};

/// A source file loaded and pre-processed for scanning, carrying its
/// pass-1 symbol table.
struct SourceFile {
  std::string path;          ///< root-relative, '/'-separated
  std::string raw;           ///< original contents (offset-aligned with code)
  std::string code;          ///< comments and string/char literals blanked
  /// line (1-based) -> suppression keys active there ("order-insensitive",
  /// "D1".."D8"). A suppression on line N covers lines N and N+1.
  std::map<std::size_t, std::set<std::string>> suppressions;
  std::vector<Finding> annotation_errors;  ///< malformed suppressions (SUPP)
  /// Project-relative #include targets, as written (e.g. "util/rng.hpp").
  std::vector<std::string> includes;
  /// Names declared in THIS file with an unordered container type.
  std::set<std::string> unordered_names;
  /// PSCHED_SEED_STREAM registrations in this file (D5).
  std::vector<StreamRegistration> stream_registrations;
  /// derive_stream_seed call sites in this file (D5).
  std::vector<StreamUse> stream_uses;
  /// Class declarations with base clauses (D7 observer subclassing).
  std::vector<ClassDecl> classes;
};

/// The pass-1 merge index: whole-program facts the per-file rules consult.
struct ProgramIndex {
  /// Stream name -> file of its (first) registration.
  std::map<std::string, std::string> stream_names;
  /// Registered stream constants (identifier -> stream name).
  std::map<std::string, std::string> stream_idents;
  /// Classes transitively derived from SimObserver / ProviderObserver
  /// (including those two roots themselves).
  std::set<std::string> observer_classes;
  /// Findings discovered while merging (D5 collisions, misplaced
  /// registrations). Already suppression-filtered.
  std::vector<Finding> findings;
};

/// Load and pre-process one file (pass 1: blank comments/strings, parse
/// suppression annotations, export the symbol table). `rel_path` is the
/// root-relative path used in findings.
[[nodiscard]] SourceFile load_source(const std::filesystem::path& abs_path,
                                     const std::string& rel_path);

/// Pass-1 pre-processing on an in-memory buffer (tests and fixtures).
[[nodiscard]] SourceFile load_source_from_string(const std::string& contents,
                                                 const std::string& rel_path);

/// Merge pass-1 symbol tables into the whole-program index and run the
/// merge-time checks (D5 registry collisions / placement).
[[nodiscard]] ProgramIndex build_index(const std::map<std::string, SourceFile>& files,
                                       const LintOptions& options);

/// Pass 2: run every rule over `file`. `tu_unordered_names` is the union of
/// the unordered container names visible in the translation unit (the
/// file's own plus everything reachable through its project includes);
/// `index` carries the cross-TU facts.
[[nodiscard]] std::vector<Finding> lint_file(const SourceFile& file,
                                             const std::set<std::string>& tu_unordered_names,
                                             const ProgramIndex& index,
                                             const LintOptions& options);

/// Scan a whole tree: collect files under root/<subdir> for each subdir
/// (pass 1), build the merge index, resolve per-TU unordered-name tables
/// across includes, and lint each file (pass 2). Paths under
/// `exclude_prefixes` (root-relative) are skipped.
[[nodiscard]] std::vector<Finding> lint_tree(const LintOptions& options,
                                             const std::vector<std::string>& subdirs,
                                             const std::vector<std::string>& exclude_prefixes);

/// Static rule metadata for `psched_lint --list-rules`.
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// The full rule catalog (D1..D8, SUPP), in id order.
[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();

/// Fixture self-test: every fixture named d<K>_*.cpp must produce at least
/// one rule-D<K> finding, every fixture named ok_*.cpp must produce none.
/// Each fixture is analyzed as its own one-file program (index included),
/// with no file-level allowlists, so cross-TU rules are exercised too.
/// Returns true when all expectations hold; diagnostics go to stderr.
[[nodiscard]] bool run_self_test(const std::filesystem::path& fixture_dir);

}  // namespace psched::lint
