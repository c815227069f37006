#!/usr/bin/env bash
# Docs lint: fail when README.md, DESIGN.md, or CONTRIBUTING.md reference API
# surface that no longer exists — a config field spelled `SomeConfig::name`,
# or a CLI/bench flag spelled `--name` that no source file implements. Keeps
# the documented configuration surface honest as fields and flags evolve.
#
# Run directly (tools/check_docs.sh) or via ctest (test name: docs_lint).
set -u
cd "$(dirname "$0")/.."

fail=0
docs="README.md DESIGN.md CONTRIBUTING.md"

# --- 1. Config::field references must name real struct fields --------------
# Known fields: member declarations between `struct <Name> {` and the
# closing brace (last identifier before '=' or ';').
check_config_fields() {
  local struct_name=$1 header=$2
  local fields
  fields=$(sed -n "/^struct $struct_name {/,/^};/p" "$header" \
    | grep -E '^\s+(const\s+)?[A-Za-z_][A-Za-z0-9_:<>]*\*?\s+[a-z_]+\s*(=|;)' \
    | sed -E 's/\s*(=|;).*//; s/.*[ *]([a-z_]+)$/\1/')
  if [ -z "$fields" ]; then
    echo "docs-lint: could not extract $struct_name fields from $header" >&2
    fail=1
    return
  fi
  local ref field
  for ref in $(grep -ohE "\b$struct_name::[a-zA-Z_]+" $docs | sort -u); do
    field=${ref#"$struct_name"::}
    if ! printf '%s\n' "$fields" | grep -qx "$field"; then
      echo "docs-lint: $ref is referenced in docs but is not a $struct_name field" >&2
      fail=1
    fi
  done
}
check_config_fields SelectorConfig src/core/selector.hpp
check_config_fields OnlineSimConfig src/core/online_sim.hpp
check_config_fields PortfolioSchedulerConfig src/core/scheduler.hpp
check_config_fields EngineConfig src/engine/cluster_sim.hpp
check_config_fields ProviderConfig src/cloud/provider.hpp
check_config_fields ValidationConfig src/validate/validation.hpp
check_config_fields FuzzConfig src/validate/fuzz.hpp
check_config_fields ObsConfig src/obs/obs.hpp
check_config_fields FailureConfig src/cloud/failure.hpp
check_config_fields ResilienceConfig src/cloud/failure.hpp
check_config_fields BenchGateConfig src/obs/bench_gate.hpp
check_config_fields PricingConfig src/cloud/pricing.hpp
check_config_fields VmFamily src/cloud/pricing.hpp
check_config_fields TenantConfig src/engine/tenant.hpp
check_config_fields MultiTenantConfig src/engine/tenant.hpp
check_config_fields FailureStats src/metrics/collector.hpp
check_config_fields PricingStats src/metrics/collector.hpp

# --- 2. --flags mentioned in docs must exist in the sources ----------------
# Flags of external tools (cmake/ctest/gtest themselves) are allowlisted.
# ("benchmark" covers google-benchmark's --benchmark_* family: the scanner
# stops at the underscore.)
allow="output-on-failure test-dir build preset gtest benchmark"
for flag in $(grep -ohE -- '--[a-z][a-z0-9-]+' $docs | sort -u); do
  name=${flag#--}
  if printf '%s\n' $allow | grep -qx "$name"; then continue; fi
  # ArgParser looks flags up by bare name ("delta"); headers/docs may also
  # carry the dashed form. Either counts as implemented.
  if grep -rq -- "\"$name\"" src/ tools/ bench/ examples/ 2>/dev/null; then continue; fi
  if grep -rq -- "$flag" src/ tools/ bench/ examples/ 2>/dev/null; then continue; fi
  echo "docs-lint: $flag is referenced in docs but implemented nowhere in src/, tools/, bench/, examples/" >&2
  fail=1
done

# --- 3. psched-lint rule IDs must be documented in DESIGN.md §8 ------------
# Source of truth: the rule catalog in tools/psched_lint/lint.hpp ("D1".."Dk"
# plus SUPP, the catalog's comment lines). Every implemented rule needs a
# matching "**D<k> —" (or SUPP mention) in DESIGN's static-analysis section.
rules=$(grep -ohE '^//   (D[0-9]+|SUPP)\b' tools/psched_lint/lint.hpp \
  | sed -E 's|^//   ||' | sort -u)
if [ -z "$rules" ]; then
  echo "docs-lint: could not extract the rule catalog from tools/psched_lint/lint.hpp" >&2
  fail=1
fi
for rule in $rules; do
  case $rule in
    SUPP) pattern="rule.\`SUPP\`|rule SUPP|(\`SUPP\`)" ;;
    *)    pattern="\*\*$rule — " ;;
  esac
  if ! grep -qE "$pattern" DESIGN.md; then
    echo "docs-lint: psched-lint rule $rule is implemented but not documented in DESIGN.md §8" >&2
    fail=1
  fi
  # Every D rule must also carry conformance-corpus coverage: a d<k>_*.cpp
  # fixture that the self-test requires to trip the rule.
  case $rule in
    D[0-9]*)
      k=${rule#D}
      if ! ls tools/psched_lint/fixtures/d"${k}"_*.cpp >/dev/null 2>&1; then
        echo "docs-lint: psched-lint rule $rule has no d${k}_*.cpp fixture in tools/psched_lint/fixtures/" >&2
        fail=1
      fi
      ;;
  esac
done

# --- 3b. Emitted schema tags must be documented in DESIGN.md ---------------
# Source of truth: every "psched-<name>/vK" schema constant in src/. A
# schema a consumer can encounter (run reports and their sections, bench
# reports) must be described somewhere in DESIGN.md.
schemas=$(grep -rhoE '"psched-[a-z-]+/v[0-9]+"' src | tr -d '"' | sort -u)
if [ -z "$schemas" ]; then
  echo "docs-lint: could not extract schema tags from src/" >&2
  fail=1
fi
for schema in $schemas; do
  if ! grep -q "$schema" DESIGN.md; then
    echo "docs-lint: schema \"$schema\" is emitted but not documented in DESIGN.md" >&2
    fail=1
  fi
done

# --- 3c. Registered seed streams must be documented in DESIGN.md -----------
# Source of truth: the PSCHED_SEED_STREAM registry (util/seed_streams.hpp,
# rule D5). Every registered stream name must appear quoted in DESIGN.md so
# the documented determinism surface tracks the registry.
streams=$(grep -ohE 'PSCHED_SEED_STREAM\([A-Za-z0-9_]+, "[a-z-]+"\)' \
            src/util/seed_streams.hpp | sed -E 's/.*"([a-z-]+)".*/\1/' | sort -u)
if [ -z "$streams" ]; then
  echo "docs-lint: could not extract seed streams from src/util/seed_streams.hpp" >&2
  fail=1
fi
for stream in $streams; do
  if ! grep -q "\"$stream\"" DESIGN.md; then
    echo "docs-lint: seed stream \"$stream\" is registered but not documented in DESIGN.md" >&2
    fail=1
  fi
done

# --- 4. "DESIGN.md §N[.M]" references must resolve to a real heading -------
# ("## N. Title" or "### N.M Title"); references appear in the docs and in
# source comments across the tree (e.g. "DESIGN.md §11", "DESIGN.md §13.2").
for ref in $(grep -rohE 'DESIGN\.md §[0-9]+(\.[0-9]+)?' $docs src tools bench tests examples \
               2>/dev/null | grep -oE '[0-9.]+$' | sort -u); do
  if ! grep -qE "^(## $ref\.|### $ref) " DESIGN.md; then
    echo "docs-lint: DESIGN.md §$ref is referenced but DESIGN.md has no '## $ref.' or '### $ref' heading" >&2
    fail=1
  fi
done

# --- 5. Bench baselines named in docs must be committed ---------------------
# The gate (DESIGN.md §11) compares against bench/baselines/BENCH_*.json; a
# doc naming a baseline that does not exist points contributors at nothing.
for f in $(grep -ohE 'BENCH_[A-Za-z0-9_]+\.json' $docs | sort -u); do
  if [ ! -f "bench/baselines/$f" ]; then
    echo "docs-lint: $f is referenced in docs but bench/baselines/$f does not exist" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docs-lint: FAILED — update the docs or the allowlist in tools/check_docs.sh" >&2
else
  echo "docs-lint: OK"
fi
exit $fail
