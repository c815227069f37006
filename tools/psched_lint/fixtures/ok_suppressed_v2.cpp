// Fixture: the rule-scoped `suppress(Dk) <justification>` form must silence
// exactly the named rule. Every suppression here carries a justification,
// so the file lints clean.

double boundary_conversion(double legacy_ms, double budget_seconds) {
  // psched-lint: suppress(D6) legacy API hands us ms; converted on the next line
  const double skew = budget_seconds - legacy_ms;
  return skew * 0.001;
}

void commutative_fold(ThreadPool& pool, int n) {
  long hits = 0;
  pool.run_batch(n, [&](int k) {
    // psched-lint: suppress(D8) atomic counter, integer addition is commutative
    hits += k;
  });
}

bool sentinel_equality(double x) {
  // psched-lint: suppress(D4) sentinel is assigned verbatim, never computed
  return x == -1.0;
}
