#!/usr/bin/env bash
# Run-to-run stability of psched-e2e: build once, run two full sets of every
# workload, and compare each end-to-end metric of the second set with the
# first against its bound in BENCHMARK.json. Exact (deterministic) columns
# must match. Prints one row per workload and metric.
#
#   bench/e2e/stability.sh [extra psched_e2e flags, e.g. --seed 7]
#
# The sets are interleaved: each workload runs in both sets back to back,
# the first set first on even workloads and second on odd ones, so a host
# that slows down for minutes slows both sets alike. Five repetitions per
# workload instead of the default three, for a steadier mean. Exits 1 when a
# metric moved, either way, by more than its bound or an exact column
# differs. Reports go to
# build-e2e/stability/set{1,2}-WORKLOAD.json.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/build-e2e/stability"
workloads=(das2-t2 lpc-t1 sweep-sdsc tenants-mixed)
mkdir -p "$out"
for i in "${!workloads[@]}"; do
  w=${workloads[$i]}
  order="1 2"
  if (( i % 2 == 1 )); then order="2 1"; fi
  for set in $order; do
    echo "== $w, set $set ==" >&2
    python3 "$root/bench/e2e/run.py" --workload "$w" --reps 5 \
      --report "$out/set$set-$w.json" "$@" >&2
  done
done

python3 - "$root/BENCHMARK.json" "$out" "${workloads[@]}" <<'EOF'
import json
import os
import sys

bench = json.load(open(sys.argv[1]))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
failed = False
print("%-14s %-16s %14s %14s %9s %7s" % ("workload", "metric", "set 1", "set 2", "change", "bound"))
for workload in sys.argv[3:]:
    first, second = (json.load(open(os.path.join(sys.argv[2], "set%d-%s.json" % (s, workload))))
                     for s in (1, 2))
    for name, kind, a, b in zip(first["headers"], first["gate"], first["rows"][0], second["rows"][0]):
        if kind == "exact" and a != b:
            print("%-14s %-16s %14s %14s  differs" % (workload, name, a, b))
            failed = True
        if name not in bounds:
            continue
        change = (b - a) / a
        flag = "  OUT OF BOUND" if abs(change) > bounds[name] else ""
        failed = failed or bool(flag)
        print("%-14s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%%s"
              % (workload, name, a, b, 100 * change, 100 * bounds[name], flag))
sys.exit(1 if failed else 0)
EOF
