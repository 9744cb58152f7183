#!/usr/bin/env bash
# Refresh the committed cycle-loop performance baseline.
#
#   scripts/bench_baseline.sh [build-dir]
#
# Builds Release (in ./build-bench by default, so an existing debug build is
# not disturbed), runs the bench/cycle_loop macro-benchmark, and writes
# BENCH_cycle_loop.json at the repo root. Commit the refreshed file whenever
# the hot path intentionally changes speed; CI's bench-smoke job compares
# fresh runs against it (scripts/bench_check.sh) and fails on >15%
# regressions. Numbers are machine-dependent — refresh on the machine class
# CI uses, or expect the tolerance to absorb the difference.
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build-bench}"

cmake -B "$build" -S . -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" -j --target cycle_loop >/dev/null
"./$build/bench/cycle_loop" --reps 7 --out BENCH_cycle_loop.json

# A sharded (_shN) config measured on fewer than N cores prices the
# tile barriers instead of the parallel speedup. That is still a valid
# baseline (CI compares like against like) but a misleading one to read, so
# say so out loud. `nproc` counts logical CPUs — a conservative upper bound
# on physical cores, so the warning can only under-fire.
cores="$(nproc)"
python3 - "$cores" BENCH_cycle_loop.json <<'EOF'
import json, sys
cores = int(sys.argv[1])
for c in json.load(open(sys.argv[2]))["configs"]:
    if c.get("shards", 1) > cores:
        print(f"bench_baseline: WARNING {c['name']} runs {c['shards']} tiles but this "
              f"host has only {cores} core(s); its cycles/s prices barrier overhead, "
              "not parallel speedup", file=sys.stderr)
EOF

echo "Wrote BENCH_cycle_loop.json:"
cat BENCH_cycle_loop.json
