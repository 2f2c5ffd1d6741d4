#!/usr/bin/env bash
# Build and run the hot-path microbenchmarks, emitting
# BENCH_hotpath.json at the repo root (per-tick primitives, timed
# only; tests/alloc/test_zero_alloc.cc gates their allocations).  The
# host's hardware-thread count and the build type are stamped in.
#
# Usage: scripts/bench_hotpath.sh [--quick] [--out FILE]
#   --quick  one repetition with a tiny min-time (CI smoke: proves the
#            driver runs and produces valid JSON; timings are noisy)
#   --out F  write the benchmark JSON to F (default BENCH_hotpath.json)
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_TIME=0.5
OUT=BENCH_hotpath.json
while [[ $# -gt 0 ]]; do
    case "$1" in
      --quick) MIN_TIME=0.01; shift ;;
      --out) OUT="$2"; shift 2 ;;
      *) echo "usage: $0 [--quick] [--out FILE]" >&2; exit 2 ;;
    esac
done

cmake -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build -j "$(nproc)" --target bench_hotpath > /dev/null

./build/bench/bench_hotpath \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$OUT" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true
./scripts/bench_stamp.py "$OUT" build

# The JSON must parse and hold the per-tick rows.
python3 - "$OUT" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
names = [b["name"] for b in doc["benchmarks"]]
assert any(n.startswith("BM_SimulationStep/") for n in names), names
print(f"{sys.argv[1]}: {len(names)} benchmark entries, JSON ok "
      f"(host hardware threads: {doc['host_hardware_threads']}, "
      f"build: {doc['cmake_build_type']})")
PY
