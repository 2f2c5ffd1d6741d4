#!/usr/bin/env bash
# Build and run the incremental clearing benchmark, emitting
# BENCH_clearing.json at the repo root: one market round per (V, C, T)
# shape, swept over the dirty fraction x engine on/off.  Either engine
# mode produces bit-identical market state, so the sweep is a pure
# wall-clock measurement.  The host's hardware-thread count and the
# build type are stamped in.
#
# Usage: scripts/bench_clearing.sh [--quick] [--out FILE]
#   --quick  one tiny min-time repetition (CI smoke: proves the driver
#            runs and the JSON parses; timings are noisy)
#   --out F  write the benchmark JSON to F (default BENCH_clearing.json)
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_TIME=0.5
OUT=BENCH_clearing.json
while [[ $# -gt 0 ]]; do
    case "$1" in
      --quick) MIN_TIME=0.01; shift ;;
      --out) OUT="$2"; shift 2 ;;
      *) echo "usage: $0 [--quick] [--out FILE]" >&2; exit 2 ;;
    esac
done

cmake -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build -j "$(nproc)" --target bench_table7_scalability > /dev/null

./build/bench/bench_table7_scalability \
    --benchmark_filter='BM_IncrementalClearingRound' \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$OUT" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true
./scripts/bench_stamp.py "$OUT" build

# The JSON must parse; print full-recompute vs active-set time per
# (shape, dirty%), with the measured task skip rate alongside -- the
# speedup must come with a matching skip rate or it is measurement
# noise.
python3 - "$OUT" <<'PY'
import json, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
runs = [b for b in doc["benchmarks"]
        if b["name"].startswith("BM_IncrementalClearingRound/")]
assert runs, "no BM_IncrementalClearingRound entries in " + path
print(f"{path}: {len(runs)} entries, JSON ok "
      f"(host hardware threads: {doc['host_hardware_threads']}, "
      f"build: {doc['cmake_build_type']})")

inc = {}
for b in runs:
    # BM_IncrementalClearingRound/V/C/T/dirty/incremental
    v, c, t, dirty, mode = (int(p) for p in b["name"].split("/")[1:6])
    inc.setdefault(((v, c, t), dirty), {})[mode] = b
print("incremental active-set clearing (full -> incremental):")
for (shape, dirty) in sorted(inc):
    pair = inc[(shape, dirty)]
    if 0 not in pair or 1 not in pair:
        continue
    full_ms = pair[0]["real_time"]
    inc_ms = pair[1]["real_time"]
    skip = pair[1].get("task_skip_rate", 0.0)
    v, c, t = shape
    print(f"V={v} C={c} T={t} ({v * c * t} tasks) dirty={dirty:3d}%: "
          f"{full_ms:8.3f} ms -> {inc_ms:8.3f} ms "
          f"({full_ms / inc_ms:5.2f}x, task skip rate {skip:.1%})")
PY
