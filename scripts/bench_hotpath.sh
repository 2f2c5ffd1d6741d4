#!/usr/bin/env bash
# Build and run the hot-path microbenchmarks, emitting BENCH_hotpath.json
# (per-tick primitives, comparable across PRs) and BENCH_macrostep.json
# (the end-to-end macro-stepping vs per-tick runs) at the repo root so
# every PR leaves a comparable perf trajectory.
#
# Usage: scripts/bench_hotpath.sh [--quick] [--out FILE] [--macro-out FILE]
#   --quick       one repetition with a tiny min-time (CI smoke: proves
#                 the driver runs and produces valid JSON; timings are
#                 noisy)
#   --out F       write the microbenchmark JSON to F
#                 (default BENCH_hotpath.json)
#   --macro-out F write the end-to-end macro-step JSON to F
#                 (default BENCH_macrostep.json)
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_TIME=0.5
OUT=BENCH_hotpath.json
MACRO_OUT=BENCH_macrostep.json
while [[ $# -gt 0 ]]; do
    case "$1" in
      --quick) MIN_TIME=0.01; shift ;;
      --out) OUT="$2"; shift 2 ;;
      --macro-out) MACRO_OUT="$2"; shift 2 ;;
      *) echo "usage: $0 [--quick] [--out FILE] [--macro-out FILE]" >&2
         exit 2 ;;
    esac
done

cmake -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build -j "$(nproc)" --target bench_hotpath > /dev/null

# Microbenchmarks: everything except the end-to-end runs, so the JSON
# stays name-for-name comparable with the baselines of earlier PRs.
./build/bench/bench_hotpath \
    --benchmark_filter='-BM_EndToEndRun' \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$OUT" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true

# End-to-end: whole-simulation runs with macro-stepping on and off.
# items_per_second counts simulated ticks, so the macro/per-tick ratio
# is the engine's wall-clock speedup.
./build/bench/bench_hotpath \
    --benchmark_filter='BM_EndToEndRun' \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$MACRO_OUT" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true

# Both JSONs must parse; fail loudly if the driver wrote garbage, and
# print the macro-vs-per-tick speedup on the 16-task untraced shape.
python3 - "$OUT" "$MACRO_OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
names = [b["name"] for b in doc["benchmarks"]]
assert any(n.startswith("BM_SimulationStep/") for n in names), names
assert not any(n.startswith("BM_EndToEndRun/") for n in names), names
print(f"{sys.argv[1]}: {len(names)} benchmark entries, JSON ok")

with open(sys.argv[2]) as f:
    doc = json.load(f)
runs = [b for b in doc["benchmarks"]
        if b["name"].startswith("BM_EndToEndRun/")]
assert runs, "no BM_EndToEndRun entries in " + sys.argv[2]
print(f"{sys.argv[2]}: {len(runs)} end-to-end entries, JSON ok")

def rate(macro, traced):
    per = [b["items_per_second"] for b in runs
           if f"/v:2/c:4/t:2/macro:{macro}/traced:{traced}" in b["name"]]
    return max(per) if per else None

per_tick = rate(0, 0)
macro = rate(1, 0)
if per_tick and macro:
    print(f"macro-step speedup (16 tasks, untraced): "
          f"{macro / per_tick:.2f}x")
EOF
