#!/usr/bin/env python3
"""Build and run the ppm benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record --workload W --seeds 0-63
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds
perfbench/ (the libraries from src/ plus ppm_perfbench) into
.bench_build/ with the project's default build type; later calls only
rebuild what changed.  Build output goes to stderr, so the last stdout
line is ppm_perfbench's JSON result.  --trace 1 also writes the run's
coarse spans to .bench_build/spans/<workload>-seed<N>.jsonl.

--record regenerates the expected digests of the given seeds and
prints them; redirect into perfbench/expected/<workload>.txt after a
change that is meant to alter simulated output.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper-grid", "manycore", "fleet", "traced")


def build():
    """Configure (once) and build; exit non-zero if either fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: the ppm sources (src/) are not next to perfbench/")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def bench(args):
    """Run ppm_perfbench; return its exit code."""
    return subprocess.run([os.path.join(BUILD, "ppm_perfbench")] + args).returncode


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--seeds", type=seed_range)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    if a.selftest:
        build()
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if a.record:
        if a.workload is None or a.seeds is None:
            ap.error("--record needs --workload and --seeds")
        build()
        for s in a.seeds:
            sys.stdout.flush()
            rc = bench(["--workload", a.workload, "--seed", str(s), "--record"])
            if rc:
                return rc
        return 0
    if None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", a.trace,
            "--expected", os.path.join(HERE, "expected", a.workload + ".txt")]
    if a.trace == "1":
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(spans, "%s-seed%d.jsonl" % (a.workload, a.seed))]
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
