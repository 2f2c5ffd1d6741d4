#!/usr/bin/env python3
"""Stamp a benchmark JSON with the host and build that recorded it.

Usage: scripts/bench_stamp.py FILE BUILD_DIR [KEY=VALUE ...]

Adds, at the top level of FILE:
  host_hardware_threads  CPUs this process may run on (what nproc says);
  cmake_build_type       CMAKE_BUILD_TYPE of BUILD_DIR/CMakeCache.txt
                         (google-benchmark's own library_build_type
                         describes the installed library, not this
                         project);
  KEY                    VALUE, as an integer when it parses as one.
The bench_*.sh and fuzz_sweep.sh scripts call it on every JSON they
write, so a tracked BENCH_*.json always says where it came from.
"""

import json
import os
import re
import sys


def build_type(build_dir):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"CMAKE_BUILD_TYPE:STRING=(.*)", line)
            if m:
                return m.group(1).strip()
    sys.exit(f"{build_dir}: no CMAKE_BUILD_TYPE in CMakeCache.txt")


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    path, build_dir = argv[1], argv[2]
    with open(path) as f:
        doc = json.load(f)
    doc["host_hardware_threads"] = len(os.sched_getaffinity(0))
    doc["cmake_build_type"] = build_type(build_dir)
    for pair in argv[3:]:
        key, _, value = pair.partition("=")
        doc[key] = int(value) if re.fullmatch(r"-?\d+", value) else value
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv)
