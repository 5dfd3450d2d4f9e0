#!/usr/bin/env python3
"""Build the serving benchmark from source, then run it.

Usage (from the repository root):

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds the runtime libraries and the
benchmark into .bench_build/ (Release); later runs rebuild only what
changed. Build output goes to stderr, so the benchmark's own output,
which ends with one JSON result line, is all that reaches stdout. A
failed build exits with status 3 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "servebench")
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configure (once) and build the servebench target."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DSERVEBENCH_TESTS=OFF"])
    steps.append(["cmake", "--build", BUILD, "--target", "servebench",
                  "-j", JOBS])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("servebench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 3
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process with the benchmark, so no child outlives
    # the command and its exit status is the command's.
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
