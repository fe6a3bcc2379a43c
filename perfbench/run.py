#!/usr/bin/env python3
"""Build the perfbench binary from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The simulator libraries and the binary
are built with CMake into .bench_build/ (the first run compiles them;
later runs only check they are up to date). The binary's output is passed
through unchanged: its last line is the JSON result. The exit code is the
binary's, or 2 if the build fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_JOBS = "4"


def build():
    """Configure once and build the binary; returns its path or None."""
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode:
            return None
    make = ["cmake", "--build", BUILD, "--target", "perfbench",
            "-j", BUILD_JOBS]
    if subprocess.run(make, stdout=log, stderr=log).returncode:
        return None
    exe = os.path.join(BUILD, "perfbench")
    return exe if os.access(exe, os.X_OK) else None


def main():
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    # The binary runs in the foreground and is waited for; it joins
    # every thread it starts before it exits.
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
