#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage, from the repository root:

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program's libraries (src/) and the benchmark binary are compiled with
CMake into .bench_build/ at the repository root; later runs rebuild only
what changed. Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result. The exit status is the binary's, or 2 when the
program's sources are missing and 3 when the build fails; neither of those
prints a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# The build is memory-hungry per job; four jobs keep it modest.
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configures (once) and builds the binary; returns True on success."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, **quiet).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "--target", "repobench",
            "-j", BUILD_JOBS]
    return subprocess.run(step, **quiet).returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("repobench: the program's sources (src/) are missing",
              file=sys.stderr)
        return 2
    if not build():
        print("repobench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(BUILD, "repobench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
