#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 kvbench/run.py --workload kv_hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. kvbench.cc and the library sources it
needs are compiled into .bench_build/kvbench (an incremental no-op after
the first run); build output goes to stderr so that the last line of
stdout is the benchmark's JSON result. Every argument is passed on to
the benchmark program; see kvbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "kvbench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD, "--target", "kvbench", "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("kvbench: build failed: " + " ".join(cmd))


def main():
    build()
    program = os.path.join(BUILD, "kvbench")
    sys.stdout.flush()
    sys.exit(subprocess.run([program] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
