#!/usr/bin/env python3
"""Run one workload of the pebblejoin benchmark and print its result line.

    python3 perfbench/run.py --workload equijoin-bulk --seed 1 \
        --seconds 30 --trace 0

Builds the library, the `pebblejoin` CLI and the benchmark binary `pjbench`
from the sources of this checkout into .bench_build/perfbench (Release),
then runs pjbench. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; build output and progress
go to stderr. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("equijoin-bulk", "connected-bulk", "serve-mix")
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "tools/pebblejoin_cli.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("pebblejoin sources not found (%s is missing)" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "pjbench", "pebblejoin_cli"])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    build()

    command = [os.path.join(BUILD, "pjbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--cli", os.path.join(BUILD, "pebblejoin")]
    # Its own process group, so a timeout also stops the server a
    # serve-mix run has started.
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail("pjbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.decode().strip().splitlines()
    if child.returncode != 0 or not lines:
        fail("pjbench exited with %d" % child.returncode)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
