#!/usr/bin/env python3
"""End-to-end benchmark of the DMV cluster simulator.

Builds the simulator libraries and the benchmark program from source (CMake,
into .bench_build/ at the repository root), verifies once per build that
the benchmark's cluster assembly reproduces the repository's own experiment
harness, then runs one measurement:

    python3 perfbench/run.py --workload tpcw_shopping --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is the JSON result. The exit code is 0
only when the build succeeded and every output check passed. Workloads and
metrics are described in perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
BINARY = os.path.join(BUILD, "dmv_perfbench")
SELFCHECK_STAMP = os.path.join(BUILD, "selfcheck.ok")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds dmv_perfbench; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dmv_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def selfcheck():
    """Runs --selfcheck once per built binary."""
    stamp = str(os.stat(BINARY).st_mtime_ns)
    if os.path.exists(SELFCHECK_STAMP):
        with open(SELFCHECK_STAMP) as f:
            if f.read() == stamp:
                return True
    proc = subprocess.run([BINARY, "--selfcheck"], stdout=sys.stderr,
                          stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    if proc.returncode:
        return False
    with open(SELFCHECK_STAMP, "w") as f:
        f.write(stamp)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if not selfcheck():
        print("perfbench: the benchmark's cluster assembly does not "
              "reproduce harness::DmvExperiment", file=sys.stderr)
        return 3

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except (IndexError, ValueError) as e:
        sys.stdout.write(proc.stdout)
        print("perfbench: no result line (%s)" % e, file=sys.stderr)
        return proc.returncode or 5
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
