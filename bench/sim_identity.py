#!/usr/bin/env python3
"""Checks that the working tree simulates exactly what a git ref simulates.

A change meant only to restructure the code or to make the simulator
faster must leave every simulated result of perfbench bit-identical. This
script extracts REF into a temporary directory (git archive, so the
repository's own metadata is never touched), runs perfbench/run.py with
--trace 0 and --trace 1 in that tree and in this working tree for every
workload of BENCHMARK.json and every seed, and compares the simulated
values:

    attempted, failed, wips, read_mean_ms, read_p99_ms, update_mean_ms,
    update_p99_ms, sim.events_per_vs

Host metrics are not compared: the peak_rss_mb, setup_s and
host_sec_per_virtual_sec of each tree's --trace 0 run are printed side by
side, for information only (one run each, so only a large delta means
anything). Usage:

    python3 bench/sim_identity.py HEAD~1
    python3 bench/sim_identity.py main --seeds 1 2 --workloads scan_reporting
    python3 bench/sim_identity.py HEAD~1 --sweeps

Each tree builds perfbench into its own .bench_build/ (about 75 s on four
cores the first time).

With --sweeps it instead builds check_sweep and the figure and macro
benches from REF and from the working tree (in temporary build
directories) and diffs the output and exit status of every run in SWEEPS,
wall-clock lines dropped and host-time fields masked:
  - check_sweep --verbose with --mutations, --quick alone and with each
    mode, each non-TPC-W --workload, and --chaos --quick with and without
    --batched;
  - fig3-fig9, tbl_reconfig_matrix and both ablations;
  - the five macro benches at --quick, writing their JSON into the
    temporary tree, never over the committed BENCH_*.json files.
The whole comparison, both builds included, takes about 15 min on four
cores (fig3 about 2 min per tree).

Exit code 0: every value identical; 1: some value differs; 2: a run or a
build failed.
"""
import argparse
import difflib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRICS = ("wips", "read_mean_ms", "read_p99_ms", "update_mean_ms",
           "update_p99_ms", "sim.events_per_vs")
# Printed for both trees, never compared.
HOST_METRICS = ("peak_rss_mb", "setup_s", "host_sec_per_virtual_sec")
CHECKS = [["--mutations"], ["--quick"]] + \
         [["--quick", m]
          for m in ("--geo", "--elastic", "--multimaster", "--disaster")] + \
         [["--workload", w, "--quick"] for w in ("ycsb", "orders", "scan")] + \
         [["--chaos", "--quick"], ["--chaos", "--batched", "--quick"]]
FIGURES = ["fig3_scaling", "fig4_reintegration", "fig5_failover_stale",
           "fig6_stage_breakdown", "fig7_cold_backup", "fig8_warm_query",
           "fig9_warm_pageid", "tbl_reconfig_matrix", "ablation_design",
           "ablation_replication"]
MACROS = ["bench_repl", "bench_geo", "bench_elastic", "bench_multimaster",
          "bench_workloads"]
# "{out}" stands for the temporary output directory of the comparison.
SWEEPS = [["check_sweep"] + a + ["--verbose"] for a in CHECKS] + \
         [[f] for f in FIGURES] + \
         [[m, "--quick", "--out", "{out}/%s.json" % m] for m in MACROS]
WALL_CLOCK = re.compile(r"wall|host_sec|elapsed", re.IGNORECASE)
# A host-time field inside a line of simulated values (bench_workloads).
HOST_FIELD = re.compile(r"\bspv=\S+")


def extract(ref, dest):
    """Writes the tree of `ref` into `dest`."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        sys.exit("sim_identity: cannot extract %s" % ref)


def perfbench(tree, workload, seed, seconds, trace):
    """Runs perfbench in `tree`; returns its result, or None if it failed."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # keep each tree's build its own
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode or not result or not result.get("correct"):
        print("  %s --trace %d: run failed (exit %d)" %
              (tree, trace, proc.returncode))
        return None
    return result


def simulated(tree, workload, seed, seconds):
    """The compared values of one seed in `tree` and the host metrics of
    its --trace 0 run, or (None, None)."""
    run = perfbench(tree, workload, seed, seconds, 0)
    # Per-layer metrics such as sim.events_per_vs come only with --trace 1.
    layers = run and perfbench(tree, workload, seed, seconds, 1)
    if not layers:
        return None, None
    metrics = dict(run["metrics"], **layers["metrics"])
    values = {"attempted": run["attempted"], "failed": run["failed"]}
    for name in METRICS:
        values[name] = metrics[name]["value"]
    host = {name: run["metrics"][name]["value"] for name in HOST_METRICS}
    return values, host


def build_sweeps(tree, build):
    """Builds every binary SWEEPS runs of `tree` into `build`."""
    targets = sorted({argv[0] for argv in SWEEPS})
    for cmd in (["cmake", "-S", tree, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "-j", "4",
                 "--target"] + targets):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode:
            print("  %s: build failed\n%s" %
                  (tree, "\n".join(proc.stdout.splitlines()[-20:])))
            return False
    return True


def sweep_output(build, argv, out):
    """The deterministic lines of one run, plus its status."""
    cmd = [os.path.join(build, "bench", argv[0])] + \
          [a.replace("{out}", out) for a in argv[1:]]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    lines = [HOST_FIELD.sub("spv=-", l) for l in proc.stdout.splitlines()
             if not WALL_CLOCK.search(l)]
    return lines + ["exit %d" % proc.returncode]


def compare_sweeps(ref, base):
    """Diffs every sweep of SWEEPS between `ref` (extracted at `base`)
    and the working tree; returns the exit status."""
    builds = tempfile.mkdtemp(prefix="sim_identity-build-")
    try:
        old_build = os.path.join(builds, "ref")
        new_build = os.path.join(builds, "work")
        # One output directory for both trees: a bench that echoes its
        # --out path prints the same line in each.
        out = os.path.join(builds, "out")
        os.mkdir(out)
        if not (build_sweeps(base, old_build) and
                build_sweeps(ROOT, new_build)):
            return 2
        status = 0
        for argv in SWEEPS:
            name = " ".join(argv)
            old = sweep_output(old_build, argv, out)
            new = sweep_output(new_build, argv, out)
            if old == new:
                print("%s: identical (%d lines)" % (name, len(old)), flush=True)
                continue
            status = 1
            print("%s: DIFFERENT" % name)
            diff = difflib.unified_diff(old, new, ref, "working tree",
                                        lineterm="", n=1)
            for line in list(diff)[:40]:
                print("  " + line)
        return status
    finally:
        shutil.rmtree(builds, ignore_errors=True)


def compare_perfbench(args, base):
    """Compares every workload and seed of perfbench between the tree
    extracted at `base` and the working tree; returns the exit status."""
    workloads = args.workloads
    if not workloads:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for workload in workloads:
        for seed in args.seeds:
            print("%s seed %d" % (workload, seed), flush=True)
            old, old_host = simulated(base, workload, seed, args.seconds)
            new, new_host = simulated(ROOT, workload, seed, args.seconds)
            if old is None or new is None:
                status = 2
                continue
            diffs = [k for k in old if old[k] != new[k]]
            for k in diffs:
                print("  %s: %s %r, working tree %r" %
                      (k, args.ref, old[k], new[k]))
            if diffs:
                status = max(status, 1)
            else:
                print("  identical: " + ", ".join(
                    "%s %s" % (k, v) for k, v in new.items()))
            print("  host, not compared (%s -> working tree): " % args.ref +
                  ", ".join("%s %.4g -> %.4g" %
                            (k, old_host[k], new_host[k])
                            for k in HOST_METRICS))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="git ref to compare the working tree with")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--workloads", nargs="+",
                    help="default: every workload of BENCHMARK.json")
    ap.add_argument("--sweeps", action="store_true",
                    help="compare check_sweep and bench output instead")
    args = ap.parse_args()

    base = tempfile.mkdtemp(prefix="sim_identity-")
    try:
        extract(args.ref, base)
        if args.sweeps:
            status = compare_sweeps(args.ref, base)
        else:
            status = compare_perfbench(args, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("sim_identity: " + ("identical" if status == 0 else
                              "DIFFERENT" if status == 1 else "run failed"))
    return status


if __name__ == "__main__":
    sys.exit(main())
