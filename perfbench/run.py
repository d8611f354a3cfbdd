#!/usr/bin/env python3
"""Build ipdb and the benchmark runner from source, then run one workload.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload certify|kb-query|serve-mixed \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/ and the runner's scratch files, traces
and full result records to .perfbench/, both in the current directory.
The last line of standard output is the run's summary JSON. The exit
status is non-zero, with no summary, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORK_DIR = ".perfbench"
WORKLOADS = ("certify", "kb-query", "serve-mixed")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found on PATH")


def build():
    targets = ["./perfbench/perfbench.exe", "./bin/main.exe"]
    cmd = dune() + ["build", "--root", ".", "--build-dir", BUILD_DIR, "--cache", "disabled",
                    "--display", "quiet"] + targets
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return [os.path.join(BUILD_DIR, "default", t[2:]) for t in targets]


def revision():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def filesystem(path):
    """Type of the filesystem holding path, from /proc/self/mountinfo."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        pass
    return fstype


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    runner, ipdb = build()
    # Write the build's dirty pages back now, so that the run's fsyncs
    # do not queue behind them.
    os.sync()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [runner, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--spec", "BENCHMARK.json", "--ipdb", os.path.abspath(ipdb), "--work", WORK_DIR,
           "--rev", revision(), "--fs", filesystem(WORK_DIR)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
