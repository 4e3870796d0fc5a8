#!/usr/bin/env python3
"""Build and run the hcmm benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
hcmm_perfbench into .bench_build/ (the library is built from the sources in
this checkout); later calls only re-check the build.  The last stdout line
of hcmm_perfbench is the result object; with --trace 0 its setup_s is
replaced by the median over SETUP_SAMPLES fresh processes, its own included.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "hcmm_perfbench"
# A run must end within 180 s; keep a margin for the setup probes and exit.
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 11


def build():
    """Configure (once) and build hcmm_perfbench; output goes to stderr."""
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "hcmm_perfbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def setup_sample(workload, timeout):
    """Set-up seconds of one fresh hcmm_perfbench process."""
    done = subprocess.run([str(BINARY), "--workload", workload, "--setup-only"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        sys.exit(f"run.py: set-up probe exited with {done.returncode}")
    for line in done.stdout.splitlines():
        if line.startswith("setup_s="):
            return float(line.split("=", 1)[1])
    sys.exit("run.py: set-up probe printed no setup_s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("run.py: --seed must be >= 0 and --seconds >= 1")

    build()
    start = time.monotonic()
    samples = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(setup_sample(args.workload, RUN_LIMIT_S))

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    remaining = RUN_LIMIT_S - (time.monotonic() - start)
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: hcmm_perfbench did not finish within "
                 f"{RUN_LIMIT_S:.0f} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit(f"run.py: hcmm_perfbench exited with {done.returncode}")
    result = json.loads(lines[-1])
    if args.trace == 0:
        samples.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        lines.insert(-1, "setup_s samples (s): " +
                     " ".join(f"{s:.6f}" for s in samples))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
