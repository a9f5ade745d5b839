#!/usr/bin/env python3
"""Build the simulator and the benchmark program, then run one workload.

    python3 perfbench/run.py --workload paper-busy --seed 1 --seconds 25 --trace 0

Run from the repository root. The build goes to .bench_build/ (a
Release CMake build of perfbench/CMakeLists.txt, which pulls in src/
and tools/camosimd.cc); the first run configures and compiles, later
runs only check that the build is up to date. Build output goes to
standard error; the program prints the result object as the last line
of standard output. Workloads and metrics are described in
perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper-busy", "idle-probe", "ga-offline", "daemon-uncached")
# A run must end within 180 s, build check included.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark program and the daemon."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench", "camosimd"],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the simulator sources (src/) are not next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3

    out = os.path.join(BUILD, "out")
    os.makedirs(out, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--daemon", os.path.join(BUILD, "camosimd"),
           "--pins", os.path.join(HERE, "pins.json"),
           # Relative, so daemon socket paths stay short.
           "--out", os.path.relpath(out, ROOT)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the benchmark program timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
