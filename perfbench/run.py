#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig6-monitor --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and compiles perfbench/ (which compiles the library
sources under src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when the variable is unset. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Any build or run failure exits nonzero
without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must finish within 180 s; the first one may also build.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    bdir = build_dir()
    try:
        build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    if "--self-test" in sys.argv[1:]:
        exe = os.path.join(bdir, "perfbench_selftest")
        if not os.path.exists(exe):
            print("perfbench: GTest not found; self-test not built", file=sys.stderr)
            return 2
        return subprocess.run([exe]).returncode

    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "anosy_perfbench"), *sys.argv[1:], "--out-dir", out_dir]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
