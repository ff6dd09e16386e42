#!/usr/bin/env python3
"""Builds and runs the solve-service benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_mix|spec_solve|wire_repeat \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles the
libraries under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild incrementally. Build output goes
to stderr, so the last line of stdout is the measuring program's JSON
result. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_mix", "spec_solve", "wire_repeat")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the measuring program; returns its path."""
    stdout = sys.stderr  # keep stdout for the result line
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=stdout)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_service", "-j", jobs],
                   check=True, stdout=stdout)
    return os.path.join(build_dir, "perfbench_service")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/CMakeLists.txt beside perfbench/; "
              "the benchmark builds the program from source", file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    work_dir = os.path.join(build_root, "perfbench_run", str(os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        # subprocess.run kills and reaps the child on timeout.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
