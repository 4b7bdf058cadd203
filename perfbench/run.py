#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

    python3 perfbench/run.py --workload compile|sweep|serve --seed N \
        --seconds S --trace 0|1

Configures and builds perfbench/CMakeLists.txt (the repository's
libraries from src/ plus perfbench itself) in .bench_build/ at the
checkout root, runs it there, and passes its output through. The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json when --trace is 0, and
every per-layer metric when it is 1. Build output goes to standard
error. Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# A run must end within 180 s; stop the program before that.
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources: src/CMakeLists.txt is missing from the checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
           "-j", str(BUILD_JOBS)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    """Short HEAD commit of the checkout, with "-dirty" when its files
    differ from that commit; "unknown" when the checkout is not the root
    of a git work tree."""
    def git(*argv):
        return subprocess.run(["git", "--no-optional-locks", *argv], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != \
                os.path.realpath(ROOT):
            return "unknown"
        sha = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    exe = build()
    work = tempfile.mkdtemp(prefix="work-", dir=os.path.dirname(BUILD_DIR))
    try:
        proc = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", ROOT, "--work-dir", work, "--git-sha", git_sha()],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")

    lines = proc.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("perfbench printed no result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
