#!/usr/bin/env python3
"""Builds and runs the colgraph benchmark for one workload.

    python3 perfbench/run.py --workload serve_read --seed 7 --seconds 10 --trace 0

Run it from the repository root. The first run configures and builds the
library and the benchmark binary (Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild only what changed.
Build output goes to stderr. The binary's stdout passes through; its last
line is the result object. Result documents (every metric with its sample
count, the fingerprint, the layer budget of traced runs) and span logs are
kept under <build dir>/results. Exits nonzero, without a result line, when
the build or the run fails, and nonzero with `"correct": false` when an
answer was wrong.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_read", "analytics", "ingest_mixed")
# A run must finish well inside three minutes.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory):
    """Configures (once) and builds the binary; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "--target",
                  "colgraph_perfbench", "-j", str(os.cpu_count() or 2)])
    for step in steps:
        started = time.monotonic()
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
        log(f"{step[1]} took {time.monotonic() - started:.1f}s")
    return os.path.join(directory, "colgraph_perfbench")


def git_sha():
    # Only the checkout's own repository: git would otherwise search the
    # parent directories and could report an enclosing repository's HEAD.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    directory = build_dir()
    binary = build(directory)
    if binary is None:
        return 1

    results = os.path.join(os.path.dirname(directory), "results")
    work = os.path.join(os.path.dirname(directory), "run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", results, "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    try:
        done = subprocess.run(command, cwd=work, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s and was killed")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(done.stdout)
        log(f"benchmark exited {done.returncode} without a result line")
        return done.returncode or 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or not result["correct"]:
        log("the run reported wrong answers")
        return done.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
