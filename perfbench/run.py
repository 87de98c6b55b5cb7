#!/usr/bin/env python3
"""Build the benchmark from source, then run it once.

Usage (from the repository root):

    python3 perfbench/run.py --workload datagen|serve \
        --seed N --seconds S --trace 0|1

The Cargo build goes to $CARGO_TARGET_DIR (default `.bench_build`) and
prints only to standard error, so the last line of standard output is
the benchmark's JSON result. The exit code is the benchmark's; a failed
build exits 1 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    work_dir = os.path.join(target, "perfbench")
    run = subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
