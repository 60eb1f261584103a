#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload table3|sessions|campaign \
        --seed N --seconds S --trace 0|1 [--campaign-seed N]

The build goes to $CARGO_TARGET_DIR (default perfbench/target); cargo's
own output goes to stderr, so the last line on stdout is the result JSON.
The benchmark writes its session files under the target directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    run = subprocess.run([exe, "--work-dir", work, *sys.argv[1:]], check=False)
    return run.returncode if run.returncode > 0 else (1 if run.returncode else 0)


if __name__ == "__main__":
    sys.exit(main())
