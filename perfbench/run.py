#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build); build output goes to
standard error, so the last line of standard output is the workload's JSON
result. The workload runs in a process group of its own and is killed,
with everything it started, if it outlives the time limit.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
RUN_LIMIT_S = 170


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot start cargo: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    if not build(target_dir):
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2
    binary = os.path.join(target_dir, "release", "perfbench")
    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT,
                             start_new_session=True)
    try:
        return child.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload exceeded {RUN_LIMIT_S}s, stopping it",
              file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
