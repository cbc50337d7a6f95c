#!/usr/bin/env python3
"""Build the mantra CLI and the perfbench binary, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fixw_paper --seed 1 --seconds 30 --trace 0

Builds with cargo (offline, release) into $CARGO_TARGET_DIR, or
.bench_build when it is unset, then runs the perfbench binary from the
repository root. Build output goes to stderr; the binary's last stdout line
is the JSON result. The exit code is the binary's: non-zero when a build failed
or any output check failed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target, ["-p", "mantra-cli"])
    build(target, ["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), "--mantra", os.path.join(release, "mantra")]
    sys.exit(subprocess.run(cmd + sys.argv[1:], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
