#!/usr/bin/env python3
"""Builds the benchmark and the `ultra-serve` binary from source, then
runs one workload and passes its result line through.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Builds go to `$CARGO_TARGET_DIR`
(default `.bench_build`); cargo's output goes to stderr, so the last line
of stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def cargo_build(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline"] + args
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: `{' '.join(cmd)}` failed")


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "serve", "Cargo.toml")):
        sys.exit("perfbench: no ultracomputer workspace next to perfbench/")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cargo_build(["-p", "ultra-serve", "--bin", "ultra-serve"], target_dir)
    cargo_build(["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")], target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--serve-bin", os.path.join(release, "ultra-serve"),
        "--work-dir", os.path.join(target_dir, "perfbench-work"),
    ] + sys.argv[1:]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
