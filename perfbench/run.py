#!/usr/bin/env python3
"""Build the edge benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload warm-bo --seed 1 --seconds 8 --trace 0

Every argument is passed to the benchmark binary (see main.go). The Go build
cache, module cache and binary live under .bench_build/ in the repository
root, so the build reads and writes nothing outside the checkout. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        CGO_ENABLED="0",
    )
    return env


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "bin", "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = sys.argv[1:] + ["--commit", commit(),
                           "--out", os.path.join(BUILD, "perfbench")]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
