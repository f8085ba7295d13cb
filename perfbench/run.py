#!/usr/bin/env python3
"""Builds the benchmark binary when a source is newer than it, then runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every argument is passed to the binary (see perfbench/src/main.rs). The
build goes to $CARGO_TARGET_DIR (default: .bench_build). The freshness
check is done here rather than left to `cargo run` because one crate's
build script watches `.git/HEAD`, and in a tree without `.git` cargo
would rebuild that crate and everything above it on every run.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_SUFFIXES = (".rs", ".toml", ".lock")


def newest_source_mtime():
    newest = 0.0
    for dirpath, dirnames, filenames in os.walk(ROOT):
        # Build outputs and hidden directories hold no sources.
        dirnames[:] = [d for d in dirnames if not d.startswith(".") and d != "target"]
        for name in filenames:
            if name.endswith(SOURCE_SUFFIXES):
                newest = max(newest, os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = os.path.join(target, "release", "mira-perfbench")
    if not os.path.exists(exe) or os.path.getmtime(exe) < newest_source_mtime():
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             os.path.join(ROOT, "perfbench", "Cargo.toml")],
            cwd=ROOT,
            env=dict(os.environ, CARGO_TARGET_DIR=target),
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            sys.exit(build.returncode)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
