#!/usr/bin/env python3
"""Same-host A/B benchmark gate: this tree against a base revision.

Usage, from the repository root:

    python3 scripts/bench_ab.py <base-rev>

Checks <base-rev> out into a detached git worktree (no network needed),
then times both trees with perfbench/run.py in interleaved pairs on every
workload of BENCHMARK.json. Prints the base and head medians of every
end-to-end metric. Exits 1 if a head run is not correct with 0 failed, or
if the head's median sim_cycles_per_s falls more than BOUND below the
base's on any workload. The worktree is removed on exit.
"""
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Hidden, so perfbench/run.py's source scan of this tree skips the base copy.
BASE_TREE = os.path.join(ROOT, ".bench_ab")
# Five pairs: the median then survives one disturbed run on either side,
# and the three workloads still finish in about four minutes.
PAIRS = 5
# perfbench repeats its unit at least 21 times (meshes) or 3 times
# (exhibits) whatever the budget; 2 s adds little beyond that minimum.
SECONDS = 2
# Largest tolerated drop of head vs base in median sim_cycles_per_s: the
# 20% the earlier absolute-baseline gate allowed, now between same-host runs.
BOUND = 0.20
GATED = "sim_cycles_per_s"


def run(tree, workload, seed):
    """One perfbench run in `tree`; returns its result object."""
    # Each tree builds into its own .bench_build, never a shared target dir.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
    if out.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "metrics": {}}
    return json.loads(lines[-1])


def gate(spec):
    failures = []
    for w in (w["name"] for w in spec["workloads"]):
        results = {"base": [], "head": []}
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                r = run(BASE_TREE if side == "base" else ROOT, w, i + 1)
                results[side].append(r)
                correct = r["correct"] is True and r["failed"] == 0
                if not r["metrics"] or (side == "head" and not correct):
                    failures.append(f"{w}: {side} run with seed {i + 1} has correct="
                                    f"{r['correct']}, failed={r['failed']}")
        print(f"{w} ({PAIRS} pairs)")
        for m in spec["end_to_end"]:
            med = {}
            for side, rs in results.items():
                vals = [r["metrics"][m["name"]]["value"] for r in rs if m["name"] in r["metrics"]]
                med[side] = statistics.median(vals) if vals else float("nan")
            ratio = med["head"] / med["base"] if med["base"] else float("nan")
            print(f"  {m['name']:<18} base {med['base']:>12.4g}  head {med['head']:>12.4g}"
                  f"  head/base {ratio:.3f}")
            if m["name"] == GATED and not ratio >= 1 - BOUND:
                failures.append(f"{w}: median {GATED} head/base = {ratio:.3f}, "
                                f"below the {1 - BOUND:.2f} bound")
        sys.stdout.flush()
    return failures


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print("usage: bench_ab.py <base-rev>", file=sys.stderr)
        sys.exit(2)
    if any(k.startswith("MIRA_") for k in os.environ):
        sys.exit("bench_ab.py: unset every MIRA_* variable first; perfbench refuses them")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    git = ["git", "-C", ROOT, "worktree"]
    # A worktree left behind by a killed run would make `add` fail.
    subprocess.run(git + ["remove", "--force", BASE_TREE], stderr=subprocess.DEVNULL)
    subprocess.run(git + ["add", "--detach", BASE_TREE, sys.argv[1]], check=True)
    # A cancelled CI job sends SIGTERM; leave through `finally` so the worktree goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        failures = gate(spec)
    finally:
        subprocess.run(git + ["remove", "--force", BASE_TREE])
    for f in failures:
        print(f"FAIL {f}")
    print("bench_ab: " + ("FAILED" if failures else f"passed against {sys.argv[1]}"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
