#!/usr/bin/env python3
"""Alternated parent/change pairs of the benchmark, with the verdict per metric.

Usage, from the root of the repository:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload surface-counts \\
        --seed 42 --pairs 10 --seconds 25

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Each is
bytecode-compiled first, so that neither side pays for compiling in its
timed runs.  Pair i runs `perfbench/run.py --trace 0` of each checkout, with
that checkout's own harness and library; the parent runs first in even
pairs and the change first in odd ones.

Every run must exit 0 (no failed operation), and every round digest must
agree across all runs that reached that round, since a round's inputs
depend only on the workload, the seed and the round index.  Per end-to-end
metric of BENCHMARK.json the script prints each side's median and
quartiles, the number of pairs the change wins (ties count for neither)
and a verdict:

- `gain`: the change wins at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's interquartile
  range; below 10 pairs this reads `gain, but fewer than 10 pairs`, which
  supports no claim;
- `worse beyond bound`: the change's median is worse than the parent's by
  more than the metric's bound, a fraction of the parent's median;
- `no gain shown`: neither.

The exit code is 1 if a run failed or the digests disagree, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUND = re.compile(r"^round (\d+): .* digest=(\w+)$")


def run_once(tree: Path, args) -> dict:
    """One benchmark run in `tree`: its metrics, round digests and exit code."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # each run imports its own checkout's src
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    digests = {}
    for line in lines:
        match = ROUND.match(line)
        if match:
            digests[int(match[1])] = match[2]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    return {
        "code": proc.returncode,
        "stderr": proc.stderr.strip(),
        "digests": digests,
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        "failed": result.get("failed"),
    }


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    """(wins, text) for one metric over the pairs, by the rule in the
    module docstring."""
    sign = 1 if better == "lower" else -1
    wins = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if wins * 10 >= 9 * len(parent) and sign * (med_p - med_c) > q3 - q1:
        return wins, "gain" if len(parent) >= 10 else "gain, but fewer than 10 pairs"
    if sign * (med_c - med_p) > bound * abs(med_p):
        return wins, "worse beyond bound"
    return wins, "no gain shown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("need --pairs >= 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, tree in sides.items():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"no perfbench/run.py in the {name} checkout {tree}")
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=tree, check=True, stdout=subprocess.DEVNULL)

    runs = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], args)
            runs[side].append(run)
            shown = " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items())
            print(f"pair {i} {side}: exit={run['code']} failed={run['failed']} "
                  f"rounds={len(run['digests'])} {shown}", flush=True)
            if run["code"] != 0:
                ok = False
                print(run["stderr"], file=sys.stderr)

    seen: dict = {}
    clashes = 0
    for side, side_runs in runs.items():
        for run in side_runs:
            for index, digest in run["digests"].items():
                if seen.setdefault(index, digest) != digest:
                    clashes += 1
                    print(f"digest mismatch: round {index} of a {side} run", file=sys.stderr)
    common = min(len(run["digests"]) for side_runs in runs.values() for run in side_runs)
    print(f"digests: {'agree' if not clashes else f'{clashes} mismatches'} "
          f"({common} rounds common to all runs, {len(seen)} seen)")
    ok = ok and not clashes

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    print("metric         parent median [q1, q3]            change median [q1, q3]"
          "            wins  verdict")
    for spec in bench["end_to_end"]:
        name = spec["name"]
        parent = [r["metrics"][name] for r in runs["parent"] if name in r["metrics"]]
        change = [r["metrics"][name] for r in runs["change"] if name in r["metrics"]]
        if len(parent) != args.pairs or len(change) != args.pairs:
            print(f"{name:<14} missing from a run")
            ok = False
            continue
        wins, text = verdict(parent, change, spec["better"], spec["bound"])
        cols = []
        for values in (parent, change):
            q1, q3 = quartiles(values)
            cols.append(f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]")
        ratio = statistics.median(change) / statistics.median(parent)
        print(f"{name:<14} {cols[0]:<33} {cols[1]:<33} {wins:>2}/{args.pairs}  {text} "
              f"(change/parent {ratio:.3f})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
