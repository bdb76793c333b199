#!/usr/bin/env python3
"""Stability check: run one workload several times and summarise.

Usage, from the root of the repository:

    python3 perfbench/stability.py --workload point-sets --runs 5 --seed 42

Prints each end-to-end metric's median, quartiles and quartile spread (the
distance between the quartiles as a share of the median), and each run's
digests of computed results.  Runs with the same seed must give the same
digest round by round (byte-determinism per seed); one further run with
--second-seed must pass every check.  With --distinct-seeds the runs take
seeds seed, seed+1, ... instead, which is how the bounds in BENCHMARK.json
were set; their digests are not compared.

The checker self-test runs first.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402

ROUND_LINE = re.compile(r"^round (\d+): .*digest=([0-9a-f]+)$")


def run_once(workload: str, seed: int, seconds: float) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit(f"run printed nothing (exit {proc.returncode}): {proc.stderr}")
    result = json.loads(lines[-1])
    digests = [m.group(2) for m in map(ROUND_LINE.match, lines[:-1]) if m]
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return result, digests, proc.returncode


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--second-seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--distinct-seeds", action="store_true")
    args = ap.parse_args(argv)

    print(f"checker self-test: {checker.self_test()} checks passed")
    ok = True
    values: dict = {}
    digests = []
    for i in range(args.runs):
        seed = args.seed + i if args.distinct_seeds else args.seed
        result, run_digests, code = run_once(args.workload, seed, args.seconds)
        digests.append(run_digests)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        line = " ".join(f"{k}={m['value']:.4f}" for k, m in result["metrics"].items())
        print(f"run {i} seed={seed} exit={code} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {line} "
              f"digests={','.join(run_digests)}", flush=True)
        ok = ok and code == 0 and result["correct"] and result["failed"] == 0

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:14s} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.2%} "
              f"{bounds.get(name, float('nan')):6.2f}")

    if not args.distinct_seeds:
        common = min(len(d) for d in digests)
        same = all(d[:common] == digests[0][:common] for d in digests)
        print(f"digests of rounds 0..{common - 1} equal across same-seed runs: {same}")
        ok = ok and same
        result, _, code = run_once(args.workload, args.second_seed, args.seconds)
        passed = code == 0 and result["correct"] and result["failed"] == 0
        print(f"second seed {args.second_seed}: exit={code} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        ok = ok and passed
    print("stability: PASS" if ok else "stability: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
