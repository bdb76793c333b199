#!/usr/bin/env python3
"""Benchmark of the hypersurfaces library, one workload per run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload curve-ledgers --seed 42 --seconds 25 --trace 0

The run imports the library from ./src, times fresh interpreter imports
(set-up) before and after the rounds, and runs whole rounds of the
workload's operations while another round fits in the time given (at least
one).  Each round draws new inputs from the seed and the round index.  Every
operation is checked against the independent checker; an exception or a
wrong value counts it as failed with its cause (printed to stderr) and the
run goes on.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  With --trace 0 these are the end-to-end metrics; with
--trace 1 the run alternates untraced and traced rounds on the same inputs
and reports the per-layer metrics (per round) and the tracing overhead.
The exit code is 1 if any operation failed, 2 if the library is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_STARTS = 5  # fresh interpreters timed before and again after the rounds
SETUP_COMMAND = "import hypersurfaces.cli"  # what every CLI call imports

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_library() -> types.SimpleNamespace:
    if not (SRC / "hypersurfaces" / "__init__.py").is_file():
        print(f"error: no hypersurfaces package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from hypersurfaces import (  # noqa: E402
        cohomology, exactcore, formulas, pointconfig, secants, varieties)
    return types.SimpleNamespace(
        exactcore=exactcore, formulas=formulas, pointconfig=pointconfig,
        varieties=varieties, cohomology=cohomology, secants=secants)


def time_setup(starts: int) -> list:
    """Wall times of fresh interpreters importing the CLI module."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports from the bytecode cache
    # numpy's OpenBLAS starts a thread per core at import; its start-up time
    # follows the load on the other core, not this library (which calls no BLAS)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", SETUP_COMMAND]
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def round_seed(seed: int, workload: str, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class Round:
    """One pass over a workload's operations."""

    def __init__(self, lib, workload: str, seed: int, index: int):
        self.ops = WORKLOADS[workload](lib, round_seed(seed, workload, index))
        self.index = index
        self.times: list = []
        self.failures: list = []  # (label, cause)
        self.wrong = 0
        self.records: list = []

    def run(self) -> None:
        state: dict = {}
        for op in self.ops:
            start = time.perf_counter()
            try:
                value = op.compute()
            except Exception as err:  # a failing operation is counted, the run goes on
                self.failures.append((op.label, f"{type(err).__name__}: {err}"))
                continue
            self.times.append(time.perf_counter() - start)
            record, problem = op.check(value, state)
            self.records.append(record)
            if problem:
                self.wrong += 1
                self.failures.append((op.label, f"wrong value, {problem}"))

    @property
    def wall(self) -> float:
        return sum(self.times)

    def digest(self) -> str:
        blob = json.dumps(self.records, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def report(self, tag: str = "") -> None:
        print(f"round {self.index}{tag}: ops={len(self.ops)} failed={len(self.failures)} "
              f"wall_s={self.wall:.3f} digest={self.digest()}", flush=True)
        for label, cause in self.failures:
            print(f"FAILED {label}: {cause}", file=sys.stderr, flush=True)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(lib, args) -> tuple:
    # the host runs in fast and slow phases lasting seconds: set-up is timed
    # on both sides of the rounds, after one untimed start that fills the
    # bytecode cache as an installed copy has it
    time_setup(1)
    setup = time_setup(SETUP_STARTS)
    rounds = []
    start = time.perf_counter()
    while True:
        rnd = Round(lib, args.workload, args.seed, len(rounds))
        rnd.run()
        rnd.report()
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    setup += time_setup(SETUP_STARTS)
    op_times = [t for rnd in rounds for t in rnd.times]
    metrics = {
        "wall_s": metric(statistics.fmean(r.wall for r in rounds), "s"),
        "op_p50_s": metric(statistics.median(op_times) if op_times else 0.0, "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    return rounds, metrics


def run_traced(lib, args) -> tuple:
    tracer = layers.Tracer(vars(lib))
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(plain)
        rnd = Round(lib, args.workload, args.seed, index)
        rnd.run()
        rnd.report(" untraced")
        plain.append(rnd)
        rnd = Round(lib, args.workload, args.seed, index)
        tracer.install()
        try:
            rnd.run()
        finally:
            tracer.uninstall()
        rnd.report(" traced")
        traced.append(rnd)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > args.seconds:
            break
    n = len(traced)
    metrics = {}
    for name, total in tracer.snapshot().items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = metric(total / n, unit)
    traced_wall = statistics.fmean(r.wall for r in traced)
    plain_wall = statistics.fmean(r.wall for r in plain)
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.untraced_wall_s"] = metric(plain_wall, "s")
    metrics["trace.overhead_pct"] = metric(100.0 * (traced_wall / plain_wall - 1.0), "%")
    return plain + traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    lib = load_library()
    rounds, metrics = (run_traced if args.trace else run_untraced)(lib, args)
    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    result = {
        "correct": not any(r.wrong for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
