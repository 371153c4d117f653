"""Alternating before/after runs of one perfbench workload, summarized.

    python3 scripts/bench.py --parent ../parent --change . --workload probe-sweep \
        --pairs 10 --seed 1000 --out BENCH_<n>.json

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in the parent checkout and once in the change checkout, each in a
fresh process, with the same seed S (the pair's index added to --seed).
The side that runs first alternates from pair to pair, so slow drift of
the host loads both sides alike. Every run's end-to-end metrics are kept,
and per metric the summary gives each side's median, the parent's
quartiles, the relative change of the medians and the number of pairs in
which the change read lower. --workload may repeat; the workloads run one
after another.

This only drives perfbench and reads the result line it prints; it
measures nothing itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict:
    """The result line of a perfbench run (its last stdout line), with each
    metric reduced to its value."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed no result line")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return parse_result(proc.stdout)


def summarize(pairs: list[dict]) -> dict:
    """Per end-to-end metric: the medians of both sides, the parent's
    quartiles, the relative change of the medians and how many pairs the
    change read lower in."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        before = [p["parent"]["metrics"][name] for p in pairs]
        after = [p["change"]["metrics"][name] for p in pairs]
        q1, _, q3 = statistics.quantiles(before, n=4, method="inclusive")
        med_b, med_a = statistics.median(before), statistics.median(after)
        out[name] = {"parent_median": med_b, "parent_q1": q1, "parent_q3": q3,
                     "change_median": med_a,
                     "relative": (med_a - med_b) / med_b if med_b else None,
                     "change_lower": sum(a < b for a, b in zip(after, before)),
                     "pairs": len(pairs)}
    return out


def bench(parent: Path, change: Path, workload: str, pairs: int, seed: int,
          seconds: float) -> dict:
    checkouts = dict(zip(SIDES, (parent, change)))
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed + i, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], workload, seed + i, seconds)
        runs.append(pair)
        print(f"{workload} pair {i + 1}/{pairs} seed {seed + i}", file=sys.stderr)
    failed = {side: sum(p[side]["failed"] for p in runs) for side in SIDES}
    return {"seconds": seconds, "failed_ops": failed, "pairs": runs, "summary": summarize(runs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    report = {"workloads": {}}
    for workload in args.workload:
        report["workloads"][workload] = bench(args.parent, args.change, workload, args.pairs,
                                              args.seed, args.seconds)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
