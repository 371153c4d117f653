"""Alternating before/after runs of perfbench workloads, summarized.

    python3 scripts/bench.py --parent ../parent --change . --workload probe-sweep \
        --pairs 10 --seed 1000 --out BENCH_<n>.json

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in the parent checkout and once in the change checkout, each in a
fresh process, with the same seed S (the pair's index added to --seed).
The side that runs first alternates from pair to pair, so slow drift of
the host loads both sides alike. Every run's end-to-end metrics are kept,
and per metric the summary gives each side's median, the parent's
quartiles, the relative change of the medians and the number of pairs in
which the change read lower. For each end-to-end metric that BENCHMARK.json
declares, it also gives the metric's `better` direction and `bound` from
that file and whether the change's median is within `bound` (relative) of
the parent's in that direction: the limit a regression check applies. It
also applies the claim rule for a gain: the pairs the change won (read
better in; ties count for neither), the gap by which the change's median is
better than the parent's, the parent's interquartile range, and
`gain_shown`, true when the change won at least nine tenths of the pairs
and the gap exceeds that range.
--workload may repeat; the workloads run one after another. Without it,
every workload that BENCHMARK.json lists runs, in its order. The report
records, for each checkout, the commit it holds (`git rev-parse HEAD`) and
whether its tree is clean (`git status --porcelain` prints nothing).

The metrics are those of perfbench's result line. The one number this
script measures itself is each run's CPU time, `cpu_s`: the user plus
system seconds of the perfbench process and the children it waited for
(the change in RUSAGE_CHILDREN across the run), kept beside the run's
metrics and reported as a median per side. A wall-clock metric that moves
while `cpu_s` does not points at the host (CPU steal, other load), not at
the code. It is a reading, not a gate.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def end_to_end_limits(path: Path = BENCHMARK) -> dict:
    """{metric: {"better": "lower" or "higher", "bound": relative bound}} of
    the end-to-end metrics the benchmark declares."""
    return {m["name"]: {"better": m["better"], "bound": m["bound"]}
            for m in json.loads(path.read_text())["end_to_end"]}


def benchmark_workloads(path: Path = BENCHMARK) -> list[str]:
    """The names of the workloads the benchmark declares, in its order."""
    return [w["name"] for w in json.loads(path.read_text())["workloads"]]


def checkout_state(checkout: Path) -> dict:
    """The commit a git checkout holds and whether its tree is clean."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                              check=True).stdout

    return {"commit": git("rev-parse", "HEAD").strip(), "clean": git("status", "--porcelain") == ""}


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
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = parse_result(proc.stdout)
    result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return result


def summarize(pairs: list[dict], limits: dict) -> dict:
    """Per end-to-end metric: the medians of both sides, the parent's
    quartiles, the relative change of the medians and how many pairs the
    change read lower in; for a metric in limits (see end_to_end_limits)
    also its direction, its bound, whether the change's median is worse
    than the parent's by at most the bound, and the claim rule: the pairs
    the change won, the median gap in its favour, the parent's
    interquartile range and whether the gain is shown."""
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
        if name in limits:
            better, bound = limits[name]["better"], limits[name]["bound"]
            sign = 1.0 if better == "lower" else -1.0  # a gap or a win in the better direction
            gap = sign * (med_b - med_a)
            won = sum(sign * (b - a) > 0 for a, b in zip(after, before))
            out[name].update(better=better, bound=bound, within_bound=-gap <= bound * abs(med_b),
                             change_won=won, median_gap=gap, parent_iqr=q3 - q1,
                             gain_shown=won >= 0.9 * len(pairs) and gap > q3 - q1)
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
    cpu = {side: statistics.median(p[side]["cpu_s"] for p in runs) for side in SIDES}
    return {"seconds": seconds, "failed_ops": failed, "cpu_s_median": cpu, "pairs": runs,
            "summary": summarize(runs, end_to_end_limits())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable); default: every one in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    report = {"checkouts": {side: checkout_state(path)
                            for side, path in zip(SIDES, (args.parent, args.change))},
              "workloads": {}}
    for workload in args.workload or benchmark_workloads():
        report["workloads"][workload] = bench(args.parent, args.change, workload, args.pairs,
                                              args.seed, args.seconds)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
