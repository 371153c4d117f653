"""plaplab benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload solve-1d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py             # every workload, prints each metric
    python3 perfbench/run.py --smoke     # every workload, tiny, both ways

Workloads (see BENCHMARK.json for why each was chosen):

  solve-1d     semi-implicit 1D solves, p in {1.5, 2, 3}, plus a heat eigenmode
  solve-nd     2D and 3D solves from a heat-mode state, p in {1.5, 2, 3}
  probe-sweep  seeded probe centers over reference and solved fields
  cli-demo     the bundled configs through the plaplab entry point

A run sets the workload up several times, then repeats passes over the
workload's fixed operation list for --seconds. Every operation's output is
checked, and the deterministic values of each check (work counts, accuracy
figures, output digests) must repeat exactly on every pass.

With --trace 0 the last stdout line holds the end-to-end metrics:
  wall_s       median time of one pass
  setup_s      imports plus the median of the setups
  peak_rss_mb  peak resident memory after setup and the first pass (of the
               CLI child processes on cli-demo)
  op_ms_p50/90 latency of one operation: a solve, a probe center, or a CLI
               subcommand with the read-back of the solution it wrote
With --trace 1 untraced and traced passes alternate, and the last line
holds the per-layer metrics of the first traced pass (see spans.py) plus
the tracing overhead; the spans go to .perfbench_out/. The line before the
result records the interpreter, library versions and CPU.

BLAS and OpenMP pools are pinned to one thread; PLAPLAB_THREADS stays unset.
Without --workload, each workload runs in its own process in turn and the
exit code is nonzero if any of them fails its checks.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PLAPLAB_THREADS", None)

import time  # noqa: E402

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("solve-1d", "solve-nd", "probe-sweep", "cli-demo")
SETUP_REPEATS = 3
STEP_KEYS = [(n, p) for n in (1, 2, 3) for p in (1.5, 2.0, 3.0)]
P_LABEL = {1.5: "1_5", 2.0: "2", 3.0: "3"}
CACHE_KEYS = ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")


def _import_program():
    """Import the plaplab sources of this checkout, never an installed copy."""
    src = ROOT / "src"
    if not (src / "plaplab" / "__init__.py").is_file():
        raise SystemExit(f"no plaplab sources under {src}")
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import workloads
    return numpy, scipy, workloads


def _command_output(*argv) -> str:
    try:
        return subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return ""


def environment(numpy, scipy) -> dict:
    """Interpreter, library versions and the CPU this result was measured on."""
    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads_pinned": 1,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine()}
    for line in _command_output("lscpu").splitlines():
        if line.startswith("Model name:"):
            info["cpu"] = line.split(":", 1)[1].strip()
    for line in _command_output("getconf", "-a").splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in CACHE_KEYS and parts[1].isdigit():
            info[parts[0].lower()] = int(parts[1])
    return info


def make_workload(name: str, seed: int, smoke: bool, recorder, wl):
    if name in ("solve-1d", "solve-nd"):
        return wl.SolveWorkload(name, seed, smoke)
    if name == "probe-sweep":
        return wl.ProbeWorkload(seed, smoke)
    return wl.CliWorkload(seed, recorder, work_dir=OUT / f"cli-{os.getpid()}")


class Run:
    """Passes over one workload, with per-operation checks."""

    def __init__(self, workload, wl, recorder=None, children_rss=False):
        self.workload = workload
        self.children_rss = children_rss
        self.peak_rss_mb = None  # after setup and the first pass
        self.wl = wl
        self.recorder = recorder
        self.pass_times = {False: [], True: []}
        self.op_ms = []
        self.attempted = 0
        self.failed = 0
        self.first = {}  # op name -> Record of the first pass
        self.errors = []

    def one_pass(self, index: int, traced: bool) -> None:
        rec = self.recorder
        self.workload.begin_pass(index)
        if traced:
            rec.install()
        results = []
        t_pass = time.perf_counter()
        try:
            for op in self.workload.ops():
                if rec is not None:
                    rec.run_id = f"pass{index}/{op.name}"
                t0 = time.perf_counter()
                try:
                    out, err = op.run(), None
                except Exception as exc:  # an operation failure, counted below
                    out, err = None, exc
                dt = time.perf_counter() - t0
                results.append((op, out, err, dt))
        finally:
            elapsed = time.perf_counter() - t_pass
            if traced:
                rec.uninstall()
            if rec is not None:
                rec.run_id = "check"
        self.pass_times[traced].append(elapsed)
        if self.peak_rss_mb is None:
            self.peak_rss_mb = peak_rss_mb(self.children_rss)
        for op, out, err, dt in results:
            self.attempted += 1
            if op.timed_latency:
                self.op_ms.append(1e3 * dt)
            if err is None:
                try:
                    record = op.check(out)
                    previous = self.first.setdefault(op.name, record)
                    if record != previous:
                        raise self.wl.CheckFailed(f"{op.name}: output differs from the first pass")
                except self.wl.CheckFailed as exc:
                    err = exc
            if err is not None:
                self.failed += 1
                self.errors.append(f"pass {index} {op.name}: {type(err).__name__}: {err}")

    def totals(self) -> tuple[dict, dict]:
        """Work counts summed over one pass; the worst accuracy figure."""
        counts, accuracy = {}, {}
        for record in self.first.values():
            for k, v in record.counts.items():
                counts[k] = counts.get(k, 0) + v
            for k, v in record.accuracy.items():
                worst = max if k == "eigenmode_err" else min
                accuracy[k] = worst(accuracy.get(k, v), v)
        return counts, accuracy


def run_passes(run: Run, seconds: float, trace: bool) -> None:
    """Whole passes until the next one would overrun --seconds; at least
    one pass, and with tracing at least one untraced and one traced."""
    t0 = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        run.one_pass(index, traced)
        index += 1
        if trace and index < 2:
            continue
        done = run.pass_times[False] + run.pass_times[True]
        if time.perf_counter() - t0 + statistics.median(done) > seconds:
            return


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(run: Run, setup_s: float) -> dict:
    ms = run.op_ms
    return {
        "wall_s": {"value": statistics.median(run.pass_times[False]), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB"},
        "op_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "op_ms_p90": {"value": statistics.quantiles(ms, n=10, method="inclusive")[-1],
                      "unit": "ms"},
    }


def per_layer(run: Run, recorder, spans_mod, import_s: float) -> dict:
    first_traced = "pass1/"  # passes alternate untraced, traced, ...
    tot = spans_mod.layer_totals(recorder.spans, first_traced)

    def s(name):
        return tot.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def notes(name):
        return tot.get(name, {}).get("notes", [])

    m = {}

    def put(key, value, unit):
        m[key] = {"value": value, "unit": unit}

    solves = notes("solver.solve")
    put("solver.solve.s", s("solver.solve"), "s")
    put("solver.solve.calls", calls("solver.solve"), "count")
    step_time = {}
    solve_spans = [r for r in recorder.spans
                   if r[0] == "solver.solve" and r[4].startswith(first_traced)]
    for name, start, end, _parent, _run, attrs in solve_spans:
        key = (attrs["n"], attrs["p"])
        t, steps = step_time.get(key, (0.0, 0))
        step_time[key] = (t + end - start, steps + attrs["steps"])
    for n, p in STEP_KEYS:
        t, steps = step_time.get((n, p), (0.0, 0))
        put(f"solver.step_ms.n{n}.p{P_LABEL[p]}", 1e3 * t / steps if steps else 0.0, "ms")
    node_steps = sum(a["node_steps"] for a in solves)
    put("solver.node_steps_per_s", node_steps / s("solver.solve") if node_steps else 0.0, "1/s")
    put("solver.make_source.s", s("solver.make_source"), "s")
    put("solver.reference_solutions.s", s("solver.reference_solutions"), "s")

    for fn in ("sup_oscillation", "space_mask", "anisotropic_norm", "gradient_at", "value_at"):
        put(f"grids.{fn}.s", s(f"grids.{fn}"), "s")
        put(f"grids.{fn}.calls", calls(f"grids.{fn}"), "count")
    put("grids.write_binary.s", s("grids.write_binary"), "s")
    put("grids.write_binary.bytes", sum(a["bytes"] for a in notes("grids.write_binary")), "B")
    put("grids.read_binary.s", s("grids.read_binary"), "s")

    put("cylinders.corrected_cylinder.calls", calls("cylinders.corrected_cylinder"), "count")
    put("cylinders.rescale_outside.s", s("cylinders.rescale_outside"), "s")
    put("cylinders.rescale_outside.calls", calls("cylinders.rescale_outside"), "count")
    put("cylinders.critical_zone.s", s("cylinders.critical_zone"), "s")

    put("probe.oscillation_profile.s", s("probe.oscillation_profile"), "s")
    put("probe.oscillation_profile.calls", calls("probe.oscillation_profile"), "count")
    put("probe.fit_exponent.s", s("probe.fit_exponent"), "s")
    fits = notes("probe.fit_exponent")
    put("probe.fit_usable_ratio", sum(a["usable"] for a in fits) / len(fits) if fits else 0.0,
        "ratio")
    put("probe.check_pointwise_c1alpha.s", s("probe.check_pointwise_c1alpha"), "s")
    reports = notes("probe.check_pointwise_c1alpha")
    put("probe.critical_share",
        sum(a["critical"] for a in reports) / len(reports) if reports else 0.0, "ratio")

    put("exponents.sharp_exponents.calls", calls("exponents.sharp_exponents"), "count")
    put("exponents.admissible_region.s", s("exponents.admissible_region"), "s")

    for sub in ("exponent", "region", "solve", "probe", "validate"):
        put(f"cli.{sub}.s", s(f"cli.{sub}"), "s")
    put("cli.import_s", import_s, "s")

    for module in ("solver", "grids", "cylinders", "probe", "exponents", "cli"):
        put(f"{module}.self_s", sum(v["self_s"] for k, v in tot.items()
                                    if k.split(".", 1)[0] == module), "s")

    counts, accuracy = run.totals()
    put("cli.bytes_written", counts.get("bytes_written", 0), "B")
    put("counts.node_steps", counts.get("node_steps", 0), "count")
    put("counts.slice_bytes", counts.get("slice_bytes", 0), "B")
    put("counts.solution_bin_bytes", counts.get("solution_bin_bytes", 0), "B")
    put("counts.centers_critical", counts.get("centers_critical", 0), "count")
    put("counts.centers_noncritical", counts.get("centers_noncritical", 0), "count")
    put("accuracy.eigenmode_err", accuracy.get("eigenmode_err", 0.0), "ratio")
    put("accuracy.slope_margin_min", accuracy.get("slope_margin_min", 0.0), "slope")
    put("trace_overhead_s",
        statistics.median(run.pass_times[True]) - statistics.median(run.pass_times[False]), "s")
    put("trace_spans", sum(v["calls"] for v in tot.values()), "count")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    numpy, scipy, wl = _import_program()
    import spans as spans_mod

    import_s = time.perf_counter() - _T_START
    OUT.mkdir(exist_ok=True)
    recorder = spans_mod.SpanRecorder() if trace else None
    workload = make_workload(name, seed, smoke, recorder, wl)
    try:
        setup_times = []
        # setup_s is reported by untraced runs only; traced runs set up once
        for _ in range(1 if smoke or trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        run = Run(workload, wl, recorder, children_rss=name == "cli-demo")
        run_passes(run, 0.0 if smoke else seconds, trace)
    finally:
        workload.close()

    for line in run.errors:
        print(line, file=sys.stderr)
    if trace:
        cli_import = wl.import_seconds(1 if smoke else 3) if name == "cli-demo" else 0.0
        metrics = per_layer(run, recorder, spans_mod, cli_import)
        recorder.write(OUT / f"spans-{name}-{seed}.jsonl")
    else:
        metrics = end_to_end(run, setup_s)
    print(json.dumps({"env": environment(numpy, scipy), "workload": name, "seed": seed,
                      "pass_s": {"untraced": run.pass_times[False], "traced": run.pass_times[True]},
                      "op_samples": len(run.op_ms),
                      "counts": run.totals()[0]}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload in its own fresh process; prints each metric by name
    with its unit. --smoke runs tiny sizes, traced and untraced."""
    failures = 0
    for name in WORKLOADS:
        for trace in (0, 1) if smoke else (0,):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv + (["--smoke"] if smoke else []), cwd=ROOT,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            ok = bool(result and result["correct"])
            failures += not ok
            tally = f" ({result['failed']}/{result['attempted']} failed)" if result else ""
            print(f"{'ok  ' if ok else 'FAIL'} {name} trace={trace}{tally}")
            if not ok:
                sys.stderr.write(proc.stderr[-4000:])
            elif not smoke:
                for key, metric in result["metrics"].items():
                    print(f"     {key:<12} {metric['value']:.6g} {metric['unit']}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.smoke)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
