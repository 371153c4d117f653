"""The README's experiment scripts, run at reduced size."""

import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from plaplab.exponents import ProblemParams

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_convergence_studies_fall_under_refinement(capsys):
    gc = load_script("grid_convergence")
    eigen = gc.eigenmode_study(hs=(1 / 16, 1 / 32))
    residual = gc.self_similar_study(hs=(1 / 16, 1 / 32))  # the batched semi-discrete residual
    assert np.log2(eigen[0] / eigen[1]) >= 1.7
    assert residual[1] < residual[0]
    assert capsys.readouterr().out.count("order") == 2


def test_epsilon_layer_tables(capsys):
    sweep = load_script("sweep_epsilon_layers")
    degenerate = [r.alpha_eps for r in sweep.table(
        ProblemParams(p=3.0, n=2, q=8.0, r=8.0, alpha_h=1.0), s=0.5, branch="degenerate")]
    singular = [r.alpha_eps for r in sweep.table(
        ProblemParams(p=1.5, n=2, q=8.0, r=8.0, alpha_h=1.0), s=0.5, branch="singular")]
    # the degenerate exponent decays to 0, the singular one climbs to alpha_h = 1
    assert all(a > b > 0.0 for a, b in zip(degenerate, degenerate[1:]))
    assert degenerate[-1] < 0.01
    assert all(a < b < 1.0 for a, b in zip(singular, singular[1:]))
    assert singular[-1] > 0.99
    assert len(capsys.readouterr().out.splitlines()) == 2 * (3 + len(sweep.SWEEP))


def test_run_demo_exits_zero(tmp_path):
    out = subprocess.run([sys.executable, str(SCRIPTS / "run_demo.py")], cwd=tmp_path,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    for name in ("exponent_heat", "region_singular", "solve_heat_singular", "probe_heat_singular"):
        assert (tmp_path / "out" / name / "summary.json").is_file()


def _result_line(wall_s, p90, failed=0):
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}, "op_ms_p90": {"value": p90, "unit": "ms"}}
    return json.dumps({"correct": failed == 0, "attempted": 40, "failed": failed, "metrics": metrics})


def test_bench_summarizes_alternating_pairs_from_result_lines():
    bench = load_script("bench")
    env = json.dumps({"env": {}, "workload": "probe-sweep", "seed": 1})  # the line before the result
    parent = [(1.0, 10.0), (1.2, 11.0), (0.9, 12.0), (1.1, 13.0), (1.3, 9.0)]
    change = [(0.8, 8.0), (1.0, 9.0), (1.0, 11.5), (0.9, 8.5), (1.1, 9.5)]
    pairs = [{"parent": bench.parse_result(f"{env}\n{_result_line(*b)}\n"),
              "change": bench.parse_result(f"{env}\n{_result_line(*a)}\n")}
             for b, a in zip(parent, change)]
    assert pairs[0]["parent"] == {"correct": True, "attempted": 40, "failed": 0,
                                  "metrics": {"wall_s": 1.0, "op_ms_p90": 10.0}}
    summary = bench.summarize(pairs, {})
    wall = summary["wall_s"]
    assert (wall["parent_median"], wall["change_median"]) == (1.1, 1.0)
    assert (wall["parent_q1"], wall["parent_q3"]) == (1.0, 1.2)
    assert wall["relative"] == pytest.approx(-1 / 11)
    assert wall["change_lower"] == 4 and wall["pairs"] == 5  # pair 3 read higher
    assert summary["op_ms_p90"]["change_lower"] == 4  # pair 5 read higher
    assert bench.parse_result(_result_line(1.0, 2.0, failed=3))["correct"] is False
    with pytest.raises(ValueError):
        bench.parse_result("")


def test_bench_checks_each_metric_against_its_bound_in_the_benchmark():
    bench = load_script("bench")
    limits = bench.end_to_end_limits()
    assert limits["setup_s"] == {"better": "lower", "bound": 0.25}  # as BENCHMARK.json states
    # setup_s: median 0.161 -> 0.227 s (+41%) is outside its 25% bound;
    # wall_s: median 1.0 -> 1.2 s (+20%) is inside it
    parent = [(1.0, 0.161), (1.0, 0.150), (1.0, 0.170)]
    change = [(1.2, 0.227), (1.1, 0.230), (1.3, 0.220)]
    pairs = [{"parent": {"metrics": {"wall_s": pw, "setup_s": ps}},
              "change": {"metrics": {"wall_s": cw, "setup_s": cs}}}
             for (pw, ps), (cw, cs) in zip(parent, change)]
    summary = bench.summarize(pairs, limits)
    assert summary["wall_s"]["within_bound"] is True
    assert summary["setup_s"]["within_bound"] is False
    assert (summary["setup_s"]["better"], summary["setup_s"]["bound"]) == ("lower", 0.25)
    higher = bench.summarize(pairs, {"wall_s": {"better": "higher", "bound": 0.1}})
    assert higher["wall_s"]["within_bound"] is True  # a higher wall_s would read better
    assert "within_bound" not in higher["setup_s"]  # no bound declared for it


def test_bench_shows_a_gain_only_by_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread():
    bench = load_script("bench")
    limits = {"wall_s": {"better": "lower", "bound": 0.25}, "setup_s": {"better": "lower", "bound": 0.25}}
    # wall_s: the change reads lower in 9 pairs and ties in one, and its
    # median is 0.195 s below the parent's, whose quartiles are 0.035 s apart
    parent_wall = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change_wall = [0.80, 0.82, 0.79, 0.81, 0.80, 0.83, 0.97, 0.80, 0.81, 0.79]
    # setup_s: lower in every pair, but by 0.01 s against a 0.1 s spread
    parent_setup = [0.20, 0.30] * 5
    change_setup = [s - 0.01 for s in parent_setup]
    pairs = [{"parent": {"metrics": {"wall_s": pw, "setup_s": ps}},
              "change": {"metrics": {"wall_s": cw, "setup_s": cs}}}
             for pw, cw, ps, cs in zip(parent_wall, change_wall, parent_setup, change_setup)]
    summary = bench.summarize(pairs, limits)
    wall, setup = summary["wall_s"], summary["setup_s"]
    assert wall["change_won"] == 9 and wall["change_lower"] == 9  # the tie counts for neither
    assert wall["median_gap"] == pytest.approx(0.195)
    assert wall["parent_iqr"] == pytest.approx(0.035)
    assert wall["gain_shown"] is True
    assert setup["change_won"] == 10
    assert setup["median_gap"] == pytest.approx(0.01) and setup["parent_iqr"] == pytest.approx(0.1)
    assert setup["gain_shown"] is False
    # read the other way, the wall-time pairs are losses and the gap is negative
    higher = bench.summarize(pairs, {"wall_s": {"better": "higher", "bound": 0.25}})["wall_s"]
    assert higher["change_won"] == 0 and higher["median_gap"] == pytest.approx(-0.195)
    assert higher["gain_shown"] is False and higher["within_bound"] is True


def test_bench_alternates_sides_and_records_each_runs_child_cpu_seconds(monkeypatch, tmp_path):
    bench = load_script("bench")
    parent, change = tmp_path / "parent", tmp_path / "change"
    ran, clock = [], [0.0]
    # child CPU seconds each run uses, by checkout, in run order
    cpu = {parent: iter([2.0, 2.5, 3.0]), change: iter([1.0, 1.5, 0.5])}

    def fake_run(argv, cwd, **kwargs):
        ran.append((cwd, argv[argv.index("--seed") + 1]))
        clock[0] += next(cpu[cwd])
        return subprocess.CompletedProcess(argv, 0, stdout=_result_line(1.0, 2.0) + "\n", stderr="")

    def fake_rusage(who):
        assert who == bench.resource.RUSAGE_CHILDREN
        return types.SimpleNamespace(ru_utime=0.75 * clock[0], ru_stime=0.25 * clock[0])

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setattr(bench.resource, "getrusage", fake_rusage)
    report = bench.bench(parent, change, "probe-sweep", pairs=3, seed=7, seconds=1.0)
    assert ran == [(parent, "7"), (change, "7"), (change, "8"), (parent, "8"), (parent, "9"), (change, "9")]
    assert [p["first"] for p in report["pairs"]] == ["parent", "change", "parent"]
    assert [p["parent"]["cpu_s"] for p in report["pairs"]] == [2.0, 2.5, 3.0]
    assert [p["change"]["cpu_s"] for p in report["pairs"]] == [1.0, 1.5, 0.5]
    assert report["cpu_s_median"] == {"parent": 2.5, "change": 1.0}
    assert set(report["summary"]) == {"wall_s", "op_ms_p90"}  # a reading, not a gated metric


def test_bench_runs_every_declared_workload_and_records_each_checkouts_commit(monkeypatch, tmp_path):
    bench = load_script("bench")
    assert bench.benchmark_workloads() == [
        w["name"] for w in json.loads(bench.BENCHMARK.read_text())["workloads"]]
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    repos = {}
    for side in bench.SIDES:
        repo = tmp_path / side
        repo.mkdir()
        subprocess.run(git + ["init", "-q"], cwd=repo, check=True)
        (repo / "a.txt").write_text(side)
        subprocess.run(git + ["add", "a.txt"], cwd=repo, check=True)
        subprocess.run(git + ["commit", "-q", "-m", side], cwd=repo, check=True)
        repos[side] = repo
    (repos["change"] / "a.txt").write_text("edited")  # the change's tree is dirty
    ran = []

    def fake_bench(parent, change, workload, pairs, seed, seconds):
        ran.append(workload)
        return {"workload": workload}

    monkeypatch.setattr(bench, "bench", fake_bench)
    out = tmp_path / "report.json"
    assert bench.main(["--parent", str(repos["parent"]), "--change", str(repos["change"]),
                       "--pairs", "2", "--out", str(out)]) == 0
    assert ran == bench.benchmark_workloads()
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == ran
    for side, clean in (("parent", True), ("change", False)):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repos[side], capture_output=True,
                              text=True, check=True).stdout.strip()
        assert report["checkouts"][side] == {"commit": head, "clean": clean}
