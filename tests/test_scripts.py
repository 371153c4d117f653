"""The README's experiment scripts, run at reduced size."""

import importlib.util
import json
import subprocess
import sys
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
    summary = bench.summarize(pairs)
    wall = summary["wall_s"]
    assert (wall["parent_median"], wall["change_median"]) == (1.1, 1.0)
    assert (wall["parent_q1"], wall["parent_q3"]) == (1.0, 1.2)
    assert wall["relative"] == pytest.approx(-1 / 11)
    assert wall["change_lower"] == 4 and wall["pairs"] == 5  # pair 3 read higher
    assert summary["op_ms_p90"]["change_lower"] == 4  # pair 5 read higher
    assert bench.parse_result(_result_line(1.0, 2.0, failed=3))["correct"] is False
    with pytest.raises(ValueError):
        bench.parse_result("")
