import json

import numpy as np
import pytest

from plaplab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    config_digest,
    load_config,
    main,
    run_experiment,
)
from plaplab.grids import read_binary


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return path


EXPONENT_CFG = {
    "scenario": "exponent-demo",
    "params": {"p": 2.0, "n": 2, "q": 8.0, "r": 8.0},
    "output_dir": "out",
}

SOLVE_CFG = {
    "scenario": "solve-demo",
    "params": {"p": 2.0, "n": 1, "q": "inf", "r": 4.0},
    "grid": {"h": 0.0625, "dt": 0.000244140625, "t_end": 0.0625},
    "solve": {
        "scheme": "semi_implicit",
        "boundary": {"kind": "zero"},
        "initial": {"kind": "eigenmode"},
    },
    "source": {"kind": "zero"},
    "output_dir": "out",
    "seed": 1,
}


def probe_cfg():
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["scenario"] = "probe-demo"
    cfg["grid"] = {"h": 1 / 256, "dt": 2e-05, "t_end": 0.3}
    cfg["source"] = {"kind": "separable_power", "a": 0.0, "b": 0.2, "q": "inf", "r": 4.0}
    cfg["probe"] = {"lambda": 0.45, "K": 5, "mode": "affine", "centers": [[0.0, 0.3]]}
    return cfg


def test_exponent_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, EXPONENT_CFG)
    out = tmp_path / "results"
    code = main(["exponent", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["predicted"]["alpha"] == pytest.approx(0.5)
    assert summary["config_sha256"] == config_digest(EXPONENT_CFG)


def test_region_subcommand(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "scenario": "region-demo",
            "params": {"p": 1.5, "n": 2, "q": 8.0, "r": 8.0, "alpha_h": 1.0},
            "region": {"resolution": 10},
            "output_dir": "out",
        },
    )
    out = tmp_path / "region_out"
    assert main(["region", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "region.csv").read_text().splitlines()
    assert lines[0] == "q,r,n_over_q_plus_2_over_r,admissible,violation"
    assert len(lines) == 101
    summary = json.loads((out / "summary.json").read_text())
    assert summary["predicted"]["samples"] == 100


def test_solve_subcommand_writes_solution(tmp_path):
    cfg = write_config(tmp_path, SOLVE_CFG)
    out = tmp_path / "solve_out"
    assert main(["solve", str(cfg), "--out", str(out)]) == EXIT_OK
    u = read_binary(out / "solution.bin")
    assert u.grid.nodes_per_axis == 33
    summary = json.loads((out / "summary.json").read_text())
    assert summary["measured"]["sup_abs_u"] <= 1.0 + 1e-9


def test_solve_exponent_round_trip_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, SOLVE_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", str(cfg_path), "--out", str(out1)]) == EXIT_OK
    assert main(["solve", str(cfg_path), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "solution.bin").read_bytes() == (out2 / "solution.bin").read_bytes()


def test_solve_with_barenblatt_dirichlet_data(tmp_path):
    # the exact profile as boundary and initial data; the box [-2, 2] lies
    # inside its support, so the solution tracks it closely
    from plaplab.solver import reference_solutions

    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["params"].update(p=3.0, alpha_h=1.0)
    cfg["grid"] = {"h": 0.0625, "dt": 0.00390625, "extent": 2.0, "t_start": 1.0, "t_end": 1.125}
    cfg["solve"]["boundary"] = {"kind": "reference", "name": "barenblatt"}
    cfg["solve"]["initial"] = {"kind": "boundary"}
    out = tmp_path / "bb_out"
    assert main(["solve", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_OK
    u = read_binary(out / "solution.bin")
    exact = reference_solutions("barenblatt", 3.0, 1, u.grid)
    assert np.max(np.abs(u.values - exact.values)) < 2e-3


def test_probe_subcommand(tmp_path):
    # the full singular-source scenario at h = 1/256; the measured slope may
    # only undershoot the predicted growth exponent by the stated tolerance
    cfg = write_config(tmp_path, probe_cfg())
    out = tmp_path / "probe_out"
    assert main(["probe", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_sha256"]
    alpha = summary["predicted"]["alpha"]
    center = summary["measured"]["centers"][0]
    assert center["fitted_slope"] >= 1.0 + alpha - 0.1
    assert center["dyadic_passes"] is True
    assert (out / "solution.bin").exists()
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "k,rho,theta_k,S_k,bound_k,ratio"


def test_probe_zero_source_constant_data_unfittable(tmp_path):
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["scenario"] = "flat-probe"
    cfg["grid"] = {"h": 1 / 128, "dt": 5e-05, "t_end": 0.25}
    cfg["solve"]["initial"] = {"kind": "constant", "value": 0.3}
    cfg["solve"]["boundary"] = {"kind": "constant", "value": 0.3}
    cfg["probe"] = {"lambda": 0.45, "K": 4, "mode": "plain", "centers": [[0.0, 0.25]]}
    out = tmp_path / "flat_out"
    assert main(["probe", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["measured"]["centers"][0]["unfittable"] is True


def test_probe_center_rule_finds_critical_extrema(tmp_path):
    # decayed eigenmode: gradient vanishes at the two interior extrema
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["scenario"] = "rule-probe"
    cfg["grid"] = {"h": 1 / 128, "dt": 5e-05, "t_end": 0.25}
    cfg["probe"] = {
        "lambda": 0.45,
        "K": 4,
        "mode": "affine",
        "center_rule": "critical_extrema",
        "max_centers": 2,
    }
    out = tmp_path / "rule_out"
    assert main(["probe", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_OK
    centers = json.loads((out / "summary.json").read_text())["measured"]["centers"]
    assert 1 <= len(centers) <= 2
    for c in centers:
        assert abs(abs(c["center_x"][0]) - 0.5) < 0.1  # near the eigenmode extrema
        assert c["grad_mag"] < 0.05


def test_validate_subcommand(tmp_path):
    cfg = write_config(tmp_path, {"scenario": "validate-demo", "output_dir": "out"})
    out = tmp_path / "val_out"
    assert main(["validate", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_passed"] is True


def test_config_errors_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["exponent", str(missing)]) == EXIT_CONFIG
    bad = write_config(tmp_path, {"scenario": "x"}, name="bad.json")
    assert main(["exponent", str(bad)]) == EXIT_CONFIG
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    assert main(["exponent", str(malformed)]) == EXIT_CONFIG


def test_config_error_carries_field_path(tmp_path):
    cfg = write_config(tmp_path, {"scenario": "x", "params": {"p": 2.0, "n": 2, "q": 8.0}})
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert "params.r" in str(err.value)


def test_exponent_fast_path_needs_no_grid(tmp_path):
    # exponent and region subcommands run without grid or solve blocks,
    # and stay on the sub-second fast path
    import time

    cfg = write_config(tmp_path, EXPONENT_CFG)
    start = time.perf_counter()
    payload = run_experiment(cfg, "exponent", str(tmp_path / "fast"))
    run_experiment(
        write_config(tmp_path, {**EXPONENT_CFG, "region": {"resolution": 16}}, "r.json"),
        "region",
        str(tmp_path / "fast2"),
    )
    assert time.perf_counter() - start < 1.0
    assert payload["predicted"]["admissible"] is True


def test_solver_failure_exit_code(tmp_path):
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["solve"]["scheme"] = "explicit"
    cfg["grid"] = {"h": 0.0625, "dt": 0.01, "t_end": 0.1}  # dt far above the CFL bound
    path = write_config(tmp_path, cfg)
    assert main(["solve", str(path), "--out", str(tmp_path / "boom")]) == 3


def test_probe_thread_override_deterministic(tmp_path, monkeypatch):
    cfg = probe_cfg()
    cfg["grid"] = {"h": 1 / 128, "dt": 5e-05, "t_end": 0.25}
    cfg["probe"] = {
        "lambda": 0.45,
        "K": 4,
        "mode": "plain",
        "centers": [[0.0, 0.25], [0.1, 0.25]],
    }
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "seq", tmp_path / "par"
    monkeypatch.setenv("PLAPLAB_THREADS", "1")
    assert main(["probe", str(path), "--out", str(out1)]) == EXIT_OK
    monkeypatch.setenv("PLAPLAB_THREADS", "2")
    assert main(["probe", str(path), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
