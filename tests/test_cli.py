import json
import math
import re

import numpy as np
import pytest

from plaplab import cli
from plaplab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    ConfigError,
    config_digest,
    load_config,
    main,
    run_experiment,
)
from plaplab.grids import read_binary
from plaplab.solver import reference_solutions


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


def test_eigenmode_initial_field_is_the_first_reference_slice(tmp_path):
    payload = json.loads(json.dumps(SOLVE_CFG))
    payload["params"]["n"] = 2
    payload["solve"]["initial"] = {"kind": "eigenmode", "value": 0.5}
    cfg = load_config(write_config(tmp_path, payload))
    field = reference_solutions("heat_mode", 2.0, 2, cfg.grid)
    assert np.array_equal(cli._initial_field(cfg, cfg.grid), 0.5 * field.values[0])


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


def test_probe_at_t_end_of_a_grid_whose_times_fall_short_of_it(tmp_path):
    # t_start + dt * (num_times - 1) is 0.49999999999999994 on this grid, and
    # the default center rule puts every center at t_end
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["scenario"] = "probe-at-t-end"
    cfg["grid"] = {"h": 1 / 128, "dt": 1.5e-4, "t_start": 0.05, "t_end": 0.5}
    cfg["probe"] = {"lambda": 0.45, "K": 4, "mode": "affine"}
    out = tmp_path / "t_end_out"
    assert main(["probe", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["measured"]["centers"]


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


def test_boolean_number_is_a_config_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["grid"]["h"] = True
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match=r"grid\.h: expected a number, got bool"):
        load_config(path)
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "grid.h" in capsys.readouterr().err


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


def test_non_finite_explicit_step_exits_as_a_solver_failure(tmp_path, capsys, monkeypatch):
    # a config cannot hold NaN, so the initial field is broken behind its back
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["solve"]["scheme"] = "explicit"
    cfg["grid"] = {"h": 0.0625, "dt": 0.001, "t_end": 0.01}  # inside the CFL bound
    monkeypatch.setattr(cli, "_initial_field", lambda _cfg, grid: np.full(grid.spatial_shape, np.nan))
    path = write_config(tmp_path, cfg)
    assert main(["solve", str(path), "--out", str(tmp_path / "nan")]) == EXIT_SOLVER == 3
    assert "solver failure: step 1 (t = " in capsys.readouterr().err


BAD_FIELDS = [
    # (subcommand, entries set first as {block: {key: value}}, the bad field's
    #  dotted path, its bad value, what the error must name)
    ("solve", {"solve": {"boundary": {"kind": "constant"}}}, "solve.boundary.value", True,
     "solve.boundary.value"),
    ("solve", {"solve": {"boundary": {"kind": "affine"}}}, "solve.boundary.gradient", [0.1, "x"],
     "solve.boundary.gradient[1]"),
    ("solve", {"solve": {"initial": {"kind": "constant"}}}, "solve.initial.value", math.nan,
     "solve.initial.value"),
    ("solve", {"source": {"kind": "constant"}}, "source.c", "abc", "source.c"),
    ("solve", {"source": {"kind": "constant"}}, "source.a", True, "source.a"),
    ("solve", {"source": {"kind": "constant"}}, "source.b", math.nan, "source.b"),
    ("solve", {"source": {"kind": "constant"}}, "source.amplitude", "x", "source.amplitude"),
    ("solve", {}, "solve.newton_tol", math.nan, "solve.newton_tol"),
    ("solve", {}, "solve.eps_reg", math.nan, "solve.eps_reg"),
    ("solve", {}, "solve.newton_tol", -1.0, "solve: newton_tol"),
    ("solve", {}, "solve.max_inner_iters", 0, "solve: max_inner_iters"),
    ("solve", {}, "seed", True, "seed"),
    ("probe", {}, "probe.lambda", math.nan, "probe.lambda"),
    ("probe", {}, "probe.K", True, "probe.K"),
    ("probe", {}, "probe.K", 5.5, "probe.K"),
    ("probe", {"probe": {"centers": []}}, "probe.max_centers", "four", "probe.max_centers"),
    ("probe", {}, "probe.centers", [[0.0, math.nan]], "probe.centers[0][1]"),
    ("region", {}, "region.resolution", "abc", "region.resolution"),
]


@pytest.mark.parametrize("subcommand, setup, key, value, names", BAD_FIELDS,
                         ids=[f"{key}={value!r}" for _, _, key, value, _ in BAD_FIELDS])
def test_bad_numeric_field_is_a_config_error_naming_it(tmp_path, capsys, subcommand, setup, key,
                                                       value, names):
    cfg = probe_cfg()
    cfg["grid"] = dict(SOLVE_CFG["grid"])  # probe centers are read after the solve
    cfg["region"] = {"resolution": 8}
    for name, entries in setup.items():
        cfg[name].update(entries)
    *parents, last = key.split(".")
    target = cfg
    for name in parents:
        target = target[name]
    target[last] = value
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match=re.escape(names)):
        run_experiment(path, subcommand, str(tmp_path / "direct"))
    assert main([subcommand, str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert names in capsys.readouterr().err


def test_failed_validation_exit_code(tmp_path, capsys, monkeypatch):
    # break the constant-norm oracle so exactly one check of the battery fails
    monkeypatch.setattr(cli.grids, "anisotropic_norm", lambda *args: 0.0)
    cfg = write_config(tmp_path, {"scenario": "validate-demo", "output_dir": "out"})
    out = tmp_path / "val_out"
    assert main(["validate", str(cfg), "--out", str(out)]) == EXIT_VALIDATION == 1
    assert "validation battery failed" in capsys.readouterr().err
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert [name for name, ok in checks.items() if not ok] == ["constant_norm_exact"]
