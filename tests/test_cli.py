import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plaplab import cli, cylinders, probe
from plaplab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PROBE,
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
    cfg["source"] = {"kind": "separable_power", "a": 0.0, "b": 0.2}
    cfg["probe"] = {"lambda": 0.45, "K": 5, "centers": [[0.0, 0.3]]}
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
    assert lines[0] == "center,k,rho,theta_k,S_k,bound_k,ratio"


def test_probe_writes_every_center_to_the_profile(tmp_path):
    # profile.csv holds each center's levels after its center id, the index
    # of the center in summary.json; S_k comes from the center's affine
    # profile, bound_k and ratio from the dyadic bound of its plain profile
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["scenario"] = "two-center-probe"
    cfg["grid"] = {"h": 1 / 128, "dt": 5e-05, "t_end": 0.25}
    cfg["probe"] = {"lambda": 0.45, "K": 4, "centers": [[0.0, 0.25], [0.25, 0.25]]}
    out = tmp_path / "two_out"
    assert main(["probe", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert [c["center_x"] for c in summary["measured"]["centers"]] == [[0.0], [0.25]]
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "center,k,rho,theta_k,S_k,bound_k,ratio"
    rows = [line.split(",") for line in lines[1:]]
    u = read_binary(out / "solution.bin")
    params = cli.load_config(write_config(tmp_path, cfg, "again.json")).params
    want = []
    for c, x in enumerate((0.0, 0.25)):
        prof = probe.oscillation_profile(u, ((x,), 0.25), 0.45, 4, params, mode="affine")
        plain = probe.oscillation_profile(u, ((x,), 0.25), 0.45, 4, params, mode="plain")
        bound = probe.check_dyadic_bound(plain, params)
        want += [[str(c), str(e.k), repr(e.rho), repr(e.theta_eff), repr(e.sup_osc),
                  repr(b.thm_bound), repr(b.ratio)] for e, b in zip(prof.entries, bound.entries, strict=True)]
    assert len(want) == 8 and rows == want


def test_probe_at_t_end_of_a_grid_whose_times_fall_short_of_it(tmp_path):
    # t_start + dt * (num_times - 1) is 0.49999999999999994 on this grid, and
    # the default center rule puts every center at t_end
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["scenario"] = "probe-at-t-end"
    cfg["grid"] = {"h": 1 / 128, "dt": 1.5e-4, "t_start": 0.05, "t_end": 0.5}
    cfg["probe"] = {"lambda": 0.45, "K": 4}
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
    cfg["probe"] = {"lambda": 0.45, "K": 4, "centers": [[0.0, 0.25]]}
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


@pytest.mark.parametrize("block, key, value, field_path", [
    ("grid", "h", True, "grid.h"),
    ("params", "p", "two", "params.p"),
    ("source", "amplitude", "inf", "source.amplitude"),  # SourceSpec rejects a non-finite one
])
def test_config_error_keeps_the_innermost_field_path(tmp_path, block, key, value, field_path):
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg[block][key] = value
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, cfg))
    assert err.value.field == field_path
    path, _, message = str(err.value).partition(": ")
    assert path == field_path and ": " not in message  # named once, not once per block


@pytest.mark.parametrize("block", ["grid", "solve", "source"])
def test_a_block_that_takes_p_n_q_or_r_needs_params(tmp_path, capsys, block):
    path = write_config(tmp_path, {"scenario": "no-params", block: SOLVE_CFG[block]})
    assert main(["validate", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: params: a grid, solve or source block needs")


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


def test_tripped_numerical_guard_exits_with_its_own_code(tmp_path, capsys, monkeypatch):
    # a sigma below 1 takes sigma*theta under 2, so corrected_cylinder's
    # guard raises ArithmeticError on the probe's first cylinder
    sharp = cylinders.sharp_exponents
    monkeypatch.setattr(cylinders, "sharp_exponents",
                        lambda params: dataclasses.replace(sharp(params), sigma=0.5))
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["scenario"] = "guard-probe"
    cfg["grid"] = {"h": 1 / 128, "dt": 5e-05, "t_end": 0.25}
    cfg["probe"] = {"lambda": 0.45, "K": 4, "centers": [[0.0, 0.25]]}
    path = write_config(tmp_path, cfg)
    assert main(["probe", str(path), "--out", str(tmp_path / "guard")]) == EXIT_NUMERIC == 5
    assert "numerical guard tripped: sigma*theta = " in capsys.readouterr().err


def test_unresolvable_probe_levels_exit_as_a_probe_failure(tmp_path, capsys):
    # at h = 1/16 the level-8 radius 0.25^8 holds a single node per axis
    cfg = json.loads(json.dumps(SOLVE_CFG))
    cfg["probe"] = {"lambda": 0.25, "K": 8, "centers": [[0.0, 0.0625]]}
    path = write_config(tmp_path, cfg)
    assert main(["probe", str(path), "--out", str(tmp_path / "out")]) == EXIT_PROBE == 4
    assert "probe failure: smallest cylinder radius" in capsys.readouterr().err


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
    ("solve", {}, "source.amplitude", 1e400, "source.amplitude: must be finite, got inf"),  # overflows to inf
    ("solve", {}, "solve.eps_reg", math.nan, "solve.eps_reg"),
    ("solve", {}, "seed", True, "seed"),
    ("solve", {}, "output_dir", 5, "output_dir: expected a string, got int"),
    ("solve", {"solve": {"boundary": {"kind": "affine"}}}, "solve.boundary.gradient", [1.0, 2.0],
     "solve.boundary.gradient: expected one number per axis of the 1D grid, got 2"),
    # blocks that are not objects
    ("solve", {}, "source", "zero", "source: expected an object, got str"),
    ("solve", {}, "solve.boundary", "zero", "solve.boundary: expected an object, got str"),
    ("solve", {}, "solve.initial", ["eigenmode"], "solve.initial: expected an object, got list"),
    ("probe", {}, "probe", "x", "probe: expected an object, got str"),
    ("probe", {}, "probe.lambda", math.nan, "probe.lambda"),
    ("probe", {}, "probe.K", True, "probe.K"),
    ("probe", {}, "probe.K", 5.5, "probe.K"),
    ("probe", {"probe": {"centers": []}}, "probe.max_centers", "four", "probe.max_centers"),
    ("probe", {"probe": {"centers": []}}, "probe.max_centers", -1,
     "probe.max_centers: must be at least 1, got -1"),
    ("probe", {"probe": {"centers": []}}, "probe.max_centers", 0,
     "probe.max_centers: must be at least 1, got 0"),
    ("probe", {}, "probe.centers", [[0.0, math.nan]], "probe.centers[0][1]"),
    ("probe", {}, "probe.centers", [[]], "probe.centers[0]: expected a list of 2 numbers"),
    ("probe", {}, "probe.centers", [[0.0, 0.05], [5]], "probe.centers[1]: expected a list of 2 numbers"),
    ("probe", {}, "probe.centers", 5, "probe.centers: expected a list of centers"),
    ("probe", {}, "probe.centers", [[0.0]], "probe.centers[0]: expected a list of 2 numbers [x_1, t]"),
    ("probe", {}, "probe.lambda", 0.7, "probe.lambda: must lie in (0, 1/2), got 0.7"),
    ("probe", {}, "probe.K", 2, "probe.K: need at least 4 dyadic levels, got 2"),
    ("probe", {}, "solve.boundary", {"kind": "reference", "name": 5},
     "solve.boundary.name: unknown reference solution 5"),
    ("probe", {}, "solve.boundary", {"kind": "reference", "name": "nope"},
     "solve.boundary.name: unknown reference solution 'nope'"),
    ("region", {}, "region.resolution", "abc", "region.resolution"),
    # values out of range or of an unknown kind, each named by its own path
    ("solve", {}, "scenario", 5, "scenario: expected a string, got int"),
    ("solve", {}, "grid.h", -1.0, "grid.h: must be positive, got -1.0"),
    ("solve", {}, "grid.extent", -1.0, "grid.extent: must be positive, got -1.0"),
    ("solve", {}, "grid.t_start", "inf", "grid.t_start: must be finite, got inf"),
    ("exponent", {}, "params.q", 0.5, "params.q: must exceed n = 1, got 0.5"),
    ("probe", {}, "solve.boundary.kind", "sideways", "solve.boundary.kind: must be zero, constant, "
     "affine or reference, got 'sideways'"),
    ("probe", {"solve": {"boundary": {"kind": "reference"}}}, "solve.boundary.name", "nope",
     "solve.boundary.name: unknown reference solution 'nope'"),
    ("probe", {}, "solve.initial.kind", "sine", "solve.initial.kind: unsupported kind 'sine'"),
    ("probe", {}, "solve.scheme", "implicit", "solve.scheme: must be semi_implicit or explicit"),
    ("probe", {"params": {"p": 3.0, "alpha_h": 1.0}}, "solve.eps_reg", 0.0,
     "solve.eps_reg: must be positive, or zero at p = 2, got 0.0"),
    ("probe", {}, "source.kind", "tabulated", "source.kind: must be one of zero, constant, "
     "separable_power, got 'tabulated'"),
    # fields the CLI does not read, retired ones included
    ("probe", {}, "bogus", 1, "bogus: unknown field"),
    ("probe", {}, "probe.lamda", 0.3, "probe.lamda: unknown field"),
    ("probe", {}, "solve.newton_tol", 1e-14, "solve.newton_tol: unknown field"),
    ("probe", {}, "probe.mode", "affine", "probe.mode: unknown field"),
    ("probe", {}, "probe.mode", 5, "probe.mode: unknown field"),
    ("probe", {}, "probe.mode", "sideways", "probe.mode: unknown field"),
    # params alone states p, n, q and r
    ("probe", {}, "grid.n", 2, "grid.n: unknown field"),
    ("probe", {}, "solve.p", 3.0, "solve.p: unknown field"),
    ("probe", {}, "region.p", 3.0, "region.p: unknown field"),
    ("probe", {}, "region.n", 2, "region.n: unknown field"),
    ("probe", {}, "source.q", "inf", "source.q: unknown field"),
    ("probe", {}, "source.r", 4.0, "source.r: unknown field"),
    # explicit centers off the grid (t runs over [0, 0.3])
    ("probe", {}, "probe.centers", [[5.0, 0.3]],
     "probe.centers[0][0]: 5.0 lies off the grid axis [-1.0, 1.0]"),
    ("probe", {}, "probe.centers", [[0.0, 99.0]],
     "probe.centers[0][1]: 99.0 lies off the grid axis [0.0, 0.3]"),
]


def _bad_config(tmp_path, setup, key, value):
    """The probe config with the setup entries and the bad field, written out."""
    cfg = probe_cfg()
    cfg["region"] = {"resolution": 8}
    for name, entries in setup.items():
        cfg[name].update(entries)
    *parents, last = key.split(".")
    target = cfg
    for name in parents:
        target = target[name]
    target[last] = value
    return write_config(tmp_path, cfg)


@pytest.mark.parametrize("subcommand, setup, key, value, names", BAD_FIELDS,
                         ids=[f"{key}={value!r}" for _, _, key, value, _ in BAD_FIELDS])
def test_bad_numeric_field_is_a_config_error_naming_it(tmp_path, capsys, subcommand, setup, key,
                                                       value, names):
    path = _bad_config(tmp_path, setup, key, value)
    with pytest.raises(ConfigError, match=re.escape(names)):
        run_experiment(path, subcommand, str(tmp_path / "direct"))
    assert main([subcommand, str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert names in capsys.readouterr().err


PROBE_FIELDS = [row for row in BAD_FIELDS if row[0] == "probe"]


@pytest.mark.parametrize("subcommand, setup, key, value, names", PROBE_FIELDS,
                         ids=[f"{key}={value!r}" for _, _, key, value, _ in PROBE_FIELDS])
def test_no_bad_probe_field_reaches_the_solve(tmp_path, monkeypatch, subcommand, setup, key, value,
                                              names):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran before the bad field was rejected")

    monkeypatch.setattr(cli.solver, "solve", no_solve)
    with pytest.raises(ConfigError, match=re.escape(names)):
        run_experiment(_bad_config(tmp_path, setup, key, value), subcommand, str(tmp_path / "out"))


def test_failed_validation_exit_code(tmp_path, capsys, monkeypatch):
    # break the constant-norm oracle so exactly one check of the battery fails
    monkeypatch.setattr(cli.grids, "anisotropic_norm", lambda *args: 0.0)
    cfg = write_config(tmp_path, {"scenario": "validate-demo", "output_dir": "out"})
    out = tmp_path / "val_out"
    assert main(["validate", str(cfg), "--out", str(out)]) == EXIT_VALIDATION == 1
    assert "validation battery failed" in capsys.readouterr().err
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert [name for name, ok in checks.items() if not ok] == ["constant_norm_exact"]


CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
BUNDLED = {"exponent": "exponent_heat.json", "region": "region_singular.json",
           "solve": "solve_heat_singular.json", "probe": "probe_heat_singular.json"}


def _leaves(value, path=()):
    """(path, value) of every number or string in a config, path as keys and list indices."""
    if isinstance(value, dict):
        return [leaf for key, v in value.items() for leaf in _leaves(v, path + (key,))]
    if isinstance(value, list):
        return [leaf for i, v in enumerate(value) for leaf in _leaves(v, path + (i,))]
    return [(path, value)]


def _field_path(path):
    """A config path as the CLI names it: probe.centers[0][1]."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


NOT_A_NUMBER = st.one_of(
    st.text(max_size=4).filter(lambda s: s.lower() not in ("inf", "infinity")),
    st.booleans(), st.none(), st.just([1.0]), st.just({}), st.just(math.nan))
NOT_A_STRING = st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(),
                         st.just(["x"]), st.just({}))
# fields whose range the CLI or a library type checks, with values outside it
OUT_OF_RANGE = {
    "probe.lambda": st.one_of(st.floats(max_value=0.0), st.floats(min_value=0.5)),
    "probe.K": st.integers(max_value=3),
    "probe.centers[0][0]": st.one_of(st.floats(max_value=-1.001), st.floats(min_value=1.001)),
    "probe.centers[0][1]": st.one_of(st.floats(max_value=-0.001), st.floats(min_value=0.251)),
    "region.resolution": st.one_of(st.integers(max_value=1), st.integers(min_value=513)),
    "region.q_max": st.one_of(st.floats(max_value=2.0), st.just(math.inf)),
    "region.r_max": st.one_of(st.floats(max_value=2.0), st.just(math.inf)),
    "solve.scheme": st.text(max_size=4),
    "params.p": st.floats(max_value=1.0), "params.n": st.integers(max_value=0),
    "params.q": st.floats(max_value=1.0), "params.r": st.floats(max_value=2.0),
    "params.alpha_h": st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.001)),
    "grid.h": st.floats(max_value=0.0), "grid.dt": st.floats(max_value=0.0),
    "grid.t_end": st.floats(max_value=0.0),
    "source.a": st.sampled_from([math.inf, -math.inf]),
    "source.b": st.sampled_from([math.inf, -math.inf]),
}


@st.composite
def malformed_configs(draw):
    """(subcommand, config, the bad field's path, which the error must name)
    with one field of a bundled config replaced by a bad value."""
    subcommand = draw(st.sampled_from(sorted(BUNDLED)))
    raw = json.loads((CONFIGS / BUNDLED[subcommand]).read_text())
    path, value = draw(st.sampled_from(_leaves(raw)))
    name = _field_path(path)
    if name in OUT_OF_RANGE and draw(st.booleans()):
        bad = draw(OUT_OF_RANGE[name])
    else:
        bad = draw(NOT_A_STRING if isinstance(value, str) and value != "inf" else NOT_A_NUMBER)
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    return subcommand, raw, name


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=malformed_configs())
def test_a_malformed_bundled_config_exits_2_naming_the_field(tmp_path, capsys, monkeypatch, case):
    subcommand, raw, field = case

    def no_solve(*args, **kwargs):
        raise AssertionError(f"{field} = {raw!r} reached the solve")

    monkeypatch.setattr(cli.solver, "solve", no_solve)
    path = write_config(tmp_path, raw)
    assert main([subcommand, str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}")
    assert "Traceback" not in err


def test_an_infinite_p_in_a_bundled_config_exits_2(tmp_path, capsys):
    raw = json.loads((CONFIGS / BUNDLED["region"]).read_text())
    raw["params"]["p"] = "inf"
    path = write_config(tmp_path, raw)
    assert main(["region", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: params.p: must be finite, got inf")
    assert "Traceback" not in err


def _named(text):
    """The field a message or a table key names: probe.centers for probe.centers[0][1]: ..."""
    return re.match(r"[\w.]*", text).group()


def test_every_field_the_cli_reads_has_a_bad_value_case():
    # each case exits 2 naming its field, so a field that the CLI lists but no
    # longer reads fails its case
    leaves = {f"{path}.{key}".lstrip(".") for path, keys in cli._FIELDS.items() for key in keys}
    leaves -= set(cli._FIELDS)  # the blocks
    named = {_named(row[-1]) for row in BAD_FIELDS} | {_named(key) for key in OUT_OF_RANGE}
    assert len(leaves) == 33
    assert sorted(leaves - named) == []
