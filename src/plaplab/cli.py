"""Config-driven experiment front door.

Subcommands mirror the library modules one-to-one:

  plaplab exponent <config.json> [--out DIR]   admissibility + sharp exponents
  plaplab region   <config.json> [--out DIR]   (q, r) admissibility scan -> region.csv
  plaplab solve    <config.json> [--out DIR]   time-march -> solution.bin
  plaplab probe    <config.json> [--out DIR]   solve + oscillation profiles -> profile.csv
  plaplab validate <config.json> [--out DIR]   built-in oracle battery

Every run writes summary.json with the config hash embedded; outputs are
byte-identical for identical config + seed. Exit codes: 0 success,
1 validation battery failed, 2 config error, 3 solver failure, 4 probe
failure, 5 numerical guard tripped.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import exponents as expo
from . import grids, probe, solver
from .cylinders import critical_zone
from .exponents import FieldError, ProblemParams
from .grids import GridFunction, Region, SpaceTimeGrid
from .solver import BoundarySpec, SolveConfig, SourceSpec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_PROBE = 4
EXIT_NUMERIC = 5  # an ArithmeticError: a numerical guard such as sigma*theta >= 2 tripped
_REQUIRED = object()  # the default of a _num field without one
_MAX_RESOLUTION = 512  # region.resolution: bounds the scan's resolution^2 samples
# the fields the CLI reads, per block path ("" is the top level)
_FIELDS = {
    "": {"scenario", "params", "grid", "solve", "source", "probe", "region", "output_dir", "seed"},
    "params": {"p", "n", "q", "r", "alpha_h"},
    "grid": {"extent", "h", "dt", "t_start", "t_end"},
    "solve": {"eps_reg", "scheme", "boundary", "initial"},
    "solve.boundary": {"kind", "value", "gradient", "name"},
    "solve.initial": {"kind", "value"},
    "source": {"kind", "c", "a", "b", "amplitude"},
    "probe": {"lambda", "K", "centers", "max_centers"},
    "region": {"resolution", "q_max", "r_max"},
}


class ConfigError(FieldError):
    """A bad config entry; field is its path, such as probe.centers[0][1]."""


def _number(val, where: str) -> float:
    """val as a float; "inf" and "infinity" are infinite, NaN is rejected."""
    if isinstance(val, str):
        if val.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(where, f"expected a number, got {val!r}")
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(where, f"expected a number, got {type(val).__name__}")
    if math.isnan(val):
        raise ConfigError(where, "expected a number, got NaN")
    return float(val)


def _num(block: dict, key: str, path: str, default=_REQUIRED, integer=False):
    """The number block[key] of the block at path ("" on top), required unless defaulted."""
    where = f"{path}.{key}" if path else key
    if key not in block:
        if default is _REQUIRED:
            raise ConfigError(where, "missing required field")
        return default
    val = _number(block[key], where)
    if integer and not val.is_integer():
        raise ConfigError(where, f"expected an integer, got {val!r}")
    return int(val) if integer else val


def _string(block: dict, key: str, default: str) -> str:
    """The string block[key] of the top level, or default when absent."""
    val = block.get(key, default)
    if not isinstance(val, str):
        raise ConfigError(key, f"expected a string, got {type(val).__name__}")
    return val


def _known_fields(block: dict, path: str) -> None:
    """Reject a key of the block at path that the CLI does not read."""
    for key in block:
        if key not in _FIELDS[path]:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")


def _object(block: dict, key: str, path: str, default=None):
    """The object block[key] of the block at path, or default when absent."""
    if key not in block:
        return default
    val = block[key]
    if not isinstance(val, dict):
        raise ConfigError(path, f"expected an object, got {type(val).__name__}")
    _known_fields(val, path)
    return val


@contextlib.contextmanager
def _block_errors(path: str):
    """Raise a FieldError from building the block at path as a ConfigError
    naming the field, under params for the values params states; a
    ConfigError, which names its own field, passes as is."""
    try:
        yield
    except ConfigError:
        raise
    except FieldError as exc:
        owner = "params" if exc.field in _FIELDS["params"] else path
        raise ConfigError(f"{owner}.{exc.field}", exc.reason) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    params: ProblemParams | None
    grid: SpaceTimeGrid | None
    solve_config: SolveConfig | None
    source: SourceSpec | None
    probe_block: dict | None
    region_block: dict | None
    initial_kind: str
    initial_value: float
    output_dir: str
    seed: int
    sha256: str


def config_digest(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canon).hexdigest()


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("$", "top level must be an object")
    _known_fields(raw, "")

    scenario = _string(raw, "scenario", "unnamed")
    params = None
    blk = _object(raw, "params", "params")
    if blk is not None:
        with _block_errors("params"):
            params = ProblemParams(
                p=_num(blk, "p", "params"),
                n=_num(blk, "n", "params", integer=True),
                q=_num(blk, "q", "params"),
                r=_num(blk, "r", "params"),
                alpha_h=_num(blk, "alpha_h", "params", default=None),
            )
    elif any(key in raw for key in ("grid", "solve", "source")):
        raise ConfigError("params", "a grid, solve or source block needs a 'params' block")

    grid = None
    blk = _object(raw, "grid", "grid")
    if blk is not None:
        with _block_errors("grid"):
            grid = SpaceTimeGrid(
                n=params.n,
                extent=_num(blk, "extent", "grid", default=1.0),
                h=_num(blk, "h", "grid"),
                dt=_num(blk, "dt", "grid"),
                t_start=_num(blk, "t_start", "grid", default=0.0),
                t_end=_num(blk, "t_end", "grid"),
            )

    solve_config = None
    initial_kind, initial_value = "zero", 0.0
    blk = _object(raw, "solve", "solve")
    if blk is not None:
        bblk = _object(blk, "boundary", "solve.boundary", {})
        gradient = bblk.get("gradient", [])
        if not isinstance(gradient, list):
            raise ConfigError("solve.boundary.gradient", "expected a list of numbers")
        gradient = tuple(_number(g, f"solve.boundary.gradient[{i}]")
                         for i, g in enumerate(gradient))
        if grid is not None and len(gradient) not in (0, grid.n):
            raise ConfigError("solve.boundary.gradient", f"expected one number per axis "
                              f"of the {grid.n}D grid, got {len(gradient)}")
        with _block_errors("solve.boundary"):
            boundary = BoundarySpec(
                kind=bblk.get("kind", "zero"),
                value=_num(bblk, "value", "solve.boundary", default=0.0),
                gradient=gradient,
                name=bblk.get("name", ""),
            )
        with _block_errors("solve"):
            solve_config = SolveConfig(
                p=params.p,
                eps_reg=_num(blk, "eps_reg", "solve", default=None),
                scheme=blk.get("scheme", "semi_implicit"),
                boundary=boundary,
            )
        init = _object(blk, "initial", "solve.initial", {})
        initial_kind = init.get("kind", "zero")
        if initial_kind not in ("zero", "constant", "eigenmode", "boundary"):
            raise ConfigError("solve.initial.kind", f"unsupported kind {initial_kind!r}")
        initial_value = _num(init, "value", "solve.initial", default=0.0)

    source = None
    blk = _object(raw, "source", "source", {})
    if params is not None:
        with _block_errors("source"):
            source = SourceSpec(
                kind=blk.get("kind", "zero"),
                c=_num(blk, "c", "source", default=0.0),
                a=_num(blk, "a", "source", default=0.0),
                b=_num(blk, "b", "source", default=0.0),
                amplitude=_num(blk, "amplitude", "source", default=1.0),
                q=params.q,
                r=params.r,
            )

    output_dir = _string(raw, "output_dir", "out")
    return ExperimentConfig(
        scenario=scenario,
        params=params,
        grid=grid,
        solve_config=solve_config,
        source=source,
        probe_block=_object(raw, "probe", "probe"),
        region_block=_object(raw, "region", "region"),
        initial_kind=initial_kind,
        initial_value=initial_value,
        output_dir=output_dir,
        seed=_num(raw, "seed", "", default=0, integer=True),
        sha256=config_digest(raw),
    )


def _require(cfg: ExperimentConfig, attr: str, block_name: str):
    val = getattr(cfg, attr)
    if val is None:
        raise ConfigError(block_name, f"subcommand needs a {block_name!r} block")
    return val


def _initial_field(cfg: ExperimentConfig, grid: SpaceTimeGrid) -> np.ndarray:
    if cfg.initial_kind == "zero":
        return np.zeros(grid.spatial_shape)
    if cfg.initial_kind == "constant":
        return np.full(grid.spatial_shape, cfg.initial_value)
    if cfg.initial_kind == "eigenmode":
        return solver.reference_slice("heat_mode", grid, grid.t_start) * (cfg.initial_value or 1.0)
    return cfg.solve_config.boundary.evaluate(grid, grid.t_start, cfg.solve_config.p)  # kind "boundary"


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_summary(out_dir: Path, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "summary.json"
    path.write_text(json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n")
    return path


def run_exponent(cfg: ExperimentConfig, out_dir: Path) -> dict:
    params = _require(cfg, "params", "params")
    report = expo.check_compatibility(params)
    payload = {
        "scenario": cfg.scenario,
        "config_sha256": cfg.sha256,
        "predicted": {
            "admissible": report.admissible,
            "violations": list(report.violations),
            "minimal_integrability": report.minimal_integrability,
            "holder_band": report.holder_band,
            "lower_band": report.lower_band,
        },
    }
    if report.admissible:
        exps = expo.sharp_exponents(params)
        lo, hi = expo.theta_bounds(params)
        payload["predicted"].update(
            {
                "alpha_hat": exps.alpha_hat,
                "alpha": exps.alpha,
                "attained_by_homogeneous": exps.attained_by_homogeneous,
                "sigma": exps.sigma,
                "gamma": exps.gamma,
                "beta_star": exps.beta_star,
                "theta_lower": lo,
                "theta_upper": hi,
            }
        )
    write_summary(out_dir, payload)
    return payload


def run_region(cfg: ExperimentConfig, out_dir: Path) -> dict:
    params = _require(cfg, "params", "params")
    blk = cfg.region_block or {}
    resolution = _num(blk, "resolution", "region", default=32, integer=True)
    if not 2 <= resolution <= _MAX_RESOLUTION:
        raise ConfigError("region.resolution", f"must lie in [2, {_MAX_RESOLUTION}], got {resolution}")
    # the scan samples q over (n, q_max] and r over (2, r_max]
    q_max, r_max = (_num(blk, key, "region", default=None) for key in ("q_max", "r_max"))
    for key, val, low in (("q_max", q_max, params.n), ("r_max", r_max, 2)):
        if val is not None and not low < val < math.inf:
            raise ConfigError(f"region.{key}", f"must be finite and exceed {low}, got {val}")
    scan = expo.admissible_region(params.p, params.n, resolution, q_max=q_max, r_max=r_max)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [[repr(s.q), repr(s.r), repr(s.band), int(s.admissible), s.violation] for s in scan.samples]
    _write_csv(out_dir / "region.csv", ["q", "r", "n_over_q_plus_2_over_r", "admissible", "violation"],
               rows)
    admissible_count = sum(1 for s in scan.samples if s.admissible)
    payload = {
        "scenario": cfg.scenario,
        "config_sha256": cfg.sha256,
        "predicted": {
            "p": params.p,
            "n": params.n,
            "samples": len(scan.samples),
            "admissible_samples": admissible_count,
            "holder_curve_points": len(scan.holder_curve),
            "lower_curve_points": len(scan.lower_curve),
        },
    }
    write_summary(out_dir, payload)
    return payload


def run_solve(cfg: ExperimentConfig, out_dir: Path) -> dict:
    grid = _require(cfg, "grid", "grid")
    sc = _require(cfg, "solve_config", "solve")
    initial = _initial_field(cfg, grid)
    u = solver.solve(grid, sc, cfg.source, initial)
    out_dir.mkdir(parents=True, exist_ok=True)
    grids.write_binary(u, out_dir / "solution.bin")
    payload = {
        "scenario": cfg.scenario,
        "config_sha256": cfg.sha256,
        "measured": {
            # max(max, -min) over every node: no field-sized |u| temporary
            "sup_abs_u": float(grids.masked_abs_max(u.values, True)),
            "final_sup_abs_u": float(grids.masked_abs_max(u.values[-1], True)),
            "source_norm_qr": solver.make_source(cfg.source, grid),
        },
        "files": {"solution": "solution.bin"},
    }
    write_summary(out_dir, payload)
    return payload


def _given_centers(blk: dict, grid: SpaceTimeGrid) -> list | None:
    """The probe.centers list as (x, t) pairs on the grid, or None to pick extrema."""
    if not blk.get("centers"):
        return None
    if not isinstance(blk["centers"], list):
        raise ConfigError("probe.centers", "expected a list of centers")
    n = grid.n
    label = "[" + ", ".join(f"x_{a}" for a in range(1, n + 1)) + ", t]"
    axes = [grid.axis_nodes()] * n + [grid.times()]
    rows = []
    for i, c in enumerate(blk["centers"]):
        if not (isinstance(c, list) and len(c) == n + 1):
            raise ConfigError(f"probe.centers[{i}]", f"expected a list of {n + 1} numbers {label}")
        row = [_number(v, f"probe.centers[{i}][{k}]") for k, v in enumerate(c)]
        for k, (v, axis) in enumerate(zip(row, axes)):
            if not axis[0] <= v <= axis[-1]:
                raise ConfigError(f"probe.centers[{i}][{k}]",
                                  f"{v} lies off the grid axis [{axis[0]}, {axis[-1]}]")
        rows.append(row)
    return [(tuple(row[:-1]), row[-1]) for row in rows]


def _critical_extrema(u: GridFunction, params, lam: float, max_centers: int, seed: int) -> list:
    """Local extrema of the last slice inside the critical zone, at most
    max_centers of them, drawn with the seed when there are more."""
    grid = u.grid
    alpha = expo.sharp_exponents(params).alpha
    t0 = grid.t_end
    region = Region(
        center=(0.0,) * grid.n,
        half_widths=(grid.extent * 0.5,) * grid.n,
        t_start=t0 - grid.dt / 2,
        t_end=t0,
    )
    zone = critical_zone(u, lam, alpha, region)
    crit = zone.mask[-1]
    vals = u.values[-1]
    cand = []
    for ix in zip(*np.nonzero(crit)):
        neigh = []
        for ax in range(grid.n):
            for step in (-1, 1):
                jx = list(ix)
                jx[ax] += step
                neigh.append(vals[tuple(jx)])
        v0 = vals[ix]
        if v0 >= max(neigh) or v0 <= min(neigh):
            x = tuple(float(-grid.extent + i * grid.h) for i in ix)
            cand.append((x, float(grid.t_end)))
    if len(cand) > max_centers:
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(cand), size=max_centers, replace=False)
        cand = [cand[i] for i in sorted(keep)]
    return cand


def run_probe(cfg: ExperimentConfig, out_dir: Path) -> dict:
    params = _require(cfg, "params", "params")
    grid = _require(cfg, "grid", "grid")
    blk = cfg.probe_block or {}
    # probe fields are checked before the solve, so a bad one costs no solve
    lam = _num(blk, "lambda", "probe", default=0.25)
    K = _num(blk, "K", "probe", default=6, integer=True)
    with _block_errors("probe"):
        probe.check_levels(lam, K)
    centers = _given_centers(blk, grid)
    if centers is None:
        max_centers = _num(blk, "max_centers", "probe", default=4, integer=True)
        if max_centers < 1:
            raise ConfigError("probe.max_centers", f"must be at least 1, got {max_centers}")
    sc = _require(cfg, "solve_config", "solve")
    initial = _initial_field(cfg, grid)
    u = solver.solve(grid, sc, cfg.source, initial)

    if centers is None:
        centers = _critical_extrema(u, params, lam, max_centers, cfg.seed)
    if not centers:
        raise probe.UnresolvableCylinderError("no probe centers found or given")
    exps = expo.sharp_exponents(params)

    def one(center):
        prof = probe.oscillation_profile(u, center, lam, K, params, mode="affine")
        plain = probe.oscillation_profile(u, center, lam, K, params, mode="plain")
        return prof, probe.fit_exponent(prof), probe.check_dyadic_bound(plain, params)

    results = [one(c) for c in centers]

    out_dir.mkdir(parents=True, exist_ok=True)
    grids.write_binary(u, out_dir / "solution.bin")
    center_rows = []
    for (x, t), (prof, fit, bound) in zip(centers, results):
        center_rows.append(
            {
                "center_x": list(x),
                "center_t": t,
                "grad_mag": prof.grad_mag,
                "fitted_slope": fit.slope if fit else None,
                "fitted_logM": fit.logM if fit else None,
                "fit_residual": fit.residual if fit else None,
                "unfittable": fit is None,
                "dyadic_M": bound.fitted_M,
                "dyadic_passes": bound.passes,
            }
        )
    # one row per level, led by the center's index in summary.json
    rows = [[i, e.k, repr(e.rho), repr(e.theta_eff), repr(e.sup_osc), repr(b.thm_bound), repr(b.ratio)]
            for i, (prof, _, bound) in enumerate(results) for e, b in zip(prof.entries, bound.entries)]
    _write_csv(out_dir / "profile.csv", ["center", "k", "rho", "theta_k", "S_k", "bound_k", "ratio"],
               rows)
    payload = {
        "scenario": cfg.scenario,
        "config_sha256": cfg.sha256,
        "predicted": {
            "alpha": exps.alpha,
            "alpha_hat": exps.alpha_hat,
            "slope_target": 1.0 + exps.alpha,
            "sigma": exps.sigma,
        },
        "measured": {
            "lambda": lam,
            "K": K,
            "mode": "affine",
            "centers": center_rows,
        },
        "files": {"profile": "profile.csv", "solution": "solution.bin"},
    }
    write_summary(out_dir, payload)
    return payload


def run_validate(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Fast built-in oracle battery; fails the run on any redflag."""
    checks = {}

    params = cfg.params or ProblemParams(p=2.0, n=2, q=8.0, r=8.0)
    exps = expo.sharp_exponents(params)
    lo, hi = expo.theta_bounds(params)
    checks["theta_within_bounds"] = bool(
        lo - 1e-12 <= expo.theta(params, 0.3, 0.25) <= hi + 1e-12
    )
    checks["sigma_theta_floor"] = bool(exps.sigma * lo >= 2.0 - 1e-9)

    grid = SpaceTimeGrid(n=1, extent=1.0, h=1 / 32, dt=1 / 1024, t_start=0.0, t_end=0.0625)
    region = grids.full_domain_region(grid)
    const = GridFunction._adopt(grid, np.full(grid.shape, 0.7))
    t_span = grid.t_end - grid.t_start
    checks["constant_norm_exact"] = bool(
        abs(
            grids.anisotropic_norm(const, 3.0, 5.0, region)
            - 0.7 * 2.0 ** (1 / 3) * t_span ** (1 / 5)
        )
        < 1e-9
    )

    sc = SolveConfig(p=2.0, boundary=BoundarySpec(kind="constant", value=0.4))
    u = solver.solve(grid, sc, SourceSpec(kind="zero"), np.full(grid.spatial_shape, 0.4))
    checks["constant_fixed_point"] = bool(np.max(np.abs(u.values - 0.4)) < 1e-8)

    mode = solver.reference_solutions("heat_mode", 2.0, 1, grid)
    sc2 = SolveConfig(p=2.0, boundary=BoundarySpec(kind="zero"))
    u2 = solver.solve(grid, sc2, SourceSpec(kind="zero"), mode.values[0])
    err = float(np.max(np.abs(u2.values[-1] - mode.values[-1])))
    checks["eigenmode_coarse_error"] = bool(err < 5e-3)

    payload = {
        "scenario": cfg.scenario,
        "config_sha256": cfg.sha256,
        "checks": checks,
        "all_passed": all(checks.values()),
    }
    write_summary(out_dir, payload)
    return payload


_DISPATCH = {
    "exponent": run_exponent,
    "region": run_region,
    "solve": run_solve,
    "probe": run_probe,
    "validate": run_validate,
}


def run_experiment(config_path, subcommand: str, out_override: str | None = None) -> dict:
    cfg = load_config(config_path)
    out_dir = Path(out_override) if out_override else Path(cfg.output_dir)
    return _DISPATCH[subcommand](cfg, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plaplab",
        description="numerical laboratory for sharp regularity of p-Laplacian flows",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _DISPATCH:
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to the JSON experiment config")
        sp.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    try:
        payload = run_experiment(args.config, args.subcommand, args.out)
    except solver.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except probe.UnresolvableCylinderError as exc:
        print(f"probe failure: {exc}", file=sys.stderr)
        return EXIT_PROBE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"numerical guard tripped: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.subcommand == "validate" and not payload.get("all_passed", False):
        print("validation battery failed", file=sys.stderr)
        return EXIT_VALIDATION
    print(json.dumps({"scenario": payload.get("scenario"), "ok": True}, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
