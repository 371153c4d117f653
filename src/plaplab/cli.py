"""Config-driven experiment front door.

Subcommands mirror the library modules one-to-one:

  plaplab exponent <config.json> [--out DIR]   admissibility + sharp exponents
  plaplab region   <config.json> [--out DIR]   (q, r) admissibility scan -> region.csv
  plaplab solve    <config.json> [--out DIR]   time-march -> solution.bin
  plaplab probe    <config.json> [--out DIR]   solve + oscillation profiles -> profile.csv
  plaplab validate <config.json> [--out DIR]   built-in oracle battery

Every run writes summary.json with the config hash embedded; outputs are
byte-identical for identical config + seed. Exit codes: 0 success,
2 config error, 3 solver failure, 4 probe failure.

The only environment knob is PLAPLAB_THREADS (worker count for independent
probe centers; default 1, results are order-deterministic either way).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import exponents as expo
from . import grids, probe, solver
from .cylinders import critical_zone
from .exponents import ProblemParams
from .grids import GridFunction, Region, SpaceTimeGrid
from .solver import BoundarySpec, SolveConfig, SourceSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_PROBE = 4


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.field_path = path


def _num(block: dict, key: str, path: str, required=True, default=None):
    if key not in block:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    val = block[key]
    if isinstance(val, str):
        if val.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"{path}.{key}", f"expected a number, got {val!r}")
    if not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {type(val).__name__}")
    return float(val)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    raw: dict
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

    scenario = raw.get("scenario", "unnamed")
    params = None
    if "params" in raw:
        blk = raw["params"]
        try:
            params = ProblemParams(
                p=_num(blk, "p", "params"),
                n=int(_num(blk, "n", "params")),
                q=_num(blk, "q", "params"),
                r=_num(blk, "r", "params"),
                alpha_h=_num(blk, "alpha_h", "params", required=False),
            )
        except ValueError as exc:
            raise ConfigError("params", str(exc))

    grid = None
    if "grid" in raw:
        blk = raw["grid"]
        try:
            grid = SpaceTimeGrid(
                n=int(_num(blk, "n", "grid", required=False, default=params.n if params else 1)),
                extent=_num(blk, "extent", "grid", required=False, default=1.0),
                h=_num(blk, "h", "grid"),
                dt=_num(blk, "dt", "grid"),
                t_start=_num(blk, "t_start", "grid", required=False, default=0.0),
                t_end=_num(blk, "t_end", "grid"),
            )
        except ValueError as exc:
            raise ConfigError("grid", str(exc))

    solve_config = None
    initial_kind, initial_value = "zero", 0.0
    if "solve" in raw:
        blk = raw["solve"]
        bblk = blk.get("boundary", {"kind": "zero"})
        kind = bblk.get("kind", "zero")
        if kind not in ("zero", "constant", "affine", "reference"):
            raise ConfigError("solve.boundary.kind", f"unsupported kind {kind!r}")
        boundary = BoundarySpec(
            kind=kind,
            value=float(bblk.get("value", 0.0)),
            gradient=tuple(bblk.get("gradient", ())),
            name=bblk.get("name", ""),
        )
        try:
            solve_config = SolveConfig(
                p=params.p if params else _num(blk, "p", "solve"),
                eps_reg=_num(blk, "eps_reg", "solve", required=False),
                scheme=blk.get("scheme", "semi_implicit"),
                newton_tol=_num(blk, "newton_tol", "solve", required=False, default=1e-10),
                max_inner_iters=int(_num(blk, "max_inner_iters", "solve", required=False, default=500)),
                boundary=boundary,
            )
        except ValueError as exc:
            raise ConfigError("solve", str(exc))
        init = blk.get("initial", {"kind": "zero"})
        initial_kind = init.get("kind", "zero")
        if initial_kind not in ("zero", "constant", "eigenmode", "boundary"):
            raise ConfigError("solve.initial.kind", f"unsupported kind {initial_kind!r}")
        initial_value = float(init.get("value", 0.0))

    source = None
    if "source" in raw:
        blk = raw["source"]
        kind = blk.get("kind", "zero")
        if kind not in ("zero", "constant", "separable_power"):
            raise ConfigError("source.kind", f"unsupported kind {kind!r}")
        source = SourceSpec(
            kind=kind,
            c=float(blk.get("c", 0.0)),
            a=float(blk.get("a", 0.0)),
            b=float(blk.get("b", 0.0)),
            amplitude=float(blk.get("amplitude", 1.0)),
            q=_num(blk, "q", "source", required=False, default=params.q if params else math.inf),
            r=_num(blk, "r", "source", required=False, default=params.r if params else math.inf),
        )

    return ExperimentConfig(
        scenario=scenario,
        raw=raw,
        params=params,
        grid=grid,
        solve_config=solve_config,
        source=source,
        probe_block=raw.get("probe"),
        region_block=raw.get("region"),
        initial_kind=initial_kind,
        initial_value=initial_value,
        output_dir=raw.get("output_dir", "out"),
        seed=int(raw.get("seed", 0)),
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
        return solver.reference_solutions("heat_mode", 2.0, grid.n, grid).values[0] * (
            cfg.initial_value or 1.0
        )
    if cfg.initial_kind == "boundary":
        return cfg.solve_config.boundary.evaluate(grid, grid.t_start, cfg.solve_config.p)
    raise ConfigError("solve.initial.kind", f"unsupported kind {cfg.initial_kind!r}")


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
    params_blk = cfg.raw.get("params", {})
    blk = cfg.region_block or {}
    p = _num(params_blk, "p", "params") if "p" in params_blk else _num(blk, "p", "region")
    n = int(_num(params_blk, "n", "params")) if "n" in params_blk else int(_num(blk, "n", "region"))
    resolution = int(blk.get("resolution", 32))
    scan = expo.admissible_region(
        p,
        n,
        resolution,
        q_max=_num(blk, "q_max", "region", required=False),
        r_max=_num(blk, "r_max", "region", required=False),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    scan.to_csv(out_dir / "region.csv")
    admissible_count = sum(1 for s in scan.samples if s.admissible)
    payload = {
        "scenario": cfg.scenario,
        "config_sha256": cfg.sha256,
        "predicted": {
            "p": p,
            "n": n,
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
    source = cfg.source or SourceSpec(kind="zero")
    initial = _initial_field(cfg, grid)
    u = solver.solve(grid, sc, source, initial)
    out_dir.mkdir(parents=True, exist_ok=True)
    grids.write_binary(u, out_dir / "solution.bin")
    src = solver.make_source(source, grid)
    payload = {
        "scenario": cfg.scenario,
        "config_sha256": cfg.sha256,
        "measured": {
            "sup_abs_u": float(np.max(np.abs(u.values))),
            "final_sup_abs_u": float(np.max(np.abs(u.values[-1]))),
            "source_norm_qr": src.norm_qr,
        },
        "files": {"solution": "solution.bin"},
    }
    write_summary(out_dir, payload)
    return payload


def _probe_centers(cfg: ExperimentConfig, u: GridFunction, params, lam: float) -> list:
    blk = cfg.probe_block
    grid = u.grid
    if blk.get("centers"):
        return [(tuple(float(v) for v in c[:-1]), float(c[-1])) for c in blk["centers"]]
    rule = blk.get("center_rule", "critical_extrema")
    if rule != "critical_extrema":
        raise ConfigError("probe.center_rule", f"unsupported rule {rule!r}")
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
    max_centers = int(blk.get("max_centers", 4))
    if len(cand) > max_centers:
        rng = np.random.default_rng(cfg.seed)
        keep = rng.choice(len(cand), size=max_centers, replace=False)
        cand = [cand[i] for i in sorted(keep)]
    return cand


def run_probe(cfg: ExperimentConfig, out_dir: Path) -> dict:
    params = _require(cfg, "params", "params")
    grid = _require(cfg, "grid", "grid")
    blk = cfg.probe_block or {}
    lam = float(blk.get("lambda", 0.25))
    K = int(blk.get("K", 6))
    mode = blk.get("mode", "affine")
    sc = _require(cfg, "solve_config", "solve")
    source = cfg.source or SourceSpec(kind="zero", q=params.q, r=params.r)
    initial = _initial_field(cfg, grid)
    u = solver.solve(grid, sc, source, initial)

    centers = _probe_centers(cfg, u, params, lam)
    if not centers:
        raise probe.UnresolvableCylinderError("no probe centers found or given")
    exps = expo.sharp_exponents(params)

    def one(center):
        prof = probe.oscillation_profile(u, center, lam, K, params, mode=mode)
        fit = probe.fit_exponent(prof)
        plain = (
            prof
            if mode == "plain"
            else probe.oscillation_profile(u, center, lam, K, params, mode="plain")
        )
        bound = probe.check_dyadic_bound(plain, params)
        return prof, fit, bound

    workers = max(1, int(os.environ.get("PLAPLAB_THREADS", "1")))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, centers))
    else:
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
    prof0, fit0, bound0 = results[0]
    prof0.to_csv(out_dir / "profile.csv", bounds=bound0)
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
            "mode": mode,
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
    const = GridFunction(grid, np.full(grid.shape, 0.7))
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except solver.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except probe.UnresolvableCylinderError as exc:
        print(f"probe failure: {exc}", file=sys.stderr)
        return EXIT_PROBE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.subcommand == "validate" and not payload.get("all_passed", False):
        print("validation battery failed", file=sys.stderr)
        return 1
    print(json.dumps({"scenario": payload.get("scenario"), "ok": True}, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
