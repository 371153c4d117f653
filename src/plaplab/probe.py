"""Empirical regularity measurement over dyadic intrinsic cylinders.

The probe measures the sup oscillation of a discrete solution over the
nested cylinder family rho_k = lambda^k around a center, fits the growth
exponent of the decay by log-log least squares, and checks the measured
profile against the predicted oscillation bounds: a single finite constant
must cover sup_osc_k <= M rho_k^(1+alpha) (1 + |grad u(center)| rho_k^-alpha)
for all levels.

Fits regress against the realized node radius of each cylinder (the
largest node distance actually inside the ball) rather than the nominal
lambda^k; at desk resolutions this removes the grid-quantization bias of
the smallest levels.

Every result here is a pure function of the solution field. A field's
profiles share its one-center memo (see `grids.GridFunction`): the plain
and affine profiles of a center, the profile inside
`check_pointwise_c1alpha` and its gradient-scale rescaling reduce each
cylinder once, and interpolate the center's value and gradient and compute
the noise floor once. Profiles of different centers on one field may run
concurrently; they stay correct and can only lose the sharing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cylinders import Cylinder, corrected_cylinder, rescale_outside
from .exponents import FieldError, ProblemParams, sharp_exponents
from .grids import (GridFunction, Region, RegionBlock, SpaceTimeGrid, _at_center, _center_point,
                    _region_key, _time_extremes, masked_abs_max, sup_oscillation)
from .solver import SolveConfig, SourceSpec, solve


class UnresolvableCylinderError(ValueError):
    """The smallest requested cylinder has fewer than 4 nodes on some axis."""


MIN_NODES_PER_AXIS = 4


@dataclass(frozen=True)
class ProfileEntry:
    k: int
    rho: float
    rho_eff: float
    theta_eff: float
    depth: float
    sup_osc: float


@dataclass(frozen=True)
class OscillationProfile:
    center_x: tuple[float, ...]
    center_t: float
    lam: float
    mode: str
    grad_mag: float
    entries: tuple[ProfileEntry, ...]
    noise_floor: float


def _count_axis_nodes(radius: float, h: float) -> int:
    return 2 * int(math.floor(radius / h + 1e-12)) + 1


def _realized_radius(block: RegionBlock) -> float:
    d2 = sum(d**2 for d in block.offsets)
    return float(np.sqrt(np.max(d2[block.mask])))


def _interp_noise_floor(u: GridFunction, cyl: Cylinder) -> float:
    """10x the second-difference interpolation error scale on the smallest cylinder."""
    blk = cyl.as_region().block(u.grid, interior=True)
    # an interior box has its whole one-node halo on the grid
    halo = u.values[(blk.times,) + tuple(slice(b.start - 1, b.stop + 1) for b in blk.box)]
    inner = (slice(None),) + (slice(1, -1),) * u.grid.n
    v = halo[inner]
    worst = 0.0
    for ax in range(1, u.grid.n + 1):
        up = halo[inner[:ax] + (slice(2, None),) + inner[ax + 1:]]
        dn = halo[inner[:ax] + (slice(None, -2),) + inner[ax + 1:]]
        worst = max(worst, float(masked_abs_max(up - 2 * v + dn, blk.mask)))
    scale = float(masked_abs_max(v, blk.mask))
    # second term keeps pure roundoff (exact constants/affines) unfittable
    return 10.0 * worst / 8.0 + 1e-13 * scale + 1e-300


def check_levels(lam: float, K: int) -> None:
    """Reject a level ratio lambda outside (0, 1/2) or fewer than 4 levels K."""
    if not 0.0 < lam < 0.5:
        raise FieldError("lambda", f"must lie in (0, 1/2), got {lam}")
    if K < 4:
        raise FieldError("K", f"need at least 4 dyadic levels, got {K}")


def oscillation_profile(
    u: GridFunction,
    center,
    lam: float,
    K: int,
    params: ProblemParams,
    mode: str = "plain",
) -> OscillationProfile:
    """Sup oscillation over the corrected dyadic cylinders k = 1..K.

    mode "plain" measures |u - u(center)|; mode "affine" subtracts the
    tangent plane u(center) + grad u(center) . (x - x0).
    """
    check_levels(lam, K)
    if mode not in ("plain", "affine"):
        raise ValueError(f"unknown mode {mode!r}")
    grid = u.grid
    x0 = np.atleast_1d(np.asarray(center[0], dtype=float))
    t0 = float(center[1])
    value, grad = _center_point(u, x0, t0)
    gmag = float(np.sqrt(np.sum(grad * grad)))
    cylinders = [corrected_cylinder((x0, t0), lam, k, params, gmag) for k in range(1, K + 1)]

    smallest = cylinders[-1]
    if _count_axis_nodes(smallest.rho, grid.h) < MIN_NODES_PER_AXIS:
        raise UnresolvableCylinderError(
            f"smallest cylinder radius {smallest.rho:.3e} holds fewer than "
            f"{MIN_NODES_PER_AXIS} nodes per spatial axis at h = {grid.h:.3e}"
        )
    if smallest.depth / grid.dt + 1 < MIN_NODES_PER_AXIS:
        raise UnresolvableCylinderError(
            f"smallest cylinder depth {smallest.depth:.3e} holds fewer than "
            f"{MIN_NODES_PER_AXIS} time slices at dt = {grid.dt:.3e}"
        )
    largest = cylinders[0]
    if np.any(np.abs(x0) + largest.rho > grid.extent + 1e-12) or (
        t0 - largest.depth < grid.t_start - grid.dt / 2
    ):
        raise ValueError(
            "center too close to the parabolic boundary for the largest cylinder"
        )

    affine_part = (value, grad) if mode == "affine" else None
    entries = []
    for cyl in cylinders:
        region = cyl.as_region()
        s_k = sup_oscillation(u, region, ((tuple(x0)), t0), affine_part=affine_part)
        blk, _ = _time_extremes(u, region, x0, t0)  # the memo entry sup_oscillation left
        entries.append(
            ProfileEntry(
                k=cyl.k,
                rho=cyl.rho,
                rho_eff=_realized_radius(blk),
                theta_eff=cyl.theta_eff,
                depth=cyl.depth,
                sup_osc=s_k,
            )
        )
    return OscillationProfile(
        center_x=tuple(float(v) for v in x0),
        center_t=t0,
        lam=lam,
        mode=mode,
        grad_mag=gmag,
        entries=tuple(entries),
        noise_floor=_at_center(u, x0, t0, ("noise floor", _region_key(smallest.as_region())),
                               lambda: _interp_noise_floor(u, smallest)),
    )


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    logM: float
    residual: float
    k_range: tuple[int, int]


def fit_exponent(profile: OscillationProfile) -> ExponentFit | None:
    """Least-squares growth exponent of log S_k against the log of the
    realized radius rho_eff of each level.

    Entries at or below the noise floor are dropped; None is returned when
    fewer than 3 usable levels remain (constants and exactly affine fields
    are unfittable by design).
    """
    usable = [e for e in profile.entries if e.sup_osc > profile.noise_floor]
    if len(usable) < 3:
        return None
    xs = np.log([e.rho_eff for e in usable])
    ys = np.log([e.sup_osc for e in usable])
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    slope, logm = float(coef[0]), float(coef[1])
    resid = float(np.max(np.abs(ys - (slope * xs + logm))))
    return ExponentFit(
        slope=slope,
        logM=logm,
        residual=resid,
        k_range=(usable[0].k, usable[-1].k),
    )


def dyadic_bound_sequence(lam: float, k: int, alpha: float, grad_mag: float) -> float:
    """Closed form lambda^(k(1+alpha)) + g lambda^k (1-lambda^(k alpha))/(1-lambda^alpha)."""
    geo = (1.0 - lam ** (k * alpha)) / (1.0 - lam**alpha)
    return lam ** (k * (1.0 + alpha)) + grad_mag * lam**k * geo


@dataclass(frozen=True)
class DyadicEntry:
    k: int
    rho: float
    sup_osc: float
    thm_bound: float
    ratio: float


@dataclass(frozen=True)
class DyadicReport:
    alpha: float
    grad_mag: float
    entries: tuple[DyadicEntry, ...]
    fitted_M: float
    passes: bool


def check_dyadic_bound(profile: OscillationProfile, params: ProblemParams) -> DyadicReport:
    """Measured oscillations against M rho^(1+alpha) (1 + g rho^-alpha).

    The fitted constant is the max of the per-level ratios; the check
    passes when that single constant is finite (it covers every level by
    construction, so the content is finiteness and the reported sizes).
    """
    if profile.mode != "plain":
        raise ValueError("dyadic bound check needs a plain-mode profile")
    alpha = sharp_exponents(params).alpha
    g = profile.grad_mag
    entries = []
    fitted = 0.0
    for e in profile.entries:
        thm = e.rho ** (1.0 + alpha) * (1.0 + g * e.rho ** (-alpha))
        ratio = e.sup_osc / thm
        fitted = max(fitted, ratio)
        entries.append(
            DyadicEntry(k=e.k, rho=e.rho, sup_osc=e.sup_osc, thm_bound=thm, ratio=ratio)
        )
    return DyadicReport(
        alpha=alpha,
        grad_mag=g,
        entries=tuple(entries),
        fitted_M=fitted,
        passes=bool(np.isfinite(fitted)),
    )


@dataclass(frozen=True)
class PointwiseReport:
    center_x: tuple[float, ...]
    center_t: float
    alpha: float
    critical: bool
    grad_mag: float
    tau: float | None
    M: float
    slope: float | None
    slope_target: float
    passes: bool
    notes: str
    profile: OscillationProfile
    rescaled_fit: ExponentFit | None = None

    @property
    def vacuous(self) -> bool:
        """passes rests on no fit: every level sat under the noise floor, or
        the rescaled levels were unresolvable or unfittable."""
        return self.slope is None


def check_pointwise_c1alpha(
    u: GridFunction,
    center,
    params: ProblemParams,
    lam: float,
    K: int,
    slope_tol: float = 0.1,
) -> PointwiseReport:
    """Pointwise growth check at a center, inside or outside the critical zone.

    Critical centers (|grad u| <= lambda^alpha) are probed directly in
    affine mode: a finite M with sup_osc_k <= M rho_k^(1+alpha) is fitted
    and the measured slope must not undershoot 1 + alpha by more than
    slope_tol (overshoot means extra smoothness and passes; the predicted
    exponent is a one-sided guarantee).

    Non-critical centers require p >= 2. Levels with rho_k >= tau are
    covered by the plain-mode bound carrying the factor
    (1 + |grad u| tau^-alpha); levels below tau are probed on the
    gradient-rescaled field, which is uniformly parabolic there.
    """
    exps = sharp_exponents(params)
    alpha = exps.alpha
    grid = u.grid
    x0 = np.atleast_1d(np.asarray(center[0], dtype=float))
    t0 = float(center[1])
    _, grad = _center_point(u, x0, t0)
    gmag = float(np.sqrt(np.sum(grad * grad)))
    critical = gmag <= lam**alpha
    target = 1.0 + alpha - slope_tol

    if critical:
        tau = None
        prof = oscillation_profile(u, center, lam, K, params, mode="affine")
        fit = fit_exponent(prof)
        m = max((e.sup_osc / e.rho ** (1.0 + alpha) for e in prof.entries), default=0.0)
        notes = "critical center, affine-mode dyadic fit"
    else:
        if params.p < 2.0:
            raise ValueError("outside-zone check requires p >= 2")
        tau = gmag ** (1.0 / alpha)
        prof = oscillation_profile(u, center, lam, K, params, mode="plain")
        # levels with rho_k >= tau: bound with the frozen factor (1 + g tau^-alpha)
        m = 0.0
        for e in prof.entries:
            if e.rho >= tau:
                m = max(m, e.sup_osc / (e.rho ** (1.0 + alpha) * (1.0 + gmag * tau ** (-alpha))))
        v = rescale_outside(u, (x0, t0), params).v
        fit = None
        notes = "non-critical center, gradient-scale split"
        try:
            vprof = oscillation_profile(v, (np.zeros(grid.n), 0.0), lam, K, params, mode="affine")
            fit = fit_exponent(vprof)
        except UnresolvableCylinderError:
            notes += "; rescaled levels unresolvable at this grid"
    return PointwiseReport(
        center_x=tuple(float(v) for v in x0),
        center_t=t0,
        alpha=alpha,
        critical=critical,
        grad_mag=gmag,
        tau=tau,
        M=m,
        slope=fit.slope if fit else None,
        slope_target=target,
        passes=bool(fit is None or fit.slope >= target),
        notes=notes,
        profile=prof,
        rescaled_fit=None if critical else fit,
    )


def p_caloric_proximity(
    grid: SpaceTimeGrid,
    config: SolveConfig,
    source: SourceSpec,
    initial: np.ndarray,
) -> tuple[float, float]:
    """Distance from the forced solution to its source-free twin.

    Solves once with the given source and once with zero source, identical
    initial and Dirichlet data; the zero-source solve is a valid
    homogeneous comparison profile, so the returned sup distances of values
    and gradients over the inner half-cylinder are existence witnesses of a
    nearby source-free flow.
    """
    u = solve(grid, config, source, initial)
    phi = solve(grid, config, SourceSpec(kind="zero", q=source.q, r=source.r), initial)
    half = Region(
        center=(0.0,) * grid.n,
        radius=grid.extent / 2.0,
        t_start=grid.t_end - (grid.t_end - grid.t_start) / 4.0,
        t_end=grid.t_end,
    )
    blk = half.block(grid)
    v_dist = float(masked_abs_max(u.values[blk.index] - phi.values[blk.index], blk.mask))
    inner = half.block(grid, interior=True)
    gd = np.sqrt(np.sum((u.gradient_on(inner.index) - phi.gradient_on(inner.index)) ** 2, axis=0))
    g_dist = float(np.max(gd, where=inner.mask, initial=0.0))
    return v_dist, g_dist
