"""Intrinsic space-time cylinders, critical-zone classification, rescaling.

A cylinder is a ball B_rho(x0) crossed with the backward time interval
(t0 - depth, t0]. The depth follows the intrinsic temporal exponent theta
of the flow, deformed by the gradient magnitude at the center; dyadic
families additionally carry the correction factor sigma that shallows the
cylinders in the degenerate range p > 2 so the iteration geometry nests.

Two rescaling maps are provided: the sup-normalizing map (mu-scaling, puts
any bounded solution below unit size with a delta-small source) and the
gradient-scale map used away from the critical zone (tau-scaling, unit
gradient at the origin). Both realize the rescaled fields by multilinear
interpolation onto a fresh grid with the same node counts, computed one
axis at a time.

Constructors and classifiers here are pure functions over immutable grid
functions; unrestricted concurrency is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import ProblemParams, kappa_mu, sharp_exponents, theta
from .grids import (
    GridFunction,
    Region,
    SpaceTimeGrid,
    _center_point,
    anisotropic_norm,
    full_domain_region,
    locate_on_axis,
)

_SIGMA_THETA_TOL = 1e-9


@dataclass(frozen=True)
class Cylinder:
    """B_rho(x0) x (t0 - depth, t0] with depth = rho**theta_eff."""

    center_x: tuple[float, ...]
    center_t: float
    rho: float
    theta_eff: float
    depth: float
    theta: float
    sigma: float
    k: int = 1
    corrected: bool = False

    def as_region(self) -> Region:
        return Region(
            center=self.center_x,
            radius=self.rho,
            t_start=self.center_t - self.depth,
            t_end=self.center_t,
        )


def intrinsic_cylinder(center, rho: float, params: ProblemParams, grad_mag: float) -> Cylinder:
    """Uncorrected cylinder of radius rho and depth rho**theta."""
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    th = theta(params, grad_mag, rho)
    x0, t0 = center
    return Cylinder(
        center_x=tuple(np.atleast_1d(np.asarray(x0, dtype=float))),
        center_t=float(t0),
        rho=rho,
        theta_eff=th,
        depth=rho**th,
        theta=th,
        sigma=1.0,
        k=1,
        corrected=False,
    )


def corrected_cylinder(
    center,
    rho: float,
    k: int,
    params: ProblemParams,
    grad_mag: float,
) -> Cylinder:
    """Level-k cylinder of the dyadic family with base ratio rho.

    Ball radius rho**k; depth rho**(theta (sigma + k - 1)), i.e. the level-1
    depth rho**(theta sigma) shrunk by rho**theta per level, which is the
    geometry the oscillation iteration maps onto itself.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if k < 1:
        raise ValueError(f"correction index k must be >= 1, got {k}")
    th = theta(params, grad_mag, rho)
    sigma = sharp_exponents(params).sigma
    if sigma * th < 2.0 - _SIGMA_THETA_TOL:
        raise ArithmeticError(f"sigma*theta = {sigma * th} < 2 on construction")
    exponent_of_base = th * (sigma + k - 1.0)
    radius = rho**k
    x0, t0 = center
    return Cylinder(
        center_x=tuple(np.atleast_1d(np.asarray(x0, dtype=float))),
        center_t=float(t0),
        rho=radius,
        theta_eff=exponent_of_base / k,
        depth=rho**exponent_of_base,
        theta=th,
        sigma=sigma,
        k=k,
        corrected=True,
    )


@dataclass(frozen=True)
class ZoneClassification:
    """Per-node small-gradient flags over a region at one time slice family."""

    mask: np.ndarray
    fraction: float
    node_count: int


def critical_zone(u: GridFunction, rho: float, alpha: float, region: Region) -> ZoneClassification:
    """Flag the nodes of the region where |grad u| <= rho**alpha.

    The mask covers (time, space) nodes of the region with the gradient
    computable (interior in space); the fraction is the flagged share by
    node counting.
    """
    grid = u.grid
    blk = region.block(grid, interior=True)
    g = u.gradient_on(blk.index)
    g *= g
    sel = blk.mask & (np.sqrt(np.sum(g, axis=0)) <= rho**alpha)
    flags = np.zeros((sel.shape[0],) + grid.spatial_shape, dtype=bool)
    flags[(slice(None),) + blk.box] = sel
    total = sel.shape[0] * int(blk.mask.sum())
    fraction = int(sel.sum()) / total if total else 0.0
    return ZoneClassification(mask=flags, fraction=fraction, node_count=total)


@dataclass(frozen=True)
class RescaledProblem:
    """Rescaled solution/source pair with the scale bookkeeping.

    provenance "normalize": mu_or_tau is mu, kappa_or_gamma is the norm
    contraction exponent kappa, and time was scaled by mu**time_exponent
    with time_exponent = 2 s (p - 1).
    provenance "outside_zone": mu_or_tau is the gradient scale
    tau = |grad u|^(1/alpha) and kappa_or_gamma is gamma = 2 + alpha (2 - p).
    """

    v: GridFunction
    g: GridFunction | None
    mu_or_tau: float
    kappa_or_gamma: float
    provenance: str
    time_exponent: float
    certificates: dict = field(default_factory=dict)


def _snap_onto(x, lo: float, hi: float):
    """Move coordinates that overshoot [lo, hi] by a few ulps onto the edge.

    A cylinder clipped by the domain reaches its edge as anchor + scale * y,
    which rounding can leave just outside; anything farther out is left
    alone, so `locate_on_axis` still rejects it.
    """
    tol = 8.0 * np.spacing(max(abs(lo), abs(hi)))
    x = np.where((x < lo) & (x >= lo - tol), lo, x)
    return np.where((x > hi) & (x <= hi + tol), hi, x)


def _resample(
    u: GridFunction,
    anchor_x: np.ndarray,
    anchor_t: float,
    space_scale: float,
    time_scale: float,
    amplitude: float,
    offset: float,
    target_extent: float,
    target_depth: float,
) -> GridFunction:
    """amplitude * (u(anchor + scale * y) - offset) on a fresh grid.

    The fresh grid keeps the node counts of u; its coordinates are
    y in [-target_extent, target_extent]^n, s in (-target_depth, 0].
    """
    g = u.grid
    nodes = g.nodes_per_axis - 1
    steps = g.num_times - 1
    new_grid = SpaceTimeGrid(
        n=g.n,
        extent=target_extent,
        h=2.0 * target_extent / nodes,
        dt=target_depth / steps,
        t_start=-target_depth,
        t_end=0.0,
    )
    # the target grid is a tensor product, so multilinear interpolation is
    # linear interpolation along time and then along each spatial axis
    targets = [anchor_t + time_scale * new_grid.times()]
    targets += [anchor_x[a] + space_scale * y for a, y in enumerate(new_grid.spatial_axes())]
    vals = u.values
    for a, (src, coords) in enumerate(zip((g.times(),) + g.spatial_axes(), targets)):
        lower, frac = locate_on_axis(src, _snap_onto(coords, src[0], src[-1]))
        frac = frac.reshape((-1,) + (1,) * (g.n - a))
        upper = np.take(vals, lower + 1, axis=a)
        upper *= frac
        vals = np.take(vals, lower, axis=a)
        vals *= 1.0 - frac
        vals += upper
    vals -= offset  # the float operations of amplitude * (vals - offset), in place
    vals *= amplitude
    return GridFunction._adopt(new_grid, vals)


def rescale_normalize(
    u: GridFunction,
    f: GridFunction,
    params: ProblemParams,
    s: float,
    delta: float,
    mu: float,
) -> RescaledProblem:
    """Sup-normalizing rescaling v(y, s) = mu^s u(mu^s y, mu^(2s(p-1)) s).

    For mu below the admissible ceiling the rescaled solution has sup at
    most 1 and the rescaled source g = mu^((2p-1)s) f(mu^s y, mu^(2s(p-1)) s)
    has L^(q,r) norm at most delta; both are measured and returned as
    certificates.
    """
    if f.grid != u.grid:
        raise ValueError("u and f must share a grid")
    grid = u.grid
    sup_u = float(np.max(np.abs(u.values)))
    f_norm = anisotropic_norm(f, params.q, params.r, full_domain_region(grid))
    kappa, mu_max = kappa_mu(params, s, delta, sup_u, f_norm)
    if not (0.0 < mu <= mu_max):
        raise ValueError(f"mu = {mu} outside (0, mu_max = {mu_max:.6g}]")
    tau_time = 2.0 * s * (params.p - 1.0)
    anchor_x = np.zeros(grid.n)
    anchor_t = grid.t_end
    spatial_cover = grid.extent / mu**s
    time_cover = (grid.t_end - grid.t_start) / mu**tau_time
    ext = min(1.0, spatial_cover)
    depth = min(1.0, time_cover)
    v = _resample(u, anchor_x, anchor_t, mu**s, mu**tau_time, mu**s, 0.0, ext, depth)
    g = _resample(
        f, anchor_x, anchor_t, mu**s, mu**tau_time, mu ** ((2.0 * params.p - 1.0) * s), 0.0, ext, depth
    )
    certificates = {
        "sup_v": float(np.max(np.abs(v.values))),
        "g_norm_qr": anisotropic_norm(g, params.q, params.r, full_domain_region(g.grid)),
        "delta": delta,
        "mu_max": mu_max,
        "kappa_bound": mu**kappa * f_norm,
    }
    return RescaledProblem(
        v=v,
        g=g,
        mu_or_tau=mu,
        kappa_or_gamma=kappa,
        provenance="normalize",
        time_exponent=tau_time,
        certificates=certificates,
    )


def rescale_outside(
    u: GridFunction,
    center,
    params: ProblemParams,
    f: GridFunction | None = None,
) -> RescaledProblem:
    """Gradient-scale rescaling around a center with |grad u| > 0.

    v(y, s) = (u(x0 + tau y, t0 + tau^gamma s) - u(x0, t0)) / tau^(1+alpha)
    with tau = |grad u(x0, t0)|^(1/alpha), which pins v(0,0) = 0 and
    |grad v(0,0)| = 1 up to interpolation error. The rescaled source picks
    up the factor tau^(1 - alpha(p-1)); its integrability exponent
    1 - alpha(p-1) - (n/q + gamma/r) is nonnegative for admissible
    parameters and returned in the certificates.
    """
    grid = u.grid
    x0 = np.atleast_1d(np.asarray(center[0], dtype=float))
    t0 = float(center[1])
    exps = sharp_exponents(params)
    alpha, gamma = exps.alpha, exps.gamma
    u0, grad = _center_point(u, x0, t0)
    gmag = float(np.sqrt(np.sum(grad * grad)))
    if gmag <= 0.0:
        raise ValueError("center has zero gradient; the gradient-scale map is undefined")
    tau = gmag ** (1.0 / alpha)
    if tau < 4.0 * grid.h or tau**gamma < 4.0 * grid.dt:
        raise ValueError(
            f"center is effectively in the critical zone: gradient scale tau = {tau:.3e} "
            f"resolves to under 4 grid cells (h = {grid.h:.3e}, dt = {grid.dt:.3e})"
        )
    room_x = float(np.min(grid.extent - np.abs(x0)))
    room_t = t0 - grid.t_start
    ext = min(1.0, room_x / tau)
    depth = min(1.0, room_t / tau**gamma)
    if ext <= 0.0 or depth <= 0.0:
        raise ValueError("tau-cylinder does not fit inside the solution domain")
    v = _resample(u, x0, t0, tau, tau**gamma, tau ** (-(1.0 + alpha)), u0, ext, depth)
    g = None
    if f is not None:
        if f.grid != grid:
            raise ValueError("u and f must share a grid")
        g = _resample(f, x0, t0, tau, tau**gamma, tau ** (1.0 - alpha * (params.p - 1.0)), 0.0, ext, depth)
    source_exponent = (
        1.0
        - alpha * (params.p - 1.0)
        - (params.n * (0.0 if math.isinf(params.q) else 1.0 / params.q)
           + gamma * (0.0 if math.isinf(params.r) else 1.0 / params.r))
    )
    # from v's memo, where a profile of v at the origin finds them
    v_at_origin, grad_v = _center_point(v, np.zeros(grid.n), 0.0)
    certificates = {
        "v_at_origin": v_at_origin,
        "grad_v_at_origin": float(np.sqrt(np.sum(grad_v * grad_v))),
        "source_exponent": source_exponent,
    }
    return RescaledProblem(
        v=v,
        g=g,
        mu_or_tau=tau,
        kappa_or_gamma=gamma,
        provenance="outside_zone",
        time_exponent=gamma,
        certificates=certificates,
    )
