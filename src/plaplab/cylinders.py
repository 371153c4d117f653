"""Intrinsic space-time cylinders, critical-zone classification, rescaling.

A cylinder is a ball B_rho(x0) crossed with the backward time interval
(t0 - depth, t0]. The depth follows the intrinsic temporal exponent theta
of the flow, deformed by the gradient magnitude at the center; dyadic
families additionally carry the correction factor sigma that shallows the
cylinders in the degenerate range p > 2 so the iteration geometry nests.

The gradient-scale map used away from the critical zone (tau-scaling,
unit gradient at the origin) realizes the rescaled field by multilinear
interpolation, one axis at a time, onto the window of the tau-cylinder
grid that a profile at the origin reads: the nodes within about 1/2 of
the origin in space and 1/4 back in time, at the h and dt of a grid with
the solution's node counts.

Constructors and classifiers here are pure functions over immutable grid
functions; unrestricted concurrency is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grids
from .exponents import ProblemParams, sharp_exponents, theta
from .grids import GridFunction, Region, SpaceTimeGrid, _center_point, locate_on_axis

# no code here calls it: the name stays because perfbench's traced runs wrap
# plaplab.cylinders.anisotropic_norm by name (perfbench/spans.py)
anisotropic_norm = grids.anisotropic_norm

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

    def as_region(self) -> Region:
        return Region(
            center=self.center_x,
            radius=self.rho,
            t_start=self.center_t - self.depth,
            t_end=self.center_t,
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


# An oscillation_profile at the rescaled origin has lambda < 1/2, and its
# level-1 depth lambda^(sigma theta) stays under 1/4 because
# corrected_cylinder raises unless sigma theta >= 2: no level reads a node
# past |y| = 1/2 or a slice before s = -1/4.
_WINDOW_RADIUS = 0.5
_WINDOW_DEPTH = 0.25


@dataclass(frozen=True)
class RescaledProblem:
    """The gradient-scale rescaling v of a solution around a center.

    tau = |grad u|^(1/alpha) is the gradient scale. v lives on the window
    of the tau-cylinder grid that every `oscillation_profile` of v at the
    origin reads: |y| <= 1/2 plus one node and s >= -1/4 minus one slice
    (lambda < 1/2 bounds the radius, sigma theta >= 2 the depth).
    """

    v: GridFunction
    tau: float


def _snap_onto(x, lo: float, hi: float):
    """Move coordinates that overshoot [lo, hi] by a few ulps onto the edge.

    A cylinder clipped by the domain reaches its edge as anchor + scale * y,
    which rounding can leave just outside; anything farther out is left
    alone, so `locate_on_axis` still rejects it.
    """
    tol = 8.0 * np.spacing(max(abs(lo), abs(hi)))
    x = np.where((x < lo) & (x >= lo - tol), lo, x)
    return np.where((x > hi) & (x <= hi + tol), hi, x)


def _window(grid: SpaceTimeGrid) -> tuple[slice, slice, SpaceTimeGrid]:
    """(times, nodes, window): the time and per-axis node slices of a
    tau-cylinder grid that a profile at the origin reads, and the grid on them.

    Per axis the nodes out to the first one at or past |y| = 1/2, plus one;
    in time the slices back to the first one at or before s = -1/4, plus
    one; all of the grid where it is smaller. The window keeps the grid's h
    and dt and its symmetry about the origin.
    """
    cells, steps = grid.nodes_per_axis - 1, grid.num_times - 1
    # node offsets from the origin are multiples of h/2 with the parity of cells
    reach = math.ceil(_WINDOW_RADIUS / (grid.h / 2) - 1e-9)
    cut = max(0, cells - reach - (reach - cells) % 2 - 2) // 2  # nodes dropped at each end
    back = min(steps, math.ceil(_WINDOW_DEPTH / grid.dt - 1e-9) + 1)
    times, nodes = slice(steps - back, None), slice(cut, cells + 1 - cut)
    window = SpaceTimeGrid(n=grid.n, extent=-float(grid.axis_nodes()[cut]), h=grid.h, dt=grid.dt,
                           t_start=float(grid.times()[times.start]), t_end=0.0)
    return times, nodes, window


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
    """amplitude * (u(anchor + scale * y) - offset) on the window of a grid.

    The grid keeps the node counts of u; its coordinates are
    y in [-target_extent, target_extent]^n, s in (-target_depth, 0]. Only
    its `_window` is interpolated, at the grid's own node coordinates.
    """
    g = u.grid
    grid = SpaceTimeGrid(
        n=g.n,
        extent=target_extent,
        h=2.0 * target_extent / (g.nodes_per_axis - 1),
        dt=target_depth / (g.num_times - 1),
        t_start=-target_depth,
        t_end=0.0,
    )
    times, nodes, window = _window(grid)
    # the window is a tensor product, so multilinear interpolation is
    # linear interpolation along time and then along each spatial axis
    targets = [anchor_t + time_scale * grid.times()[times]]
    targets += [anchor_x[a] + space_scale * y[nodes] for a, y in enumerate(grid.spatial_axes())]
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
    return GridFunction._adopt(window, vals)


def rescale_outside(u: GridFunction, center, params: ProblemParams) -> RescaledProblem:
    """Gradient-scale rescaling around a center with |grad u| > 0.

    v(y, s) = (u(x0 + tau y, t0 + tau^gamma s) - u(x0, t0)) / tau^(1+alpha)
    with tau = |grad u(x0, t0)|^(1/alpha), which pins v(0,0) = 0 and
    |grad v(0,0)| = 1 up to interpolation error. The tau-cylinder
    |y| <= ext, -depth <= s <= 0 (ext, depth <= 1, clipped by the domain)
    carries a grid with u's node counts, and v is built on its window
    (`_window`) only: a profile of v at the origin has lambda < 1/2 and a
    depth under 1/4, so it reads nothing else.
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
    return RescaledProblem(v=v, tau=tau)
