"""Uniform space-time grids, discrete calculus and anisotropic norms.

Grids are node-centered Cartesian boxes [-extent, extent]^n crossed with a
uniform time axis. Quadrature is midpoint in space (node weight h^n, with
exact cell-overlap corrections at region boundaries where that is cheap)
and trapezoid in time. Interpolation is multilinear in space-time and
numpy-only: a point query weights the 2^(n+1) nodes of its cell, and a
bulk resampling onto a tensor-product grid (see `locate_on_axis`)
interpolates along one axis at a time. Region reductions read a region's
nodes as one cropped (time, box) block (`Region.block`) and reduce it over
axes; every region integral takes its weights from `Region.quadrature`.
Grid functions are immutable after construction, and every operation here
is pure in its results. A grid function holds two pieces of private state,
and both change only how often something is computed (see `GridFunction`):
a memo of what the probe computes at its most recent center (the cylinder
blocks `sup_oscillation` reduced, the point value and gradient, and the
noise floor), and a table of per-node max and min over aligned blocks of
`_TIME_BLOCK` time slices, from which a reduction over a long time range
takes its whole blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .exponents import FieldError

_ALIGN_TOL = 1e-9
_TIME_BLOCK = 64  # slices per block of a grid function's block-extremes table


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform grid on [-extent, extent]^n x (t_start, t_end].

    Nodes sit at integer multiples of h per spatial axis (boundary included)
    and at t_start + j*dt in time, with the initial slice stored and the
    last one at t_end exactly. Node counts must be at least 3 per axis.
    """

    n: int
    extent: float
    h: float
    dt: float
    t_start: float
    t_end: float

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise FieldError("n", f"a grid's dimension must be 1, 2 or 3, got {self.n}")
        for name in ("extent", "h", "dt", "t_start", "t_end"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise FieldError(name, f"must be finite, got {val}")
            if val <= 0 and name in ("extent", "h", "dt"):
                raise FieldError(name, f"must be positive, got {val}")
        nx = 2.0 * self.extent / self.h
        if not math.isfinite(nx) or abs(nx - round(nx)) > _ALIGN_TOL * max(1.0, nx):
            raise FieldError("h", f"2*extent/h = {nx} is not an integer")
        if round(nx) + 1 < 3:
            raise FieldError("h", f"2*extent/h = {nx} gives fewer than 3 nodes per spatial axis")
        span = (self.t_end - self.t_start) / self.dt
        if not math.isfinite(span) or abs(span - round(span)) > _ALIGN_TOL * max(1.0, span):
            raise FieldError("t_end", f"(t_end - t_start)/dt = {span} is not an integer")
        if round(span) + 1 < 3:
            raise FieldError("t_end", f"(t_end - t_start)/dt = {span} gives fewer than 3 time slices")

    @property
    def nodes_per_axis(self) -> int:
        return int(round(2.0 * self.extent / self.h)) + 1

    @property
    def num_times(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt)) + 1

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return (self.nodes_per_axis,) * self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.num_times,) + self.spatial_shape

    def axis_nodes(self) -> np.ndarray:
        return -self.extent + self.h * np.arange(self.nodes_per_axis)

    def times(self) -> np.ndarray:
        """t_start + j*dt, with the last node exactly t_end (the product can
        fall an ulp short of it)."""
        ts = self.t_start + self.dt * np.arange(self.num_times)
        ts[-1] = self.t_end
        return ts

    def spatial_axes(self) -> tuple[np.ndarray, ...]:
        return (self.axis_nodes(),) * self.n

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*self.spatial_axes(), indexing="ij")


class GridFunction:
    """Scalar field sampled on every node of a SpaceTimeGrid.

    values has shape (num_times, nodes, ...) and is frozen on construction;
    all entries must be finite. The constructor copies values, so the
    caller's array stays its own. Point queries are multilinear in
    space-time and read only the 2^(n+1) nodes of the cell around the
    point; the gradient at those nodes follows gradient_on. Neither is
    cached.

    A private memo holds what the probe computes at the most recent center
    (see `_at_center`): the region blocks `sup_oscillation` has reduced,
    each with its masked per-node max and min over time, the center's point
    value and gradient, and the noise floor of the smallest cylinder. So
    the plain and affine profiles of one center, its pointwise check and
    its gradient-scale rescaling compute each of these once. A call at
    another center replaces the memo whole, which bounds it to one center.
    Since values never change after construction, a stored result stays
    exact. The memo is one immutable (center, entries) pair, replaced and
    never edited, so concurrent profiles of different centers on one field
    stay correct and can only lose the sharing.

    A second private slot holds the field's block-extremes table (see
    `_block_table`): the per-node max and min over each aligned block of
    `_TIME_BLOCK` slices, built on the first time reduction that spans at
    least two whole blocks and kept for the field's life. It holds at most
    2/64 of the field's bytes. Such a reduction takes the max and min of its
    whole blocks from the table and reduces only the slices of its partial
    first and last blocks; max and min are exact, so the result is the
    direct reduction's. Like the memo it is read-only and published
    with one store, so concurrent builders can only repeat the work.
    """

    __slots__ = ("grid", "values", "_memo", "_blocks")

    def __init__(self, grid: SpaceTimeGrid, values: np.ndarray):
        self._freeze(grid, np.array(values, dtype=float, order="C"))

    @classmethod
    def _adopt(cls, grid: SpaceTimeGrid, values: np.ndarray) -> "GridFunction":
        """A grid function over values itself, frozen without the constructor's
        copy: for the owner of a fresh array that nothing else writes to."""
        u = cls.__new__(cls)
        u._freeze(grid, np.ascontiguousarray(values, dtype=float))
        return u

    def _freeze(self, grid: SpaceTimeGrid, values: np.ndarray) -> None:
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        # max and min reach any infinity and carry any NaN, with no
        # field-sized boolean temporary
        if not (np.isfinite(values.max()) and np.isfinite(values.min())):
            raise ValueError("grid function values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_memo", (None, {}))
        object.__setattr__(self, "_blocks", None)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    @classmethod
    def from_callable(cls, grid: SpaceTimeGrid, fn) -> "GridFunction":
        """Sample fn(*xmesh, t) on every slice."""
        mesh = grid.meshgrid()
        vals = np.empty(grid.shape)
        for j, t in enumerate(grid.times()):
            vals[j] = fn(*mesh, t)
        return cls._adopt(grid, vals)

    def _cell(self, x, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Node indices (n+1, 2^(n+1)) and multilinear weights of the
        space-time cell holding (t, x); rejects points off the grid."""
        pt = np.concatenate([[t], np.atleast_1d(np.asarray(x, dtype=float))])
        if pt.size != self.grid.n + 1:
            raise ValueError(f"expected {self.grid.n} coordinates, got {pt.size - 1}")
        axes = (self.grid.times(),) + self.grid.spatial_axes()
        lower, frac = map(np.array, zip(*(locate_on_axis(ax, c) for ax, c in zip(axes, pt))))
        corners = np.array(list(itertools.product((0, 1), repeat=pt.size))).T
        weights = np.prod(np.where(corners == 1, frac[:, None], 1.0 - frac[:, None]), axis=0)
        return lower[:, None] + corners, weights

    def value_at(self, x, t: float) -> float:
        idx, weights = self._cell(x, t)
        return float(weights @ self.values[tuple(idx)])

    def gradient_on(self, index: tuple) -> np.ndarray:
        """Spatial gradient at values[index] (a time index or slice, then a node
        slice per axis), shape (n,) + its shape. np.gradient runs on the box plus
        a one-node halo clipped at the domain, so each node gets exactly its
        whole-slice np.gradient value.
        """
        t, *box = index
        n = self.grid.n
        out = np.zeros((n,) + self.values[index].shape)
        if out.size:
            halo = tuple(slice(max(b.start - 1, 0), b.stop + 1) for b in box)
            vals = self.values[(t,) + halo]
            trim = (Ellipsis,) + tuple(slice(b.start - a.start, b.stop - a.start) for b, a in zip(box, halo))
            for ax in range(n):  # one axis at a time: one halo-sized temporary
                out[ax] = np.gradient(vals, self.grid.h, axis=vals.ndim - n + ax)[trim]
        return out

    def gradient_at(self, x, t: float) -> np.ndarray:
        """Multilinear interpolation of the node gradients of gradient_on."""
        idx, weights = self._cell(x, t)
        grads = self.gradient_on(tuple(slice(i, i + 2) for i in idx[:, 0]))
        return np.array([weights @ g.ravel() for g in grads])


def locate_on_axis(axis: np.ndarray, coords) -> tuple[np.ndarray, np.ndarray]:
    """Lower node index and fractional offset of coordinates on a node axis.

    A coordinate c lies in the cell [axis[i], axis[i + 1]] with offset
    (c - axis[i]) / (axis[i + 1] - axis[i]); the last cell holds the upper
    edge. Any coordinate off [axis[0], axis[-1]] raises ValueError.
    """
    coords = np.asarray(coords, dtype=float)
    if not np.all((axis[0] <= coords) & (coords <= axis[-1])):
        raise ValueError(f"coordinates reach off the grid axis [{axis[0]}, {axis[-1]}]")
    lower = np.minimum(np.searchsorted(axis, coords, side="right") - 1, axis.size - 2)
    return lower, (coords - axis[lower]) / (axis[lower + 1] - axis[lower])


def _within(dist, width):
    """The membership rule, inclusive with a rounding allowance."""
    return dist <= width * (1.0 + 1e-12) + 1e-15


@dataclass(frozen=True)
class RegionBlock:
    """A region's nodes on one grid as a single (time, box) block.

    times: the region's time slices. box: per axis, the nodes within half a
    cell of the region's extent, so every node of the region and every node
    whose cell meets it (its quadrature weights). mask: the region's nodes
    in the box. offsets[a]: the box's axis-a coordinates minus the center,
    shaped to broadcast over the box. values[block.index] is the block.
    """

    times: slice
    box: tuple[slice, ...]
    mask: np.ndarray
    offsets: tuple[np.ndarray, ...]

    @property
    def index(self) -> tuple[slice, ...]:
        return (self.times,) + self.box


def masked_abs_max(values: np.ndarray, mask: np.ndarray, axis=None):
    """max |values| over a non-empty mask broadcast against values, reduced
    over axis (default all), as max(max, -min): exact, with no |values| temporary.
    """
    hi = np.max(values, axis=axis, where=mask, initial=-np.inf)
    lo = np.min(values, axis=axis, where=mask, initial=np.inf)
    return np.abs(np.maximum(hi, -lo))


@dataclass(frozen=True)
class Region:
    """Spatial ball or box crossed with a time interval (t_start, t_end].

    For balls set radius; for boxes set half_widths. Node membership in time
    follows the half-open convention t > t_start - dt/2 (so an aligned lower
    endpoint slice is included and boundary flapping is avoided).
    """

    center: tuple[float, ...]
    t_start: float
    t_end: float
    radius: float | None = None
    half_widths: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.radius is None) == (self.half_widths is None):
            raise ValueError("give exactly one of radius, half_widths")
        if self.t_end <= self.t_start:
            raise ValueError("region needs t_end > t_start")

    def _member(self, offsets):
        """Membership of the points at per-axis offsets from the center."""
        if self.radius is not None:
            return _within(np.sqrt(sum(d * d for d in offsets)), self.radius)
        return functools.reduce(np.logical_and, [_within(np.abs(d), w)
                                                 for d, w in zip(offsets, self.half_widths)])

    def _space_block(self, grid: SpaceTimeGrid, interior: bool):
        """(box, mask, offsets) of block, built from the box's axis coordinates."""
        axis = grid.axis_nodes()
        widths = self.half_widths if self.radius is None else (self.radius,) * grid.n
        box, offsets = [], []
        for a, (c, w) in enumerate(zip(self.center, widths)):
            d = axis - c
            near = np.flatnonzero(_within(np.abs(d), w + grid.h / 2))
            lo, hi = (int(near[0]), int(near[-1]) + 1) if near.size else (0, 0)
            if interior:
                lo, hi = max(lo, 1), min(hi, axis.size - 1)
            box.append(slice(lo, max(lo, hi)))
            offsets.append(d[box[-1]].reshape([-1 if k == a else 1 for k in range(grid.n)]))
        return tuple(box), self._member(offsets), tuple(offsets)

    def block(self, grid: SpaceTimeGrid, interior: bool = False) -> RegionBlock:
        """The region's nodes as one (time, box) block; interior=True drops
        the domain's boundary frame, where centered differences do not reach.
        Raises ValueError when the region holds no time slice."""
        idx = self.time_indices(grid)
        return RegionBlock(slice(int(idx[0]), int(idx[-1]) + 1), *self._space_block(grid, interior))

    def space_mask(self, grid: SpaceTimeGrid) -> np.ndarray:
        """Inclusive node membership on the whole grid: block.mask, scattered."""
        box, mask, _ = self._space_block(grid, False)
        out = np.zeros(grid.spatial_shape, dtype=bool)
        out[box] = mask
        return out

    def quadrature(self, grid: SpaceTimeGrid) -> tuple[RegionBlock, np.ndarray, np.ndarray]:
        """(block, tw, sw): the region's block with the weights of every
        region integral, trapezoid in time and cell overlaps in space.

        tw holds the trapezoid weights of block.times, or dt for a single
        slice. sw holds the cell measures clipped to the region on block.box.
        Boxes (any n) and 1D balls use exact per-axis cell overlaps, which
        keeps the composite midpoint rule second order up to the region
        boundary. 2D balls use exact disk-cell overlap areas on the rim;
        3D balls fall back to counting interior nodes.
        """
        h = grid.h
        blk = self.block(grid)
        tw = np.full(blk.times.stop - blk.times.start, grid.dt)
        if tw.size >= 2:
            tw[0] = tw[-1] = grid.dt / 2
        if self.half_widths is not None or grid.n == 1:
            widths = self.half_widths if self.half_widths is not None else (self.radius,)
            axis, axis_w = grid.axis_nodes(), []
            for b, c, w in zip(blk.box, self.center, widths):
                ax = axis[b]
                ov = np.minimum(c + w, ax + h / 2) - np.maximum(c - w, ax - h / 2)
                axis_w.append(np.clip(ov, 0.0, h))
            sw = functools.reduce(np.multiply.outer, axis_w)
        elif grid.n == 2:
            sw = _disk_weights_2d(*blk.offsets, h, self.radius)
        else:  # 3D ball: interior-node counting
            sw = np.where(blk.mask, h**grid.n, 0.0)
        return blk, tw, sw

    def time_indices(self, grid: SpaceTimeGrid) -> np.ndarray:
        ts = grid.times()
        sel = (ts > self.t_start - grid.dt / 2) & (ts <= self.t_end + grid.dt * 1e-9)
        idx = np.nonzero(sel)[0]
        if idx.size == 0:
            raise ValueError("region contains no time slices")
        return idx

    def contains_point(self, x, t: float, grid: SpaceTimeGrid) -> bool:
        if not (self.t_start - grid.dt / 2 < t <= self.t_end + grid.dt * 1e-9):
            return False
        return bool(self._member(np.asarray(x, dtype=float) - np.asarray(self.center)))


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(24)


def _disk_weights_2d(dx: np.ndarray, dy: np.ndarray, h: float, radius: float) -> np.ndarray:
    """Areas of the h-cells at node offsets (dx, dy) from the center inside
    the disk: h^2 well inside, 24-point Gauss-Legendre in x of the chord
    length within each cell on the rim."""
    dx, dy = np.broadcast_arrays(dx, dy)
    rr = np.hypot(dx, dy)
    half_diag = h * 0.70711
    w = np.where(rr <= radius - half_diag, h * h, 0.0)
    rim = (rr > radius - half_diag) & (rr < radius + half_diag)
    cx, cy = dx[rim][:, None], dy[rim][:, None]
    x1, x2 = cx - h / 2, cx + h / 2
    xm = 0.5 * (x1 + x2) + 0.5 * (x2 - x1) * _GAUSS_X
    s = np.sqrt(np.maximum(radius * radius - xm * xm, 0.0))
    ln = np.maximum(np.minimum(cy + h / 2, s) - np.maximum(cy - h / 2, -s), 0.0)
    w[rim] = 0.5 * (x2 - x1)[:, 0] * np.sum(_GAUSS_W * ln, axis=1)
    return w


def full_domain_region(grid: SpaceTimeGrid) -> Region:
    return Region(
        center=(0.0,) * grid.n,
        half_widths=(grid.extent,) * grid.n,
        t_start=grid.t_start,
        t_end=grid.t_end,
    )


def _weighted_norm(values, weights: np.ndarray, s: float) -> float:
    """(sum |values|^s weights)^(1/s), or max |values| for s = inf; values
    is an array or a scalar broadcast against the weights."""
    if np.isinf(s):
        return float(np.max(np.abs(values)))
    return float(np.sum(np.abs(values) ** s * weights) ** (1.0 / s))


def _integral(vals: np.ndarray, tw: np.ndarray, sw: np.ndarray) -> float:
    """The space-time integral of a (time, box) block by the region's
    quadrature weights (Region.quadrature)."""
    return float(tw @ np.sum(vals * sw, axis=tuple(range(1, vals.ndim))))


def anisotropic_norm(f: GridFunction, q: float, r: float, region: Region) -> float:
    """Iterated norm: L^q in space inside, L^r in time outside.

    q = inf or r = inf replace the corresponding integral by a max over
    nodes / slices. The integrals use the region's quadrature weights.
    """
    if q < 1.0 or r < 1.0:
        raise ValueError("q and r must lie in [1, inf]")
    blk, tw, sw = region.quadrature(f.grid)
    space = tuple(range(1, f.grid.n + 1))
    if np.isinf(q):
        if not blk.mask.any():
            raise ValueError("region contains no spatial nodes")
        slice_vals = masked_abs_max(f.values[blk.index], blk.mask, axis=space)
    else:
        if not (sw > 0).any():
            raise ValueError("region contains no spatial nodes")
        vals = np.abs(f.values[blk.index])  # the one block-sized temporary
        vals **= q
        vals *= sw
        slice_vals = np.sum(vals, axis=space) ** (1.0 / q)
    return _weighted_norm(slice_vals, tw, r)


def energy_norm(u: GridFunction, p: float, region: Region) -> float:
    """max-over-slices spatial L2 plus the space-time L^p norm of the gradient."""
    blk, tw, sw = region.quadrature(u.grid)
    if not (sw > 0).any():
        raise ValueError("region contains no spatial nodes")
    space = tuple(range(1, u.grid.n + 1))
    sup_l2 = float(np.max(np.sum(u.values[blk.index] ** 2 * sw, axis=space) ** 0.5))
    g = u.gradient_on(blk.index)
    gmag = np.sqrt(np.sum(g * g, axis=0))
    return sup_l2 + _integral(gmag**p, tw, sw) ** (1.0 / p)


def _at_center(u: GridFunction, x0: np.ndarray, t0: float, key, build):
    """The entry key of u's one-center memo at the center (x0, t0).

    A miss calls build() and stores its result, which must be immutable and
    not None, replacing the memo when the center is new. An exception from
    build is not stored, so a failing call fails again.
    """
    center = (tuple(x0.tolist()), t0)
    memo_center, entries = u._memo  # one load: a concurrent replacement cannot split it
    if memo_center != center:
        entries = {}
    hit = entries.get(key)
    if hit is not None:
        return hit
    result = build()
    object.__setattr__(u, "_memo", (center, {**entries, key: result}))
    return result


def _region_key(region: Region) -> tuple:
    """The region's defining floats, hashable whatever sequences it was given."""
    widths = None if region.half_widths is None else tuple(map(float, region.half_widths))
    return (tuple(map(float, region.center)), region.t_start, region.t_end, region.radius, widths)


def _center_point(u: GridFunction, x0: np.ndarray, t0: float) -> tuple[float, np.ndarray]:
    """(value_at, gradient_at) of u at the center, from its one-center memo;
    the gradient is read-only."""
    def build():
        grad = u.gradient_at(x0, t0)
        grad.setflags(write=False)
        return u.value_at(x0, t0), grad
    return _at_center(u, x0, t0, "point", build)


def _block_table(u: GridFunction) -> np.ndarray:
    """u's block-extremes table, built on first use: shape (2, blocks) plus
    the spatial shape, row 0 the per-node max and row 1 the min over slices
    [b * _TIME_BLOCK, (b + 1) * _TIME_BLOCK) of each whole block b."""
    table = u._blocks  # one load: a concurrent build publishes a whole table
    if table is None:
        blocks = u.grid.num_times // _TIME_BLOCK
        whole = u.values[:blocks * _TIME_BLOCK].reshape(
            (blocks, _TIME_BLOCK) + u.grid.spatial_shape)
        table = np.empty((2, blocks) + u.grid.spatial_shape)
        whole.max(axis=1, out=table[0])
        whole.min(axis=1, out=table[1])
        table.setflags(write=False)
        object.__setattr__(u, "_blocks", table)
    return table


def _time_max_min(u: GridFunction, blk: RegionBlock) -> tuple[np.ndarray, np.ndarray]:
    """Per-node max and min of u over blk.times on blk.box. A range that
    spans at least two whole aligned blocks reads them from u's block table
    and reduces only the slices of its partial first and last blocks."""
    start, stop = blk.times.start, blk.times.stop
    first, last = -(-start // _TIME_BLOCK), stop // _TIME_BLOCK  # whole blocks [first, last)
    if last - first < 2:
        block = u.values[blk.index]
        return block.max(axis=0), block.min(axis=0)
    rows = _block_table(u)[(slice(None), slice(first, last)) + blk.box]
    hi, lo = rows[0].max(axis=0), rows[1].min(axis=0)
    for part in (slice(start, first * _TIME_BLOCK), slice(last * _TIME_BLOCK, stop)):
        if part.start < part.stop:
            block = u.values[(part,) + blk.box]
            np.maximum(hi, block.max(axis=0), out=hi)
            np.minimum(lo, block.min(axis=0), out=lo)
    return hi, lo


def _time_extremes(u: GridFunction, region: Region, x0: np.ndarray,
                   t0: float) -> tuple[RegionBlock, np.ndarray]:
    """(block, extremes): the region's block on u's grid and the stacked
    masked per-node max and min of the block over time, from u's one-center
    memo. A miss checks the center and builds and reduces the block."""
    def build():
        if not region.contains_point(x0, t0, u.grid):
            raise ValueError("center must lie inside the region")
        blk = region.block(u.grid)
        if not blk.mask.any():
            raise ValueError("region contains no spatial nodes")
        # at each node, fl(fl(v - ref) - plane) is monotone in v, so its largest
        # magnitude over time sits at the node's max or min over time: reducing
        # over time first gives the same float as the whole block would
        hi, lo = _time_max_min(u, blk)
        extremes = np.stack([hi[blk.mask], lo[blk.mask]])
        extremes.setflags(write=False)
        return blk, extremes
    return _at_center(u, x0, t0, _region_key(region), build)


def sup_oscillation(
    u: GridFunction,
    region: Region,
    center: tuple,
    affine_part: tuple[float, np.ndarray] | None = None,
) -> float:
    """Sup over region nodes of |u - u(center)|, or of the affine-corrected
    deviation |u - value - grad . (x - x_center)| when affine_part is given.
    """
    grid = u.grid
    x0 = np.asarray(center[0], dtype=float).reshape(-1)
    t0 = float(center[1])
    blk, extremes = _time_extremes(u, region, x0, t0)
    if affine_part is None:
        return float(np.max(np.abs(extremes - _center_point(u, x0, t0)[0])))
    ref, grad_vec = affine_part
    axis = grid.axis_nodes()
    plane = sum(g * (axis[b] - c).reshape(d.shape)
                for g, b, c, d in zip(np.asarray(grad_vec, dtype=float), blk.box, x0, blk.offsets))
    return float(np.max(np.abs(extremes - ref - plane[blk.mask])))


# ---------------------------------------------------------------------------
# singular-cell rules (norm-preserving node values for power-law fields)

def origin_cell_mean_radial_power(n: int, h: float, m: float, subcells: int = 64) -> float:
    """Cell mean of |x|^(-m) over the h-cell centered at the origin.

    Requires m < n (local integrability). Exact in 1D; in 2D/3D the
    inscribed ball is integrated exactly and the corners by a fine midpoint
    rule, so the node can carry a finite value whose cell integral matches
    the true one.
    """
    if m >= n:
        raise ValueError(f"|x|^(-{m}) is not integrable in dimension {n}")
    if m == 0.0:
        return 1.0
    rb = h / 2
    if n == 1:
        return (2.0 * rb ** (1.0 - m) / (1.0 - m)) / h
    surf = 2.0 * np.pi if n == 2 else 4.0 * np.pi
    ball = surf * rb ** (n - m) / (n - m)
    ax = (np.arange(subcells) + 0.5) * h / subcells - h / 2
    mesh = np.meshgrid(*([ax] * n), indexing="ij")
    rr = np.sqrt(sum(a * a for a in mesh))
    corners = float(np.sum(np.where(rr >= rb, rr, 1.0) ** (-m) * (rr >= rb)))
    corners *= (h / subcells) ** n
    return (ball + corners) / h**n


def initial_slice_mean_power(dt: float, m: float) -> float:
    """Mean of t^(-m) over (0, dt/2], the trapezoid cell of the first slice.

    Requires m < 1. Lets a temporally singular field carry a finite value at
    t = 0 whose weighted contribution matches the true integral.
    """
    if m >= 1.0:
        raise ValueError(f"t^(-{m}) is not integrable at t = 0")
    if m == 0.0:
        return 1.0
    half = dt / 2
    return half ** (-m) / (1.0 - m)


# ---------------------------------------------------------------------------
# serialization

_MAGIC = b"PLGF"
_VERSION = 1
_HEADER = struct.Struct("<4si i i d d d d d")


def write_binary(u: GridFunction, path) -> None:
    """Flat little-endian layout: header then node values, row-major space,
    time-major order."""
    g = u.grid
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        g.n,
        g.num_times,
        g.extent,
        g.h,
        g.dt,
        g.t_start,
        g.t_end,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").data)  # no copy on little-endian hosts


def read_binary(path) -> GridFunction:
    """Load a write_binary file; a short, long or inconsistent file raises
    ValueError naming what it expected."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"header needs {_HEADER.size} bytes, file has {len(head)}")
        magic, version, n, nt, extent, h, dt, t_start, t_end = _HEADER.unpack(head)
        if magic != _MAGIC or version != _VERSION:
            raise ValueError("not a grid-function binary file")
        grid = SpaceTimeGrid(n=n, extent=extent, h=h, dt=dt, t_start=t_start, t_end=t_end)
        if nt != grid.num_times:
            raise ValueError(f"header counts {nt} time slices, its grid has {grid.num_times}")
        expected = 8 * math.prod(grid.shape)
        # the size is checked before the read, so a corrupt header that
        # describes a huge grid cannot ask for a huge buffer
        held = os.fstat(fh.fileno()).st_size - _HEADER.size
        if held != expected:
            raise ValueError(f"payload needs {expected} bytes for grid shape {grid.shape}, "
                             f"the file holds {held} after the header")
        # a sized read fills one bytes object; a bare read() would join the
        # buffered rest to it, a second payload-sized copy
        payload = fh.read(expected)
    # the array reads the immutable payload in place
    return GridFunction._adopt(grid, np.frombuffer(payload, dtype="<f8").reshape(grid.shape))

