"""Uniform space-time grids, discrete calculus and anisotropic norms.

Grids are node-centered Cartesian boxes [-extent, extent]^n crossed with a
uniform time axis. Quadrature is midpoint in space (node weight h^n, with
exact cell-overlap corrections at region boundaries where that is cheap)
and trapezoid in time. Interpolation is multilinear in space-time and
numpy-only: a point query weights the 2^(n+1) nodes of its cell, and a
bulk resampling onto a tensor-product grid (see `locate_on_axis`)
interpolates along one axis at a time. Region reductions read a region's
nodes as one cropped (time, box) block (`Region.block`) and reduce it over
axes. Grid functions are immutable after construction; every operation
here is pure.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass

import numpy as np

_ALIGN_TOL = 1e-9


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
            raise ValueError(f"spatial dimension must be 1, 2 or 3, got {self.n}")
        if self.h <= 0 or self.dt <= 0 or self.extent <= 0:
            raise ValueError("extent, h and dt must be positive")
        nx = 2.0 * self.extent / self.h
        if abs(nx - round(nx)) > _ALIGN_TOL * max(1.0, nx):
            raise ValueError(f"2*extent/h = {nx} is not an integer")
        if round(nx) + 1 < 3:
            raise ValueError("need at least 3 nodes per spatial axis")
        span = (self.t_end - self.t_start) / self.dt
        if abs(span - round(span)) > _ALIGN_TOL * max(1.0, span):
            raise ValueError(f"(t_end - t_start)/dt = {span} is not an integer")
        if round(span) + 1 < 3:
            raise ValueError("need at least 3 time slices")

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

    def space_index(self, x: tuple[float, ...] | np.ndarray) -> tuple[int, ...]:
        """Multi-index of the nearest spatial node."""
        idx = []
        for xi in np.atleast_1d(np.asarray(x, dtype=float)):
            i = int(round((xi + self.extent) / self.h))
            if i < 0 or i >= self.nodes_per_axis:
                raise ValueError(f"coordinate {xi} outside grid")
            idx.append(i)
        if len(idx) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(idx)}")
        return tuple(idx)


class GridFunction:
    """Scalar field sampled on every node of a SpaceTimeGrid.

    values has shape (num_times, nodes, ...) and is frozen on construction;
    all entries must be finite. Point queries are multilinear in space-time
    and read only the 2^(n+1) nodes of the cell around the point; the
    gradient at those nodes follows gradient_slice.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: SpaceTimeGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    @classmethod
    def from_callable(cls, grid: SpaceTimeGrid, fn) -> "GridFunction":
        """Sample fn(*xmesh, t) on every slice."""
        mesh = grid.meshgrid()
        vals = np.empty(grid.shape)
        for j, t in enumerate(grid.times()):
            vals[j] = fn(*mesh, t)
        return cls(grid, vals)

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

    def gradient_slice(self, it: int) -> np.ndarray:
        """Spatial gradient of slice it, shape (n, nodes, ...).

        Central differences at interior nodes, one-sided at the boundary
        (boundary columns exist for convenience; interior queries should be
        used for anything quantitative).
        """
        return self.gradient_on((it,) + (slice(0, self.grid.nodes_per_axis),) * self.grid.n)

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

    def gradient_at_node(self, ix: tuple[int, ...], it: int) -> np.ndarray:
        """Central-difference gradient at an interior node."""
        for axis, i in enumerate(ix):
            if i <= 0 or i >= self.grid.nodes_per_axis - 1:
                raise ValueError(f"node index {ix} touches the boundary on axis {axis}")
        return self.gradient_on((it,) + tuple(slice(i, i + 1) for i in ix)).reshape(self.grid.n)

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

    def space_weights(self, grid: SpaceTimeGrid) -> np.ndarray:
        """Quadrature weights (cell measures clipped to the region), zero off the block's box.

        Boxes (any n) and 1D balls use exact per-axis cell overlaps, which
        keeps the composite midpoint rule second order up to the region
        boundary. 2D balls use exact disk-cell overlap areas on the rim;
        3D balls fall back to counting interior nodes.
        """
        h = grid.h
        box, mask, offsets = self._space_block(grid, False)
        if self.half_widths is not None or grid.n == 1:
            widths = self.half_widths if self.half_widths is not None else (self.radius,)
            axis, axis_w = grid.axis_nodes(), []
            for b, c, w in zip(box, self.center, widths):
                ax = axis[b]
                ov = np.minimum(c + w, ax + h / 2) - np.maximum(c - w, ax - h / 2)
                axis_w.append(np.clip(ov, 0.0, h))
            weights = functools.reduce(np.multiply.outer, axis_w)
        elif grid.n == 2:
            weights = _disk_weights_2d(*offsets, h, self.radius)
        else:  # 3D ball: interior-node counting
            weights = np.where(mask, h**grid.n, 0.0)
        out = np.zeros(grid.spatial_shape)
        out[box] = weights
        return out

    def time_indices(self, grid: SpaceTimeGrid) -> np.ndarray:
        ts = grid.times()
        sel = (ts > self.t_start - grid.dt / 2) & (ts <= self.t_end + grid.dt * 1e-9)
        idx = np.nonzero(sel)[0]
        if idx.size == 0:
            raise ValueError("region contains no time slices")
        return idx

    def time_weights(self, grid: SpaceTimeGrid) -> tuple[np.ndarray, np.ndarray]:
        """(slice indices, trapezoid weights). Single-slice regions get weight dt."""
        idx = self.time_indices(grid)
        w = np.full(idx.size, grid.dt)
        if idx.size >= 2:
            w[0] = grid.dt / 2
            w[-1] = grid.dt / 2
        return idx, w

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


def anisotropic_norm(f: GridFunction, q: float, r: float, region: Region) -> float:
    """Iterated norm: L^q in space inside, L^r in time outside.

    q = inf or r = inf replace the corresponding integral by a max over
    nodes / slices. Spatial integrals use the region's quadrature weights,
    temporal ones the trapezoid rule over the included slices.
    """
    if q < 1.0 or r < 1.0:
        raise ValueError("q and r must lie in [1, inf]")
    grid = f.grid
    blk = region.block(grid)
    _, tw = region.time_weights(grid)
    space = tuple(range(1, grid.n + 1))
    if np.isinf(q):
        if not blk.mask.any():
            raise ValueError("region contains no spatial nodes")
        slice_vals = masked_abs_max(f.values[blk.index], blk.mask, axis=space)
    else:
        sw = region.space_weights(grid)[blk.box]
        if not (sw > 0).any():
            raise ValueError("region contains no spatial nodes")
        vals = np.abs(f.values[blk.index])  # the one block-sized temporary
        vals **= q
        vals *= sw
        slice_vals = np.sum(vals, axis=space) ** (1.0 / q)
    if np.isinf(r):
        return float(np.max(slice_vals))
    return float(np.sum(slice_vals**r * tw) ** (1.0 / r))


def steklov_average(u: GridFunction, window: float) -> GridFunction:
    """Sliding forward-in-time mean over `window`, zero past t_end - window.

    window must be a positive multiple of dt and smaller than the time
    extent. The average uses the trapezoid rule, so linear-in-time fields
    average exactly.
    """
    grid = u.grid
    k = window / grid.dt
    if abs(k - round(k)) > _ALIGN_TOL * max(1.0, k) or round(k) < 1:
        raise ValueError(f"window must be a positive multiple of dt, got {window}")
    k = int(round(k))
    if k >= grid.num_times:
        raise ValueError("window exceeds the grid time extent")
    out = np.zeros_like(u.values)
    tw = np.full(k + 1, grid.dt)
    tw[0] = tw[-1] = grid.dt / 2
    for j in range(grid.num_times - k):
        out[j] = np.tensordot(tw, u.values[j : j + k + 1], axes=(0, 0)) / window
    return GridFunction(grid, out)


def energy_norm(u: GridFunction, p: float, region: Region) -> float:
    """max-over-slices spatial L2 plus the space-time L^p norm of the gradient."""
    grid = u.grid
    blk = region.block(grid)
    _, tw = region.time_weights(grid)
    sw = region.space_weights(grid)[blk.box]
    if not (sw > 0).any():
        raise ValueError("region contains no spatial nodes")
    space = tuple(range(1, grid.n + 1))
    sup_l2 = float(np.max(np.sum(u.values[blk.index] ** 2 * sw, axis=space) ** 0.5))
    g = u.gradient_on(blk.index)
    gmag = np.sqrt(np.sum(g * g, axis=0))
    return sup_l2 + float(tw @ np.sum(gmag**p * sw, axis=space)) ** (1.0 / p)


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
    if not region.contains_point(x0, t0, grid):
        raise ValueError("center must lie inside the region")
    blk = region.block(grid)
    if not blk.mask.any():
        raise ValueError("region contains no spatial nodes")
    block = u.values[blk.index]
    # at each node, fl(fl(v - ref) - plane) is monotone in v, so its largest
    # magnitude over time sits at the node's max or min over time: reducing
    # over time first gives the same float as the whole block would
    extremes = np.stack([block.max(axis=0)[blk.mask], block.min(axis=0)[blk.mask]])
    if affine_part is None:
        return float(np.max(np.abs(extremes - u.value_at(x0, t0))))
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
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


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
        payload = fh.read()
    expected = 8 * int(np.prod(grid.shape))
    if len(payload) != expected:
        raise ValueError(f"payload needs {expected} bytes for grid shape {grid.shape}, "
                         f"the file holds {len(payload)} after the header")
    return GridFunction(grid, np.frombuffer(payload, dtype="<f8").reshape(grid.shape))


def write_csv(u: GridFunction, path, max_nodes: int = 200_000) -> None:
    """Plain table (t, x..., value); refuses grids above max_nodes."""
    total = int(np.prod(u.grid.shape))
    if total > max_nodes:
        raise ValueError(f"grid too large for CSV ({total} nodes > {max_nodes})")
    import csv as _csv

    axes = u.grid.spatial_axes()
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["t"] + [f"x{i+1}" for i in range(u.grid.n)] + ["value"])
        for j, t in enumerate(u.grid.times()):
            flat = u.values[j].ravel()
            for row, val in zip(coords, flat):
                writer.writerow([repr(t)] + [repr(c) for c in row] + [repr(val)])
