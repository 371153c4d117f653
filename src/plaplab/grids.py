"""Uniform space-time grids, discrete calculus and anisotropic norms.

Grids are node-centered Cartesian boxes [-extent, extent]^n crossed with a
uniform time axis. Quadrature is midpoint in space (node weight h^n, with
exact cell-overlap corrections at region boundaries where that is cheap)
and trapezoid in time. Interpolation is multilinear in space-time and
numpy-only: a point query weights the 2^(n+1) nodes of its cell, and a
bulk resampling onto a tensor-product grid (see `locate_on_axis`)
interpolates along one axis at a time. Grid functions are immutable after
construction; every operation here is pure.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass

import numpy as np

_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform grid on [-extent, extent]^n x (t_start, t_end].

    Nodes sit at integer multiples of h per spatial axis (boundary included)
    and at t_start + j*dt in time, with the initial slice stored. Node
    counts must be at least 3 per axis.
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
        return self.t_start + self.dt * np.arange(self.num_times)

    def spatial_axes(self) -> tuple[np.ndarray, ...]:
        return (self.axis_nodes(),) * self.n

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*self.spatial_axes(), indexing="ij")

    def time_index(self, t: float) -> int:
        """Index of the nearest time slice; rejects t outside the grid."""
        j = int(round((t - self.t_start) / self.dt))
        if j < 0 or j >= self.num_times:
            raise ValueError(f"t = {t} outside grid time range")
        return j

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

    def slice(self, it: int) -> np.ndarray:
        return self.values[it]

    def gradient_slice(self, it: int) -> np.ndarray:
        """Spatial gradient of slice it, shape (n, nodes, ...).

        Central differences at interior nodes, one-sided at the boundary
        (boundary columns exist for convenience; interior queries should be
        used for anything quantitative).
        """
        u = self.values[it]
        if self.grid.n == 1:
            return np.gradient(u, self.grid.h)[None, :]
        grads = np.gradient(u, self.grid.h)
        return np.stack(grads, axis=0)

    def gradient_at_node(self, ix: tuple[int, ...], it: int) -> np.ndarray:
        """Central-difference gradient at an interior node."""
        for axis, i in enumerate(ix):
            if i <= 0 or i >= self.grid.nodes_per_axis - 1:
                raise ValueError(f"node index {ix} touches the boundary on axis {axis}")
        u = self.values[it]
        g = np.empty(self.grid.n)
        for axis in range(self.grid.n):
            up = list(ix); up[axis] += 1
            dn = list(ix); dn[axis] -= 1
            g[axis] = (u[tuple(up)] - u[tuple(dn)]) / (2.0 * self.grid.h)
        return g

    def gradient_at(self, x, t: float) -> np.ndarray:
        """Multilinear interpolation of the node gradients of gradient_slice."""
        idx, weights = self._cell(x, t)
        last = self.grid.nodes_per_axis - 1
        out = np.empty(self.grid.n)
        for a in range(1, self.grid.n + 1):  # idx row 0 is time
            up, dn = idx.copy(), idx.copy()
            up[a] = np.minimum(idx[a] + 1, last)
            dn[a] = np.maximum(idx[a] - 1, 0)
            diff = self.values[tuple(up)] - self.values[tuple(dn)]
            out[a - 1] = weights @ (diff / ((up[a] - dn[a]) * self.grid.h))
        return out


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

    def _distances(self, grid: SpaceTimeGrid):
        mesh = grid.meshgrid()
        diffs = [m - c for m, c in zip(mesh, self.center)]
        return diffs

    def space_mask(self, grid: SpaceTimeGrid) -> np.ndarray:
        """Inclusive node membership (used for sup-type reductions)."""
        diffs = self._distances(grid)
        if self.radius is not None:
            rr = np.sqrt(sum(d * d for d in diffs))
            return rr <= self.radius * (1.0 + 1e-12) + 1e-15
        mask = np.ones(grid.spatial_shape, dtype=bool)
        for d, w in zip(diffs, self.half_widths):
            mask &= np.abs(d) <= w * (1.0 + 1e-12) + 1e-15
        return mask

    def space_weights(self, grid: SpaceTimeGrid) -> np.ndarray:
        """Quadrature weights (cell measures clipped to the region).

        Boxes (any n) and 1D balls use exact per-axis cell overlaps, which
        keeps the composite midpoint rule second order up to the region
        boundary. 2D balls use exact disk-cell overlap areas on the rim;
        3D balls fall back to counting interior nodes.
        """
        h = grid.h
        if self.half_widths is not None or grid.n == 1:
            if self.half_widths is not None:
                widths = self.half_widths
            else:
                widths = (self.radius,)
            axes = grid.spatial_axes()
            axis_w = []
            for ax, c, w in zip(axes, self.center, widths):
                lo, hi = c - w, c + w
                ov = np.minimum(hi, ax + h / 2) - np.maximum(lo, ax - h / 2)
                axis_w.append(np.clip(ov, 0.0, h))
            if grid.n == 1:
                return axis_w[0]
            out = axis_w[0]
            for aw in axis_w[1:]:
                out = np.multiply.outer(out, aw)
            return out
        if grid.n == 2:
            return _disk_weights_2d(grid, self.center, self.radius)
        # 3D ball: interior-node counting
        return np.where(self.space_mask(grid), h**grid.n, 0.0)

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
        x = np.asarray(x, dtype=float)
        if not (self.t_start - grid.dt / 2 < t <= self.t_end + grid.dt * 1e-9):
            return False
        d = x - np.asarray(self.center)
        if self.radius is not None:
            return bool(np.sqrt(np.sum(d * d)) <= self.radius * (1 + 1e-12) + 1e-15)
        return bool(np.all(np.abs(d) <= np.asarray(self.half_widths) * (1 + 1e-12) + 1e-15))


def _circle_chord(x: np.ndarray, radius: float) -> np.ndarray:
    return np.sqrt(np.maximum(radius * radius - x * x, 0.0))


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(24)


def _disk_cell_overlap(cx: float, cy: float, h: float, radius: float) -> float:
    """Area of the h-cell centered at (cx, cy) inside the disk of given radius."""
    x1, x2 = cx - h / 2, cx + h / 2
    y1, y2 = cy - h / 2, cy + h / 2
    xm = 0.5 * (x1 + x2) + 0.5 * (x2 - x1) * _GAUSS_X
    s = _circle_chord(xm, radius)
    ln = np.maximum(np.minimum(y2, s) - np.maximum(y1, -s), 0.0)
    return float(0.5 * (x2 - x1) * np.sum(_GAUSS_W * ln))


def _disk_weights_2d(grid: SpaceTimeGrid, center, radius: float) -> np.ndarray:
    X, Y = grid.meshgrid()
    dx, dy = X - center[0], Y - center[1]
    rr = np.hypot(dx, dy)
    h = grid.h
    half_diag = h * 0.70711
    w = np.where(rr <= radius - half_diag, h * h, 0.0)
    rim = (rr > radius - half_diag) & (rr < radius + half_diag)
    for i, j in zip(*np.nonzero(rim)):
        w[i, j] = _disk_cell_overlap(dx[i, j], dy[i, j], h, radius)
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
    idx, tw = region.time_weights(grid)
    if np.isinf(q):
        sw = region.space_mask(grid)
        if not sw.any():
            raise ValueError("region contains no spatial nodes")
        slice_vals = np.array([np.max(np.abs(f.values[j][sw])) for j in idx])
    else:
        sw = region.space_weights(grid)
        if not (sw > 0).any():
            raise ValueError("region contains no spatial nodes")
        slice_vals = np.array(
            [np.sum(np.abs(f.values[j]) ** q * sw) ** (1.0 / q) for j in idx]
        )
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
    idx, tw = region.time_weights(grid)
    sw = region.space_weights(grid)
    if not (sw > 0).any():
        raise ValueError("region contains no spatial nodes")
    sup_l2 = 0.0
    grad_acc = 0.0
    for j, w_t in zip(idx, tw):
        sup_l2 = max(sup_l2, float(np.sum(u.values[j] ** 2 * sw) ** 0.5))
        g = u.gradient_slice(j)
        gmag = np.sqrt(np.sum(g * g, axis=0))
        grad_acc += w_t * float(np.sum(gmag**p * sw))
    return sup_l2 + grad_acc ** (1.0 / p)


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
    sw = region.space_mask(grid)
    if not sw.any():
        raise ValueError("region contains no spatial nodes")
    idx = region.time_indices(grid)
    # the region's slices are contiguous; crop space to the mask's bounding box
    box = tuple(slice(int(np.min(k)), int(np.max(k)) + 1) for k in np.nonzero(sw))
    block = u.values[(slice(idx[0], idx[-1] + 1),) + box]
    inside = sw[box]
    # at each node, fl(fl(v - ref) - plane) is monotone in v, so its largest
    # magnitude over time sits at the node's max or min over time: reducing
    # over time first gives the same float as the whole block would
    extremes = np.stack([block.max(axis=0)[inside], block.min(axis=0)[inside]])
    if affine_part is None:
        return float(np.max(np.abs(extremes - u.value_at(x0, t0))))
    ref, grad_vec = affine_part
    grad_vec = np.asarray(grad_vec, dtype=float)
    mesh = np.meshgrid(*[ax[b] for ax, b in zip(grid.spatial_axes(), box)], indexing="ij")
    plane = sum(g * (m - c) for g, m, c in zip(grad_vec, mesh, x0))
    return float(np.max(np.abs(extremes - ref - plane[inside])))


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
