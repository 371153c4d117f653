"""Finite-difference solver for u_t - div(|grad u|^(p-2) grad u) = f.

One step operator (_StepOperator) of the lagged diffusivity
(|grad u_old|^2 + eps^2)^((p-2)/2) serves every scheme and the
semi-discrete residual, and one time loop marches every dimension under
both schemes. A solve builds one operator and one step solver and refills
them in place each step. The default scheme is semi-implicit: each step
solves one SPD linear system with the step solver, directly by a
cyclic-reduction plan in 1D, and in 2D and 3D by conjugate gradients to
relative residual _CG_RTOL within _CG_MAX_ITERS, preconditioned by the
fast-diagonalisation (DST-I) inverse of the constant-coefficient step
matrix with the mean coupling, scaled to the operator's diagonal. Each
conjugate-gradient step starts from the projection onto the last three
solved slices (_projected_start, Fischer 1998), whose products with the
new step matrix live in the iteration's own arrays. At p = 2 the step
matrix never changes and the DST-I diagonalises it, so the semi-implicit
march runs in the sine eigenbasis instead, a chunk of time slices per
transform. The DST-I (_SineTransform) is the real FFT of the odd
extension in 1D, the sine matrix folded by its row parity in 2D (half the
flops), and plain sine-matrix products in 3D, where the folding passes
over the cube cost what they save. The explicit scheme runs behind a CFL
guard; a failed step names its step and time. Dirichlet data only; the
theory being exercised is interior.

Alongside the solver live its verification surfaces: reference solutions
(heat eigenmode, compactly supported self-similar profile for p > 2), the
weak-form residual of a candidate solution against a test function, and the
two sides of the interior energy (Caccioppoli-type) inequality.

A single solve is sequential in time; its operator, step solver and their
arrays live inside the one solve call, so distinct solves share no state and
may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import FieldError
from .grids import (
    GridFunction,
    Region,
    RegionBlock,
    SpaceTimeGrid,
    _integral,
    _weighted_norm,
    anisotropic_norm,
    full_domain_region,
    initial_slice_mean_power,
    masked_abs_max,
    origin_cell_mean_radial_power,
)

INF = math.inf
REFERENCE_NAMES = ("heat_mode", "barenblatt")  # the fields reference_slice builds


class SolverError(RuntimeError):
    """Inner solve diverged or stalled."""


class CflError(SolverError):
    """Explicit step size violates the stability bound."""


@dataclass(frozen=True)
class BoundarySpec:
    """Dirichlet data descriptor.

    kinds: "zero", "constant" (value), "affine" (value + gradient . x,
    constant in time; gradient holds n components, or none for a constant),
    "reference" (named manufactured solution, see reference_solutions).
    """

    kind: str = "zero"
    value: float = 0.0
    gradient: tuple[float, ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "affine", "reference"):
            raise FieldError("kind", f"must be zero, constant, affine or reference, got {self.kind!r}")
        if self.kind == "reference" and self.name not in REFERENCE_NAMES:
            raise FieldError("name", f"unknown reference solution {self.name!r}, "
                             f"expected one of {', '.join(REFERENCE_NAMES)}")

    @property
    def time_dependent(self) -> bool:
        return self.kind == "reference"

    def evaluate(self, grid: SpaceTimeGrid, t: float, p: float | None = None) -> np.ndarray:
        """Boundary values on every node of the slice at time t; p selects the
        Barenblatt profile of kind "reference"."""
        if self.kind == "zero":
            return np.zeros(grid.spatial_shape)
        if self.kind == "constant":
            return np.full(grid.spatial_shape, float(self.value))
        if self.kind == "affine":
            if len(self.gradient) not in (0, grid.n):
                raise ValueError(f"affine gradient has {len(self.gradient)} components, "
                                 f"the grid has {grid.n} axes")
            grad = self.gradient or (0.0,) * grid.n
            out = np.full(grid.spatial_shape, float(self.value))
            for g, m in zip(grad, grid.meshgrid()):
                out = out + g * m
            return out
        return reference_slice(self.name, grid, t, p)


@dataclass(frozen=True)
class SolveConfig:
    """Scheme parameters; eps_reg = None means eps = h at solve time, and
    eps_reg = 0 is allowed only at p = 2."""

    p: float
    eps_reg: float | None = None
    scheme: str = "semi_implicit"
    boundary: BoundarySpec = field(default_factory=BoundarySpec)

    def __post_init__(self):
        if self.scheme not in ("semi_implicit", "explicit"):
            raise FieldError("scheme", f"must be semi_implicit or explicit, got {self.scheme!r}")
        if self.eps_reg is not None and not (self.eps_reg > 0 or self.eps_reg == 0 and self.p == 2.0):
            raise FieldError("eps_reg", f"must be positive, or zero at p = 2, got {self.eps_reg}")

    def resolved_eps(self, grid: SpaceTimeGrid) -> float:
        return grid.h if self.eps_reg is None else self.eps_reg


@dataclass(frozen=True)
class SourceSpec:
    """Declarative right-hand side with its target integrability (q, r).

    kinds: "zero", "constant" (c), "separable_power"
    (amplitude * |x|^(-a) * t^(-b)), "tabulated" (a GridFunction).
    A separable power has finite L^(q,r) norm iff a*q < n and b*r < 1.
    c, a, b and amplitude must be finite; a table comes with kind
    "tabulated" only.
    """

    kind: str = "zero"
    c: float = 0.0
    a: float = 0.0
    b: float = 0.0
    amplitude: float = 1.0
    table: GridFunction | None = None
    q: float = INF
    r: float = INF

    def __post_init__(self):
        kinds = ("zero", "constant", "separable_power") if self.table is None else ("tabulated",)
        if self.kind not in kinds:
            raise FieldError("kind", f"must be one of {', '.join(kinds)}, got {self.kind!r}")
        for name in ("q", "r"):
            if not 1.0 <= getattr(self, name) <= INF:
                raise FieldError(name, f"must lie in [1, inf], got {getattr(self, name)}")
        for name in ("c", "a", "b", "amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise FieldError(name, f"must be finite, got {getattr(self, name)}")

    def certificate_ok(self, n: int) -> bool:
        if self.kind != "separable_power":
            return True
        space_ok = (self.a == 0.0) if np.isinf(self.q) else (self.a * self.q < n)
        time_ok = (self.b == 0.0) if np.isinf(self.r) else (self.b * self.r < 1.0)
        return space_ok and time_ok


def make_source(spec: SourceSpec, grid: SpaceTimeGrid) -> float:
    """The source's L^(q,r) norm over the whole grid.

    The full-domain quadrature (trapezoid in time, midpoint in space) has
    product weights, so every kind but "tabulated" is the product
    ||T||_r * ||S||_q of its factors (_source_factors), with no space-time
    field built. Cells containing the spatial origin or the initial time
    carry norm-preserving equivalent values for power-law sources (the true
    node value would be infinite); the equivalence is taken at the spec's
    target exponents, so the norm is the faithful quadrature of the
    singular integrand.
    """
    region = full_domain_region(grid)
    if spec.kind == "tabulated":
        return anisotropic_norm(_table(spec, grid), spec.q, spec.r, region)
    at, space = _source_factors(spec, grid)
    _, tw, sw = region.quadrature(grid)  # the whole domain: sw covers every node
    return _weighted_norm(at, tw, spec.r) * _weighted_norm(space, sw, spec.q)


def _table(spec: SourceSpec, grid: SpaceTimeGrid) -> GridFunction:
    if spec.table.grid != grid:
        raise ValueError("tabulated source needs a table on the same grid")
    return spec.table


def _source_reader(spec: SourceSpec, grid: SpaceTimeGrid):
    """source_at(index): the source at values[index] of a field on the grid,
    index a time index or slice followed by one node slice per axis. Zero
    and constant sources read as a scalar, and a separable power as its
    time factor times its space factor, so no space-time field is built
    for them."""
    if spec.kind == "tabulated":
        values = _table(spec, grid).values
        return lambda index: values[index]
    at, space = _source_factors(spec, grid)
    if spec.kind != "separable_power":
        return lambda index: at  # c, times S = 1
    lift = (Ellipsis,) + (None,) * grid.n
    return lambda index: at[index[0]][lift] * space[index[1:]]


def _source_factors(spec: SourceSpec, grid: SpaceTimeGrid):
    """(T, S): the source is T[j] * S[x] on time slice j and spatial node x.

    Zero and constant sources are T = c and S = 1, both scalars. A separable
    power is amplitude * t^(-b) on the time nodes and |x|^(-a) on the
    spatial nodes, with the norm-preserving values in the singular cells
    (see make_source); it must have a finite certificate. Not for
    "tabulated", which has no factors.
    """
    if spec.kind in ("zero", "constant"):
        return (0.0 if spec.kind == "zero" else float(spec.c)), 1.0
    if not spec.certificate_ok(grid.n):
        raise ValueError(
            f"separable power a={spec.a}, b={spec.b} has no finite "
            f"L^({spec.q},{spec.r}) certificate in dimension {grid.n}"
        )
    mesh = grid.meshgrid()
    rr = np.sqrt(sum(m * m for m in mesh))
    if spec.a > 0.0:
        qq = spec.q if not np.isinf(spec.q) else 1.0
        cell_mean = origin_cell_mean_radial_power(grid.n, grid.h, spec.a * qq)
        node_equiv = cell_mean ** (1.0 / qq)
        space = np.where(rr > 0, np.where(rr > 0, rr, 1.0) ** (-spec.a), node_equiv)
    else:
        space = np.ones(grid.spatial_shape)
    ts = grid.times()
    if spec.b > 0.0:
        if np.any(ts < 0):
            raise ValueError("temporal power sources need t >= 0")
        rr_t = spec.r if not np.isinf(spec.r) else 1.0
        tvals = np.empty_like(ts)
        for j, t in enumerate(ts):
            if t > 0:
                tvals[j] = t ** (-spec.b)
            else:
                tvals[j] = initial_slice_mean_power(grid.dt, spec.b * rr_t) ** (1.0 / rr_t)
    else:
        tvals = np.ones_like(ts)
    return spec.amplitude * tvals, space


# ---------------------------------------------------------------------------
# time marching

def _on_axis(n: int, ax: int, sl, rest=slice(None)) -> tuple:
    """Index on the trailing n axes: sl along axis ax, rest on the others."""
    idx = [rest] * n
    idx[ax] = sl
    return (Ellipsis, *idx)


def _shifted(n: int, ax: int) -> tuple[tuple, tuple]:
    """All but the last, and all but the first, entry along axis ax."""
    return _on_axis(n, ax, slice(0, -1)), _on_axis(n, ax, slice(1, None))


def _difference_stencil(n: int, ax: int, h: float) -> tuple:
    """np.gradient's stencil along axis ax of the trailing n axes, as rows
    (at, plus, minus, step) with g[at] = (u[plus] - u[minus]) / step: central
    differences inside, one-sided differences at the two ends."""
    def at(sl):
        return _on_axis(n, ax, sl)

    return ((at(slice(1, -1)), at(slice(2, None)), at(slice(None, -2)), 2.0 * h),
            (at(slice(0, 1)), at(slice(1, 2)), at(slice(0, 1)), h),
            (at(slice(-1, None)), at(slice(-1, None)), at(slice(-2, -1)), h))


def _dirichlet_ends(n: int, batch: int) -> list[tuple]:
    """(interior end, its Dirichlet node) per end of each of the trailing n
    axes, axis by axis, under batch leading axes: the first indexes both the
    interior values and the couplings of the faces that touch an interior
    node, the second the values with their frame. Indexed without an
    Ellipsis, so a 1D end reads as a scalar."""
    lead, inner = (slice(None),) * batch, (slice(1, -1),)
    return [(lead + (slice(None),) * ax + (end,), lead + inner * ax + (end,) + inner * (n - 1 - ax))
            for ax in range(n) for end in (0, -1)]


class _StepOperator:
    """The discrete operator of one step from the lagged field u, whose
    trailing n axes are space (leading axes are a batch). Its arrays are
    allocated at construction for u's shape, and refill recomputes them in
    place from the next lagged field of that shape, so a march builds one.

    couplings[ax] holds scale * D / h^2, D = (|grad u|^2 + eps^2)^((p-2)/2)
    averaged onto the axis-ax faces that touch an interior node; diag is the
    diagonal of the step matrix I - scale div(D grad .) on interior nodes.
    scratch, of diag's shape, is overwritten by refill and apply and free
    between calls; the 3D preconditioner transforms through it too. _ends
    holds (couplings, interior end, its Dirichlet node) per axis end
    (_dirichlet_ends) for add_boundary.
    """

    def __init__(self, u: np.ndarray, n: int, h: float, p: float, eps: float, scale: float):
        self.n = n
        self._eps, self._p, self._scale = eps, p, scale / (h * h)
        # d holds D, and the first axis's gradient before it is squared; g
        # the gradient along each later axis, and scratch reuses its memory
        d, g = np.empty(u.shape), np.empty(u.shape)
        self._d, self._grad = d, g
        self._stencils = [[((g if ax else d)[at], plus, minus, step) for at, plus, minus, step in
                           _difference_stencil(n, ax, h)] for ax in range(n)]
        batch = u.ndim - n
        interior = u.shape[:batch] + tuple(k - 2 for k in u.shape[batch:])
        self.diag = np.empty(interior)
        self.scratch = g.reshape(-1)[:math.prod(interior)].reshape(interior)
        self.couplings = []
        self._faces = []  # per axis: D on both sides of each face, its coupling and their ends
        for ax in range(n):
            lo, hi = _shifted(n, ax)
            nodes = d[_on_axis(n, ax, slice(None), slice(1, -1))]
            c = np.empty(nodes[lo].shape)
            self.couplings.append(c)
            self._faces.append((nodes[lo], nodes[hi], c, c[lo], c[hi]))
        self._ends = [(self.couplings[i // 2], at_end, dirichlet)
                      for i, (at_end, dirichlet) in enumerate(_dirichlet_ends(n, batch))]
        self.refill(u)

    def refill(self, u: np.ndarray) -> None:
        """Recompute the operator in place from the lagged field u, of the
        shape it was built for, with np.gradient's arithmetic."""
        g, d = self._grad, self._d
        for ax, stencil in enumerate(self._stencils):
            for g_at, plus, minus, step in stencil:
                np.subtract(u[plus], u[minus], out=g_at)
                np.divide(g_at, step, out=g_at)
            if ax == 0:
                d *= d
            else:
                g *= g
                d += g
        d += self._eps * self._eps
        d **= (self._p - 2.0) / 2.0
        for ax, (d_lo, d_hi, c, c_lo, c_hi) in enumerate(self._faces):
            np.add(d_lo, d_hi, out=c)
            c *= 0.5
            c *= self._scale
            if ax == 0:
                np.add(1.0, c_lo, out=self.diag)
            else:
                self.diag += c_lo
            self.diag += c_hi

    def flux(self, v: np.ndarray) -> np.ndarray:
        """scale * div(D grad v) at the interior nodes of v."""
        mid = v[(Ellipsis,) + (slice(1, -1),) * self.n]
        acc = 0.0
        for ax, c in enumerate(self.couplings):
            lo, hi = _shifted(self.n, ax)
            above = v[_on_axis(self.n, ax, slice(2, None), slice(1, -1))]
            below = v[_on_axis(self.n, ax, slice(0, -2), slice(1, -1))]
            acc = acc + (c[hi] * (above - mid) - c[lo] * (mid - below))
        return acc

    def apply(self, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The step matrix times the interior values w, written into out if
        given; the products go through scratch."""
        out = np.multiply(self.diag, w, out=out)
        for ax, c in enumerate(self.couplings):
            lo, hi = _shifted(self.n, ax)
            between = c[lo][hi]  # the faces between two interior nodes
            out[lo] -= np.multiply(between, w[hi], out=self.scratch[hi])
            out[hi] -= np.multiply(between, w[lo], out=self.scratch[lo])
        return out

    def add_boundary(self, rhs: np.ndarray, b: np.ndarray) -> None:
        """Add the couplings of the interior nodes to the Dirichlet values of b;
        rhs and b have the leading axes of the lagged field."""
        for c, at_end, dirichlet in self._ends:
            rhs[at_end] += c[at_end] * b[dirichlet]


def _dst_basis(m: int) -> np.ndarray:
    """The orthonormal DST-I matrix on m nodes; it is symmetric and its own inverse."""
    k = np.arange(1, m + 1)
    return math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))


def _dst_all_axes(v: np.ndarray, work: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Apply basis along each of the three trailing cube axes of v by plain
    matmuls, leading axes a batch, ping-ponging between v and work (both
    overwritten); returns work, which holds the result."""
    m = basis.shape[0]
    np.matmul(basis, v.reshape(-1, m, m * m), out=work.reshape(-1, m, m * m))  # first axis
    np.matmul(basis, work.reshape(-1, m, m), out=v.reshape(-1, m, m))  # middle axis
    np.matmul(v.reshape(-1, m), basis, out=work.reshape(-1, m))  # last axis
    return work


def _fold(v: np.ndarray, halves: tuple) -> None:
    """Fold the m = 2h + 1 rows (second-last axis) of v into halves = (sum,
    difference) of h + 1 rows: sum[i] = v[i] + v[m - 1 - i] for i < h and
    sum[h] = v[h], difference[i] = v[i] - v[m - 1 - i] for i < h;
    difference[h] is left as it is."""
    h = v.shape[-2] // 2
    lo, hi = v[..., :h, :], v[..., :h:-1, :]
    total, diff = halves
    np.add(lo, hi, out=total[..., :h, :])
    total[..., h, :] = v[..., h, :]
    np.subtract(lo, hi, out=diff[..., :h, :])


def _unfold(halves: tuple, v: np.ndarray) -> None:
    """The inverse pairing of _fold: v[i] = sum[i] + difference[i] and
    v[m - 1 - i] = sum[i] - difference[i] for i < h, v[h] = sum[h]."""
    h = v.shape[-2] // 2
    total, diff = halves
    s, d = total[..., :h, :], diff[..., :h, :]
    np.add(s, d, out=v[..., :h, :])
    v[..., h, :] = total[..., h, :]
    np.subtract(s, d, out=v[..., :h:-1, :])


class _SineTransform:
    """The orthonormal DST-I, its own inverse, along the trailing n axes (m
    nodes each) of arrays with at most batch leading rows.

    forward(v) returns the spectrum of v and may overwrite v; inverse(c)
    takes a spectrum that forward returned, overwrites it, writes its values
    into the array forward was last given and returns that array.
    eigenvalues holds the sums over the axes of lambda_k = 2 - 2 cos(k pi /
    (m + 1)), the per-axis eigenvalues of the negative Dirichlet Laplacian
    in the DST-I basis, laid out as the spectrum is.

    1D: the real FFT of each row's odd extension, in place, so no m x m
    basis is built. 3D: _dst_all_axes, ping-ponging through work, which is
    allocated unless given; there the folding passes over the cube cost
    about what halving the flops saves.

    2D: the sine matrix S folded by its row parity, for odd m (every
    centred grid has that). Row k of S (k = 1..m) is even about the middle
    column for odd k and odd about it for even k, so once v is folded
    (_fold) along both axes the odd rows act on the sum halves only and the
    even rows on the difference halves only: every transform takes matmuls
    of w = (m + 1) / 2 rows, half the flops of the two m x m ones. Every
    fold runs along rows, the other axis through transposed matmul
    operands. The spectrum stays in that folded order, with the layout
    (batch, 2, w, 2, w): entry (b, l, a, i) is the coefficient of
    wavenumber 2i + a + 1 along the first axis and 2l + b + 1 along the
    second, the parity halves padded with one zero at i or l = w - 1.
    """

    def __init__(self, m: int, n: int, batch: int, work: np.ndarray | None = None):
        self._n, self._last = n, None
        lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
        if n == 1:
            self._odd = np.zeros((batch, 2 * m + 2))  # rows (0, v, 0, -reversed v)
            self._scale = -1.0 / math.sqrt(2.0 * (m + 1))
            self.eigenvalues = lam
        elif n == 2:
            if m % 2 == 0:
                raise ValueError(f"the folded sine transform needs an odd number of "
                                 f"interior nodes per axis, got {m}")
            w = (m + 1) // 2
            basis = _dst_basis(m)
            rows = np.zeros((2, w, w))  # the odd rows of S on the sum half, the even on the difference
            rows[0], rows[1, :-1, :-1] = basis[0::2, :w], basis[1::2, :w - 1]
            self._rows, self._rows_t = rows, np.ascontiguousarray(rows.transpose(0, 2, 1))
            # zeros, so the padding that the zero rows and columns of the
            # factors skip is finite
            self._halves = np.zeros((batch, 2, w, m))  # folded along the first axis
            self._halves_t = np.zeros((batch, m, 2, w))  # and transformed, second axis first
            self._quads = np.zeros((batch, 2, w, 2, w))  # folded along the second axis too
            self._spectrum = np.zeros((batch, 2, w, 2, w))
            parity = np.zeros((2, w))
            parity[0], parity[1, :-1] = lam[0::2], lam[1::2]
            self.eigenvalues = parity[:, :, None, None] + parity[None, None, :, :]
        else:
            self._basis = _dst_basis(m)
            self._work = np.empty((batch,) + (m,) * n) if work is None else work
            self.eigenvalues = sum(lam.reshape([-1 if a == ax else 1 for a in range(n)])
                                   for ax in range(n))

    def forward(self, v: np.ndarray) -> np.ndarray:
        b, self._last = len(v), v
        if self._n == 1:
            m, odd = v.shape[1], self._odd[:b]
            odd[:, 1:m + 1] = v
            np.negative(v[:, ::-1], out=odd[:, m + 2:])
            return np.multiply(np.fft.rfft(odd)[:, 1:m + 1].imag, self._scale, out=v)
        if self._n == 3:
            return _dst_all_axes(v, self._work[:b], self._basis)
        halves, halves_t, quads, spectrum = self._buffers(b)
        m, w = v.shape[-1], self._rows.shape[-1]
        folded = quads.reshape(b, 2, w, 2 * w)  # rows (b, l) of first-axis (a, i)
        _fold(v, (halves[:, 0], halves[:, 1]))
        np.matmul(halves.transpose(0, 1, 3, 2), self._rows_t, out=halves_t.transpose(0, 2, 1, 3))
        _fold(halves_t.reshape(b, m, 2 * w), (folded[:, 0], folded[:, 1]))
        np.matmul(self._rows[:, None], quads.transpose(0, 1, 3, 2, 4),
                  out=spectrum.transpose(0, 1, 3, 2, 4))
        return spectrum

    def inverse(self, c: np.ndarray) -> np.ndarray:
        v = self._last
        if self._n == 1:
            return self.forward(c)
        if self._n == 3:
            return _dst_all_axes(c, v, self._basis)
        b = len(c)
        halves, halves_t, quads, _ = self._buffers(b)
        m, w = v.shape[-1], self._rows.shape[-1]
        folded = quads.reshape(b, 2, w, 2 * w)
        np.matmul(self._rows_t[:, None], c.transpose(0, 1, 3, 2, 4), out=quads.transpose(0, 1, 3, 2, 4))
        _unfold((folded[:, 0], folded[:, 1]), halves_t.reshape(b, m, 2 * w))
        np.matmul(halves_t.transpose(0, 2, 1, 3), self._rows, out=halves.transpose(0, 1, 3, 2))
        _unfold((halves[:, 0], halves[:, 1]), v)
        return v

    def _buffers(self, b: int) -> tuple:
        return self._halves[:b], self._halves_t[:b], self._quads[:b], self._spectrum[:b]


def _inverse_eigenvalues(eigenvalues: np.ndarray, c: float, out: np.ndarray) -> np.ndarray:
    """1 / (1 + c * eigenvalues) into out: with the eigenvalues of a
    _SineTransform, the inverse of I + c * (negative Dirichlet Laplacian)
    in its spectrum."""
    np.multiply(eigenvalues, c, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


class _FastDiagonalPreconditioner:
    """M^-1 r = s * Phi(Phi(s * r) / (1 + cbar sum_ax lambda_ax)) for the step matrix of op.

    Phi is the DST-I along every axis, which diagonalises the constant-
    coefficient step matrix I + cbar * (negative Dirichlet Laplacian) on the
    interior cube (_inverse_eigenvalues; fast diagonalisation, Lynch, Rice &
    Thomas 1964). cbar is the mean coupling and s = sqrt(mean(diag) / diag)
    scales that inverse to the operator's diagonal (Concus & Golub 1973). M
    is symmetric positive definite and, at p = 2, the exact inverse of the
    step matrix. Calling it with (r, out) writes M^-1 r into out; Phi is the
    _SineTransform of op's dimension, which in 3D transforms through
    op.scratch. refill takes s and cbar again from op's diagonal, so a march
    refilling its operator builds one preconditioner.
    """

    def __init__(self, op: _StepOperator):
        self._op = op
        self._phi = _SineTransform(op.diag.shape[-1], op.n, 1, op.scratch[None])
        self._inv_eig = np.empty_like(self._phi.eigenvalues)
        self._s = np.empty_like(op.diag)
        self.refill()

    def refill(self) -> None:
        diag = self._op.diag
        dbar = float(np.mean(diag))
        np.sqrt(np.divide(dbar, diag, out=self._s), out=self._s)
        _inverse_eigenvalues(self._phi.eigenvalues, (dbar - 1.0) / (2 * self._op.n), self._inv_eig)

    def __call__(self, r: np.ndarray, out: np.ndarray) -> None:
        np.multiply(self._s, r, out=out)
        spectrum = self._phi.forward(out[None])
        spectrum *= self._inv_eig
        self._phi.inverse(spectrum)  # back into out
        out *= self._s


# the conjugate-gradient stop of a 2D/3D semi-implicit step at p != 2
_CG_RTOL = 1e-10  # relative residual
_CG_MAX_ITERS = 500  # iterations


def _pcg(apply_a, b, x, r, precond, rtol, maxiter, work):
    """Preconditioned conjugate gradients for apply_a(v, out) x = b from the
    start x, whose residual b - A x r holds on entry, so the loop starts
    without an apply; precond(r, out) writes M^-1 r into out. work holds
    three more arrays of b's shape, z = M^-1 r, the direction p and A p; they,
    r and x are updated in place, so the loop's only temporaries are those
    inside apply_a, and the preconditioner runs only on a residual that has
    not converged. Returns (x, iterations)."""
    z, p, ap = work
    bnorm = float(np.linalg.norm(b))
    target = rtol * (bnorm if bnorm > 0 else 1.0)
    for it in range(maxiter + 1):
        if float(np.linalg.norm(r)) <= target:
            return x, it
        if it == maxiter:
            break
        precond(r, z)
        rz_new = float(np.vdot(r, z))
        if it == 0:
            np.copyto(p, z)
        else:
            p *= rz_new / rz
            p += z
        rz = rz_new
        apply_a(p, ap)
        pap = float(np.vdot(p, ap))
        if pap <= 0 or not np.isfinite(pap):
            raise SolverError(f"conjugate gradients lost positivity at iter {it}")
        alpha = rz / pap
        x += np.multiply(alpha, p, out=z)  # z is free until precond refills it
        r -= np.multiply(alpha, ap, out=ap)
    raise SolverError(
        f"inner linear solve did not reach rtol={rtol} in {maxiter} iterations "
        f"(residual {float(np.linalg.norm(r)):.3e}, rhs norm {bnorm:.3e})"
    )


# a 2D/3D step at p != 2 starts from the last this many solved slices
_START_SLICES = 3
# row i: the slice weights of the start's basis vector i, the newest slice
# and its first and second backward differences
_BACKWARD_DIFFERENCES = np.array([[1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [1.0, -2.0, 1.0]])


def _projected_start(apply_a, b, slices, x, r, work):
    """Write into x the start of a conjugate-gradient step and into r its
    residual b - A x (Fischer 1998).

    slices holds the interior values of the last k <= len(work) solved
    slices, newest first, and x is the combination of them whose image
    under A is closest to b. Its coefficients c are taken in the basis of
    the newest slice and its first and second backward differences, which
    keeps the k x k normal equations well conditioned when successive
    slices are close, and solve those equations scaled to a unit diagonal.
    The basis's products with A go into work (in a step, CG's z, p and Ap,
    free until CG starts), so every inner product runs on contiguous arrays
    and r follows from the products without another apply; r holds each
    difference before its apply. When the system is singular or its
    solution is not finite, x is the newest slice alone.
    """
    k = len(slices)
    products = work[:k]
    apply_a(slices[0], products[0])
    if k > 1:
        np.subtract(slices[0], slices[1], out=r)
        apply_a(r, products[1])
    if k > 2:
        np.subtract(r, slices[1], out=r)
        r += slices[2]
        apply_a(r, products[2])
    gram = np.array([[float(np.vdot(a, c)) for c in products] for a in products])
    proj = np.array([float(np.vdot(a, b)) for a in products])
    c = np.zeros(k)
    c[0] = 1.0
    diag = np.diag(gram)
    if diag.min() > 0.0 and np.isfinite(gram).all() and np.isfinite(proj).all():
        s = 1.0 / np.sqrt(diag)
        try:
            y = np.linalg.solve(gram * np.outer(s, s), proj * s)
        except np.linalg.LinAlgError:
            y = None
        if y is not None and np.isfinite(y).all():
            c = y * s
    weights = _BACKWARD_DIFFERENCES[:k, :k].T @ c
    np.multiply(slices[0], weights[0], out=x)
    for sl, w in zip(slices[1:], weights[1:]):
        x += np.multiply(sl, w, out=r)
    for prod, ci in zip(products, c):
        prod *= ci
    np.subtract(b, products[0], out=r)
    for prod in products[1:]:
        r -= prod


class _CyclicReduction:
    """Solves symmetric tridiagonal systems of m unknowns by cyclic reduction
    (Hockney 1965), one after another; a plan made once for a march.

    The system is padded with identity rows to 2^k - 1 unknowns. Each of the
    k levels eliminates every other remaining unknown from the matrix and
    the right-hand side together; level j works in place on every 2^j-th row
    of the padded right-hand side. Back substitution then recovers the
    eliminated rows from their solved neighbours. The plan allocates the
    padded buffers and each level's pivot, multiplier and coupling arrays
    once, and binds every view a solve reads into two lists of ufunc calls,
    elimination and back substitution, so a solve makes only out= ufunc
    calls. The last level holds one unknown and eliminates nothing.
    """

    def __init__(self, m: int):
        size = (1 << m.bit_length()) - 1
        b, f = np.ones(size), np.zeros(size - 1)  # diagonal and couplings, identity padded
        d = np.zeros(size)  # the right-hand side, solved in place
        self._inv = np.empty(size)  # the reciprocal pivots of all levels, packed
        self._head = b[:m], f[:m - 1], d[:m]
        self._pad = d[m:] if m < size else None
        scratch = np.empty(size // 2)
        self._eliminate, self._substitute = [], []
        start, stride = 0, 1
        while b.size > 1:
            kept_rows = b.size // 2  # and kept_rows + 1 eliminated rows
            piv_inv = self._inv[start:start + kept_rows + 1]
            start += kept_rows + 1
            lo, hi, b_next = np.empty(kept_rows), np.empty(kept_rows), np.empty(kept_rows)
            f_next, t = np.empty(kept_rows - 1), scratch[:kept_rows]
            f_lo, f_hi = f[0::2], f[1::2]
            rows = d[stride - 1::stride]
            elim, kept = rows[0::2], rows[1::2]
            self._eliminate += [
                (np.divide, 1.0, b[0::2], piv_inv),
                (np.multiply, f_lo, piv_inv[:-1], lo),  # the multipliers towards the
                (np.multiply, f_hi, piv_inv[1:], hi),  # left and right kept neighbour
                (np.multiply, lo, f_lo, t), (np.subtract, b[1::2], t, b_next),
                (np.multiply, hi, f_hi, t), (np.subtract, b_next, t, b_next),
            ] + ([(np.multiply, hi[:-1], f_lo[1:], f_next)] if kept_rows > 1 else []) + [
                (np.multiply, lo, elim[:-1], t), (np.add, kept, t, kept),
                (np.multiply, hi, elim[1:], t), (np.add, kept, t, kept),
            ]
            self._substitute[:0] = [
                (np.multiply, elim, piv_inv, elim),
                (np.multiply, lo, kept, t), (np.add, elim[:-1], t, elim[:-1]),
                (np.multiply, hi, kept, t), (np.add, elim[1:], t, elim[1:]),
            ]
            b, f = b_next, f_next
            stride *= 2
        piv_inv, last = self._inv[start:], d[stride - 1:stride]
        self._eliminate.append((np.divide, 1.0, b, piv_inv))
        self._substitute.insert(0, (np.multiply, last, piv_inv, last))

    def solve(self, diag: np.ndarray, coupling: np.ndarray, rhs: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        """Solve the system with the m main-diagonal entries diag and the m - 1
        entries beside it -coupling against rhs, into out. Raises SolverError
        unless every pivot is positive and finite, which for a step matrix of
        this solver fails only on non-finite input; the plan stays usable."""
        b, f, d = self._head
        np.copyto(b, diag)
        np.copyto(f, coupling)
        np.copyto(d, rhs)
        if self._pad is not None:
            self._pad.fill(0.0)
        for ufunc, x, y, z in self._eliminate:
            ufunc(x, y, z)
        inv = self._inv
        if not (inv.min() > 0.0 and inv.max() < INF):
            with np.errstate(divide="ignore"):
                pivots = 1.0 / inv
            bad = pivots[~(np.isfinite(pivots) & (pivots > 0.0))][0]
            raise SolverError(f"tridiagonal pivot {bad:.6g} is not positive and finite")
        for ufunc, x, y, z in self._substitute:
            ufunc(x, y, z)
        np.copyto(out, d)
        return out


def _step_solver(op: _StepOperator):
    """step_solve(rhs, x, solved) solves the step matrix that op holds at the
    call against rhs into x: by a cyclic-reduction plan in 1D; in 2D and 3D
    by preconditioned conjugate gradients from _projected_start on the last
    _START_SLICES slices of solved (the slices marched so far, oldest first),
    with the preconditioner refilled from op and the iteration's arrays
    allocated once. Built once per march."""
    if op.n == 1:
        plan, coupling = _CyclicReduction(op.diag.size), op.couplings[0][1:-1]
        return lambda rhs, x, solved: plan.solve(op.diag, coupling, rhs, x)
    precond = _FastDiagonalPreconditioner(op)
    r, *work = (np.empty_like(op.diag) for _ in range(4))
    inner = (slice(1, -1),) * op.n

    def step_solve(rhs, x, solved):
        precond.refill()
        slices = [s[inner] for s in solved[:-_START_SLICES - 1:-1]]
        _projected_start(op.apply, rhs, slices, x, r, work)
        _pcg(op.apply, rhs, x, r, precond, _CG_RTOL, _CG_MAX_ITERS, work)

    return step_solve


# time slices are handled in chunks (of at least one slice) whose working
# arrays hold about this many values each, so a chunk's temporaries stay a
# fraction of a field
_CHUNK_NODES = 1 << 16


def _sine_march(out: np.ndarray, grid: SpaceTimeGrid, boundary_at, source_at) -> None:
    """The semi-implicit march at p = 2, in place on out, whose first slice is set.

    At p = 2 every step solves the same matrix I + (dt / h^2) L, L the
    negative Dirichlet Laplacian, which the DST-I diagonalises, so in sine
    coordinates a step is u^m = mu * (u^(m-1) + q^m), with mu from
    _inverse_eigenvalues and q^m = dt f^m plus the couplings of the interior
    to the Dirichlet values of slice m. For each chunk of time slices the
    march fills their Dirichlet values, builds their q as one batch,
    transforms it, runs the recurrence slice by slice in place and
    transforms the result back into out. The first non-finite slice raises
    SolverError naming its step and time.
    """
    n, dt, times = grid.n, grid.dt, grid.times()
    m = grid.nodes_per_axis - 2
    inner = (slice(None),) + (slice(1, -1),) * n
    coupling = dt / (grid.h * grid.h)  # every face's: 0.5 (D + D) dt / h^2 with D = 1
    # the transform's workspace holds at most _CHUNK_NODES values (in 1D the
    # odd extension and its spectrum, in 2D the folds and the spectrum, that
    # is about four per node of a slice) and no more slices than the march has
    width = math.prod(grid.spatial_shape) * (1 if n == 3 else 4)
    chunk = min(grid.num_times - 1, max(1, _CHUNK_NODES // width))
    phi = _SineTransform(m, n, chunk)
    mu = _inverse_eigenvalues(phi.eigenvalues, coupling, np.empty_like(phi.eigenvalues))
    q = np.empty((chunk,) + (m,) * n)
    prev = phi.forward(out[:1][inner].copy())[0].copy()  # the last slice marched, in sine coordinates
    for j in range(1, grid.num_times, chunk):
        block = out[j:j + chunk]
        qb = q[:len(block)]
        for k in range(len(block)):
            block[k] = boundary_at(times[j + k])
        np.multiply(dt, source_at((slice(j, j + len(block)),) + inner[1:]), out=qb)
        for at_end, dirichlet in _dirichlet_ends(n, 1):
            qb[at_end] += coupling * block[dirichlet]
        spectrum = phi.forward(qb)
        last = prev
        for qk in spectrum:
            qk += last
            qk *= mu
            last = qk
        np.copyto(prev, last)
        block[inner] = phi.inverse(spectrum)
        if not (np.isfinite(block.max()) and np.isfinite(block.min())):
            bad = j + next(k for k in range(len(block)) if not np.isfinite(block[k]).all())
            raise SolverError(f"step {bad} (t = {times[bad]:.6g}): solution is not finite")


def solve(
    grid: SpaceTimeGrid,
    config: SolveConfig,
    source: SourceSpec,
    initial: np.ndarray,
) -> GridFunction:
    """Time-march the regularized flow from `initial` under Dirichlet data.

    Semi-implicit: one SPD solve per step with the lagged diffusivity,
    unconditionally stable, first order in dt and second in h. At p = 2 the
    step matrix never changes and the march runs in its sine eigenbasis
    (_sine_march), exact to rounding; otherwise one operator, one step
    solver (_step_solver: direct in 1D, conjugate gradients from a start
    projected onto the last solved slices in 2D and 3D) and one right-hand
    side are allocated per solve and refilled each step.
    The source is read through _source_reader, so no space-time source
    field is built for zero, constant or separable-power kinds.
    Explicit: forward Euler, guarded by dt <= 0.9 h^2 / (2 n max D).
    A CflError passes through unchanged; any other SolverError, a
    non-finite slice included, is raised again naming its step and time.
    """
    initial = np.asarray(initial, dtype=float)
    if initial.shape != grid.spatial_shape:
        raise ValueError(f"initial shape {initial.shape} != {grid.spatial_shape}")
    p = config.p
    eps = config.resolved_eps(grid)
    source_at = _source_reader(source, grid)
    inner = (slice(1, -1),) * grid.n

    times = grid.times()
    boundary = config.boundary
    fixed = None if boundary.time_dependent else boundary.evaluate(grid, times[0], p)

    def boundary_at(t):
        return fixed if fixed is not None else boundary.evaluate(grid, t, p)

    out = np.empty(grid.shape)
    u = out[0]
    u[...] = boundary_at(times[0])
    u[inner] = initial[inner]

    h, dt = grid.h, grid.dt
    explicit = config.scheme == "explicit"
    if p == 2.0 and not explicit:
        _sine_march(out, grid, boundary_at, source_at)
        return GridFunction._adopt(grid, out)
    op = step_solve = rhs = None
    for m in range(1, grid.num_times):
        try:
            if op is None or p != 2.0:  # at p = 2, D = 1 whatever u is
                if op is None:  # one operator, step solver and right-hand side per solve
                    op = _StepOperator(u, grid.n, h, p, eps, dt)
                    if not explicit:
                        step_solve, rhs = _step_solver(op), np.empty(op.diag.shape)
                else:
                    op.refill(u)
                cmax = max(float(c.max()) for c in op.couplings) if explicit else 0.0
                if cmax > 0.45 / grid.n:  # dt > 0.9 h^2 / (2 n max D)
                    dmax = cmax * h * h / dt
                    raise CflError(f"explicit dt={dt:.3e} exceeds stability bound "
                                   f"{0.45 * h * h / (grid.n * dmax):.3e} (max diffusivity {dmax:.3e})")
            u_new = out[m]
            u_new[...] = boundary_at(times[m])
            if explicit:
                u_new[inner] = u[inner] + op.flux(u) + dt * source_at((m - 1,) + inner)
            else:
                np.multiply(dt, source_at((m,) + inner), out=rhs)
                rhs += u[inner]  # u + dt f: addition commutes exactly
                op.add_boundary(rhs, u_new)
                step_solve(rhs, u_new[inner], out[:m])
            if not np.isfinite(u_new).all():
                raise SolverError("solution is not finite")
        except CflError:
            raise
        except SolverError as exc:
            raise SolverError(f"step {m} (t = {times[m]:.6g}): {exc}") from None
        u = u_new
    return GridFunction._adopt(grid, out)


# ---------------------------------------------------------------------------
# reference solutions

_BARENBLATT_MASS = 1.0


def barenblatt_profile(x_mag: np.ndarray, t, p: float, n: int) -> np.ndarray:
    """Compactly supported self-similar solution of the degenerate flow (p > 2)."""
    lam = n * (p - 2.0) + p
    kb = ((p - 2.0) / p) * lam ** (-1.0 / (p - 1.0))
    t = np.asarray(t, dtype=float)
    v = np.asarray(np.abs(x_mag) * t ** (-1.0 / lam))  # xi, then the profile, in place
    np.power(v, p / (p - 1.0), out=v)
    np.subtract(_BARENBLATT_MASS, np.multiply(kb, v, out=v), out=v)
    np.maximum(v, 0.0, out=v)
    np.power(v, (p - 1.0) / (p - 2.0), out=v)
    return np.multiply(t ** (-n / lam), v, out=v)


def barenblatt_support_radius(t: float, p: float, n: int) -> float:
    lam = n * (p - 2.0) + p
    kb = ((p - 2.0) / p) * lam ** (-1.0 / (p - 1.0))
    return (_BARENBLATT_MASS / kb) ** ((p - 1.0) / p) * t ** (1.0 / lam)


def reference_slice(name: str, grid: SpaceTimeGrid, t, p: float | None = None) -> np.ndarray:
    """The reference field name (see reference_solutions) at the time t, or at
    times t of shape (T, 1, ..., 1); p selects the Barenblatt profile. Built
    by broadcasting one vector of axis nodes per axis."""
    if name not in REFERENCE_NAMES:
        raise ValueError(f"unknown reference solution {name!r}")
    nodes = grid.axis_nodes()
    x = [nodes.reshape([-1 if a == ax else 1 for a in range(grid.n)]) for ax in range(grid.n)]
    if name == "heat_mode":
        k = np.pi / grid.extent
        out = np.exp(-grid.n * k * k * t)  # times one sine per axis
        for xa in x:
            out = out * np.sin(k * xa)
        return out
    if p is None:
        raise ValueError("barenblatt boundary data needs an explicit p")
    return barenblatt_profile(np.sqrt(sum(xa * xa for xa in x)), t, p, grid.n)


def reference_solutions(name: str, p: float, n: int, grid: SpaceTimeGrid) -> GridFunction:
    """Exact validation fields sampled on the grid.

    "heat_mode" (p = 2): decaying Dirichlet eigenmode of the box.
    "barenblatt" (p > 2): self-similar compactly supported profile; needs
    t_start > 0. Its interior semi-discrete residual vanishes under
    refinement away from the support edge and the central gradient cusp.
    """
    if grid.n != n:
        raise ValueError(f"grid dimension {grid.n} != requested {n}")
    if name == "heat_mode" and p != 2.0:
        raise ValueError("heat_mode requires p = 2")
    if name == "barenblatt" and p <= 2.0:
        raise ValueError("barenblatt requires p > 2")
    if name == "barenblatt" and grid.t_start <= 0.0:
        raise ValueError("barenblatt needs a time range bounded away from 0")
    return GridFunction._adopt(grid, reference_slice(name, grid, grid.times()[(...,) + (None,) * n], p))


def semi_discrete_residual(u: GridFunction, p: float, source: SourceSpec | None = None,
                           eps_reg: float = 0.0) -> GridFunction:
    """Centered-difference residual u_t - div(|grad u|^(p-2) grad u) - f.

    Evaluated on interior nodes and interior slices (zero on the frame);
    the certificate for an exact solution is that this decays under
    refinement wherever the field is twice differentiable.
    """
    grid = u.grid
    out = np.zeros(grid.shape)
    space = (Ellipsis,) + (slice(1, -1),) * grid.n
    v = u.values
    source_at = None if source is None else _source_reader(source, grid)
    # the interior slices are batched into operator builds of bounded size,
    # so the build's temporaries stay a fraction of the field
    chunk = max(1, _CHUNK_NODES // math.prod(grid.spatial_shape))
    for j in range(1, grid.num_times - 1, chunk):
        k = min(j + chunk, grid.num_times - 1)
        op = _StepOperator(v[j:k], grid.n, grid.h, p, eps_reg, 1.0)
        res = (v[j + 1:k + 1][space] - v[j - 1:k - 1][space]) / (2.0 * grid.dt) - op.flux(v[j:k])
        if source_at is not None:
            res -= source_at((slice(j, k),) + space[1:])
        out[j:k][space] = res
    return GridFunction._adopt(grid, out)


# ---------------------------------------------------------------------------
# weak form and energy inequality

def _time_derivative(vals: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty_like(vals)
    out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * dt)
    out[0] = (vals[1] - vals[0]) / dt
    out[-1] = (vals[-1] - vals[-2]) / dt
    return out


def weak_residual(u: GridFunction, source: SourceSpec, psi: GridFunction,
                  region: Region, p: float) -> float:
    """Defect of the space-time weak identity against one test function.

    Computes  [int u psi dx]_(t1)^(t2)
            + int int (-u psi_t + |grad u|^(p-2) grad u . grad psi)
            - int int f psi
    over the region, by midpoint-in-space / trapezoid-in-time quadrature.
    psi must vanish on the spatial boundary of the region. The source is
    read on the region's block only (_source_reader).
    """
    grid = u.grid
    if psi.grid != grid:
        raise ValueError("psi must live on the solution grid")
    blk, tw, sw = region.quadrature(grid)
    _check_compact_support(psi, region, blk)
    fv = _source_reader(source, grid)(blk.index)

    uv, pv = u.values[blk.index], psi.values[blk.index]
    psi_t = _time_derivative(psi.values[(slice(None),) + blk.box], grid.dt)[blk.times]
    boundary_term = float(np.sum(uv[-1] * pv[-1] * sw) - np.sum(uv[0] * pv[0] * sw))
    gu, gpsi = u.gradient_on(blk.index), psi.gradient_on(blk.index)
    gmag = np.sqrt(np.sum(gu * gu, axis=0))
    flux_dot = np.sum(gu * gpsi, axis=0) * np.where(gmag > 0, gmag, 1.0) ** (p - 2.0)
    integrand = -uv * psi_t + flux_dot - fv * pv
    return boundary_term + _integral(integrand, tw, sw)


def _rim(mask: np.ndarray) -> np.ndarray:
    """Nodes of mask with a neighbour off it (or off the array) on some axis."""
    inside = np.pad(mask, 1)
    rim = np.zeros_like(mask)
    for ax in range(mask.ndim):
        for lo in (0, 2):
            rim |= ~inside[tuple(slice(lo, lo + k) if a == ax else slice(1, k + 1)
                                 for a, k in enumerate(mask.shape))]
    return rim & mask


def _check_compact_support(psi: GridFunction, region: Region, blk: RegionBlock) -> None:
    if not blk.mask.any():
        raise ValueError("region contains no spatial nodes")
    # the box holds every member node, so a neighbour off the box is off the region
    peak = float(masked_abs_max(psi.values[blk.index], _rim(blk.mask)))
    whole = psi.values[blk.times]  # the scale is taken over whole slices
    scale = max(float(max(whole.max(), -whole.min())), 1e-300)
    # polynomial bumps reach O((h/width)^2) at the outermost member node
    w_min = region.radius if region.radius is not None else min(region.half_widths)
    tol = max(1e-8, (4.0 * psi.grid.h / w_min) ** 2)
    if peak > tol * scale:
        raise ValueError("test function does not vanish on the region's spatial rim")


def smooth_ramp(tau: np.ndarray) -> np.ndarray:
    """C^1 ramp 3 tau^2 - 2 tau^3 clipped to [0, 1]."""
    tau = np.clip(tau, 0.0, 1.0)
    return 3.0 * tau * tau - 2.0 * tau**3


def bump_battery(grid: SpaceTimeGrid, region: Region, powers=(2, 3),
                 scales=(1.0, 0.75, 0.5)) -> list[GridFunction]:
    """Tensor-product polynomial bumps (1 - |x/rho|^2)_+^k times a smooth
    time ramp, at several spatial scales; the fixed test battery for the
    weak-form residual.
    """
    if region.radius is not None:
        base = (region.radius,) * grid.n
    else:
        base = region.half_widths
    mesh = grid.meshgrid()
    ts = grid.times()
    tau = (ts - region.t_start) / max(region.t_end - region.t_start, 1e-300)
    ramp = smooth_ramp(tau)
    battery = []
    for k in powers:
        for s in scales:
            space = np.ones(grid.spatial_shape)
            for m, c, w in zip(mesh, region.center, base):
                space = space * np.maximum(1.0 - ((m - c) / (s * w)) ** 2, 0.0) ** k
            battery.append(GridFunction._adopt(grid, ramp[(...,) + (None,) * grid.n] * space[None]))
    return battery


def make_cutoff(grid: SpaceTimeGrid, region: Region) -> GridFunction:
    """[0,1]-valued cutoff: polynomial bump in space, smooth ramp-up in time.

    Vanishes on the spatial rim of the region and at its initial time;
    equals its spatial profile afterwards, so the time derivative is
    supported where the ramp rises.
    """
    return bump_battery(grid, region, powers=(2,), scales=(1.0,))[0]


def truncation_estimate(u: GridFunction) -> float:
    """Crude scheme-error scale: dt * max|u_tt| + h^2 * max|u_xxxx| / 12.

    Fourth differences are formed from the interior of the grid; the value
    is an order-of-magnitude yardstick for residual acceptance, not a bound.
    """
    grid = u.grid
    v = u.values
    utt = np.abs(v[2:] - 2 * v[1:-1] + v[:-2]).max() / grid.dt**2 if grid.num_times >= 3 else 0.0
    u4_max = 0.0
    for ax in range(1, grid.n + 1):
        if v.shape[ax] >= 5:
            d4 = np.abs(np.diff(v, n=4, axis=ax)).max() / grid.h**4
            u4_max = max(u4_max, float(d4))
    return grid.dt * float(utt) + grid.h**2 * u4_max / 12.0


def caccioppoli_gap(u: GridFunction, source: SourceSpec, cutoff: GridFunction,
                    region: Region, p: float, c_fit: float) -> tuple[float, float]:
    """Both sides of the interior energy inequality with the constant c_fit.

    lhs = sup_t int u^2 xi^p + int int |grad u|^p xi^p
    rhs = int int |u|^p (xi^p + |grad xi|^p)
        + c_fit * int int u^2 xi^(p-1) |xi_t|  +  c_fit * ||f||_(q,r)

    Callers assert lhs <= rhs and fit the smallest constant over a corpus.
    """
    grid = u.grid
    if cutoff.grid != grid:
        raise ValueError("cutoff must live on the solution grid")
    xi = cutoff.values
    if xi.min() < -1e-12 or xi.max() > 1.0 + 1e-12:
        raise ValueError("cutoff values must lie in [0, 1]")
    blk, tw, sw = region.quadrature(grid)
    f_norm = make_source(source, grid)
    xi_t = _time_derivative(xi[(slice(None),) + blk.box], grid.dt)[blk.times]

    uj, xj = u.values[blk.index], xi[blk.index]
    sup_term = float(np.max(np.sum(uj * uj * xj**p * sw, axis=tuple(range(1, grid.n + 1)))))
    gu, gxi = u.gradient_on(blk.index), cutoff.gradient_on(blk.index)
    gu_mag = np.sqrt(np.sum(gu * gu, axis=0))
    gxi_mag = np.sqrt(np.sum(gxi * gxi, axis=0))
    grad_term = _integral(gu_mag**p * xj**p, tw, sw)
    rhs_bulk = _integral(np.abs(uj) ** p * (xj**p + gxi_mag**p), tw, sw)
    rhs_time = _integral(uj * uj * xj ** (p - 1.0) * np.abs(xi_t), tw, sw)
    lhs = sup_term + grad_term
    rhs = rhs_bulk + c_fit * rhs_time + c_fit * f_norm
    return lhs, rhs
