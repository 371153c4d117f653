"""Finite-difference solver for u_t - div(|grad u|^(p-2) grad u) = f.

The default scheme is semi-implicit: the diffusivity is lagged one step,
(|grad u_old|^2 + eps^2)^((p-2)/2), and each step solves one symmetric
positive definite linear system. In 1D that system is tridiagonal and is
solved directly by cyclic reduction; in 2D and 3D it is solved by
diagonally preconditioned conjugate gradients, to the tolerance newton_tol
within max_inner_iters iterations. An explicit scheme is available behind a
CFL guard. Dirichlet data only; the theory being exercised is interior.

Alongside the solver live its verification surfaces: reference solutions
(heat eigenmode, compactly supported self-similar profile for p > 2), the
weak-form residual of a candidate solution against a test function, and the
two sides of the interior energy (Caccioppoli-type) inequality.

A single solve is sequential in time; distinct solves share no state and
may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import (
    GridFunction,
    Region,
    SpaceTimeGrid,
    anisotropic_norm,
    full_domain_region,
    initial_slice_mean_power,
    origin_cell_mean_radial_power,
)

INF = math.inf


class SolverError(RuntimeError):
    """Inner solve diverged or stalled."""


class CflError(SolverError):
    """Explicit step size violates the stability bound."""


@dataclass(frozen=True)
class BoundarySpec:
    """Dirichlet data descriptor.

    kinds: "zero", "constant" (value), "affine" (value + gradient . x,
    constant in time), "reference" (named manufactured solution, see
    reference_solutions), "custom" (fn(*xmesh, t) -> array).
    """

    kind: str = "zero"
    value: float = 0.0
    gradient: tuple[float, ...] = ()
    name: str = ""
    fn: object = None

    @property
    def time_dependent(self) -> bool:
        return self.kind in ("reference", "custom")

    def evaluate(self, grid: SpaceTimeGrid, t: float, p: float | None = None) -> np.ndarray:
        """Boundary values on every node of the slice at time t; p selects the
        Barenblatt profile of kind "reference"."""
        if self.kind == "zero":
            return np.zeros(grid.spatial_shape)
        if self.kind == "constant":
            return np.full(grid.spatial_shape, float(self.value))
        if self.kind == "affine":
            grad = self.gradient or (0.0,) * grid.n
            out = np.full(grid.spatial_shape, float(self.value))
            for g, m in zip(grad, grid.meshgrid()):
                out = out + g * m
            return out
        if self.kind == "reference":
            return _reference_slice(self.name, grid, t, p)
        if self.kind == "custom":
            return np.asarray(self.fn(*grid.meshgrid(), t), dtype=float)
        raise ValueError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class SolveConfig:
    """Scheme parameters; eps_reg = None means eps = h at solve time.

    newton_tol and max_inner_iters govern the conjugate-gradient solve of
    the semi-implicit scheme in 2D and 3D; 1D steps are solved directly.
    """

    p: float
    eps_reg: float | None = None
    scheme: str = "semi_implicit"
    newton_tol: float = 1e-10
    max_inner_iters: int = 500
    boundary: BoundarySpec = field(default_factory=BoundarySpec)

    def __post_init__(self):
        if self.scheme not in ("semi_implicit", "explicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.eps_reg is not None and self.eps_reg < 0:
            raise ValueError("eps_reg must be nonnegative")

    def resolved_eps(self, grid: SpaceTimeGrid) -> float:
        eps = grid.h if self.eps_reg is None else self.eps_reg
        if self.p != 2.0 and eps <= 0.0:
            raise ValueError("eps_reg must be positive when p != 2")
        return eps


@dataclass(frozen=True)
class SourceSpec:
    """Declarative right-hand side with its target integrability (q, r).

    kinds: "zero", "constant" (c), "separable_power"
    (amplitude * |x|^(-a) * t^(-b)), "tabulated" (a GridFunction).
    A separable power has finite L^(q,r) norm iff a*q < n and b*r < 1.
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
        if not (1.0 <= self.q <= INF and 1.0 <= self.r <= INF):
            raise ValueError(f"source exponents q = {self.q}, r = {self.r} must lie in [1, inf]")

    def certificate_ok(self, n: int) -> bool:
        if self.kind != "separable_power":
            return True
        space_ok = (self.a == 0.0) if np.isinf(self.q) else (self.a * self.q < n)
        time_ok = (self.b == 0.0) if np.isinf(self.r) else (self.b * self.r < 1.0)
        return space_ok and time_ok


@dataclass(frozen=True)
class SourceField:
    """Nodal source values plus the computed L^(q,r) norm certificate."""

    field: GridFunction
    norm_qr: float
    spec: SourceSpec


def make_source(spec: SourceSpec, grid: SpaceTimeGrid, require_certificate: bool = True) -> SourceField:
    """Sample a source on the grid and attach its L^(q,r) norm.

    Cells containing the spatial origin or the initial time carry
    norm-preserving equivalent values for power-law sources (the true node
    value would be infinite); the equivalence is taken at the spec's target
    exponents, so the attached norm is the faithful quadrature of the
    singular integrand.
    """
    f = _source_field(spec, grid, require_certificate)
    norm = anisotropic_norm(f, spec.q, spec.r, full_domain_region(grid))
    return SourceField(field=f, norm_qr=norm, spec=spec)


def _source_field(spec: SourceSpec, grid: SpaceTimeGrid, require_certificate: bool = True) -> GridFunction:
    """The nodal values of make_source, without the norm."""
    if spec.kind == "tabulated":
        if spec.table is None or spec.table.grid != grid:
            raise ValueError("tabulated source needs a table on the same grid")
        f = spec.table
    elif spec.kind == "zero":
        f = GridFunction(grid, np.zeros(grid.shape))
    elif spec.kind == "constant":
        f = GridFunction(grid, np.full(grid.shape, float(spec.c)))
    elif spec.kind == "separable_power":
        if require_certificate and not spec.certificate_ok(grid.n):
            raise ValueError(
                f"separable power a={spec.a}, b={spec.b} has no finite "
                f"L^({spec.q},{spec.r}) certificate in dimension {grid.n}"
            )
        f = _separable_power_field(spec, grid)
    else:
        raise ValueError(f"unknown source kind {spec.kind!r}")
    return f


def _separable_power_field(spec: SourceSpec, grid: SpaceTimeGrid) -> GridFunction:
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
    vals = spec.amplitude * tvals[(...,) + (None,) * grid.n] * space[None]
    return GridFunction(grid, np.broadcast_to(vals, grid.shape).copy())


# ---------------------------------------------------------------------------
# time marching

def _face_diffusivities(u_slice: np.ndarray, h: float, p: float, eps: float):
    """Per-axis arithmetic-mean face values of (|grad u|^2 + eps^2)^((p-2)/2)."""
    n = u_slice.ndim
    grads = np.gradient(u_slice, h) if n > 1 else [np.gradient(u_slice, h)]
    g2 = sum(g * g for g in grads)
    d_node = (g2 + eps * eps) ** ((p - 2.0) / 2.0)
    faces = []
    for ax in range(n):
        sl_lo = [slice(None)] * n
        sl_hi = [slice(None)] * n
        sl_lo[ax] = slice(0, -1)
        sl_hi[ax] = slice(1, None)
        faces.append(0.5 * (d_node[tuple(sl_lo)] + d_node[tuple(sl_hi)]))
    return faces


def _div_flux(v: np.ndarray, faces, h: float) -> np.ndarray:
    """div(D grad v) on interior nodes (zero on the boundary frame)."""
    n = v.ndim
    out = np.zeros_like(v)
    inner = tuple(slice(1, -1) for _ in range(n))
    acc = np.zeros_like(v[inner])
    for ax in range(n):
        lo = [slice(1, -1)] * n
        hi = [slice(1, -1)] * n
        lo[ax] = slice(0, -2)
        hi[ax] = slice(2, None)
        f_lo = [slice(1, -1)] * n
        f_hi = [slice(1, -1)] * n
        f_lo[ax] = slice(0, -1)
        f_hi[ax] = slice(1, None)
        D = faces[ax]
        acc = acc + (
            D[tuple(f_hi)] * (v[tuple(hi)] - v[inner])
            - D[tuple(f_lo)] * (v[inner] - v[tuple(lo)])
        ) / (h * h)
    out[inner] = acc
    return out


def _pcg(apply_a, b, x0, diag, rtol, maxiter):
    x = x0.copy()
    r = b - apply_a(x)
    z = r / diag
    p = z.copy()
    rz = float(np.vdot(r, z))
    bnorm = float(np.linalg.norm(b))
    target = rtol * (bnorm if bnorm > 0 else 1.0)
    for it in range(maxiter):
        if float(np.linalg.norm(r)) <= target:
            return x, it
        ap = apply_a(p)
        pap = float(np.vdot(p, ap))
        if pap <= 0 or not np.isfinite(pap):
            raise SolverError(f"conjugate gradients lost positivity at iter {it}")
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        z = r / diag
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"inner linear solve did not reach rtol={rtol} in {maxiter} iterations "
        f"(residual {float(np.linalg.norm(r)):.3e}, rhs norm {bnorm:.3e})"
    )


def _tridiag_factor(diag: np.ndarray, off: np.ndarray) -> list:
    """Cyclic-reduction factor of a symmetric tridiagonal matrix (Hockney 1965).

    diag holds the n main-diagonal entries and off the n - 1 entries beside
    it. The system is padded with identity rows to 2^k - 1 unknowns; each of
    the k levels eliminates every other remaining unknown in a few vectorised
    operations. A level is (reciprocal pivots of the eliminated rows, their
    multipliers towards the right and left kept neighbour). Raises
    SolverError unless every pivot is positive and finite, which for a step
    matrix of this solver fails only on non-finite input.
    """
    n = diag.size
    size = (1 << n.bit_length()) - 1
    b = np.ones(size)
    b[:n] = diag
    f = np.zeros(size - 1)  # negated off-diagonal
    f[:n - 1] = -off
    inv = np.empty(size)  # the reciprocal pivots of all levels, packed
    levels = []
    start = 0
    while b.size:
        piv_inv = np.divide(1.0, b[::2], out=inv[start:start + (b.size + 1) // 2])
        start += piv_inv.size
        f_lo, f_hi = f[0::2], f[1::2]
        lo = f_lo * piv_inv[:-1]
        hi = f_hi * piv_inv[1:]
        levels.append((piv_inv, lo, hi))
        b = b[1::2] - lo * f_lo - hi * f_hi
        f = hi[:-1] * f_lo[1:]
    if not (inv.min() > 0.0 and inv.max() < INF):
        with np.errstate(divide="ignore"):
            pivots = 1.0 / inv
        bad = pivots[~(np.isfinite(pivots) & (pivots > 0.0))][0]
        raise SolverError(f"tridiagonal pivot {bad:.6g} is not positive and finite")
    return levels


def _tridiag_solve(levels: list, rhs: np.ndarray) -> np.ndarray:
    """Solve with a _tridiag_factor factor; raises SolverError on a non-finite solution.

    Level j works in place on every 2^j-th row of the padded right-hand
    side: forward elimination folds the eliminated rows into the kept ones,
    back substitution recovers them from their solved neighbours.
    """
    n = rhs.size
    d = np.zeros(2 * levels[0][0].size - 1)
    d[:n] = rhs
    stride = 1
    for _, lo, hi in levels[:-1]:
        rows = d[stride - 1::stride]
        kept = rows[1::2]
        kept += lo * rows[0:-1:2]
        kept += hi * rows[2::2]
        stride *= 2
    for piv_inv, lo, hi in reversed(levels):
        rows = d[stride - 1::stride]
        elim, kept = rows[0::2], rows[1::2]
        elim *= piv_inv
        elim[:-1] += lo * kept
        elim[1:] += hi * kept
        stride //= 2
    x = d[:n]
    if not np.isfinite(x).all():
        raise SolverError("tridiagonal solution is not finite")
    return x


def _march_tridiagonal(out: np.ndarray, f: np.ndarray, boundary_at, times: np.ndarray,
                       h: float, dt: float, p: float, eps: float) -> None:
    """1D semi-implicit march: fill out[1:] from out[0].

    The step matrix I - dt div(D grad .) on the interior nodes is tridiagonal
    with the face couplings c = dt D / h^2, so each step builds it once and
    solves it directly. At p = 2 the diffusivity is identically 1 and the
    first step's factor is reused.
    """
    u = out[0]
    levels = None
    for m in range(1, len(times)):
        try:
            if levels is None or p != 2.0:
                c = (dt / (h * h)) * _face_diffusivities(u, h, p, eps)[0]
                levels = _tridiag_factor(1.0 + c[:-1] + c[1:], -c[1:-1])
            b = boundary_at(times[m])
            rhs = u[1:-1] + dt * f[m, 1:-1]
            rhs[0] += c[0] * b[0]
            rhs[-1] += c[-1] * b[-1]
            w = _tridiag_solve(levels, rhs)
        except SolverError as exc:
            raise SolverError(f"1D direct solve at step {m} (t = {times[m]:.6g}): {exc}") from None
        u = out[m]
        u[0], u[-1] = b[0], b[-1]
        u[1:-1] = w


def _boundary_frame_mask(shape: tuple[int, ...]) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    for ax in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[ax] = 0
        mask[tuple(sl)] = True
        sl[ax] = -1
        mask[tuple(sl)] = True
    return mask


def solve(
    grid: SpaceTimeGrid,
    config: SolveConfig,
    source: SourceSpec,
    initial: np.ndarray,
) -> GridFunction:
    """Time-march the regularized flow from `initial` under Dirichlet data.

    Semi-implicit: one SPD solve per step with the lagged diffusivity,
    unconditionally stable, first order in dt and second in h; direct in 1D,
    conjugate gradients to newton_tol within max_inner_iters in 2D and 3D.
    Explicit: forward Euler, guarded by dt <= 0.9 h^2 / (2 n max D).
    """
    initial = np.asarray(initial, dtype=float)
    if initial.shape != grid.spatial_shape:
        raise ValueError(f"initial shape {initial.shape} != {grid.spatial_shape}")
    p = config.p
    eps = config.resolved_eps(grid)
    src = _source_field(source, grid)
    bmask = _boundary_frame_mask(grid.spatial_shape)
    inner = tuple(slice(1, -1) for _ in range(grid.n))

    times = grid.times()
    boundary = config.boundary
    fixed = None if boundary.time_dependent else boundary.evaluate(grid, times[0], p)

    def boundary_at(t):
        return fixed if fixed is not None else boundary.evaluate(grid, t, p)

    out = np.empty(grid.shape)
    u = initial.copy()
    u[bmask] = boundary_at(times[0])[bmask]
    out[0] = u

    h, dt = grid.h, grid.dt
    if grid.n == 1 and config.scheme == "semi_implicit":
        _march_tridiagonal(out, src.values, boundary_at, times, h, dt, p, eps)
        return GridFunction(grid, out)
    for m in range(1, grid.num_times):
        faces = _face_diffusivities(u, h, p, eps)
        if config.scheme == "explicit":
            dmax = max(float(np.max(f)) for f in faces)
            cfl = 0.9 * h * h / (2.0 * grid.n * max(dmax, 1e-300))
            if dt > cfl:
                raise CflError(
                    f"explicit dt={dt:.3e} exceeds stability bound {cfl:.3e} "
                    f"(max diffusivity {dmax:.3e})"
                )
            u_new = u + dt * (_div_flux(u, faces, h) + src.values[m - 1])
            u_new[bmask] = boundary_at(times[m])[bmask]
        else:
            b_new = boundary_at(times[m])
            vb = np.zeros_like(u)
            vb[bmask] = b_new[bmask]
            rhs = (u + dt * src.values[m])[inner] + dt * _div_flux(vb, faces, h)[inner]

            def apply_a(w, faces=faces):
                wf = np.zeros(grid.spatial_shape)
                wf[inner] = w
                return w - dt * _div_flux(wf, faces, h)[inner]

            diag = np.ones(grid.spatial_shape)[inner].copy()
            for ax in range(grid.n):
                f_lo = [slice(1, -1)] * grid.n
                f_hi = [slice(1, -1)] * grid.n
                f_lo[ax] = slice(0, -1)
                f_hi[ax] = slice(1, None)
                diag += dt * (faces[ax][tuple(f_lo)] + faces[ax][tuple(f_hi)]) / (h * h)
            w, _ = _pcg(apply_a, rhs, u[inner], diag, config.newton_tol, config.max_inner_iters)
            u_new = b_new.copy()
            u_new[inner] = w
        u = u_new
        out[m] = u
    return GridFunction(grid, out)


# ---------------------------------------------------------------------------
# reference solutions

def _heat_mode(grid: SpaceTimeGrid, t: float) -> np.ndarray:
    mesh = grid.meshgrid()
    k = np.pi / grid.extent
    out = np.exp(-grid.n * k * k * t)
    for m in mesh:
        out = out * np.sin(k * m)
    return out


_BARENBLATT_MASS = 1.0


def barenblatt_profile(x_mag: np.ndarray, t, p: float, n: int) -> np.ndarray:
    """Compactly supported self-similar solution of the degenerate flow (p > 2)."""
    lam = n * (p - 2.0) + p
    kb = ((p - 2.0) / p) * lam ** (-1.0 / (p - 1.0))
    t = np.asarray(t, dtype=float)
    xi = np.abs(x_mag) * t ** (-1.0 / lam)
    inner = np.maximum(_BARENBLATT_MASS - kb * xi ** (p / (p - 1.0)), 0.0)
    return t ** (-n / lam) * inner ** ((p - 1.0) / (p - 2.0))


def barenblatt_support_radius(t: float, p: float, n: int) -> float:
    lam = n * (p - 2.0) + p
    kb = ((p - 2.0) / p) * lam ** (-1.0 / (p - 1.0))
    return (_BARENBLATT_MASS / kb) ** ((p - 1.0) / p) * t ** (1.0 / lam)


def _reference_slice(name: str, grid: SpaceTimeGrid, t: float, p: float | None = None) -> np.ndarray:
    if name == "heat_mode":
        return _heat_mode(grid, t)
    if name == "barenblatt":
        if p is None:
            raise ValueError("barenblatt boundary data needs an explicit p")
        mesh = grid.meshgrid()
        rr = np.sqrt(sum(m * m for m in mesh))
        return barenblatt_profile(rr, t, p, grid.n)
    raise ValueError(f"unknown reference solution {name!r}")


def reference_solutions(name: str, p: float, n: int, grid: SpaceTimeGrid) -> GridFunction:
    """Exact validation fields sampled on the grid.

    "heat_mode" (p = 2): decaying Dirichlet eigenmode of the box.
    "barenblatt" (p > 2): self-similar compactly supported profile; needs
    t_start > 0. Its interior semi-discrete residual vanishes under
    refinement away from the support edge and the central gradient cusp.
    """
    if grid.n != n:
        raise ValueError(f"grid dimension {grid.n} != requested {n}")
    if name == "heat_mode":
        if p != 2.0:
            raise ValueError("heat_mode requires p = 2")
        vals = np.stack([_heat_mode(grid, t) for t in grid.times()])
        return GridFunction(grid, vals)
    if name == "barenblatt":
        if p <= 2.0:
            raise ValueError("barenblatt requires p > 2")
        if grid.t_start <= 0.0:
            raise ValueError("barenblatt needs a time range bounded away from 0")
        mesh = grid.meshgrid()
        rr = np.sqrt(sum(m * m for m in mesh))
        vals = np.stack([barenblatt_profile(rr, t, p, grid.n) for t in grid.times()])
        return GridFunction(grid, vals)
    raise ValueError(f"unknown reference solution {name!r}")


def semi_discrete_residual(u: GridFunction, p: float, source: SourceSpec | None = None,
                           eps_reg: float = 0.0) -> GridFunction:
    """Centered-difference residual u_t - div(|grad u|^(p-2) grad u) - f.

    Evaluated on interior nodes and interior slices (zero on the frame);
    the certificate for an exact solution is that this decays under
    refinement wherever the field is twice differentiable.
    """
    grid = u.grid
    f = make_source(source, grid).field.values if source is not None else 0.0
    out = np.zeros(grid.shape)
    h, dt = grid.h, grid.dt
    for m in range(1, grid.num_times - 1):
        ut = (u.values[m + 1] - u.values[m - 1]) / (2.0 * dt)
        faces = _face_diffusivities(u.values[m], h, p, eps_reg)
        lap = _div_flux(u.values[m], faces, h)
        res = ut - lap
        if source is not None:
            res = res - f[m]
        inner = tuple(slice(1, -1) for _ in range(grid.n))
        out[m][inner] = res[inner]
    return GridFunction(grid, out)


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
    psi must vanish on the spatial boundary of the region.
    """
    grid = u.grid
    if psi.grid != grid:
        raise ValueError("psi must live on the solution grid")
    idx, tw = region.time_weights(grid)
    sw = region.space_weights(grid)
    _check_compact_support(psi, region, grid)
    f = make_source(source, grid).field

    psi_t = _time_derivative(psi.values, grid.dt)
    boundary_term = float(
        np.sum(u.values[idx[-1]] * psi.values[idx[-1]] * sw)
        - np.sum(u.values[idx[0]] * psi.values[idx[0]] * sw)
    )
    bulk = 0.0
    for j, w_t in zip(idx, tw):
        gu = u.gradient_slice(j)
        gpsi = psi.gradient_slice(j)
        gmag = np.sqrt(np.sum(gu * gu, axis=0))
        flux_dot = np.sum(gu * gpsi, axis=0) * np.where(gmag > 0, gmag, 1.0) ** (p - 2.0)
        integrand = -u.values[j] * psi_t[j] + flux_dot - f.values[j] * psi.values[j]
        bulk += w_t * float(np.sum(integrand * sw))
    return boundary_term + bulk


def _check_compact_support(psi: GridFunction, region: Region, grid: SpaceTimeGrid) -> None:
    sw = region.space_mask(grid)
    if not sw.any():
        raise ValueError("region contains no spatial nodes")
    # rim = member nodes with a non-member neighbor on some axis
    rim = np.zeros_like(sw)
    for ax in range(grid.n):
        shifted = np.roll(sw, 1, axis=ax)
        shifted[tuple(slice(0, 1) if a == ax else slice(None) for a in range(grid.n))] = False
        rim |= sw & ~shifted
        shifted = np.roll(sw, -1, axis=ax)
        shifted[tuple(slice(-1, None) if a == ax else slice(None) for a in range(grid.n))] = False
        rim |= sw & ~shifted
    idx = region.time_indices(grid)
    peak = max(float(np.max(np.abs(psi.values[j][rim]))) for j in idx)
    scale = max(float(np.max(np.abs(psi.values[idx]))), 1e-300)
    # polynomial bumps reach O((h/width)^2) at the outermost member node
    if region.radius is not None:
        w_min = region.radius
    else:
        w_min = min(region.half_widths)
    tol = max(1e-8, (4.0 * grid.h / w_min) ** 2)
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
            vals = ramp[(...,) + (None,) * grid.n] * space[None]
            battery.append(GridFunction(grid, np.broadcast_to(vals, grid.shape).copy()))
    return battery


def make_cutoff(grid: SpaceTimeGrid, region: Region, power: int = 2) -> GridFunction:
    """[0,1]-valued cutoff: polynomial bump in space, smooth ramp-up in time.

    Vanishes on the spatial rim of the region and at its initial time;
    equals its spatial profile afterwards, so the time derivative is
    supported where the ramp rises.
    """
    return bump_battery(grid, region, powers=(power,), scales=(1.0,))[0]


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
    idx, tw = region.time_weights(grid)
    sw = region.space_weights(grid)
    f_norm = make_source(source, grid).norm_qr
    xi_t = _time_derivative(xi, grid.dt)

    sup_term = 0.0
    grad_term = 0.0
    rhs_bulk = 0.0
    rhs_time = 0.0
    for j, w_t in zip(idx, tw):
        uj = u.values[j]
        xj = xi[j]
        sup_term = max(sup_term, float(np.sum(uj * uj * xj**p * sw)))
        gu = u.gradient_slice(j)
        gxi = cutoff.gradient_slice(j)
        gu_mag = np.sqrt(np.sum(gu * gu, axis=0))
        gxi_mag = np.sqrt(np.sum(gxi * gxi, axis=0))
        grad_term += w_t * float(np.sum(gu_mag**p * xj**p * sw))
        rhs_bulk += w_t * float(np.sum(np.abs(uj) ** p * (xj**p + gxi_mag**p) * sw))
        rhs_time += w_t * float(np.sum(uj * uj * xj ** (p - 1.0) * np.abs(xi_t[j]) * sw))
    lhs = sup_term + grad_term
    rhs = rhs_bulk + c_fit * rhs_time + c_fit * f_norm
    return lhs, rhs
