"""Finite-difference solver for u_t - div(|grad u|^(p-2) grad u) = f.

One step operator (_StepOperator), built once per step from the lagged
diffusivity (|grad u_old|^2 + eps^2)^((p-2)/2), serves every scheme and the
semi-discrete residual, and one time loop marches every dimension under
both schemes. The default scheme is semi-implicit: each step solves one SPD
linear system with the operator's step solver, directly by cyclic reduction
in 1D, and in 2D and 3D by conjugate gradients to newton_tol within
max_inner_iters, preconditioned by the fast-diagonalisation (DST-I) inverse
of the constant-coefficient step matrix with the mean coupling, scaled to
the operator's diagonal. At p = 2 the operator and its step solver are
built once per solve. The explicit scheme runs behind a CFL guard; a failed
step names its step and time. Dirichlet data only; the theory being
exercised is interior.

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
    RegionBlock,
    SpaceTimeGrid,
    anisotropic_norm,
    full_domain_region,
    initial_slice_mean_power,
    masked_abs_max,
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
            return reference_slice(self.name, grid, t, p)
        if self.kind == "custom":
            return np.asarray(self.fn(*grid.meshgrid(), t), dtype=float)
        raise ValueError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class SolveConfig:
    """Scheme parameters; eps_reg = None means eps = h at solve time.

    newton_tol (relative residual) and max_inner_iters govern the
    conjugate-gradient solve of the semi-implicit scheme in 2D and 3D, which
    is preconditioned by a diagonally scaled fast-diagonalisation solver;
    1D steps are solved directly.
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
        if self.eps_reg is not None and not self.eps_reg >= 0:  # NaN included
            raise ValueError(f"eps_reg must be nonnegative, got {self.eps_reg}")
        if not (math.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError(f"newton_tol must be finite and positive, got {self.newton_tol}")
        if self.max_inner_iters < 1:
            raise ValueError(f"max_inner_iters must be at least 1, got {self.max_inner_iters}")

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


def _source_reader(spec: SourceSpec, grid: SpaceTimeGrid):
    """source_at(j): the source on the interior nodes of time slices j (an
    index or a slice). Zero and constant sources read as a scalar, so no
    space-time field is built for them."""
    if spec.kind in ("zero", "constant"):
        c = 0.0 if spec.kind == "zero" else float(spec.c)
        if not math.isfinite(c):
            raise ValueError(f"constant source value {c} is not finite")
        return lambda j: c
    values = _source_field(spec, grid).values
    inner = (Ellipsis,) + (slice(1, -1),) * grid.n
    return lambda j: values[j][inner]


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
    return GridFunction(grid, spec.amplitude * tvals[(...,) + (None,) * grid.n] * space[None])


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


class _StepOperator:
    """The discrete operator of one step, built once from the lagged field u,
    whose trailing n axes are space (leading axes are a batch).

    couplings[ax] holds scale * D / h^2, D = (|grad u|^2 + eps^2)^((p-2)/2)
    averaged onto the axis-ax faces that touch an interior node; diag is the
    diagonal of the step matrix I - scale div(D grad .) on interior nodes.
    _ends holds (couplings, interior end, its Dirichlet node) per axis end for
    add_boundary, indexed without an Ellipsis so a 1D end reads as a scalar.
    """

    def __init__(self, u: np.ndarray, n: int, h: float, p: float, eps: float, scale: float):
        grads = np.gradient(u, h, axis=tuple(range(u.ndim - n, u.ndim)))
        grads = [grads] if n == 1 else grads
        d_node = grads[0] * grads[0]
        for g in grads[1:]:
            d_node += g * g
        del grads
        d_node += eps * eps
        d_node **= (p - 2.0) / 2.0
        self.n = n
        self.couplings = []
        self.diag = 1.0
        self._ends = []
        lead, inner = (slice(None),) * (u.ndim - n), (slice(1, -1),)
        for ax in range(n):
            lo, hi = _shifted(n, ax)
            d = d_node[_on_axis(n, ax, slice(None), slice(1, -1))]
            c = (scale / (h * h)) * (0.5 * (d[lo] + d[hi]))
            self.couplings.append(c)
            self.diag = self.diag + c[lo] + c[hi]
            for end in (0, -1):
                self._ends.append((c, lead + (slice(None),) * ax + (end,),
                                   lead + inner * ax + (end,) + inner * (n - 1 - ax)))

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
        """The step matrix times the interior values w, written into out if given."""
        out = np.multiply(self.diag, w, out=out)
        for ax, c in enumerate(self.couplings):
            lo, hi = _shifted(self.n, ax)
            between = c[lo][hi]  # the faces between two interior nodes
            out[lo] -= between * w[hi]
            out[hi] -= between * w[lo]
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
    """Apply basis along every axis of the 2D or 3D cube v by plain matmuls,
    ping-ponging between v and work (both overwritten); returns the one
    holding the result."""
    m = basis.shape[0]
    np.matmul(basis, v.reshape(m, -1), out=work.reshape(m, -1))  # first axis
    v, work = work, v
    if v.ndim == 3:
        np.matmul(basis, v, out=work)  # middle axis, batched over the first
        v, work = work, v
    np.matmul(v.reshape(-1, m), basis, out=work.reshape(-1, m))  # last axis
    return work


def _fast_diagonal_preconditioner(op: _StepOperator, basis: np.ndarray):
    """M^-1 r = s * Phi(Phi(s * r) / (1 + cbar sum_ax lambda_ax)) for the step matrix of op.

    Phi is the DST-I along every axis, which diagonalises the constant-
    coefficient step matrix I + cbar * (negative Dirichlet Laplacian) on the
    interior cube, with eigenvalues 1 + cbar * sum of lambda_k = 2 - 2 cos(k pi
    / (m + 1)) over the axes (fast diagonalisation, Lynch, Rice & Thomas 1964).
    cbar is the mean coupling and s = sqrt(mean(diag) / diag) scales that
    inverse to the operator's diagonal (Concus & Golub 1973). M is symmetric
    positive definite and, at p = 2, the exact inverse of the step matrix.
    Returns precond(r, out), which writes M^-1 r into out.
    """
    m, n = basis.shape[0], op.n
    dbar = float(np.mean(op.diag))
    cbar = (dbar - 1.0) / (2 * n)
    s = np.sqrt(dbar / op.diag)
    lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
    inv_eig = sum(lam.reshape([-1 if a == ax else 1 for a in range(n)]) for ax in range(n))
    inv_eig *= cbar
    inv_eig += 1.0
    np.reciprocal(inv_eig, out=inv_eig)
    work = np.empty_like(s)

    def precond(r: np.ndarray, out: np.ndarray) -> None:
        np.multiply(s, r, out=out)
        mid = _dst_all_axes(out, work, basis)
        mid *= inv_eig
        back = _dst_all_axes(mid, work if mid is out else out, basis)
        np.multiply(s, back, out=out)

    return precond


def _pcg(apply_a, b, x, precond, rtol, maxiter):
    """Preconditioned conjugate gradients for apply_a(v, out) x = b from the
    start x; precond(r, out) writes M^-1 r into out. x, r and p are updated
    in place, so the loop's only temporaries are those inside apply_a, and
    the preconditioner runs only on a residual that has not converged.
    Returns (x, iterations)."""
    r = apply_a(x, np.empty_like(b))
    np.subtract(b, r, out=r)
    z, p, ap = np.empty_like(b), None, np.empty_like(b)
    bnorm = float(np.linalg.norm(b))
    target = rtol * (bnorm if bnorm > 0 else 1.0)
    for it in range(maxiter + 1):
        if float(np.linalg.norm(r)) <= target:
            return x, it
        if it == maxiter:
            break
        precond(r, z)
        rz_new = float(np.vdot(r, z))
        if p is None:
            p = z.copy()
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
    """Solve with a _tridiag_factor factor.

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
    return d[:n]


def _step_solver(op: _StepOperator, basis: np.ndarray | None, config: SolveConfig):
    """step_solve(rhs, x) solves the step matrix of op against rhs into x,
    which holds the start: by a tridiagonal factor in 1D, by preconditioned
    conjugate gradients in 2D and 3D."""
    if op.n == 1:
        levels = _tridiag_factor(op.diag, -op.couplings[0][1:-1])
        return lambda rhs, x: np.copyto(x, _tridiag_solve(levels, rhs))
    precond = _fast_diagonal_preconditioner(op, basis)
    return lambda rhs, x: _pcg(op.apply, rhs, x, precond, config.newton_tol, config.max_inner_iters)


def solve(
    grid: SpaceTimeGrid,
    config: SolveConfig,
    source: SourceSpec,
    initial: np.ndarray,
) -> GridFunction:
    """Time-march the regularized flow from `initial` under Dirichlet data.

    Semi-implicit: one SPD solve per step with the lagged diffusivity,
    unconditionally stable, first order in dt and second in h; the step
    solver (_step_solver) is direct in 1D and conjugate gradients in 2D and
    3D, and at p = 2 it is built once per solve, with the operator.
    Zero and constant sources are read as a scalar per step.
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
    basis = None if explicit or grid.n == 1 else _dst_basis(grid.nodes_per_axis - 2)
    op = step_solve = None
    for m in range(1, grid.num_times):
        try:
            if op is None or p != 2.0:  # at p = 2, D = 1 whatever u is
                op = step_solve = None  # the last step's solver goes before the next build
                op = _StepOperator(u, grid.n, h, p, eps, dt)
                cmax = max(float(c.max()) for c in op.couplings) if explicit else 0.0
                if cmax > 0.45 / grid.n:  # dt > 0.9 h^2 / (2 n max D)
                    dmax = cmax * h * h / dt
                    raise CflError(f"explicit dt={dt:.3e} exceeds stability bound "
                                   f"{0.45 * h * h / (grid.n * dmax):.3e} (max diffusivity {dmax:.3e})")
                step_solve = None if explicit else _step_solver(op, basis, config)
            u_new = out[m]
            u_new[...] = boundary_at(times[m])
            if explicit:
                u_new[inner] = u[inner] + op.flux(u) + dt * source_at(m - 1)
            else:
                rhs = u[inner] + dt * source_at(m)
                op.add_boundary(rhs, u_new)
                u_new[inner] = u[inner]  # the start, solved in place
                step_solve(rhs, u_new[inner])
                del rhs  # the step's workspace goes before the next build
            if not np.isfinite(u_new).all():
                raise SolverError("solution is not finite")
        except CflError:
            raise
        except SolverError as exc:
            raise SolverError(f"step {m} (t = {times[m]:.6g}): {exc}") from None
        u = u_new
    return GridFunction(grid, out)


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
    nodes = grid.axis_nodes()
    x = [nodes.reshape([-1 if a == ax else 1 for a in range(grid.n)]) for ax in range(grid.n)]
    if name == "heat_mode":
        k = np.pi / grid.extent
        out = np.exp(-grid.n * k * k * t)  # times one sine per axis
        for xa in x:
            out = out * np.sin(k * xa)
        return out
    if name == "barenblatt":
        if p is None:
            raise ValueError("barenblatt boundary data needs an explicit p")
        return barenblatt_profile(np.sqrt(sum(xa * xa for xa in x)), t, p, grid.n)
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
    if name == "heat_mode" and p != 2.0:
        raise ValueError("heat_mode requires p = 2")
    if name == "barenblatt" and p <= 2.0:
        raise ValueError("barenblatt requires p > 2")
    if name == "barenblatt" and grid.t_start <= 0.0:
        raise ValueError("barenblatt needs a time range bounded away from 0")
    return GridFunction(grid, reference_slice(name, grid, grid.times()[(...,) + (None,) * n], p))


_RESIDUAL_CHUNK_NODES = 1 << 16


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
    chunk = max(1, _RESIDUAL_CHUNK_NODES // math.prod(grid.spatial_shape))
    for j in range(1, grid.num_times - 1, chunk):
        k = min(j + chunk, grid.num_times - 1)
        op = _StepOperator(v[j:k], grid.n, grid.h, p, eps_reg, 1.0)
        res = (v[j + 1:k + 1][space] - v[j - 1:k - 1][space]) / (2.0 * grid.dt) - op.flux(v[j:k])
        if source_at is not None:
            res -= source_at(slice(j, k))
        out[j:k][space] = res
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
    blk = region.block(grid)
    _, tw = region.time_weights(grid)
    sw = region.space_weights(grid)[blk.box]
    _check_compact_support(psi, region, blk)
    f = _source_field(source, grid)

    space = tuple(range(1, grid.n + 1))
    uv, pv, fv = (v.values[blk.index] for v in (u, psi, f))
    psi_t = _time_derivative(psi.values[(slice(None),) + blk.box], grid.dt)[blk.times]
    boundary_term = float(np.sum(uv[-1] * pv[-1] * sw) - np.sum(uv[0] * pv[0] * sw))
    gu, gpsi = u.gradient_on(blk.index), psi.gradient_on(blk.index)
    gmag = np.sqrt(np.sum(gu * gu, axis=0))
    flux_dot = np.sum(gu * gpsi, axis=0) * np.where(gmag > 0, gmag, 1.0) ** (p - 2.0)
    integrand = -uv * psi_t + flux_dot - fv * pv
    return boundary_term + float(tw @ np.sum(integrand * sw, axis=space))


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
            battery.append(GridFunction(grid, ramp[(...,) + (None,) * grid.n] * space[None]))
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
    blk = region.block(grid)
    _, tw = region.time_weights(grid)
    sw = region.space_weights(grid)[blk.box]
    f_norm = make_source(source, grid).norm_qr
    xi_t = _time_derivative(xi[(slice(None),) + blk.box], grid.dt)[blk.times]

    space = tuple(range(1, grid.n + 1))

    def integral(vals):
        return float(tw @ np.sum(vals * sw, axis=space))

    uj, xj = u.values[blk.index], xi[blk.index]
    sup_term = float(np.max(np.sum(uj * uj * xj**p * sw, axis=space)))
    gu, gxi = u.gradient_on(blk.index), cutoff.gradient_on(blk.index)
    gu_mag = np.sqrt(np.sum(gu * gu, axis=0))
    gxi_mag = np.sqrt(np.sum(gxi * gxi, axis=0))
    grad_term = integral(gu_mag**p * xj**p)
    rhs_bulk = integral(np.abs(uj) ** p * (xj**p + gxi_mag**p))
    rhs_time = integral(uj * uj * xj ** (p - 1.0) * np.abs(xi_t))
    lhs = sup_term + grad_term
    rhs = rhs_bulk + c_fit * rhs_time + c_fit * f_norm
    return lhs, rhs
