import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab import solver as solver_module
from plaplab.grids import (
    GridFunction,
    Region,
    SpaceTimeGrid,
    anisotropic_norm,
    full_domain_region,
)
from plaplab.solver import (
    BoundarySpec,
    CflError,
    SolveConfig,
    SolverError,
    SourceSpec,
    barenblatt_support_radius,
    bump_battery,
    caccioppoli_gap,
    make_cutoff,
    make_source,
    reference_slice,
    reference_solutions,
    semi_discrete_residual,
    solve,
    truncation_estimate,
    weak_residual,
)
from plaplab.solver import (
    _dst_basis,
    _fast_diagonal_preconditioner,
    _pcg,
    _shifted,
    _source_reader,
    _StepOperator,
    _tridiag_factor,
    _tridiag_solve,
)


def grid1d(h=1 / 32, dt=None, t_end=0.1, t_start=0.0, extent=1.0):
    dt = dt if dt is not None else h * h
    steps = max(2, round((t_end - t_start) / dt))
    return SpaceTimeGrid(
        n=1, extent=extent, h=h, dt=dt, t_start=t_start, t_end=t_start + steps * dt
    )


# ---------------------------------------------------------------------------
# sources

def test_zero_and_constant_sources():
    g = grid1d(h=1 / 16, dt=1 / 64, t_end=1.0)
    z = make_source(SourceSpec(kind="zero", q=2.0, r=2.0), g)
    assert z.norm_qr == 0.0
    c = make_source(SourceSpec(kind="constant", c=0.9, q=4.0, r=3.0), g)
    # constant on [-1,1] x (0,1]: norm = c * 2^(1/q)
    assert c.norm_qr == pytest.approx(0.9 * 2.0 ** (1 / 4), rel=1e-12)


def test_separable_power_certificate():
    g = grid1d(h=1 / 16, dt=1 / 64, t_end=1.0)
    with pytest.raises(ValueError):
        make_source(SourceSpec(kind="separable_power", a=0.6, b=0.0, q=2.0, r=4.0), g)
    with pytest.raises(ValueError):
        make_source(SourceSpec(kind="separable_power", a=0.0, b=0.3, q=4.0, r=4.0), g)
    ok = make_source(SourceSpec(kind="separable_power", a=0.3, b=0.1, q=2.0, r=4.0), g)
    assert np.isfinite(ok.norm_qr) and ok.norm_qr > 0


def test_separable_power_norm_against_fine_grid():
    # attached norm at h vs the same quadrature at h/4: within 2 percent
    spec = SourceSpec(kind="separable_power", a=0.5, b=0.1, q=3.0, r=5.0)
    g2 = SpaceTimeGrid(n=2, extent=1.0, h=1 / 24, dt=1 / 16, t_start=0.0, t_end=1.0)
    coarse = make_source(spec, g2).norm_qr
    g2f = SpaceTimeGrid(n=2, extent=1.0, h=1 / 96, dt=1 / 64, t_start=0.0, t_end=1.0)
    fine = make_source(spec, g2f).norm_qr
    assert coarse == pytest.approx(fine, rel=0.02)


def test_tabulated_source_round_trip():
    g = grid1d(h=1 / 16, dt=1 / 64, t_end=0.25)
    table = GridFunction.from_callable(g, lambda x, t: np.cos(x) * (1 + t))
    src = make_source(SourceSpec(kind="tabulated", table=table, q=2.0, r=3.0), g)
    assert np.array_equal(src.field.values, table.values)
    region = full_domain_region(g)
    assert src.norm_qr == pytest.approx(anisotropic_norm(table, 2.0, 3.0, region), rel=1e-12)
    other = grid1d(h=1 / 8, dt=1 / 64, t_end=0.25)
    with pytest.raises(ValueError):
        make_source(SourceSpec(kind="tabulated", table=table), other)


def test_time_power_norm_matches_closed_form():
    # f = t^(-b) on [-1,1] x (0,1]: ||f||_(q,r) = 2^(1/q) (1/(1-br))^(1/r)
    b, q, r = 0.2, 4.0, 4.0
    g = grid1d(h=1 / 8, dt=1 / 512, t_end=1.0)
    src = make_source(SourceSpec(kind="separable_power", a=0.0, b=b, q=q, r=r), g)
    exact = 2.0 ** (1 / q) * (1.0 / (1.0 - b * r)) ** (1 / r)
    assert src.norm_qr == pytest.approx(exact, rel=0.02)


# ---------------------------------------------------------------------------
# solve: fixed points and stability

def test_constant_fixed_point():
    g = grid1d(h=1 / 16, dt=1 / 256, t_end=0.05)
    cfg = SolveConfig(p=3.0, boundary=BoundarySpec(kind="constant", value=0.8))
    u = solve(g, cfg, SourceSpec(kind="zero"), np.full(g.spatial_shape, 0.8))
    assert float(np.max(np.abs(u.values - 0.8))) < 1e-8


def test_affine_fixed_point():
    g = grid1d(h=1 / 16, dt=1 / 256, t_end=0.05)
    for p in (1.5, 2.0, 3.0):
        cfg = SolveConfig(
            p=p, boundary=BoundarySpec(kind="affine", value=0.1, gradient=(0.5,))
        )
        init = 0.1 + 0.5 * g.axis_nodes()
        u = solve(g, cfg, SourceSpec(kind="zero"), init)
        exact = 0.1 + 0.5 * g.axis_nodes()
        assert float(np.max(np.abs(u.values - exact[None, :]))) < 1e-8


def test_affine_shift_invariance_on_affine_family():
    # adding an affine function to data shifts the zero-source solution exactly
    g = grid1d(h=1 / 16, dt=1 / 256, t_end=0.05)
    p = 3.0
    base = SolveConfig(p=p, boundary=BoundarySpec(kind="affine", value=0.0, gradient=(0.3,)))
    u1 = solve(g, base, SourceSpec(kind="zero"), 0.3 * g.axis_nodes())
    shifted = SolveConfig(p=p, boundary=BoundarySpec(kind="affine", value=0.2, gradient=(0.3,)))
    u2 = solve(g, shifted, SourceSpec(kind="zero"), 0.2 + 0.3 * g.axis_nodes())
    assert np.allclose(u2.values - u1.values, 0.2, atol=1e-9)


def test_maximum_principle_linear():
    g = grid1d(h=1 / 32, dt=1 / 128, t_end=0.25)
    rng = np.random.default_rng(3)
    init = np.clip(0.2 + 0.6 * rng.random(g.spatial_shape), 0.0, 1.0)
    init[0] = init[-1] = 0.4
    cfg = SolveConfig(p=2.0, boundary=BoundarySpec(kind="constant", value=0.4))
    u = solve(g, cfg, SourceSpec(kind="zero"), init)
    assert u.values.min() >= init.min() - 1e-12
    assert u.values.max() <= init.max() + 1e-12


def test_explicit_scheme_matches_implicit_and_cfl_guard():
    h = 1 / 32
    g = grid1d(h=h, dt=0.4 * h * h, t_end=0.01)
    mode = reference_solutions("heat_mode", 2.0, 1, g)
    cfg_e = SolveConfig(p=2.0, scheme="explicit", boundary=BoundarySpec(kind="zero"))
    cfg_i = SolveConfig(p=2.0, boundary=BoundarySpec(kind="zero"))
    src = SourceSpec(kind="zero")
    ue = solve(g, cfg_e, src, mode.values[0])
    ui = solve(g, cfg_i, src, mode.values[0])
    assert float(np.max(np.abs(ue.values - ui.values))) < 2e-3
    bad = grid1d(h=h, dt=2.0 * h * h, t_end=0.01)
    with pytest.raises(CflError):
        solve(bad, cfg_e, src, reference_solutions("heat_mode", 2.0, 1, bad).values[0])


# ---------------------------------------------------------------------------
# 2D and 3D schemes

def box_grid(n, h, dt, steps):
    return SpaceTimeGrid(n=n, extent=1.0, h=h, dt=dt, t_start=0.0, t_end=steps * dt)


@pytest.mark.parametrize("scheme", ["explicit", "semi_implicit"])
@pytest.mark.parametrize("n", [2, 3])
def test_nd_schemes_converge_to_the_heat_eigenmode(n, scheme):
    # dt = h^2 / 10 is inside the explicit bound 0.45 h^2 / n; the error is
    # O(h^2) in space and O(dt) = O(h^2) in time
    errs = []
    for h in (1 / 8, 1 / 16):
        dt = 0.1 * h * h
        g = box_grid(n, h, dt, round(0.02 / dt))
        mode = reference_solutions("heat_mode", 2.0, n, g)
        cfg = SolveConfig(p=2.0, scheme=scheme, boundary=BoundarySpec(kind="zero"))
        u = solve(g, cfg, SourceSpec(kind="zero"), mode.values[0])
        errs.append(float(np.max(np.abs(u.values[-1] - mode.values[-1]))))
    assert np.log2(errs[0] / errs[1]) >= 1.7
    assert errs[1] < 4e-3


@pytest.mark.parametrize("n", [2, 3])
def test_nd_explicit_cfl_guard(n):
    # at p = 2 the diffusivity is 1, so the bound is dt <= 0.45 h^2 / n
    h = 1 / 8
    bound = 0.45 * h * h / n
    cfg = SolveConfig(p=2.0, scheme="explicit", boundary=BoundarySpec(kind="zero"))
    init = np.zeros(box_grid(n, h, bound, 2).spatial_shape)
    solve(box_grid(n, h, 0.95 * bound, 2), cfg, SourceSpec(kind="zero"), init)
    with pytest.raises(CflError, match="exceeds stability bound"):
        solve(box_grid(n, h, 1.05 * bound, 2), cfg, SourceSpec(kind="zero"), init)


@pytest.mark.parametrize("scheme", ["explicit", "semi_implicit"])
@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("n", [2, 3])
def test_nd_affine_field_stays_affine(n, p, scheme):
    # an affine field has a constant gradient, so div(D grad u) = 0: the
    # interior must stay on the plane the non-zero Dirichlet data lie on
    h = 1 / 8
    g = box_grid(n, h, 0.05 * h * h, 6)
    bd = BoundarySpec(kind="affine", value=0.1, gradient=(0.3, -0.2, 0.1)[:n])
    plane = bd.evaluate(g, 0.0)
    u = solve(g, SolveConfig(p=p, scheme=scheme, boundary=bd), SourceSpec(kind="zero"), plane)
    assert float(np.max(np.abs(u.values - plane))) < 1e-10


def test_reference_slice_is_a_slice_of_the_reference_field():
    for name, p, t_start in (("heat_mode", 2.0, 0.0), ("barenblatt", 3.0, 1.0)):
        for n in (1, 2, 3):
            g = SpaceTimeGrid(n=n, extent=1.0, h=1 / 8, dt=1 / 64, t_start=t_start,
                              t_end=t_start + 4 / 64)
            field = reference_solutions(name, p, n, g)
            for j, t in enumerate(g.times()):
                assert np.array_equal(reference_slice(name, g, t, p), field.values[j])


def test_inner_solve_divergence_reports():
    # conjugate gradients run in 2D and 3D only; 1D steps are a direct solve
    g = SpaceTimeGrid(n=2, extent=1.0, h=1 / 16, dt=1 / 64, t_start=0.0, t_end=3 / 64)
    cfg = SolveConfig(p=2.0, max_inner_iters=1, newton_tol=1e-14,
                      boundary=BoundarySpec(kind="zero"))
    rng = np.random.default_rng(0)
    with pytest.raises(SolverError, match="did not reach rtol"):
        solve(g, cfg, SourceSpec(kind="constant", c=1.0), rng.random(g.spatial_shape))


@pytest.mark.parametrize("kind", ["zero", "constant"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_scalar_sources_match_their_tabulated_fields(n, kind):
    # zero and constant sources are read as a scalar per step; the tabulated
    # field of the same values must give the same bits, signed zeros included
    h = {1: 1 / 16, 2: 1 / 8, 3: 1 / 4}[n]
    g = box_grid(n, h, 0.02 * h * h, 4)  # inside the explicit bound
    c = 0.0 if kind == "zero" else -0.7
    table = GridFunction(g, np.full(g.shape, c))
    init = 0.1 * np.random.default_rng(n).standard_normal(g.spatial_shape)
    for scheme in ("semi_implicit", "explicit"):
        cfg = SolveConfig(p=3.0, scheme=scheme, eps_reg=0.5, boundary=BoundarySpec(kind="zero"))
        got = solve(g, cfg, SourceSpec(kind=kind, c=c), init).values
        want = solve(g, cfg, SourceSpec(kind="tabulated", table=table), init).values
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_non_finite_constant_source_is_rejected():
    g = box_grid(2, 1 / 8, 1 / 256, 2)
    with pytest.raises(ValueError, match="not finite"):
        solve(g, SolveConfig(p=2.0), SourceSpec(kind="constant", c=float("nan")),
              np.zeros(g.spatial_shape))


# ---------------------------------------------------------------------------
# the 2D/3D inner solve

def _random_coupling_operator(n, m, seed):
    # a step operator on the m^n interior cube with random face couplings of
    # contrast 1e3; the diagonal is rebuilt from them as the operator does
    rng = np.random.default_rng(seed)
    op = _StepOperator(np.zeros((m + 2,) * n), n, 1.0, 2.0, 0.0, 1.0)
    op.diag = 1.0
    for ax in range(n):
        shape = [m] * n
        shape[ax] = m + 1
        c = 10.0 ** rng.uniform(-1.0, 2.0, shape)
        lo, hi = _shifted(n, ax)
        op.couplings[ax] = c
        op.diag = op.diag + c[lo] + c[hi]
    return op


def _dense(linear, size, shape):
    cols = []
    for k in range(size):
        e = np.zeros(size)
        e[k] = 1.0
        cols.append(linear(e.reshape(shape)).ravel())
    return np.array(cols).T


@pytest.mark.parametrize("n, m", [(2, 9), (3, 5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_preconditioner_is_symmetric_positive_definite(n, m, seed):
    op = _random_coupling_operator(n, m, seed)
    precond = _fast_diagonal_preconditioner(op, _dst_basis(m))

    def minv(r):
        out = np.empty_like(r)
        precond(r, out)
        return out

    dense = _dense(minv, m**n, (m,) * n)
    assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))
    assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0.0  # x . M x > 0 for every x
    # and the step matrix it preconditions is the symmetric one CG needs
    a = _dense(op.apply, m**n, (m,) * n)
    assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))


@pytest.mark.parametrize("n", [2, 3])
def test_preconditioner_is_exact_at_p2(n):
    # at p = 2 the couplings are all dt / h^2, and the fast-diagonalisation
    # inverse is the inverse of the step matrix
    h = 1 / 8
    m = 2 * 8 - 1
    rng = np.random.default_rng(n)
    u = rng.standard_normal((m + 2,) * n)
    op = _StepOperator(u, n, h, 2.0, h, 3e-2)
    precond = _fast_diagonal_preconditioner(op, _dst_basis(m))
    r = rng.standard_normal((m,) * n)
    z = np.empty_like(r)
    precond(r, z)
    assert np.max(np.abs(op.apply(z) - r)) <= 1e-12 * np.max(np.abs(r))
    x0 = rng.standard_normal((m,) * n)
    x, iters = _pcg(op.apply, r, x0, precond, 1e-10, 5)
    assert iters == 1
    assert x is x0
    assert np.linalg.norm(op.apply(x) - r) <= 1e-10 * np.linalg.norm(r)


def test_preconditioned_3d_p3_step_iterations():
    # the first step of the 3D p = 3 heat-mode solve (h = 1/32, dt = 1e-3):
    # Jacobi-preconditioned CG took 39-41 iterations here
    g = box_grid(3, 1 / 32, 1e-3, 2)
    u = reference_solutions("heat_mode", 2.0, 3, g).values[0]
    op = _StepOperator(u, 3, g.h, 3.0, g.h, g.dt)
    inner = (slice(1, -1),) * 3
    precond = _fast_diagonal_preconditioner(op, _dst_basis(g.nodes_per_axis - 2))
    x, iters = _pcg(op.apply, u[inner].copy(), u[inner].copy(), precond, 1e-10, 500)
    assert iters <= 16
    assert np.linalg.norm(op.apply(x) - u[inner]) <= 1e-10 * np.linalg.norm(u[inner])


def test_inner_solve_may_converge_on_its_last_iteration():
    # at p = 2 a step converges in one iteration, so one is enough
    g = SpaceTimeGrid(n=2, extent=1.0, h=1 / 16, dt=1 / 64, t_start=0.0, t_end=3 / 64)
    cfg = SolveConfig(p=2.0, max_inner_iters=1, newton_tol=1e-10,
                      boundary=BoundarySpec(kind="zero"))
    init = np.random.default_rng(0).random(g.spatial_shape)
    solve(g, cfg, SourceSpec(kind="constant", c=1.0), init)


@pytest.mark.parametrize("p, what", [(2.0, "solution is not finite"), (3.0, "pivot nan")])
def test_direct_solve_reports_nan_initial_data(p, what):
    # at p = 2 the diffusivity ignores the NaN and the step matrix stays
    # sound, so the solution trips the guard; at p = 3 the pivots do
    g = grid1d(h=1 / 16, dt=1 / 256, t_end=0.05)
    init = np.zeros(g.spatial_shape)
    init[5] = np.nan
    with pytest.raises(SolverError, match=f"step 1 .*{what}"):
        solve(g, SolveConfig(p=p), SourceSpec(kind="zero"), init)


# ---------------------------------------------------------------------------
# the one time loop

@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_step_solver_is_built_once_per_solve_at_p2(monkeypatch, n, p):
    # at p = 2 the step matrix never changes, so neither does its solver
    builder = "_tridiag_factor" if n == 1 else "_fast_diagonal_preconditioner"
    real, builds = getattr(solver_module, builder), []
    monkeypatch.setattr(solver_module, builder, lambda *args: builds.append(1) or real(*args))
    h, steps = {1: 1 / 16, 2: 1 / 8, 3: 1 / 4}[n], 5
    g = box_grid(n, h, h * h, steps)
    init = reference_solutions("heat_mode", 2.0, n, g).values[0]
    solve(g, SolveConfig(p=p, boundary=BoundarySpec(kind="zero")), SourceSpec(kind="zero"), init)
    assert len(builds) == (1 if p == 2.0 else steps)


@pytest.mark.parametrize("scheme", ["semi_implicit", "explicit"])
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_nan_initial_data_names_the_failing_step(n, p, scheme):
    h = {1: 1 / 16, 2: 1 / 8, 3: 1 / 4}[n]
    g = box_grid(n, h, 0.02 * h * h, 3)  # inside the explicit bound
    init = np.zeros(g.spatial_shape)
    init[(2,) * n] = np.nan
    with pytest.raises(SolverError, match=r"^step 1 \(t = "):
        solve(g, SolveConfig(p=p, scheme=scheme, boundary=BoundarySpec(kind="zero")),
              SourceSpec(kind="zero"), init)


def test_cfl_error_is_not_renamed_by_the_step_report():
    h = 1 / 8
    g = box_grid(2, h, h * h, 2)
    cfg = SolveConfig(p=2.0, scheme="explicit", boundary=BoundarySpec(kind="zero"))
    with pytest.raises(CflError, match=r"^explicit dt="):
        solve(g, cfg, SourceSpec(kind="zero"), np.zeros(g.spatial_shape))


def _march_tridiagonal_reference(grid, config, source, initial):
    # the 1D semi-implicit march as its own loop, with its own boundary
    # terms; the shared time loop must reproduce it bit for bit
    p, eps, h, dt = config.p, config.resolved_eps(grid), grid.h, grid.dt
    source_at = _source_reader(source, grid)
    times = grid.times()
    out = np.empty(grid.shape)
    out[0] = config.boundary.evaluate(grid, times[0], p)
    out[0][1:-1] = initial[1:-1]
    u, levels = out[0], None
    for m in range(1, len(times)):
        if levels is None or p != 2.0:
            op = _StepOperator(u, 1, h, p, eps, dt)
            c = op.couplings[0]
            levels = _tridiag_factor(op.diag, -c[1:-1])
        b = config.boundary.evaluate(grid, times[m], p)
        rhs = u[1:-1] + dt * source_at(m)
        rhs[0] += c[0] * b[0]
        rhs[-1] += c[-1] * b[-1]
        w = _tridiag_solve(levels, rhs)
        u = out[m]
        u[0], u[-1] = b[0], b[-1]
        u[1:-1] = w
    return out


@pytest.mark.parametrize("p, boundary", [
    (1.5, "zero"), (2.0, "zero"), (3.0, "zero"),
    (1.5, "affine"), (2.0, "affine"), (3.0, "affine"),
    (3.0, "barenblatt"),
])
def test_1d_solve_matches_its_own_tridiagonal_march(p, boundary):
    t0 = 1.0 if boundary == "barenblatt" else 0.0
    g = grid1d(h=1 / 32, dt=1 / 512, t_start=t0, t_end=t0 + 0.05)
    bd = {"zero": BoundarySpec(kind="zero"),
          "affine": BoundarySpec(kind="affine", value=0.1, gradient=(0.3,)),
          "barenblatt": BoundarySpec(kind="reference", name="barenblatt")}[boundary]
    init = bd.evaluate(g, t0, p) + 0.05 * np.random.default_rng(7).standard_normal(g.spatial_shape)
    cfg = SolveConfig(p=p, boundary=bd)
    for src in (SourceSpec(kind="zero"),
                SourceSpec(kind="separable_power", a=0.0, b=0.2, q=np.inf, r=4.0)):
        got = solve(g, cfg, src, init).values
        assert np.array_equal(got, _march_tridiagonal_reference(g, cfg, src, init))


def _tridiagonal_system(n, seed, scale):
    # the step matrix of the solver: face couplings c = dt D / h^2 > 0 with
    # contrast up to 1e3 and magnitude up to 1e4; the rounding of the residual
    # grows like eps * max c
    rng = np.random.default_rng(seed)
    c = scale * 10.0 ** rng.uniform(0.0, 3.0, n + 1)
    return 1.0 + c[:-1] + c[1:], -c[1:-1], rng.standard_normal(n)


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(1, 1100), st.sampled_from([1, 2, 3, 4, 7, 8, 511, 512, 1023, 1024])),
       seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 10.0))
def test_tridiagonal_solve_matches_dense(n, seed, scale):
    diag, off, rhs = _tridiagonal_system(n, seed, scale)
    x = _tridiag_solve(_tridiag_factor(diag, off), rhs)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    residual = np.linalg.norm(dense @ x - rhs) / np.linalg.norm(rhs)
    assert residual <= 1e-12
    exact = np.linalg.solve(dense, rhs)
    assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)


def test_tridiagonal_factor_rejects_bad_pivots():
    with pytest.raises(SolverError, match="pivot"):
        _tridiag_factor(np.array([1.0, -3.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(SolverError, match="pivot"):
        _tridiag_factor(np.array([1.0, np.inf, 1.0]), np.array([0.5, 0.5]))


def test_1d_solve_does_not_import_scipy_linalg():
    # importing scipy.linalg costs about 27 MB of resident memory
    code = (
        "import sys, numpy as np\n"
        "from plaplab.grids import SpaceTimeGrid\n"
        "from plaplab.solver import SolveConfig, SourceSpec, solve\n"
        "g = SpaceTimeGrid(n=1, extent=1.0, h=1 / 32, dt=1 / 1024, t_start=0.0, t_end=1 / 64)\n"
        "solve(g, SolveConfig(p=3.0), SourceSpec(kind='constant', c=1.0), np.zeros(g.spatial_shape))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("field, value", [
    ("newton_tol", float("nan")), ("newton_tol", float("inf")), ("newton_tol", 0.0),
    ("newton_tol", -1.0), ("max_inner_iters", 0), ("eps_reg", float("nan")),
])
def test_solve_config_rejects_bad_inner_solve_settings(field, value):
    with pytest.raises(ValueError, match=field):
        SolveConfig(p=2.0, **{field: value})


def test_source_exponents_must_lie_in_range():
    for q, r in ((0.5, 2.0), (2.0, 0.0), (float("nan"), 2.0)):
        with pytest.raises(ValueError):
            SourceSpec(kind="zero", q=q, r=r)


# ---------------------------------------------------------------------------
# reference solutions

def test_heat_mode_values():
    g = grid1d(h=1 / 8, dt=1 / 32, t_end=0.25)
    u = reference_solutions("heat_mode", 2.0, 1, g)
    x = g.axis_nodes()
    for j, t in enumerate(g.times()):
        assert np.allclose(u.values[j], np.exp(-np.pi**2 * t) * np.sin(np.pi * x), atol=1e-14)


def test_heat_mode_convergence_order():
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        g = grid1d(h=h, dt=0.5 * h * h, t_end=0.05)
        mode = reference_solutions("heat_mode", 2.0, 1, g)
        cfg = SolveConfig(p=2.0, boundary=BoundarySpec(kind="zero"))
        u = solve(g, cfg, SourceSpec(kind="zero"), mode.values[0])
        errs.append(float(np.max(np.abs(u.values[-1] - mode.values[-1]))))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) >= 1.7


def test_barenblatt_requirements():
    g = grid1d(h=1 / 16, dt=1 / 64, t_end=0.1)
    with pytest.raises(ValueError):
        reference_solutions("barenblatt", 3.0, 1, g)  # t_start = 0
    with pytest.raises(ValueError):
        reference_solutions("barenblatt", 2.0, 1, grid1d(t_start=1.0, t_end=1.1))


def test_barenblatt_compact_support():
    g = SpaceTimeGrid(n=1, extent=4.0, h=1 / 16, dt=1 / 64, t_start=1.0, t_end=1.25)
    u = reference_solutions("barenblatt", 3.0, 1, g)
    rad = barenblatt_support_radius(1.25, 3.0, 1)
    x = g.axis_nodes()
    assert rad < 4.0
    assert np.all(u.values[-1][np.abs(x) > rad + g.h] == 0.0)
    assert u.values[-1][np.abs(x) < 0.5].min() > 0.0


def test_barenblatt_dirichlet_solve_second_order():
    # the solver against the exact degenerate solution, with its time-dependent
    # Dirichlet data: the box [-2, 2] lies inside the support. dt = h^2, so the
    # error is O(h^2) on a window away from the central gradient cusp
    p = 3.0
    cfg = SolveConfig(p=p, boundary=BoundarySpec(kind="reference", name="barenblatt"))
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        g = SpaceTimeGrid(n=1, extent=2.0, h=h, dt=h * h, t_start=1.0, t_end=1.25)
        exact = reference_solutions("barenblatt", p, 1, g)
        u = solve(g, cfg, SourceSpec(kind="zero"), exact.values[0])
        x = g.axis_nodes()
        rad = barenblatt_support_radius(g.t_end, p, 1)
        assert rad > g.extent and exact.values[-1][0] > 0.0
        window = (np.abs(x) > 0.25 * rad) & (np.abs(x) < 0.5 * rad)
        errs.append(float(np.max(np.abs(u.values[-1] - exact.values[-1])[window])))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) >= 1.7
    assert errs[-1] < 1e-4


@pytest.mark.parametrize("n, extent, hs", [(2, 2.0, (1 / 8, 1 / 16, 1 / 32)),
                                           (3, 1.5, (1 / 8, 1 / 16))])
def test_barenblatt_dirichlet_solve_second_order_nd(n, extent, hs):
    # as the 1D test, through the preconditioned conjugate gradients: the box
    # lies inside the support, dt = h^2, and the window keeps off the cusp
    p = 3.0
    cfg = SolveConfig(p=p, boundary=BoundarySpec(kind="reference", name="barenblatt"))
    errs = []
    for h in hs:
        g = SpaceTimeGrid(n=n, extent=extent, h=h, dt=h * h, t_start=1.0, t_end=1.0 + 0.125)
        exact = reference_solutions("barenblatt", p, n, g)
        u = solve(g, cfg, SourceSpec(kind="zero"), exact.values[0])
        rad = barenblatt_support_radius(g.t_end, p, n)
        assert rad > extent * np.sqrt(n)
        r = np.sqrt(sum(x * x for x in g.meshgrid()))
        window = (r > 0.25 * rad) & (r < 0.5 * rad)
        errs.append(float(np.max(np.abs(u.values[-1] - exact.values[-1])[window])))
    assert min(np.log2(np.array(errs[:-1]) / np.array(errs[1:]))) >= 1.7
    assert errs[-1] < 1e-3


@pytest.mark.parametrize("n, h, extent", [(1, 1 / 32, 4.0), (2, 1 / 16, 4.0), (3, 1 / 4, 2.0)])
def test_semi_discrete_residual_matches_one_batched_build(n, h, extent):
    # the residual as one operator build over every interior slice; the
    # chunked build must give the same bits, a short last chunk included
    g = SpaceTimeGrid(n=n, extent=extent, h=h, dt=h * h, t_start=1.0, t_end=1.0 + 32 * h * h)
    u = reference_solutions("barenblatt", 3.0, n, g)
    v, space = u.values, (Ellipsis,) + (slice(1, -1),) * n
    for source, eps in ((None, 0.0), (SourceSpec(kind="constant", c=0.3), 0.01)):
        op = _StepOperator(v[1:-1], n, g.h, 3.0, eps, 1.0)
        want = np.zeros(g.shape)
        want[1:-1][space] = (v[2:][space] - v[:-2][space]) / (2.0 * g.dt) - op.flux(v[1:-1])
        if source is not None:
            want[1:-1][space] -= make_source(source, g).field.values[1:-1][space]
        assert np.array_equal(semi_discrete_residual(u, 3.0, source, eps).values, want)


def test_semi_discrete_residual_memory_is_bounded():
    # the operator is built over bounded chunks of slices: the peak is the
    # result and its frozen copy plus a fraction of the field
    g = SpaceTimeGrid(n=2, extent=4.0, h=1 / 32, dt=1 / 1024, t_start=1.0, t_end=1.0 + 32 / 1024)
    u = reference_solutions("barenblatt", 3.0, 2, g)
    tracemalloc.start()
    try:
        semi_discrete_residual(u, 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * u.values.nbytes


def test_barenblatt_residual_first_order():
    # interior residual away from the support edge and the central cusp
    errs = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        g = SpaceTimeGrid(n=1, extent=4.0, h=h, dt=h * h, t_start=1.0, t_end=1.0 + 32 * h * h)
        u = reference_solutions("barenblatt", 3.0, 1, g)
        res = semi_discrete_residual(u, 3.0)
        x = g.axis_nodes()
        rad = barenblatt_support_radius(g.t_start, 3.0, 1)
        window = (np.abs(x) > 0.15 * rad) & (np.abs(x) < 0.8 * rad)
        mid = res.values[1:-1][:, window]
        errs.append(float(np.max(np.abs(mid))))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    order = np.log2(errs[1] / errs[2])
    assert order >= 1.0


# ---------------------------------------------------------------------------
# weak residual

def probe_region(g, frac=0.8):
    return Region(
        center=(0.0,) * g.n,
        half_widths=(g.extent * frac,) * g.n,
        t_start=g.t_start,
        t_end=g.t_end,
    )


def test_weak_residual_constant_is_zero():
    g = grid1d(h=1 / 16, dt=1 / 128, t_end=0.25)
    u = GridFunction(g, np.full(g.shape, 1.3))
    region = probe_region(g)
    for psi in bump_battery(g, region):
        r = weak_residual(u, SourceSpec(kind="zero"), psi, region, p=2.0)
        assert abs(r) < 1e-10


def test_weak_residual_eigenmode_refines():
    # bump center offset from the eigenmode's symmetry point so nothing
    # cancels by parity
    vals = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        g = grid1d(h=h, dt=0.5 * h * h, t_end=0.05)
        u = reference_solutions("heat_mode", 2.0, 1, g)
        region = Region(center=(0.25,), half_widths=(0.7,), t_start=g.t_start, t_end=g.t_end)
        psi = bump_battery(g, region, powers=(2,), scales=(1.0,))[0]
        vals.append(abs(weak_residual(u, SourceSpec(kind="zero"), psi, region, p=2.0)))
    assert vals[2] < vals[1] < vals[0]
    assert np.log2(vals[1] / vals[2]) > 1.2


def test_weak_residual_of_solver_output_small():
    h = 1 / 32
    g = grid1d(h=h, dt=0.5 * h * h, t_end=0.05)
    mode = reference_solutions("heat_mode", 2.0, 1, g)
    cfg = SolveConfig(p=2.0, boundary=BoundarySpec(kind="zero"))
    u = solve(g, cfg, SourceSpec(kind="zero"), mode.values[0])
    region = Region(center=(0.25,), half_widths=(0.7,), t_start=g.t_start, t_end=g.t_end)
    psi = bump_battery(g, region, powers=(3,), scales=(0.75,))[0]
    r = abs(weak_residual(u, SourceSpec(kind="zero"), psi, region, p=2.0))
    assert r <= 10.0 * truncation_estimate(u)


def test_weak_residual_rejects_noncompact_psi():
    g = grid1d(h=1 / 16, dt=1 / 64, t_end=0.25)
    u = GridFunction(g, np.zeros(g.shape))
    region = probe_region(g)
    flat = GridFunction(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        weak_residual(u, SourceSpec(kind="zero"), flat, region, p=2.0)


# ---------------------------------------------------------------------------
# energy inequality

def test_caccioppoli_zero_solution_equality():
    g = grid1d(h=1 / 16, dt=1 / 64, t_end=0.25)
    u = GridFunction(g, np.zeros(g.shape))
    region = probe_region(g)
    xi = make_cutoff(g, region)
    lhs, rhs = caccioppoli_gap(u, SourceSpec(kind="zero"), xi, region, p=2.0, c_fit=1.0)
    assert lhs == 0.0 and rhs == 0.0


def test_caccioppoli_eigenmode_holds():
    g = grid1d(h=1 / 32, dt=1 / 256, t_end=0.25)
    u = reference_solutions("heat_mode", 2.0, 1, g)
    region = probe_region(g)
    xi = make_cutoff(g, region)
    # fit the needed constant, then check the inequality with it
    lhs, rhs0 = caccioppoli_gap(u, SourceSpec(kind="zero"), xi, region, p=2.0, c_fit=0.0)
    lhs1, rhs1 = caccioppoli_gap(u, SourceSpec(kind="zero"), xi, region, p=2.0, c_fit=1.0)
    time_term = rhs1 - rhs0
    assert time_term > 0
    needed = max(0.0, (lhs - rhs0) / time_term)
    lhs2, rhs2 = caccioppoli_gap(u, SourceSpec(kind="zero"), xi, region, p=2.0, c_fit=needed * 1.01 + 0.01)
    assert lhs2 <= rhs2


def test_caccioppoli_quadratic_scaling_for_heat():
    g = grid1d(h=1 / 32, dt=1 / 128, t_end=0.25)
    u = reference_solutions("heat_mode", 2.0, 1, g)
    u2 = GridFunction(g, 2.0 * u.values)
    region = probe_region(g)
    xi = make_cutoff(g, region)
    l1, r1 = caccioppoli_gap(u, SourceSpec(kind="zero"), xi, region, p=2.0, c_fit=1.0)
    l2, r2 = caccioppoli_gap(u2, SourceSpec(kind="zero"), xi, region, p=2.0, c_fit=1.0)
    assert l2 == pytest.approx(4.0 * l1, rel=1e-10)
    assert r2 == pytest.approx(4.0 * r1, rel=1e-10)
    assert (l1 <= r1) == (l2 <= r2)


def test_caccioppoli_rejects_bad_cutoff():
    g = grid1d(h=1 / 16, dt=1 / 64, t_end=0.25)
    u = GridFunction(g, np.zeros(g.shape))
    region = probe_region(g)
    bad = GridFunction(g, np.full(g.shape, 1.5))
    with pytest.raises(ValueError):
        caccioppoli_gap(u, SourceSpec(kind="zero"), bad, region, p=2.0, c_fit=1.0)
