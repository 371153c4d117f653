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
    _CyclicReduction,
    _dst_basis,
    _FastDiagonalPreconditioner,
    _pcg,
    _projected_start,
    _shifted,
    _SineTransform,
    _source_factors,
    _source_reader,
    _StepOperator,
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
    assert make_source(SourceSpec(kind="zero", q=2.0, r=2.0), g) == 0.0
    c = make_source(SourceSpec(kind="constant", c=0.9, q=4.0, r=3.0), g)
    # constant on [-1,1] x (0,1]: norm = c * 2^(1/q)
    assert c == pytest.approx(0.9 * 2.0 ** (1 / 4), rel=1e-12)


def test_separable_power_certificate():
    g = grid1d(h=1 / 16, dt=1 / 64, t_end=1.0)
    with pytest.raises(ValueError):
        make_source(SourceSpec(kind="separable_power", a=0.6, b=0.0, q=2.0, r=4.0), g)
    with pytest.raises(ValueError):
        make_source(SourceSpec(kind="separable_power", a=0.0, b=0.3, q=4.0, r=4.0), g)
    ok = make_source(SourceSpec(kind="separable_power", a=0.3, b=0.1, q=2.0, r=4.0), g)
    assert np.isfinite(ok) and ok > 0


def test_separable_power_norm_against_fine_grid():
    # attached norm at h vs the same quadrature at h/4: within 2 percent
    spec = SourceSpec(kind="separable_power", a=0.5, b=0.1, q=3.0, r=5.0)
    g2 = SpaceTimeGrid(n=2, extent=1.0, h=1 / 24, dt=1 / 16, t_start=0.0, t_end=1.0)
    coarse = make_source(spec, g2)
    g2f = SpaceTimeGrid(n=2, extent=1.0, h=1 / 96, dt=1 / 64, t_start=0.0, t_end=1.0)
    fine = make_source(spec, g2f)
    assert coarse == pytest.approx(fine, rel=0.02)


def test_tabulated_source_round_trip():
    g = grid1d(h=1 / 16, dt=1 / 64, t_end=0.25)
    table = GridFunction.from_callable(g, lambda x, t: np.cos(x) * (1 + t))
    spec = SourceSpec(kind="tabulated", table=table, q=2.0, r=3.0)
    norm = make_source(spec, g)
    assert np.array_equal(_source_reader(spec, g)((slice(None), slice(None))), table.values)
    region = full_domain_region(g)
    assert norm == pytest.approx(anisotropic_norm(table, 2.0, 3.0, region), rel=1e-12)
    other = grid1d(h=1 / 8, dt=1 / 64, t_end=0.25)
    with pytest.raises(ValueError):
        make_source(SourceSpec(kind="tabulated", table=table), other)


def test_time_power_norm_matches_closed_form():
    # f = t^(-b) on [-1,1] x (0,1]: ||f||_(q,r) = 2^(1/q) (1/(1-br))^(1/r)
    b, q, r = 0.2, 4.0, 4.0
    g = grid1d(h=1 / 8, dt=1 / 512, t_end=1.0)
    norm = make_source(SourceSpec(kind="separable_power", a=0.0, b=b, q=q, r=r), g)
    exact = 2.0 ** (1 / q) * (1.0 / (1.0 - b * r)) ** (1 / r)
    assert norm == pytest.approx(exact, rel=0.02)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["zero", "constant", "separable_power"])
def test_source_norm_from_its_factors_is_the_norm_of_its_field(kind, n):
    # the full-domain quadrature has product weights, so make_source takes
    # ||T||_r * ||S||_q; against the norm of the product field, singular
    # cells at the origin and at t = 0 included
    h = {1: 1 / 16, 2: 1 / 8, 3: 1 / 4}[n]
    g = SpaceTimeGrid(n=n, extent=1.0, h=h, dt=1 / 64, t_start=0.0, t_end=8 / 64)
    for q in (2.0, 3.5, np.inf):
        for r in (1.0, 4.0, np.inf):
            a = 0.0 if np.isinf(q) else 0.5 * n / q
            b = 0.0 if np.isinf(r) else 0.2
            spec = SourceSpec(kind=kind, c=-0.7, a=a, b=b, amplitude=1.3, q=q, r=r)
            if kind == "separable_power":
                at, space = _source_factors(spec, g)
                values = at[(Ellipsis,) + (None,) * n] * space[None]
            else:
                values = np.full(g.shape, spec.c if kind == "constant" else 0.0)
            want = anisotropic_norm(GridFunction(g, values), q, r, full_domain_region(g))
            assert make_source(spec, g) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_source_norm_builds_no_source_field():
    # a time factor and a few spatial arrays, against a field of 257 slices
    g = SpaceTimeGrid(n=2, extent=1.0, h=1 / 32, dt=1 / 1024, t_start=0.0, t_end=256 / 1024)
    field = 8 * g.num_times * g.nodes_per_axis**2
    power = SourceSpec(kind="separable_power", a=0.2, b=0.2, q=8.0, r=4.0)
    assert _peak_bytes(lambda: make_source(power, g)) < 0.1 * field


@pytest.mark.parametrize("name", ["c", "a", "b", "amplitude"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_source_value_is_a_value_error_before_any_step(monkeypatch, name, bad):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(solver_module, "_StepOperator", no_step)
    g = grid1d(h=1 / 16, dt=1 / 256, t_end=0.05)
    kind = "constant" if name == "c" else "separable_power"
    with pytest.raises(ValueError, match=f"^{name}: must be finite, got "):
        solve(g, SolveConfig(p=3.0), SourceSpec(kind=kind, q=4.0, r=4.0, **{name: bad}),
              np.zeros(g.spatial_shape))


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


def test_affine_gradient_needs_one_component_per_axis():
    g = grid1d(h=1 / 16, dt=1 / 256, t_end=0.05)
    with pytest.raises(ValueError, match="affine gradient has 2 components, the grid has 1 axes"):
        BoundarySpec(kind="affine", gradient=(1.0, 2.0)).evaluate(g, 0.0)
    cfg = SolveConfig(p=2.0, boundary=BoundarySpec(kind="affine", value=0.1, gradient=(1.0, 2.0)))
    with pytest.raises(ValueError, match="affine gradient"):
        solve(g, cfg, SourceSpec(kind="zero"), np.zeros(g.spatial_shape))
    # no gradient is the constant value
    assert np.array_equal(BoundarySpec(kind="affine", value=0.1).evaluate(g, 0.0),
                          np.full(g.spatial_shape, 0.1))


@pytest.mark.parametrize("kwargs, field", [({"kind": "sideways"}, "kind"),
                                           ({"kind": "reference", "name": "nope"}, "name")])
def test_boundary_spec_rejects_a_bad_kind_or_reference_name_at_construction(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field}: ") as err:
        BoundarySpec(**kwargs)
    assert err.value.field == field


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


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("n", [1, 2])
def test_the_solve_keeps_the_scaling_symmetry_of_the_equation(n, p):
    # v = A u(x, A^(p-2) t) solves the flow with source A^(p-1) f when u
    # solves it with f, and the regularised step keeps the map when eps
    # scales to A eps: its step matrix is unchanged and its right-hand side
    # scales by A. At p = 3, A^(p-2) = 2 and every rounding scales with it;
    # at p = 1.5 the scaled dt differs in its last bit
    a = 2.0
    h, steps = {1: 1 / 64, 2: 1 / 16}[n], 12
    init = np.random.default_rng(0).standard_normal((round(2 / h) + 1,) * n)

    def run(scale):
        dt = 1e-3 * scale ** -(p - 2.0)
        g = SpaceTimeGrid(n=n, extent=1.0, h=h, dt=dt, t_start=0.0, t_end=steps * dt)
        cfg = SolveConfig(p=p, eps_reg=scale * h, boundary=BoundarySpec(kind="zero"))
        src = SourceSpec(kind="separable_power", a=0.2, amplitude=scale ** (p - 1.0), q=4.0)
        return solve(g, cfg, src, scale * init).values

    base, scaled = a * run(1.0), run(a)
    assert scaled.shape == (steps + 1,) + init.shape
    if p == 3.0:
        assert np.array_equal(scaled, base)
    else:
        assert np.max(np.abs(scaled - base)) <= 1e-14 * np.max(np.abs(base))


def test_inner_solve_divergence_reports(monkeypatch):
    # conjugate gradients run in 2D and 3D off p = 2 only; 1D steps are a
    # direct solve, and p = 2 marches in the sine eigenbasis
    monkeypatch.setattr(solver_module, "_CG_MAX_ITERS", 1)
    monkeypatch.setattr(solver_module, "_CG_RTOL", 1e-14)
    g = SpaceTimeGrid(n=2, extent=1.0, h=1 / 16, dt=1 / 64, t_start=0.0, t_end=3 / 64)
    cfg = SolveConfig(p=3.0, boundary=BoundarySpec(kind="zero"))
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_separable_power_reader_is_its_field_bit_for_bit(n):
    # the singular cells at the origin and at t = 0 included
    h = {1: 1 / 16, 2: 1 / 8, 3: 1 / 4}[n]
    g = SpaceTimeGrid(n=n, extent=1.0, h=h, dt=1 / 64, t_start=0.0, t_end=8 / 64)
    spec = SourceSpec(kind="separable_power", a=0.4, b=0.3, amplitude=1.7, q=2.0, r=3.0)
    at, space = _source_factors(spec, g)
    values = at[(Ellipsis,) + (None,) * n] * space[None]  # the whole product field
    read = _source_reader(spec, g)
    for box in ((slice(1, -1),) * n, (slice(0, 3),) + (slice(2, None),) * (n - 1)):
        for j in (0, 3, slice(0, 4), slice(2, 9)):
            got, want = read((j,) + box), values[(j,) + box]
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_1d_singular_solve_builds_no_source_field(p):
    # the solve-1d singular case: the source is read a slice (or, at p = 2, a
    # chunk of slices) at a time, so the peak is the result plus a step's
    # workspace; the p = 2 march adds at most two chunk budgets of values
    g = SpaceTimeGrid(n=1, extent=1.0, h=1 / 256, dt=2e-5, t_start=0.0, t_end=400 * 2e-5)
    src = SourceSpec(kind="separable_power", a=0.0, b=0.2, q=np.inf, r=4.0)
    field = 8 * g.num_times * g.nodes_per_axis
    peak = _peak_bytes(lambda: solve(g, SolveConfig(p=p), src, np.zeros(g.spatial_shape)))
    if p == 2.0:
        assert peak <= field + 2 * 8 * solver_module._CHUNK_NODES
    else:
        assert peak <= 1.3 * field


def test_non_finite_constant_source_is_rejected():
    g = box_grid(2, 1 / 8, 1 / 256, 2)
    with pytest.raises(ValueError, match="^c: must be finite"):
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


def _pcg_from(apply_a, b, x, precond, rtol, maxiter):
    # conjugate gradients from the start x, its residual formed by one apply
    work = tuple(np.empty_like(b) for _ in range(3))
    return _pcg(apply_a, b, x, b - apply_a(x), precond, rtol, maxiter, work)


def _dense(linear, size, shape):
    cols = []
    for k in range(size):
        e = np.zeros(size)
        e[k] = 1.0
        cols.append(linear(e.reshape(shape)).ravel())
    return np.array(cols).T


def _folded_order(z):
    # the (batch, m, m) spectrum z in the folded layout (batch, 2, w, 2, w):
    # entry (b, l, a, i) holds z[2i + a, 2l + b], zero where that is off z
    m = z.shape[-1]
    w = (m + 1) // 2
    out = np.zeros(z.shape[:-2] + (2, w, 2, w))
    for a in (0, 1):
        for b in (0, 1):
            block = z[..., a::2, b::2]
            out[..., b, :block.shape[-1], a, :block.shape[-2]] = np.swapaxes(block, -1, -2)
    return out


@pytest.mark.parametrize("m", [1, 3, 9, 15, 127])
def test_the_folded_2d_sine_transform_is_the_sine_matrix_in_folded_order(m):
    rng = np.random.default_rng(m)
    v = rng.standard_normal((3, m, m))
    phi = _SineTransform(m, 2, 3)
    s = _dst_basis(m)
    given = v[:2].copy()  # fewer rows than the batch it was made for
    spectrum = phi.forward(given)
    assert np.max(np.abs(spectrum - _folded_order(s @ v[:2] @ s))) <= 1e-13 * m
    lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
    present = _folded_order(np.ones((m, m))) > 0
    assert np.array_equal(phi.eigenvalues[present],
                          _folded_order(lam[:, None] + lam[None, :])[present])
    back = phi.inverse(spectrum)
    assert back is given
    assert np.max(np.abs(back - v[:2])) <= 1e-13 * m
    with pytest.raises(ValueError, match="odd number of interior nodes per axis, got 8"):
        _SineTransform(8, 2, 1)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_a_2d_solve_needs_a_node_at_the_centre(p):
    # three intervals per axis leave two interior nodes, which the folded
    # transform cannot pair
    g = SpaceTimeGrid(n=2, extent=1.0, h=2 / 3, dt=1e-3, t_start=0.0, t_end=2e-3)
    with pytest.raises(ValueError, match="odd number of interior nodes per axis, got 2"):
        solve(g, SolveConfig(p=p, boundary=BoundarySpec(kind="zero")), SourceSpec(kind="zero"),
              np.zeros(g.spatial_shape))


@pytest.mark.parametrize("n, m", [(2, 9), (3, 5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_preconditioner_is_symmetric_positive_definite(n, m, seed):
    op = _random_coupling_operator(n, m, seed)
    precond = _FastDiagonalPreconditioner(op)

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
    precond = _FastDiagonalPreconditioner(op)
    r = rng.standard_normal((m,) * n)
    z = np.empty_like(r)
    precond(r, z)
    assert np.max(np.abs(op.apply(z) - r)) <= 1e-12 * np.max(np.abs(r))
    x0 = rng.standard_normal((m,) * n)
    x, iters = _pcg_from(op.apply, r, x0, precond, 1e-10, 5)
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
    precond = _FastDiagonalPreconditioner(op)
    rhs = u[inner].copy()
    x, iters = _pcg_from(op.apply, rhs, u[inner].copy(), precond, 1e-10, 500)
    assert iters <= 16
    assert np.linalg.norm(op.apply(x) - u[inner]) <= 1e-10 * np.linalg.norm(u[inner])


def test_inner_solve_may_converge_on_its_last_iteration():
    # at p = 2 the preconditioner is the exact inverse, so one iteration is enough
    g = SpaceTimeGrid(n=2, extent=1.0, h=1 / 16, dt=1 / 64, t_start=0.0, t_end=3 / 64)
    init = np.random.default_rng(0).random(g.spatial_shape)
    op = _StepOperator(init, 2, g.h, 2.0, g.h, g.dt)
    precond = _FastDiagonalPreconditioner(op)
    rhs = init[1:-1, 1:-1] + g.dt
    _, iters = _pcg_from(op.apply, rhs, np.zeros_like(rhs), precond, 1e-10, 1)
    assert iters == 1


@pytest.fixture
def cg_steps(monkeypatch):
    # every conjugate-gradient call of a solve: its iterations, and its
    # true residual ||b - A x|| against ||b||, taken before the operator is
    # refilled for the next step
    steps = []
    real = solver_module._pcg

    def counting(apply_a, b, x, *args):
        x, iters = real(apply_a, b, x, *args)
        steps.append((iters, float(np.linalg.norm(b - apply_a(x)) / np.linalg.norm(b))))
        return x, iters

    monkeypatch.setattr(solver_module, "_pcg", counting)
    return steps


def _solve_cg_steps(steps, grid, config, source, initial):
    steps.clear()
    u = solve(grid, config, source, initial)
    assert np.isfinite(u.values).all()
    return [it for it, _ in steps], [res for _, res in steps]


def _grid2d(h, steps, t_start=0.0, dt=1e-3):
    return SpaceTimeGrid(n=2, extent=1.0, h=h, dt=dt, t_start=t_start, t_end=t_start + steps * dt)


@pytest.mark.parametrize("p, most", [(1.5, 160), (3.0, 135)])
def test_the_2d_benchmark_solves_take_fewer_cg_iterations(cg_steps, p, most):
    # solve-nd's 2D heat-mode cases: 208 (p = 1.5) and 214 (p = 3)
    # iterations when every step started from the previous slice alone
    g = _grid2d(1 / 64, 20)
    init = reference_solutions("heat_mode", 2.0, 2, g).values[0]
    iters, residuals = _solve_cg_steps(cg_steps, g, SolveConfig(p=p, boundary=BoundarySpec(kind="zero")),
                                       SourceSpec(kind="zero"), init)
    assert len(iters) == 20 and sum(iters) <= most
    # the start's residual comes from stored products, not from an apply
    assert max(residuals) <= 1.001e-10


def _cg_corpus():
    zero = BoundarySpec(kind="zero")
    power = SourceSpec(kind="separable_power", a=0.0, b=0.2, q=np.inf, r=4.0)
    rest, rough = _grid2d(1 / 32, 30), _grid2d(1 / 32, 20)
    normal = np.random.default_rng(0).standard_normal(rough.spatial_shape)
    baren, bd = _grid2d(1 / 32, 30, t_start=0.1), BoundarySpec(kind="reference", name="barenblatt")
    # (name, grid, config, source, initial, the iterations from the previous slice alone)
    return [("power p=1.5", rest, SolveConfig(p=1.5, boundary=zero), power, np.zeros(rest.spatial_shape), 273),
            ("power p=3", rest, SolveConfig(p=3.0, boundary=zero), power, np.zeros(rest.spatial_shape), 284),
            ("normal p=4", rough, SolveConfig(p=4.0, boundary=zero), SourceSpec(kind="zero"), normal, 216),
            ("normal p=1.2", rough, SolveConfig(p=1.2, boundary=zero), SourceSpec(kind="zero"), normal, 524),
            ("barenblatt p=3", baren, SolveConfig(p=3.0, boundary=bd), SourceSpec(kind="zero"),
             bd.evaluate(baren, 0.1, 3.0), 270)]


@pytest.mark.parametrize("case", _cg_corpus(), ids=lambda case: case[0])
def test_no_2d_solve_of_the_corpus_takes_more_cg_iterations(cg_steps, case):
    _, grid, config, source, initial, before = case
    iters, residuals = _solve_cg_steps(cg_steps, grid, config, source, initial)
    assert sum(iters) <= before
    assert max(residuals) <= 1.001e-10


def test_a_constant_solution_takes_the_fallback_start():
    # equal slices make every difference zero and the small system singular:
    # the start is the newest slice, its residual from its product alone
    g = _grid2d(1 / 8, 3)
    op = _StepOperator(np.full(g.spatial_shape, 0.4), 2, g.h, 3.0, g.h, g.dt)
    inner = (slice(1, -1),) * 2
    b = np.random.default_rng(3).standard_normal(op.diag.shape)
    slices = [np.full(g.spatial_shape, 0.4)[inner]] * 3
    x, r = np.empty_like(b), np.empty_like(b)
    _projected_start(op.apply, b, slices, x, r, tuple(np.empty_like(b) for _ in range(3)))
    assert np.array_equal(x, slices[0])
    assert np.array_equal(r, b - op.apply(slices[0]))
    cfg = SolveConfig(p=3.0, boundary=BoundarySpec(kind="constant", value=0.4))
    u = solve(g, cfg, SourceSpec(kind="zero"), np.full(g.spatial_shape, 0.4))
    assert np.max(np.abs(u.values - 0.4)) <= 1e-12


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
    # at p = 2 the march runs in the sine eigenbasis and builds neither an
    # operator nor a step solver; at p = 3 one operator is refilled every
    # step and one step solver (in 1D a cyclic-reduction plan, in 2D and 3D
    # a preconditioner) solves them all
    builder = "_CyclicReduction" if n == 1 else "_FastDiagonalPreconditioner"
    counts = {builder: 0, "_StepOperator": 0}

    def counting(name):
        real = getattr(solver_module, name)

        def build(*args):
            counts[name] += 1
            return real(*args)

        return build

    for name in counts:
        monkeypatch.setattr(solver_module, name, counting(name))
    h, steps = {1: 1 / 16, 2: 1 / 8, 3: 1 / 4}[n], 5
    g = box_grid(n, h, h * h, steps)
    init = reference_solutions("heat_mode", 2.0, n, g).values[0]
    solve(g, SolveConfig(p=p, boundary=BoundarySpec(kind="zero")), SourceSpec(kind="zero"), init)
    assert counts == {builder: 0 if p == 2.0 else 1, "_StepOperator": 0 if p == 2.0 else 1}


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
    # the 1D march as its own loop, with its own boundary terms: a fresh
    # operator every step at p != 2 and a fresh cyclic-reduction plan every
    # semi-implicit step, so no workspace outlives its step
    p, eps, h, dt = config.p, config.resolved_eps(grid), grid.h, grid.dt
    source_at = _source_reader(source, grid)
    times = grid.times()
    out = np.empty(grid.shape)
    out[0] = config.boundary.evaluate(grid, times[0], p)
    out[0][1:-1] = initial[1:-1]
    u, op = out[0], None
    for m in range(1, len(times)):
        if op is None or p != 2.0:
            op = _StepOperator(u, 1, h, p, eps, dt)
            c = op.couplings[0]
        b = config.boundary.evaluate(grid, times[m], p)
        if config.scheme == "explicit":
            w = u[1:-1] + op.flux(u) + dt * source_at((m - 1, slice(1, -1)))
        else:
            rhs = u[1:-1] + dt * source_at((m, slice(1, -1)))
            rhs[0] += c[0] * b[0]
            rhs[-1] += c[-1] * b[-1]
            w = _CyclicReduction(rhs.size).solve(op.diag, c[1:-1], rhs, np.empty_like(rhs))
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
    # both schemes at p = 3; the explicit march takes dt inside its bound
    t0 = 1.0 if boundary == "barenblatt" else 0.0
    h = 1 / 32
    bd = {"zero": BoundarySpec(kind="zero"),
          "affine": BoundarySpec(kind="affine", value=0.1, gradient=(0.3,)),
          "barenblatt": BoundarySpec(kind="reference", name="barenblatt")}[boundary]
    init = bd.evaluate(grid1d(h=h, t_start=t0, t_end=t0 + 0.05), t0, p)
    init = init + 0.05 * np.random.default_rng(7).standard_normal(init.shape)
    for scheme in ("semi_implicit", "explicit") if p == 3.0 else ("semi_implicit",):
        if scheme == "semi_implicit":
            g = grid1d(h=h, dt=1 / 512, t_start=t0, t_end=t0 + 0.05)
        else:
            g = grid1d(h=h, dt=0.05 * h * h, t_start=t0, t_end=t0 + 0.005)
        cfg = SolveConfig(p=p, scheme=scheme, boundary=bd)
        for src in (SourceSpec(kind="zero"),
                    SourceSpec(kind="separable_power", a=0.0, b=0.2, q=np.inf, r=4.0)):
            got = solve(g, cfg, src, init).values
            want = _march_tridiagonal_reference(g, cfg, src, init)
            if p == 2.0:  # the sine-basis march: the same steps, rounded differently
                _assert_march_close(got, want)
            else:  # the shared time loop reproduces it bit for bit
                assert np.array_equal(got, want)


def _assert_march_close(got, want):
    # the bound for a march that takes the same steps, rounded differently
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, float(np.max(np.abs(want))))


def _march_pcg_reference(grid, config, source, initial):
    # the 2D/3D semi-implicit p = 2 march step by step: one operator, and
    # conjugate gradients preconditioned by its exact fast-diagonalisation inverse
    h, dt, times = grid.h, grid.dt, grid.times()
    inner = (slice(1, -1),) * grid.n
    source_at = _source_reader(source, grid)
    out = np.empty(grid.shape)
    out[0] = config.boundary.evaluate(grid, times[0], 2.0)
    out[0][inner] = initial[inner]
    op = _StepOperator(out[0], grid.n, h, 2.0, h, dt)
    precond = _FastDiagonalPreconditioner(op)
    for m in range(1, len(times)):
        out[m] = config.boundary.evaluate(grid, times[m], 2.0)
        rhs = out[m - 1][inner] + dt * source_at((m,) + inner)
        op.add_boundary(rhs, out[m])
        x, _ = _pcg_from(op.apply, rhs, out[m - 1][inner].copy(), precond, 1e-13, 20)
        out[m][inner] = x
    return out


def _boundary(kind, n):
    return {"zero": BoundarySpec(kind="zero"),
            "constant": BoundarySpec(kind="constant", value=0.4),
            "affine": BoundarySpec(kind="affine", value=0.1, gradient=(0.3, -0.2, 0.1)[:n]),
            "heat_mode": BoundarySpec(kind="reference", name="heat_mode")}[kind]


@pytest.mark.parametrize("boundary", ["zero", "constant", "affine", "heat_mode"])
@pytest.mark.parametrize("n", [2, 3])
def test_nd_p2_march_matches_a_conjugate_gradient_march(n, boundary):
    h = {2: 1 / 8, 3: 1 / 4}[n]
    g = box_grid(n, h, h * h, 6)
    bd = _boundary(boundary, n)
    rng = np.random.default_rng(n)
    init = bd.evaluate(g, 0.0, 2.0) + 0.1 * rng.standard_normal(g.spatial_shape)
    table = GridFunction(g, rng.standard_normal(g.shape))
    cfg = SolveConfig(p=2.0, boundary=bd)
    for src in (SourceSpec(kind="zero"), SourceSpec(kind="constant", c=0.7),
                SourceSpec(kind="separable_power", a=0.3, b=0.2, q=4.0, r=4.0),
                SourceSpec(kind="tabulated", table=table)):
        _assert_march_close(solve(g, cfg, src, init).values, _march_pcg_reference(g, cfg, src, init))


def _march_fresh_pcg_reference(grid, config, source, initial):
    # the 2D/3D semi-implicit march with a fresh operator, preconditioner,
    # conjugate-gradient workspace and projected start every step, at the
    # solver's stop
    p, eps, h, dt, times = config.p, config.resolved_eps(grid), grid.h, grid.dt, grid.times()
    inner = (slice(1, -1),) * grid.n
    source_at = _source_reader(source, grid)
    out = np.empty(grid.shape)
    out[0] = config.boundary.evaluate(grid, times[0], p)
    out[0][inner] = initial[inner]
    for m in range(1, len(times)):
        op = _StepOperator(out[m - 1], grid.n, h, p, eps, dt)
        precond = _FastDiagonalPreconditioner(op)
        out[m] = config.boundary.evaluate(grid, times[m], p)
        rhs = out[m - 1][inner] + dt * source_at((m,) + inner)
        op.add_boundary(rhs, out[m])
        r, work = np.empty_like(rhs), tuple(np.empty_like(rhs) for _ in range(3))
        slices = [out[m - 1 - i][inner] for i in range(min(m, solver_module._START_SLICES))]
        _projected_start(op.apply, rhs, slices, out[m][inner], r, work)
        _pcg(op.apply, rhs, out[m][inner], r, precond,
             solver_module._CG_RTOL, solver_module._CG_MAX_ITERS, work)
    return out


@pytest.mark.parametrize("boundary", ["zero", "affine", "heat_mode"])
@pytest.mark.parametrize("n", [2, 3])
def test_nd_p3_march_matches_a_march_built_afresh_every_step(n, boundary):
    # the solve refills one operator and one preconditioner and reuses one
    # workspace; building them and the start afresh every step must give
    # the same bits
    h = {2: 1 / 8, 3: 1 / 4}[n]
    g = box_grid(n, h, h * h, 6)
    bd = _boundary(boundary, n)
    rng = np.random.default_rng(n)
    init = bd.evaluate(g, 0.0, 3.0) + 0.1 * rng.standard_normal(g.spatial_shape)
    cfg = SolveConfig(p=3.0, boundary=bd)
    for src in (SourceSpec(kind="zero"), SourceSpec(kind="constant", c=0.7),
                SourceSpec(kind="separable_power", a=0.3, b=0.2, q=4.0, r=4.0)):
        got = solve(g, cfg, src, init).values
        assert np.array_equal(got, _march_fresh_pcg_reference(g, cfg, src, init))


def _chunked_case(monkeypatch, n):
    # 21 steps under a budget of 16 slices' nodes: the 1D and 2D marches
    # (four values per node) take chunks of 4 slices, the 3D one chunks of
    # 16, and the last chunk is short
    h = {1: 1 / 8, 2: 1 / 8, 3: 1 / 4}[n]
    g = box_grid(n, h, h * h, 21)
    monkeypatch.setattr(solver_module, "_CHUNK_NODES", 16 * g.nodes_per_axis ** n)
    return g


@pytest.mark.parametrize("n", [1, 2, 3])
def test_p2_march_runs_across_chunks(monkeypatch, n):
    g = _chunked_case(monkeypatch, n)
    cfg = SolveConfig(p=2.0, boundary=_boundary("heat_mode", n))
    init = reference_solutions("heat_mode", 2.0, n, g).values[0]
    src = SourceSpec(kind="separable_power", a=0.3, b=0.2, q=2.0, r=4.0)
    reference = _march_tridiagonal_reference if n == 1 else _march_pcg_reference
    _assert_march_close(solve(g, cfg, src, init).values, reference(g, cfg, src, init))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_p2_march_names_the_step_of_a_nan_source_in_a_later_chunk(monkeypatch, n):
    g = _chunked_case(monkeypatch, n)
    table = GridFunction(g, np.zeros(g.shape))
    step = 6 if n < 3 else 19  # inside the second chunk
    table.values.setflags(write=True)  # a table that went bad after its checks
    table.values[(step,) + (2,) * n] = np.nan
    with pytest.raises(SolverError, match=rf"^step {step} \(t = .*not finite"):
        solve(g, SolveConfig(p=2.0, boundary=BoundarySpec(kind="zero")),
              SourceSpec(kind="tabulated", table=table), np.zeros(g.spatial_shape))


def _tridiagonal_system(n, seed, scale):
    # the step matrix of the solver, as (diagonal, couplings, rhs): face
    # couplings c = dt D / h^2 > 0 beside the diagonal, negated, with
    # contrast up to 1e3 and magnitude up to 1e4; the rounding of the
    # residual grows like eps * max c
    rng = np.random.default_rng(seed)
    c = scale * 10.0 ** rng.uniform(0.0, 3.0, n + 1)
    return 1.0 + c[:-1] + c[1:], c[1:-1], rng.standard_normal(n)


def _solve_fresh(diag, coupling, rhs):
    return _CyclicReduction(diag.size).solve(diag, coupling, rhs, np.empty_like(rhs))


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(1, 1100), st.sampled_from([1, 2, 3, 4, 7, 8, 511, 512, 1023, 1024])),
       seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 10.0))
def test_tridiagonal_solve_matches_dense(n, seed, scale):
    diag, coupling, rhs = _tridiagonal_system(n, seed, scale)
    x = _solve_fresh(diag, coupling, rhs)
    dense = np.diag(diag) - np.diag(coupling, 1) - np.diag(coupling, -1)
    residual = np.linalg.norm(dense @ x - rhs) / np.linalg.norm(rhs)
    assert residual <= 1e-12
    exact = np.linalg.solve(dense, rhs)
    assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(1, 600), st.sampled_from([1, 2, 3, 4, 7, 8, 511, 512])),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4),
       scale=st.floats(1e-3, 10.0), bad=st.integers(0, 3))
def test_one_plan_solves_a_sequence_of_systems_as_fresh_plans_do(n, seeds, scale, bad):
    # a march solves one system per step with one plan; every solve must be
    # a fresh plan's bit for bit, also after a solve that failed on a bad pivot
    plan = _CyclicReduction(n)
    for k, seed in enumerate(seeds):
        diag, coupling, rhs = _tridiagonal_system(n, seed, scale)
        if k == bad:
            poisoned = diag.copy()
            poisoned[seed % n] = np.nan
            with pytest.raises(SolverError, match="pivot"):
                plan.solve(poisoned, coupling, rhs, np.empty(n))
        x = plan.solve(diag, coupling, rhs, np.empty(n))
        assert np.array_equal(x, _solve_fresh(diag, coupling, rhs))
        dense = np.diag(diag) - np.diag(coupling, 1) - np.diag(coupling, -1)
        exact = np.linalg.solve(dense, rhs)
        assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)


def test_tridiagonal_factor_rejects_bad_pivots():
    with pytest.raises(SolverError, match="pivot"):
        _solve_fresh(np.array([1.0, -3.0, 1.0]), np.array([-0.5, -0.5]), np.ones(3))
    with pytest.raises(SolverError, match="pivot"):
        _solve_fresh(np.array([1.0, np.inf, 1.0]), np.array([-0.5, -0.5]), np.ones(3))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_1d_solve_does_not_import_scipy_linalg(p):
    # importing scipy.linalg costs about 27 MB of resident memory; the p = 2
    # march transforms by numpy's own FFT
    code = (
        "import sys, numpy as np\n"
        "from plaplab.grids import SpaceTimeGrid\n"
        "from plaplab.solver import SolveConfig, SourceSpec, solve\n"
        "g = SpaceTimeGrid(n=1, extent=1.0, h=1 / 32, dt=1 / 1024, t_start=0.0, t_end=1 / 64)\n"
        f"solve(g, SolveConfig(p={p}), SourceSpec(kind='constant', c=1.0), np.zeros(g.spatial_shape))\n"
        "print('scipy.linalg' in sys.modules, 'scipy.fft' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False False"


@pytest.mark.parametrize("field, value", [("eps_reg", float("nan"))])
def test_solve_config_rejects_bad_inner_solve_settings(field, value):
    with pytest.raises(ValueError, match=field):
        SolveConfig(p=2.0, **{field: value})


def test_source_exponents_must_lie_in_range():
    for q, r in ((0.5, 2.0), (2.0, 0.0), (float("nan"), 2.0)):
        with pytest.raises(ValueError):
            SourceSpec(kind="zero", q=q, r=r)


@pytest.mark.parametrize("make, field", [
    (lambda: SolveConfig(p=3.0, eps_reg=0.0), "eps_reg"),  # eps = 0 only at p = 2
    (lambda: SolveConfig(p=2.0, scheme="implicit"), "scheme"),
    (lambda: SourceSpec(kind="tabulated"), "kind"),  # no table
    (lambda: SourceSpec(kind="constant", table=GridFunction(grid1d(), np.zeros((103, 65)))), "kind"),
    (lambda: SourceSpec(kind="sine"), "kind"),
    (lambda: SourceSpec(kind="zero", r=0.5), "r"),
])
def test_solver_settings_reject_a_bad_field_at_construction(make, field):
    with pytest.raises(ValueError, match=f"^{field}: ") as err:
        make()
    assert err.value.field == field


def test_a_zero_eps_reg_is_allowed_at_p_2():
    assert SolveConfig(p=2.0, eps_reg=0.0).eps_reg == 0.0


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
            want[1:-1][space] -= _source_reader(source, g)((slice(1, -1),) + space[1:])
        assert np.array_equal(semi_discrete_residual(u, 3.0, source, eps).values, want)


def test_semi_discrete_residual_memory_is_bounded():
    # the operator is built over bounded chunks of slices: the peak is the
    # result plus a fraction of the field
    g = SpaceTimeGrid(n=2, extent=4.0, h=1 / 32, dt=1 / 1024, t_start=1.0, t_end=1.0 + 32 / 1024)
    u = reference_solutions("barenblatt", 3.0, 2, g)
    tracemalloc.start()
    try:
        semi_discrete_residual(u, 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * u.values.nbytes


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fresh_fields_are_adopted_not_copied():
    # solve and the reference fields own their result arrays, so the peak is
    # one field plus a step's workspace
    g = SpaceTimeGrid(n=2, extent=1.0, h=1 / 32, dt=1 / 1024, t_start=0.0, t_end=64 / 1024)
    field = 8 * g.num_times * g.nodes_per_axis**2
    assert _peak_bytes(lambda: reference_solutions("heat_mode", 2.0, 2, g)) < 1.5 * field
    start = reference_solutions("heat_mode", 2.0, 2, g).values[0].copy()
    for p in (2.0, 3.0):
        config = SolveConfig(p=p, boundary=BoundarySpec(kind="zero"))
        assert _peak_bytes(lambda: solve(g, config, SourceSpec(kind="zero"), start)) < 1.6 * field


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


def test_weak_residual_reads_the_source_on_its_block_only():
    # a separable source is read on the region's block, not built on the grid
    g = SpaceTimeGrid(n=2, extent=1.0, h=1 / 32, dt=1 / 1024, t_start=0.0, t_end=256 / 1024)
    field = 8 * g.num_times * g.nodes_per_axis**2
    u = reference_solutions("heat_mode", 2.0, 2, g)
    region = Region(center=(0.25, 0.0), radius=0.2, t_start=0.1, t_end=0.15)
    psi = make_cutoff(g, region)
    source = SourceSpec(kind="separable_power", a=0.3, b=0.2, q=4.0, r=4.0)
    assert _peak_bytes(lambda: weak_residual(u, source, psi, region, p=2.0)) < field


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
