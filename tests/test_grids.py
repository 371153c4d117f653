import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab import grids
from plaplab.grids import (
    GridFunction,
    Region,
    RegionBlock,
    SpaceTimeGrid,
    anisotropic_norm,
    energy_norm,
    full_domain_region,
    initial_slice_mean_power,
    origin_cell_mean_radial_power,
    read_binary,
    sup_oscillation,
    write_binary,
)


def small_grid(n=1, h=1 / 16, dt=1 / 64, t_end=0.25):
    return SpaceTimeGrid(n=n, extent=1.0, h=h, dt=dt, t_start=0.0, t_end=t_end)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpaceTimeGrid(n=4, extent=1.0, h=0.1, dt=0.1, t_start=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SpaceTimeGrid(n=1, extent=1.0, h=0.3, dt=0.1, t_start=0.0, t_end=1.0)  # 2/h not integer
    with pytest.raises(ValueError):
        SpaceTimeGrid(n=1, extent=1.0, h=0.5, dt=0.3, t_start=0.0, t_end=1.0)  # span/dt


@pytest.mark.parametrize("kwargs, message", [
    ({"h": -1.0}, "h: must be positive, got -1.0"),
    ({"n": 4}, "n: a grid's dimension must be 1, 2 or 3, got 4"),
    ({"dt": 0.0}, "dt: must be positive, got 0.0"),
    ({"extent": float("nan")}, "extent: must be finite, got nan"),
    ({"t_start": float("-inf")}, "t_start: must be finite, got -inf"),
    ({"h": 0.3}, "h: 2*extent/h = 6.66"),
    ({"t_end": 0.05}, "t_end: (t_end - t_start)/dt = 0.5"),
])
def test_a_grid_range_error_names_its_field(kwargs, message):
    with pytest.raises(ValueError) as err:
        SpaceTimeGrid(**{"n": 1, "extent": 1.0, "h": 0.5, "dt": 0.1, "t_start": 0.0, "t_end": 1.0,
                         **kwargs})
    assert str(err.value).startswith(message)
    assert err.value.field == message.split(":")[0]


def test_grid_nodes():
    g = small_grid(h=1 / 4)
    assert g.nodes_per_axis == 9
    assert np.allclose(g.axis_nodes()[[0, -1]], [-1.0, 1.0])
    assert g.num_times == 17


def test_last_time_node_is_t_end():
    # t_start + dt * j can land an ulp off t_end, e.g. 0.49999999999999994
    # for (0.05, 1.5e-4, 0.5) and 0.30000000000000004 for (0.1, 1e-3, 0.3)
    checked = 0
    for t_start in (0.0, 0.05, 0.1, 0.3):
        for dt in (0.1, 1e-3, 2e-4, 1.5e-4, 2e-5):
            for t_end in (0.3, 0.5, 1.0, 1.3):
                span = (t_end - t_start) / dt
                if t_end <= t_start or abs(span - round(span)) > 1e-9 * span:
                    continue
                g = SpaceTimeGrid(n=1, extent=1.0, h=0.5, dt=dt, t_start=t_start, t_end=t_end)
                ts = g.times()
                assert ts[-1] == t_end
                assert np.array_equal(ts[:-1], t_start + dt * np.arange(g.num_times - 1))
                checked += 1
    assert checked >= 40


def test_gridfunction_shape_and_immutability():
    g = small_grid()
    u = GridFunction(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        bad = np.zeros(g.shape)
        bad[0, 0] = np.inf
        GridFunction(g, bad)
    with pytest.raises((ValueError, AttributeError)):
        u.values[0, 0] = 1.0


# ---------------------------------------------------------------------------
# gradient

def _node_gradient(u, ix, it):
    """gradient_on at the single node ix of slice it, shape (n,)."""
    return u.gradient_on((it,) + tuple(slice(i, i + 1) for i in ix)).reshape(u.grid.n)


def test_gradient_exact_on_affine():
    g = small_grid(n=2, h=1 / 8, dt=1 / 16)
    u = GridFunction.from_callable(g, lambda x, y, t: 0.75 * x - 0.25 * y + 0.1)
    for ix in [(3, 4), (7, 2), (10, 10)]:
        grad = _node_gradient(u, ix, 2)
        assert grad == pytest.approx([0.75, -0.25], abs=1e-13)


def test_gradient_zero_on_constant():
    g = small_grid()
    u = GridFunction(g, np.full(g.shape, 3.2))
    assert _node_gradient(u, (5,), 1) == pytest.approx([0.0], abs=1e-14)


def test_gradient_second_order_on_quadratic():
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        g = small_grid(h=h)
        u = GridFunction.from_callable(g, lambda x, t: x * x)
        xq = 0.25
        ix = (round((xq + g.extent) / h),)
        errs.append(abs(_node_gradient(u, ix, 1)[0] - 2 * xq))
    # central differences are exact on quadratics up to roundoff
    assert max(errs) < 1e-12


def test_gradient_interpolation_off_node():
    g = small_grid(n=1, h=1 / 32)
    u = GridFunction.from_callable(g, lambda x, t: 0.4 * x + 1.0)
    assert u.gradient_at((0.013,), 0.1)[0] == pytest.approx(0.4, abs=1e-10)


def _reference_interpolators(u):
    """scipy's bounds-checked multilinear interpolators of u and of its node
    gradient field, the kernels the local point queries replaced."""
    from scipy.interpolate import RegularGridInterpolator

    pts = (u.grid.times(),) + u.grid.spatial_axes()
    grads = u.gradient_on((slice(None),) + (slice(0, u.grid.nodes_per_axis),) * u.grid.n)
    value = RegularGridInterpolator(pts, u.values, method="linear", bounds_error=True)
    grad = [RegularGridInterpolator(pts, ga, method="linear", bounds_error=True) for ga in grads]
    return value, grad, float(np.max(np.abs(grads)))


def _grid_coordinate(nodes, where, frac):
    """A coordinate on a node axis: an exact edge, inside an edge cell, or anywhere."""
    lo, hi = nodes[0], nodes[-1]
    step = nodes[1] - nodes[0]
    return {"lo": lo, "hi": hi, "first": lo + frac * step, "last": hi - frac * step,
            "node": nodes[int(frac * (nodes.size - 1))], "any": lo + frac * (hi - lo)}[where]


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    spots=st.lists(
        st.tuples(st.sampled_from(["lo", "hi", "first", "last", "node", "any"]),
                  st.floats(0.0, 1.0)),
        min_size=4, max_size=4,
    ),
)
def test_point_queries_match_scipy_interpolation(n, seed, spots):
    g = SpaceTimeGrid(n=n, extent=1.0, h=1 / 4, dt=1 / 8, t_start=-0.25, t_end=0.25)
    u = GridFunction(g, np.random.default_rng(seed).standard_normal(g.shape))
    value, grad, grad_scale = _reference_interpolators(u)
    axes = (g.times(),) + g.spatial_axes()
    pt = np.array([_grid_coordinate(ax, *spot) for ax, spot in zip(axes, spots)])
    scale = float(np.max(np.abs(u.values)))
    got = u.value_at(pt[1:], pt[0])
    assert abs(got - value(pt)[0]) <= 1e-12 * max(abs(value(pt)[0]), scale)
    want = np.array([rgi(pt)[0] for rgi in grad])
    assert np.max(np.abs(u.gradient_at(pt[1:], pt[0]) - want)) <= 1e-12 * grad_scale


def test_point_queries_reject_points_off_the_grid():
    g = small_grid(n=2, h=1 / 8, dt=1 / 16)
    u = GridFunction.from_callable(g, lambda x, y, t: x * y + t)
    edge = float(g.axis_nodes()[-1])
    for x, t in [((edge + 1e-12, 0.0), 0.1), ((0.0, -1.01), 0.1), ((0.0, 0.0), -1e-9),
                 ((0.0, 0.0), g.times()[-1] + 1e-9), ((np.nan, 0.0), 0.1), ((0.0,), 0.1)]:
        with pytest.raises(ValueError):
            u.value_at(x, t)
        with pytest.raises(ValueError):
            u.gradient_at(x, t)


# ---------------------------------------------------------------------------
# anisotropic norm

def test_norm_constant_on_unit_measure_region():
    g = small_grid(h=1 / 16, dt=1 / 64, t_end=1.0)
    f = GridFunction(g, np.full(g.shape, 0.37))
    region = Region(center=(0.0,), half_widths=(0.5,), t_start=0.0, t_end=1.0)
    for q, r in [(2.0, 2.0), (3.0, 5.0), (1.0, 7.0)]:
        assert anisotropic_norm(f, q, r, region) == pytest.approx(0.37, rel=1e-12)


def test_norm_separable_product():
    g = small_grid(h=1 / 64, dt=1 / 64, t_end=1.0)
    f = GridFunction.from_callable(g, lambda x, t: np.cos(x) * (1.0 + t))
    region = Region(center=(0.0,), half_widths=(1.0,), t_start=0.0, t_end=1.0)
    q, r = 3.0, 4.0
    got = anisotropic_norm(f, q, r, region)
    xs = np.linspace(-1, 1, 20001)
    gq = np.trapezoid(np.abs(np.cos(xs)) ** q, xs) ** (1 / q)
    ts = np.linspace(0, 1, 20001)
    hr = np.trapezoid((1 + ts) ** r, ts) ** (1 / r)
    assert got == pytest.approx(gq * hr, rel=2e-4)


def test_norm_infinite_exponents_take_sups():
    g = small_grid(h=1 / 16, dt=1 / 16, t_end=1.0)
    f = GridFunction.from_callable(g, lambda x, t: x + t)
    region = full_domain_region(g)
    assert anisotropic_norm(f, np.inf, np.inf, region) == pytest.approx(2.0, rel=1e-12)
    # q = r collapses to the space-time norm
    got = anisotropic_norm(f, 2.0, 2.0, region)
    # the full domain: trapezoid weights in time, cell measures (halved at the edge) in space
    tw = np.full(g.num_times, g.dt)
    tw[[0, -1]] = g.dt / 2
    sw = np.full(g.spatial_shape, g.h)
    sw[[0, -1]] = g.h / 2
    direct = sum(
        w * float(np.sum(f.values[j] ** 2 * sw)) for j, w in enumerate(tw)
    ) ** 0.5
    assert got == pytest.approx(direct, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(1.0, 6.0), st.floats(1.0, 6.0))
def test_norm_absolutely_homogeneous(c, q, r):
    g = small_grid(h=1 / 8, dt=1 / 8, t_end=1.0)
    base = GridFunction.from_callable(g, lambda x, t: np.sin(3 * x) + t)
    scaled = GridFunction(g, c * base.values)
    region = full_domain_region(g)
    assert anisotropic_norm(scaled, q, r, region) == pytest.approx(
        abs(c) * anisotropic_norm(base, q, r, region), rel=1e-12, abs=1e-13
    )


def test_norm_monotone_in_region():
    g = small_grid(h=1 / 16, dt=1 / 32, t_end=0.5)
    f = GridFunction.from_callable(g, lambda x, t: 1.0 + np.cos(x) + t)
    inner = Region(center=(0.0,), half_widths=(0.25,), t_start=0.125, t_end=0.375)
    outer = Region(center=(0.0,), half_widths=(0.75,), t_start=0.0, t_end=0.5)
    for q, r in [(2.0, 3.0), (1.0, 1.0)]:
        assert anisotropic_norm(f, q, r, inner) <= anisotropic_norm(f, q, r, outer)


def test_norm_radial_power_2d_matches_closed_form():
    # |x|^(-a) with a q < n over the unit disk, constant in time
    a, q = 0.25, 2.0
    m = a * q
    h = 1 / 64
    g = SpaceTimeGrid(n=2, extent=1.0, h=h, dt=0.25, t_start=0.0, t_end=1.0)
    mesh = g.meshgrid()
    rr = np.hypot(*mesh)
    space = np.where(rr > 0, np.where(rr > 0, rr, 1.0) ** (-a), 0.0)
    space[rr == 0] = origin_cell_mean_radial_power(2, h, m) ** (1 / q)
    f = GridFunction(g, np.broadcast_to(space, g.shape).copy())
    region = Region(center=(0.0, 0.0), radius=1.0, t_start=0.0, t_end=1.0)
    exact = (2.0 * np.pi / (2.0 - m)) ** (1.0 / q)
    assert anisotropic_norm(f, q, 3.0, region) == pytest.approx(exact, rel=0.02)


def test_norm_mixed_infinite_exponents():
    g = small_grid(h=1 / 16, dt=1 / 16, t_end=1.0)
    f = GridFunction.from_callable(g, lambda x, t: (1.0 + t) * np.cos(x))
    region = full_domain_region(g)
    # q = inf: spatial sup per slice, then temporal L^4
    got = anisotropic_norm(f, np.inf, 4.0, region)
    ts = np.linspace(0, 1, 40001)
    exact = np.trapezoid((1 + ts) ** 4, ts) ** 0.25
    assert got == pytest.approx(exact, rel=1e-3)


def test_ball_weights_3d_counting():
    g = SpaceTimeGrid(n=3, extent=1.0, h=1 / 8, dt=0.5, t_start=0.0, t_end=1.0)
    region = Region(center=(0.0, 0.0, 0.0), radius=0.6, t_start=0.0, t_end=1.0)
    blk, _, w = region.quadrature(g)
    assert np.all(w[blk.mask] == g.h**3)
    assert np.all(w[~blk.mask] == 0.0)
    assert abs(np.sum(w) - 4.0 / 3.0 * np.pi * 0.6**3) < 0.1


def test_energy_norm_2d_constant():
    g = small_grid(n=2, h=1 / 8, dt=1 / 8, t_end=1.0)
    region = Region(center=(0.0, 0.0), half_widths=(0.5, 0.5), t_start=0.0, t_end=1.0)
    const = GridFunction(g, np.full(g.shape, 1.3))
    assert energy_norm(const, 3.0, region) == pytest.approx(1.3, rel=1e-12)


def test_origin_cell_mean_3d_subgrid_consistency():
    # corner quadrature has a sharp radial cutoff, so refinement in the
    # subcell count settles at the few-per-mille level
    h, m = 1 / 16, 1.5
    coarse = origin_cell_mean_radial_power(3, h, m, subcells=32)
    fine = origin_cell_mean_radial_power(3, h, m, subcells=96)
    assert coarse == pytest.approx(fine, rel=5e-3)


def test_norm_rejects_empty_region():
    g = small_grid()
    f = GridFunction(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        bad = Region(center=(0.0,), half_widths=(0.5,), t_start=5.0, t_end=6.0)
        anisotropic_norm(f, 2.0, 2.0, bad)


# ---------------------------------------------------------------------------
# energy norm

def test_energy_norm_zero_and_constant():
    g = small_grid(h=1 / 16, dt=1 / 64, t_end=1.0)
    region = Region(center=(0.0,), half_widths=(0.5,), t_start=0.0, t_end=1.0)
    zero = GridFunction(g, np.zeros(g.shape))
    assert energy_norm(zero, 2.0, region) == 0.0
    const = GridFunction(g, np.full(g.shape, 1.7))
    assert energy_norm(const, 2.0, region) == pytest.approx(1.7, rel=1e-12)


def test_energy_norm_affine_gradient_term():
    g = small_grid(h=1 / 32, dt=1 / 64, t_end=1.0)
    a = 0.6
    u = GridFunction.from_callable(g, lambda x, t: a * x)
    region = Region(center=(0.0,), half_widths=(0.5,), t_start=0.0, t_end=1.0)
    p = 3.0
    got = energy_norm(u, p, region)
    sup_l2 = (a * a * (0.5**3 * 2 / 3)) ** 0.5  # integral of (ax)^2 over [-1/2,1/2]
    grad_term = a * 1.0 ** (1 / p)  # |a| * measure^(1/p), unit measure
    assert got == pytest.approx(sup_l2 + grad_term, rel=1e-3)


# ---------------------------------------------------------------------------
# sup oscillation

def test_sup_oscillation_constant_zero_both_modes():
    g = small_grid()
    u = GridFunction(g, np.full(g.shape, 2.5))
    region = Region(center=(0.0,), radius=0.5, t_start=0.0, t_end=0.25)
    center = ((0.0,), 0.25)
    assert sup_oscillation(u, region, center) == 0.0
    assert sup_oscillation(u, region, center, affine_part=(2.5, np.zeros(1))) == 0.0


def test_sup_oscillation_affine_cancellation():
    g = small_grid(n=2, h=1 / 8, dt=1 / 16)
    u = GridFunction.from_callable(g, lambda x, y, t: 1.0 + 0.3 * x - 0.2 * y)
    region = Region(center=(0.0, 0.0), radius=0.5, t_start=0.0, t_end=0.25)
    center = ((0.0, 0.0), 0.25)
    got = sup_oscillation(u, region, center, affine_part=(1.0, np.array([0.3, -0.2])))
    assert got == pytest.approx(0.0, abs=1e-13)


def test_sup_oscillation_radial_power():
    g = small_grid(h=1 / 128, dt=1 / 8, t_end=0.25)
    u = GridFunction.from_callable(g, lambda x, t: np.abs(x) ** 1.5)
    rho = 0.25
    region = Region(center=(0.0,), radius=rho, t_start=0.0, t_end=0.25)
    got = sup_oscillation(u, region, ((0.0,), 0.25))
    assert got == pytest.approx(rho**1.5, abs=1.5 * rho**0.5 * g.h)


def test_sup_oscillation_invariances():
    g = small_grid(h=1 / 16)
    base = GridFunction.from_callable(g, lambda x, t: np.sin(2 * x) + t)
    shifted = GridFunction(g, base.values + 5.0)
    region = Region(center=(0.0,), radius=0.5, t_start=0.0, t_end=0.25)
    center = ((0.0,), 0.25)
    assert sup_oscillation(base, region, center) == pytest.approx(
        sup_oscillation(shifted, region, center), rel=1e-12
    )
    # adding an affine function is absorbed by updating the affine part
    aff = GridFunction.from_callable(g, lambda x, t: 0.7 * x - 0.1)
    combo = GridFunction(g, base.values + aff.values)
    v0 = base.value_at((0.0,), 0.25)
    g0 = base.gradient_at((0.0,), 0.25)
    got1 = sup_oscillation(base, region, center, affine_part=(v0, g0))
    got2 = sup_oscillation(combo, region, center, affine_part=(v0 - 0.1, g0 + np.array([0.7])))
    assert got1 == pytest.approx(got2, abs=1e-12)


def _sup_oscillation_by_slices(u, region, x0, ref, grad_vec=None):
    """The per-slice loop the block reduction replaced."""
    sw = region.space_mask(u.grid)
    plane = None
    if grad_vec is not None:
        plane = sum(g * (m - c) for g, m, c in zip(grad_vec, u.grid.meshgrid(), x0))
    best = 0.0
    for j in region.time_indices(u.grid):
        dev = u.values[j] - ref
        if plane is not None:
            dev = dev - plane
        best = max(best, float(np.max(np.abs(dev[sw]))))
    return best


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    ball=st.booleans(),
    size=st.floats(0.05, 1.5),
    offset=st.floats(-1.0, 1.0),
    depth=st.floats(0.01, 0.5),
)
def test_sup_oscillation_equals_the_per_slice_loop_bit_for_bit(n, seed, ball, size, offset, depth):
    g = SpaceTimeGrid(n=n, extent=1.0, h=1 / 8, dt=1 / 32, t_start=0.0, t_end=0.5)
    rng = np.random.default_rng(seed)
    u = GridFunction(g, rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-3, 3))
    x0 = (offset * 0.5,) + (0.25 * offset,) * (n - 1)
    shape = {"radius": size} if ball else {"half_widths": tuple(size * (1 - 0.3 * a) for a in range(n))}
    region = Region(center=x0, t_start=0.5 - depth, t_end=0.5, **shape)
    center = (x0, 0.5)
    if not region.space_mask(g).any():
        with pytest.raises(ValueError, match="no spatial nodes"):
            sup_oscillation(u, region, center)
        return
    ref = u.value_at(x0, 0.5)
    plain = _sup_oscillation_by_slices(u, region, x0, ref)
    assert sup_oscillation(u, region, center) == plain
    grad_vec = rng.standard_normal(n)
    # the affine and second plain calls read the block reduced by the first
    assert sup_oscillation(u, region, center, affine_part=(0.3, grad_vec)) == (
        _sup_oscillation_by_slices(u, region, x0, 0.3, grad_vec))
    assert sup_oscillation(u, region, center) == plain


def test_sup_oscillation_rejects_outside_center():
    g = small_grid()
    u = GridFunction(g, np.zeros(g.shape))
    region = Region(center=(0.0,), radius=0.25, t_start=0.0, t_end=0.25)
    with pytest.raises(ValueError):
        sup_oscillation(u, region, ((0.9,), 0.25))


def _family(x0, t0):
    """Nested balls and boxes around (x0, t0), like a profile's cylinders."""
    return [Region(center=x0, t_start=t0 - 0.4 * r * r, t_end=t0, **shape)
            for r in (0.5, 0.3, 0.15) for shape in ({"radius": r}, {"half_widths": (r, 0.7 * r)})]


def test_sup_oscillation_interleaved_centers_match_fresh_fields():
    g = small_grid(n=2, h=1 / 16, dt=1 / 64, t_end=0.5)
    vals = np.random.default_rng(3).standard_normal(g.shape)
    centers = [((0.125, -0.25), 0.5), ((-0.3, 0.1), 0.4375)]
    shared = GridFunction(g, vals)
    for x0, t0 in centers + centers:  # A, B, A, B: every switch replaces the memo
        grad = shared.gradient_at(x0, t0)
        for region in _family(x0, t0):
            for affine in (None, (0.2, grad)):
                fresh = GridFunction(g, vals)  # its first call, so nothing memoized
                assert (sup_oscillation(shared, region, (x0, t0), affine_part=affine)
                        == sup_oscillation(fresh, region, (x0, t0), affine_part=affine))


def test_sup_oscillation_memo_holds_one_center():
    g = small_grid(n=2, h=1 / 16, dt=1 / 64, t_end=0.5)
    u = GridFunction(g, np.random.default_rng(4).standard_normal(g.shape))
    first, second = ((0.125, -0.25), 0.5), ((-0.3, 0.1), 0.4375)
    for region in _family(*first):
        sup_oscillation(u, region, first)
    assert len(u._memo[1]) == 7  # six blocks and the center's point value and gradient
    sup_oscillation(u, _family(*second)[0], second)
    memo_center, entries = u._memo
    assert memo_center == second
    assert len(entries) == 2  # one block and the point: nothing of the first center remains


def test_sup_oscillation_rejects_outside_center_of_a_memoized_region():
    g = small_grid()
    u = GridFunction(g, np.zeros(g.shape))
    region = Region(center=(0.0,), radius=0.25, t_start=0.0, t_end=0.25)
    assert sup_oscillation(u, region, ((0.0,), 0.25)) == 0.0
    for outside in (((0.9,), 0.25), ((0.0,), 0.5)):
        with pytest.raises(ValueError, match="center must lie inside the region"):
            sup_oscillation(u, region, outside)
    assert sup_oscillation(u, region, ((0.125,), 0.125)) == 0.0


def _range_block(start, stop, box):
    return RegionBlock(slice(start, stop), box, np.ones([b.stop - b.start for b in box], bool), ())


# 357 slices: five whole blocks of 64 and a partial sixth, [320, 357)
@pytest.mark.parametrize("start, stop", [
    (3, 60), (127, 129),  # no whole block
    (64, 128), (60, 130),  # one whole block, alone and with a head and a tail
    (64, 192), (10, 192), (64, 200), (63, 257),  # two or three: each of head and tail empty or not
    (5, 357), (0, 357), (0, 320), (130, 357),  # many, ending at the last slice or a block edge
])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_time_max_min_equals_the_direct_reduction(n, start, stop):
    nodes = {1: 17, 2: 9, 3: 5}[n]
    g = SpaceTimeGrid(n=n, extent=1.0, h=2.0 / (nodes - 1), dt=1.0, t_start=0.0, t_end=356.0)
    # rounded to one decimal: ties across blocks, and zeros of both signs
    u = GridFunction(g, np.random.default_rng(n).standard_normal(g.shape).round(1))
    for box in ((slice(0, nodes),) * n, (slice(1, nodes - 1),) + (slice(2, nodes),) * (n - 1)):
        blk = _range_block(start, stop, box)
        hi, lo = grids._time_max_min(u, blk)
        block = u.values[blk.index]
        assert np.array_equal(hi, block.max(axis=0)) and np.array_equal(lo, block.min(axis=0))
    assert (u._blocks is not None) == (stop // 64 - -(-start // 64) >= 2)


def test_the_block_table_is_built_once_per_field_and_bounded():
    g = small_grid(n=2, h=1 / 16, dt=1 / 512, t_end=0.5)  # 257 slices: four whole blocks
    u = GridFunction(g, np.random.default_rng(5).standard_normal(g.shape))
    first, second = ((0.0, 0.0), 0.5), ((0.25, -0.125), 0.4375)
    short = Region(center=first[0], radius=0.3, t_start=0.5 - 100 / 512, t_end=0.5)
    sup_oscillation(u, short, first)  # slices 156-256: one whole block, reduced directly
    assert u._blocks is None
    sup_oscillation(u, Region(center=first[0], radius=0.5, t_start=0.05, t_end=0.5), first)
    table = u._blocks
    assert table.shape == (2, 4) + g.spatial_shape
    assert table.nbytes <= 2 / 64 * u.values.nbytes
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0, 0] = 1.0
    sup_oscillation(u, Region(center=second[0], half_widths=(0.5, 0.25), t_start=0.1, t_end=0.4375),
                    second)
    assert u._blocks is table  # the second center reads the first center's table
    assert GridFunction(g, u.values)._blocks is None


# ---------------------------------------------------------------------------
# singular cell rules

def test_origin_cell_mean_1d_exact():
    h, m = 1 / 16, 0.5
    got = origin_cell_mean_radial_power(1, h, m)
    exact = (2 * (h / 2) ** (1 - m) / (1 - m)) / h
    assert got == pytest.approx(exact, rel=1e-14)


def test_origin_cell_mean_rejects_nonintegrable():
    with pytest.raises(ValueError):
        origin_cell_mean_radial_power(1, 0.1, 1.0)
    with pytest.raises(ValueError):
        initial_slice_mean_power(0.01, 1.2)


def test_initial_slice_mean_matches_integral():
    dt, m = 1 / 64, 0.4
    got = initial_slice_mean_power(dt, m)
    exact = (dt / 2) ** (1 - m) / (1 - m) / (dt / 2)
    assert got == pytest.approx(exact, rel=1e-14)


# ---------------------------------------------------------------------------
# serialization

def test_binary_roundtrip(tmp_path):
    g = small_grid(n=2, h=1 / 8, dt=1 / 16)
    rng = np.random.default_rng(7)
    u = GridFunction(g, rng.standard_normal(g.shape))
    path = tmp_path / "u.bin"
    write_binary(u, path)
    back = read_binary(path)
    assert back.grid == g
    assert np.array_equal(back.values, u.values)


def _written(tmp_path, n=1):
    g = small_grid(n=n, h=1 / 8, dt=1 / 16)
    path = tmp_path / "u.bin"
    write_binary(GridFunction(g, np.ones(g.shape)), path)
    return g, path, path.read_bytes()


def test_binary_short_header_is_a_value_error(tmp_path):
    _, path, data = _written(tmp_path)
    path.write_bytes(data[:20])
    with pytest.raises(ValueError, match="header needs 56 bytes, file has 20"):
        read_binary(path)


def test_binary_truncated_or_padded_payload_is_a_value_error(tmp_path):
    g, path, data = _written(tmp_path, n=2)
    payload = 8 * int(np.prod(g.shape))
    for size in (payload - 8, payload // 2, 0, payload + 3, payload + 8):
        path.write_bytes(data[:56] + (data[56:] + bytes(16))[:size])
        with pytest.raises(ValueError, match=f"payload needs {payload} bytes .* holds {size} after"):
            read_binary(path)


def test_binary_header_of_a_huge_grid_is_a_value_error(tmp_path):
    # a flipped exponent bit of h describes a grid of 2^37 or 2^67 nodes per
    # axis; reading its payload raised MemoryError or OverflowError
    g, path, data = _written(tmp_path)
    for flip in (2, 4):
        bad = bytearray(data)
        bad[31] ^= flip  # the top byte of h
        path.write_bytes(bytes(bad))
        with pytest.raises(ValueError, match="payload needs"):
            read_binary(path)


def test_binary_header_time_count_must_match_its_grid(tmp_path):
    g, path, data = _written(tmp_path)
    bad = bytearray(data)
    bad[12:16] = (g.num_times + 1).to_bytes(4, "little")  # the num_times field
    path.write_bytes(bytes(bad))
    with pytest.raises(ValueError, match=f"header counts {g.num_times + 1} time slices"):
        read_binary(path)


_GRIDS = st.builds(
    lambda n, cells, steps, t_start, spacing: SpaceTimeGrid(
        n=n, extent=cells * spacing / 2, h=spacing, dt=spacing / 4, t_start=t_start,
        t_end=t_start + steps * spacing / 4),
    n=st.integers(1, 3),
    cells=st.integers(2, 5),
    steps=st.integers(2, 5),
    t_start=st.sampled_from([0.0, -0.5, 1.25]),
    spacing=st.sampled_from([1 / 8, 0.25, 0.5, 1.0]),
)


def _random_field(grid, seed):
    # every finite double is fair game, signed zeros and subnormals included
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=grid.shape, dtype=np.uint64)
    vals = bits.view(np.float64).copy()
    vals[~np.isfinite(vals)] = -0.0
    return GridFunction(grid, vals)


@settings(max_examples=60, deadline=None)
@given(grid=_GRIDS, seed=st.integers(0, 2**32 - 1))
def test_binary_round_trip_is_exact(tmp_path_factory, grid, seed):
    u = _random_field(grid, seed)
    path = tmp_path_factory.mktemp("bin") / "u.bin"
    write_binary(u, path)
    data = path.read_bytes()
    back = read_binary(path)
    assert back.grid == grid
    assert back.values.tobytes() == u.values.tobytes()  # bit for bit, -0.0 included
    write_binary(back, path)
    assert path.read_bytes() == data


@settings(max_examples=60, deadline=None)
@given(grid=_GRIDS, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_binary_truncated_or_extended_anywhere_is_a_value_error(tmp_path_factory, grid, seed, data):
    path = tmp_path_factory.mktemp("bin") / "u.bin"
    write_binary(_random_field(grid, seed), path)
    whole = path.read_bytes()
    cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
    extra = data.draw(st.binary(min_size=1, max_size=64), label="extra")
    at = data.draw(st.sampled_from([56, len(whole)]), label="after header or payload")
    for bad in (whole[:cut], whole[:at] + extra + whole[at:]):
        path.write_bytes(bad)
        with pytest.raises(ValueError):
            read_binary(path)


@settings(max_examples=150, deadline=None)
@given(grid=_GRIDS, seed=st.integers(0, 2**32 - 1), at=st.integers(0, 55), flip=st.integers(1, 255))
def test_binary_corrupted_header_byte_is_a_value_error_or_harmless(tmp_path_factory, grid, seed, at,
                                                                    flip):
    u = _random_field(grid, seed)
    path = tmp_path_factory.mktemp("bin") / "u.bin"
    write_binary(u, path)
    data = bytearray(path.read_bytes())
    data[at] ^= flip
    path.write_bytes(bytes(data))
    try:
        back = read_binary(path)
    except ValueError:
        return
    # a flip that still describes a grid of this shape (a last bit of t_end, say)
    assert back.values.tobytes() == u.values.tobytes()


def test_grid_rejects_non_finite_or_overflowing_spacings():
    base = dict(n=1, extent=1.0, h=0.25, dt=0.25, t_start=0.0, t_end=1.0)
    for bad in ({"extent": np.inf}, {"t_end": np.inf}, {"t_start": -np.inf}, {"dt": np.nan},
                {"h": 5e-324}, {"dt": 5e-324}):
        with pytest.raises(ValueError):
            SpaceTimeGrid(**{**base, **bad})


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_binary_io_makes_no_field_sized_copy(tmp_path):
    g = SpaceTimeGrid(n=2, extent=1.0, h=1 / 32, dt=1 / 256, t_start=0.0, t_end=0.25)
    u = GridFunction(g, np.random.default_rng(9).standard_normal(g.shape))
    path = tmp_path / "u.bin"
    assert _peak_bytes(lambda: write_binary(u, path)) < 0.5 * u.values.nbytes
    # the payload read once, then adopted without the constructor's copy
    assert _peak_bytes(lambda: read_binary(path)) < 1.5 * u.values.nbytes


def test_adopted_array_cannot_be_written_through():
    g = small_grid()
    vals = np.random.default_rng(1).standard_normal(g.shape)
    u = GridFunction._adopt(g, vals)
    assert np.shares_memory(u.values, vals)
    with pytest.raises(ValueError, match="read-only"):
        vals[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        u.values[0, 0] = 1.0


def test_public_constructor_keeps_the_callers_array_its_own():
    g = small_grid()
    vals = np.random.default_rng(2).standard_normal(g.shape)
    u = GridFunction(g, vals)
    before = u.values.copy()
    vals[...] = 7.0  # still writable, and no longer u's
    assert np.array_equal(u.values, before)
    transposed = np.asfortranarray(vals)
    assert GridFunction(g, transposed).values.flags.c_contiguous


@pytest.mark.parametrize("build", [GridFunction, GridFunction._adopt])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_both_constructors_reject_non_finite_values(build, bad):
    g = small_grid()
    vals = np.zeros(g.shape)
    vals[3, 4] = bad
    with pytest.raises(ValueError, match="must be finite"):
        build(g, vals)
    with pytest.raises(ValueError, match="values shape"):
        build(g, np.zeros((2, 2)))
