import numpy as np
import pytest

from plaplab.cylinders import (
    _WINDOW_DEPTH,
    _WINDOW_RADIUS,
    _resample,
    _window,
    corrected_cylinder,
    critical_zone,
    intrinsic_cylinder,
    rescale_outside,
)
from plaplab.exponents import INF, ProblemParams, sharp_exponents
from plaplab.grids import GridFunction, Region, SpaceTimeGrid
from plaplab.probe import UnresolvableCylinderError, fit_exponent, oscillation_profile
from plaplab.solver import reference_solutions

HEAT = ProblemParams(p=2.0, n=1, q=8.0, r=8.0)
DEGEN = ProblemParams(p=3.0, n=1, q=8.0, r=8.0, alpha_h=1.0)
SING = ProblemParams(p=1.5, n=1, q=4.0, r=6.0, alpha_h=0.8)


def unit_grid(n=1, h=1 / 64, dt=1 / 256):
    steps = round(1.0 / dt)
    return SpaceTimeGrid(n=n, extent=1.0, h=h, dt=dt, t_start=-steps * dt, t_end=0.0)


# ---------------------------------------------------------------------------
# cylinders

def test_corrected_collapses_for_singular_range():
    for params in (HEAT, SING):
        c_hat = corrected_cylinder(((0.0,), 0.0), 0.25, 1, params, grad_mag=0.05)
        c_std = intrinsic_cylinder(((0.0,), 0.0), 0.25, params, grad_mag=0.05)
        assert c_hat.sigma == 1.0
        assert c_hat.depth == pytest.approx(c_std.depth, rel=1e-14)


def test_corrected_shrinks_for_degenerate_range():
    c_hat = corrected_cylinder(((0.0,), 0.0), 0.25, 1, DEGEN, grad_mag=0.05)
    c_std = intrinsic_cylinder(((0.0,), 0.0), 0.25, DEGEN, grad_mag=0.05)
    assert c_hat.sigma > 1.0
    assert c_hat.depth < c_std.depth


def test_heat_cylinder_depth_is_parabolic():
    for g in (0.0, 0.3, 0.9):
        c = corrected_cylinder(((0.0,), 0.0), 0.25, 1, HEAT, grad_mag=g)
        assert c.depth == pytest.approx(0.25**2, rel=1e-14)
        assert c.theta_eff == pytest.approx(2.0, rel=1e-14)


def test_cylinder_depth_monotone_in_level():
    for params in (HEAT, DEGEN, SING):
        depths = [
            corrected_cylinder(((0.0,), 0.0), 0.3, k, params, grad_mag=0.02).depth
            for k in range(1, 7)
        ]
        assert all(b < a for a, b in zip(depths, depths[1:]))


def test_cylinder_radius_follows_level():
    for k in range(1, 5):
        c = corrected_cylinder(((0.0,), 0.0), 0.4, k, DEGEN, grad_mag=0.01)
        assert c.rho == pytest.approx(0.4**k, rel=1e-14)
        assert c.depth == pytest.approx(c.rho**c.theta_eff, rel=1e-12)


def test_cylinder_sigma_theta_floor_holds():
    for params in (HEAT, DEGEN, SING):
        for g in (0.0, 0.1, 1.0):
            c = corrected_cylinder(((0.0,), 0.0), 0.25, 2, params, grad_mag=g)
            assert c.sigma * c.theta >= 2.0 - 1e-9


def test_cylinder_rejects_unit_radius():
    with pytest.raises(ValueError):
        corrected_cylinder(((0.0,), 0.0), 1.0, 1, HEAT, grad_mag=0.0)


def test_cylinder_region_is_half_open_backward():
    c = corrected_cylinder(((0.0,), 0.0), 0.25, 1, HEAT, grad_mag=0.0)
    region = c.as_region()
    assert region.t_end == 0.0
    assert region.t_start == pytest.approx(-c.depth)
    assert region.radius == c.rho


# ---------------------------------------------------------------------------
# critical zone

def test_critical_zone_constant_all_flagged():
    g = unit_grid()
    u = GridFunction(g, np.full(g.shape, 1.1))
    region = Region(center=(0.0,), half_widths=(0.5,), t_start=-g.dt / 2, t_end=0.0)
    zone = critical_zone(u, 0.25, 0.5, region)
    assert zone.fraction == 1.0


def test_critical_zone_steep_affine_empty():
    g = unit_grid()
    u = GridFunction.from_callable(g, lambda x, t: 0.3 * x)
    region = Region(center=(0.0,), half_widths=(0.5,), t_start=-g.dt / 2, t_end=0.0)
    zone = critical_zone(u, 0.2**2, 1.0, region)  # threshold 0.04 < 0.3
    assert zone.fraction == 0.0


def test_critical_zone_matches_analytic_sublevel_set():
    g = unit_grid(h=1 / 256)
    u = GridFunction.from_callable(g, lambda x, t: np.sin(np.pi * x))
    region = Region(center=(0.0,), half_widths=(0.98,), t_start=-g.dt / 2, t_end=0.0)
    thr = 0.5
    zone = critical_zone(u, thr, 1.0, region)
    # |pi cos(pi x)| <= 0.5 near the two extrema x = +-1/2
    half_width = np.arccos(thr / np.pi) / np.pi  # distance from extremum, per side
    analytic = 2.0 * (2.0 * (0.5 - half_width)) / (2 * 0.98)
    assert zone.fraction == pytest.approx(analytic, abs=0.02)


def test_critical_zone_monotone_in_rho():
    g = unit_grid(h=1 / 128)
    u = GridFunction.from_callable(g, lambda x, t: np.sin(np.pi * x))
    region = Region(center=(0.0,), half_widths=(0.9,), t_start=-g.dt / 2, t_end=0.0)
    z1 = critical_zone(u, 0.1, 0.7, region)
    z2 = critical_zone(u, 0.3, 0.7, region)
    assert np.all(z2.mask[z1.mask])
    assert z1.fraction <= z2.fraction


# ---------------------------------------------------------------------------
# gradient-scale rescale

def heat_like_solution():
    g = unit_grid(h=1 / 256, dt=1 / 1024)
    u = reference_solutions("heat_mode", 2.0, 1, _shift_to_positive(g))
    return GridFunction(g, u.values)


def _shift_to_positive(g):
    return SpaceTimeGrid(n=g.n, extent=g.extent, h=g.h, dt=g.dt, t_start=1.0 + g.t_start, t_end=1.0 + g.t_end)


def test_rescale_outside_gradient_normalization():
    g = unit_grid(h=1 / 256, dt=1 / 1024)
    u = GridFunction.from_callable(g, lambda x, t: np.sin(np.pi * x) * np.exp(0.1 * t))
    out = rescale_outside(u, ((0.0,), 0.0), HEAT)  # gradient pi at the origin
    assert out.certificates["v_at_origin"] == pytest.approx(0.0, abs=1e-12)
    assert out.certificates["grad_v_at_origin"] == pytest.approx(1.0, abs=5e-3)
    assert out.tau == pytest.approx(np.pi ** (1.0 / sharp_exponents(HEAT).alpha), rel=1e-3)


def test_rescale_outside_source_exponent_sign():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = float(rng.uniform(2.0, 4.0))
        n = int(rng.integers(1, 4))
        q = float(rng.uniform(n + 0.5, 60.0))
        r = float(rng.uniform(2.5, 60.0))
        params = ProblemParams(p=p, n=n, q=q, r=r, alpha_h=1.0)
        from plaplab.exponents import check_compatibility

        if not check_compatibility(params).admissible:
            continue
        g = unit_grid(h=1 / 64, dt=1 / 128)
        u = GridFunction.from_callable(g, lambda x, t: np.sin(np.pi * x))
        out = rescale_outside(u, ((0.0,), 0.0), params)
        assert out.certificates["source_exponent"] >= -1e-12


def test_rescale_outside_affine_stays_affine_with_unit_gradient():
    g = unit_grid(h=1 / 128, dt=1 / 512)
    u = GridFunction.from_callable(g, lambda x, t: 0.9 * x + 0.4)
    out = rescale_outside(u, ((0.0,), 0.0), HEAT)
    # (g tau y) / tau^(1+alpha) = y since tau = g^(1/alpha)
    y = out.v.grid.axis_nodes()
    assert out.v.values[-1] == pytest.approx(y, abs=1e-9)
    assert out.certificates["grad_v_at_origin"] == pytest.approx(1.0, abs=1e-9)


def test_rescale_outside_clipped_cylinders_stay_on_the_grid():
    # the tau-cylinder of every center here is clipped by the domain in space
    # or time, so the resampled grid reaches the domain edge; rounding used to
    # put 8 of these 61 samples just outside the interpolator's grid
    g = SpaceTimeGrid(n=1, extent=1.0, h=1 / 128, dt=2e-4, t_start=0.0, t_end=0.25)
    u = GridFunction(g, 3.0 * reference_solutions("heat_mode", 2.0, 1, g).values)
    params = ProblemParams(p=2.0, n=1, q=INF, r=4.0)
    for x0 in np.linspace(-0.3, 0.3, 61):
        out = rescale_outside(u, ((float(x0),), 0.25), params)
        assert out.certificates["v_at_origin"] == pytest.approx(0.0, abs=1e-9)


def test_resample_still_rejects_points_off_the_grid():
    g = unit_grid(h=1 / 64, dt=1 / 256)
    u = GridFunction.from_callable(g, lambda x, t: np.sin(np.pi * x))
    with pytest.raises(ValueError):  # reaches x = 1.4, far past the edge x = 1
        _resample(u, np.array([0.9]), 0.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.1)
    with pytest.raises(ValueError):  # reaches s = -0.1 past t_start by 1e-9
        _resample(u, np.array([0.0]), g.t_start + 0.1 - 1e-9, 1.0, 1.0, 1.0, 0.0, 0.5, 0.1)


def _resample_reference(u, anchor_x, anchor_t, space_scale, time_scale, amplitude, offset, ext, depth):
    """The whole tau-cylinder grid and the resampled field on all of it,
    computed point by point with scipy's multilinear interpolator."""
    from scipy.interpolate import RegularGridInterpolator

    from plaplab.cylinders import _snap_onto

    g = u.grid
    new = SpaceTimeGrid(n=g.n, extent=ext, h=2.0 * ext / (g.nodes_per_axis - 1),
                        dt=depth / (g.num_times - 1), t_start=-depth, t_end=0.0)
    axes = (g.times(),) + g.spatial_axes()
    coords = [anchor_t + time_scale * new.times()]
    coords += [anchor_x[a] + space_scale * y for a, y in enumerate(new.spatial_axes())]
    coords = [_snap_onto(c, ax[0], ax[-1]) for c, ax in zip(coords, axes)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*coords, indexing="ij")], axis=1)
    rgi = RegularGridInterpolator(axes, u.values, method="linear", bounds_error=True)
    return new, (amplitude * (rgi(pts) - offset)).reshape(new.shape)


def _on_window(grid, values):
    """The window of a tau-cylinder grid and the values on its nodes."""
    times, nodes, window = _window(grid)
    return window, values[(times,) + (nodes,) * grid.n]


@pytest.mark.parametrize(
    "n, anchor_x, anchor_t, scales",
    [
        (1, (0.3,), -0.2, (0.5, 0.3)),
        (1, (-0.7,), -0.6, (0.25, 0.5)),  # reaches the domain edge at x = -1
        (2, (0.3, -0.5), -0.1, (0.4, 0.3)),
        (2, (0.75, 0.2), -0.3, (0.5, 0.25)),  # reaches the domain edge at x1 = 1
    ],
)
def test_resample_matches_scipy_interpolation(n, anchor_x, anchor_t, scales):
    h = 1 / 64 if n == 1 else 1 / 16
    g = unit_grid(n=n, h=h, dt=1 / 128)
    u = GridFunction.from_callable(
        g, lambda *xt: np.cos(3.0 * xt[0] - 2.0 * xt[-1]) + sum(np.sin(2.0 * x) for x in xt[1:-1]))
    anchor_x = np.array(anchor_x)
    space_scale, time_scale = scales
    # the tau-cylinder of rescale_outside: clipped by the domain where it reaches past it
    ext = min(1.0, float(np.min(g.extent - np.abs(anchor_x))) / space_scale)
    depth = min(1.0, (anchor_t - g.t_start) / time_scale)
    args = (u, anchor_x, anchor_t, space_scale, time_scale, 1.7, 0.3, ext, depth)
    got = _resample(*args)
    window, want = _on_window(*_resample_reference(*args))
    assert got.grid == window
    scale = float(np.max(np.abs(want)))
    assert np.max(np.abs(got.values - want)) <= 1e-12 * scale


def test_resample_of_a_clipped_tau_cylinder_matches_scipy_interpolation():
    # centers of the 61-center sweep whose tau-cylinder rescale_outside clips
    # at the domain's initial time
    g = SpaceTimeGrid(n=1, extent=1.0, h=1 / 128, dt=2e-4, t_start=0.0, t_end=0.25)
    u = GridFunction(g, 3.0 * reference_solutions("heat_mode", 2.0, 1, g).values)
    alpha = sharp_exponents(ProblemParams(p=2.0, n=1, q=INF, r=4.0)).alpha
    for x0 in (-0.12, 0.02, 0.1):
        tau = float(np.abs(u.gradient_at((x0,), 0.25))[0]) ** (1.0 / alpha)
        ext, depth = min(1.0, (1.0 - abs(x0)) / tau), 0.25 / tau**2
        assert depth < 1.0
        args = (u, np.array([x0]), 0.25, tau, tau**2, tau ** (-(1.0 + alpha)), 0.0, ext, depth)
        _, want = _on_window(*_resample_reference(*args))
        got = _resample(*args).values
        assert np.max(np.abs(got - want)) <= 1e-12 * float(np.max(np.abs(want)))


P2 = ProblemParams(p=2.0, n=1, q=INF, r=4.0)
P3 = ProblemParams(p=3.0, n=1, q=INF, r=4.0, alpha_h=1.0)


def _profile_or_error(v, lam, params):
    """The affine profile of v at the origin with its fit, or the error it raises."""
    try:
        prof = oscillation_profile(v, ((0.0,), 0.0), lam, 4, params, mode="affine")
    except ValueError as exc:
        return type(exc), str(exc)
    return prof, fit_exponent(prof)


@pytest.mark.parametrize("params, slope", [(P2, 0.8), (P3, 0.85)])
@pytest.mark.parametrize("center, clipped", [(((0.1,), 0.62), False), (((0.6,), 0.35), True)])
def test_the_window_holds_every_profile_of_the_whole_rescaled_field(params, slope, center, clipped):
    # 3100 steps: no level's depth is a whole number of v's slices plus a half,
    # where the window's and the whole grid's times, which can differ in the
    # last bit, would round a tie apart
    g = SpaceTimeGrid(n=1, extent=1.0, h=1 / 64, dt=2e-4, t_start=0.0, t_end=0.62)
    u = GridFunction.from_callable(
        g, lambda x, t: slope * x + 0.5 * (x - 0.35) ** 2 + 0.1 * np.sin(6.0 * x) * t)
    out = rescale_outside(u, center, params)
    exps = sharp_exponents(params)
    x0, t0 = np.array(center[0]), center[1]
    tau = out.tau
    ext = min(1.0, (1.0 - abs(x0[0])) / tau)
    depth = min(1.0, t0 / tau**exps.gamma)
    assert (ext < 1.0) == clipped and depth > _WINDOW_DEPTH and ext > _WINDOW_RADIUS
    full_grid, full = _resample_reference(u, x0, t0, tau, tau**exps.gamma, tau ** (-(1.0 + exps.alpha)),
                                          u.value_at(x0, t0), ext, depth)
    assert out.v.values.size < full.size  # the window is a proper part of the tau-cylinder
    whole = GridFunction(full_grid, full)
    for lam in (0.25, 0.45, 0.49):
        got, want = _profile_or_error(out.v, lam, params), _profile_or_error(whole, lam, params)
        if lam == 0.25:
            # K = 4 levels at lambda = 1/4 need ~2e5 slices of a unit-depth cylinder;
            # both fields reject the profile alike
            assert got == want and got[0] is UnresolvableCylinderError
            continue
        (prof, fit), (ref, ref_fit) = got, want
        for e, r in zip(prof.entries, ref.entries, strict=True):
            assert e.k == r.k and e.rho == r.rho and e.depth == r.depth
            assert e.rho_eff == pytest.approx(r.rho_eff, rel=1e-10)
            assert e.sup_osc == pytest.approx(r.sup_osc, rel=1e-10)
        assert fit.slope == pytest.approx(ref_fit.slope, rel=1e-10)


def test_the_rescaled_field_holds_a_fraction_of_the_nodes():
    # the grid of the probe sweep's 1D heat field, with an unclipped tau-cylinder
    g = SpaceTimeGrid(n=1, extent=1.0, h=1 / 128, dt=2e-4, t_start=-0.2, t_end=0.25)
    u = GridFunction.from_callable(g, lambda x, t: 0.7 * x + 0.2 * np.cos(3.0 * x) * np.exp(-t))
    out = rescale_outside(u, ((0.1,), 0.25), P2)
    assert out.tau < 0.45 ** 0.5  # so the tau-cylinder is the whole unit cylinder
    assert out.v.values.size <= 0.15 * u.values.size


@pytest.mark.parametrize("cells", [256, 255, 40, 7])
def test_the_window_is_symmetric_and_holds_every_level(cells):
    ext, depth = 0.9, 0.8
    grid = SpaceTimeGrid(n=2, extent=ext, h=2.0 * ext / cells, dt=depth / 300, t_start=-depth, t_end=0.0)
    times, nodes, window = _window(grid)
    axis, ts = grid.axis_nodes(), grid.times()
    assert nodes.start + nodes.stop - 1 == cells  # the same nodes dropped at each end
    assert window.h == grid.h and window.dt == grid.dt
    assert window.shape == (len(ts[times]),) + (len(axis[nodes]),) * 2
    assert window.axis_nodes() == pytest.approx(axis[nodes], abs=1e-15)
    assert window.times() == pytest.approx(ts[times], abs=1e-15)
    # every node of the box of a radius-1/2 ball and every slice of a depth-1/4 cylinder
    kept = np.zeros(axis.size, dtype=bool)
    kept[nodes] = True
    assert kept[np.abs(axis) <= _WINDOW_RADIUS + grid.h / 2].all()
    assert ts[times][0] < -_WINDOW_DEPTH - grid.dt / 2 or times.start == 0
    # and only one node and one slice past them
    assert np.abs(axis[nodes]).max() < _WINDOW_RADIUS + 2.0 * grid.h
    assert ts[times][0] > -_WINDOW_DEPTH - 2.0 * grid.dt


def test_rescale_outside_rejects_flat_center():
    g = unit_grid(h=1 / 64, dt=1 / 256)
    u = GridFunction(g, np.full(g.shape, 2.0))
    with pytest.raises(ValueError):
        rescale_outside(u, ((0.0,), 0.0), HEAT)


def test_rescale_outside_rejects_under_resolved_tau():
    g = unit_grid(h=1 / 64, dt=1 / 256)
    u = GridFunction.from_callable(g, lambda x, t: 1e-3 * np.sin(np.pi * x))
    with pytest.raises(ValueError):
        rescale_outside(u, ((0.5,), 0.0), HEAT)  # tiny gradient, tau under grid scale
