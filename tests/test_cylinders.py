import numpy as np
import pytest

from plaplab.cylinders import (
    corrected_cylinder,
    critical_zone,
    intrinsic_cylinder,
    rescale_normalize,
    rescale_outside,
)
from plaplab.exponents import INF, ProblemParams, sharp_exponents
from plaplab.grids import (
    GridFunction,
    Region,
    SpaceTimeGrid,
    anisotropic_norm,
    full_domain_region,
)
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


def test_cylinder_serializes_to_plain_dict():
    import json

    c = corrected_cylinder(((0.1,), -0.2), 0.25, 2, DEGEN, grad_mag=0.05)
    d = c.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["k"] == 2 and d["corrected"] is True
    assert d["rho"] == pytest.approx(0.0625)


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
    assert zone.to_json().startswith("{")


def test_critical_zone_monotone_in_rho():
    g = unit_grid(h=1 / 128)
    u = GridFunction.from_callable(g, lambda x, t: np.sin(np.pi * x))
    region = Region(center=(0.0,), half_widths=(0.9,), t_start=-g.dt / 2, t_end=0.0)
    z1 = critical_zone(u, 0.1, 0.7, region)
    z2 = critical_zone(u, 0.3, 0.7, region)
    assert np.all(z2.mask[z1.mask])
    assert z1.fraction <= z2.fraction


# ---------------------------------------------------------------------------
# normalizing rescale

def test_rescale_normalize_identity():
    g = unit_grid(h=1 / 32, dt=1 / 128)
    u = GridFunction.from_callable(g, lambda x, t: 0.5 * np.cos(x))
    f = GridFunction(g, np.zeros(g.shape))
    out = rescale_normalize(u, f, HEAT, s=1.0, delta=0.1, mu=1.0)
    assert out.certificates["sup_v"] <= 1.0 + 1e-12
    assert out.certificates["g_norm_qr"] == 0.0
    # mu = 1 reproduces the field on the fresh grid exactly at shared nodes
    assert out.v.values == pytest.approx(u.values, abs=1e-12)


def test_rescale_normalize_certificates_hold():
    g = unit_grid(h=1 / 32, dt=1 / 128)
    u = GridFunction.from_callable(g, lambda x, t: 3.0 * np.cos(2 * x) + t)
    f = GridFunction(g, np.full(g.shape, 2.0))
    delta, s = 0.05, 1.0
    out = rescale_normalize(u, f, HEAT, s=s, delta=delta, mu=None or 0.9 * _mu_max(u, f, HEAT, s, delta))
    assert out.certificates["sup_v"] <= 1.0 + 1e-9
    assert out.certificates["g_norm_qr"] <= delta * (1.0 + 1e-9)


def _mu_max(u, f, params, s, delta):
    from plaplab.exponents import kappa_mu

    sup_u = float(np.max(np.abs(u.values)))
    f_norm = anisotropic_norm(f, params.q, params.r, full_domain_region(u.grid))
    return kappa_mu(params, s, delta, sup_u, f_norm)[1]


def test_rescale_normalize_constant_source_contraction():
    # for constant f the norm scaling is exact, so the kappa bound is sharp
    g = unit_grid(h=1 / 32, dt=1 / 128)
    u = GridFunction.from_callable(g, lambda x, t: 0.4 * np.cos(x))
    f = GridFunction(g, np.full(g.shape, 1.5))
    s, delta = 0.7, 0.2
    mu = 0.8 * _mu_max(u, f, HEAT, s, delta)
    out = rescale_normalize(u, f, HEAT, s=s, delta=delta, mu=mu)
    f_norm = anisotropic_norm(f, HEAT.q, HEAT.r, full_domain_region(g))
    assert out.certificates["g_norm_qr"] <= mu**out.kappa_or_gamma * f_norm * (1.0 + 1e-9)


def test_rescale_normalize_heat_time_exponent():
    g = unit_grid(h=1 / 32, dt=1 / 128)
    u = GridFunction(g, np.zeros(g.shape))
    f = GridFunction(g, np.zeros(g.shape))
    out = rescale_normalize(u, f, HEAT, s=1.0, delta=0.1, mu=0.5)
    assert out.time_exponent == pytest.approx(2.0)  # parabolic scaling at p = 2


def test_rescale_normalize_rejects_large_mu():
    g = unit_grid(h=1 / 32, dt=1 / 128)
    u = GridFunction(g, np.full(g.shape, 4.0))  # sup 4 forces mu_max < 1
    f = GridFunction(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        rescale_normalize(u, f, HEAT, s=1.0, delta=0.1, mu=0.9)


def test_rescale_affine_stays_affine():
    g = unit_grid(h=1 / 32, dt=1 / 128)
    u = GridFunction.from_callable(g, lambda x, t: 0.2 + 0.3 * x)
    f = GridFunction(g, np.zeros(g.shape))
    out = rescale_normalize(u, f, HEAT, s=1.0, delta=0.1, mu=0.5)
    # v(x) = mu (0.2 + 0.3 mu x): still affine with the rescaled coefficients
    x = out.v.grid.axis_nodes()
    expected = 0.5 * (0.2 + 0.3 * 0.5 * x)
    assert out.v.values[-1] == pytest.approx(expected, abs=1e-10)


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
    assert out.kappa_or_gamma == pytest.approx(2.0)  # p = 2


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
    from plaplab.cylinders import _resample

    g = unit_grid(h=1 / 64, dt=1 / 256)
    u = GridFunction.from_callable(g, lambda x, t: np.sin(np.pi * x))
    with pytest.raises(ValueError):  # reaches x = 1.4, far past the edge x = 1
        _resample(u, np.array([0.9]), 0.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.1)
    with pytest.raises(ValueError):  # reaches s = -0.1 past t_start by 1e-9
        _resample(u, np.array([0.0]), g.t_start + 0.1 - 1e-9, 1.0, 1.0, 1.0, 0.0, 0.5, 0.1)


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
