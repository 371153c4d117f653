"""Region reductions read through Region.block against the per-slice
implementations they replaced, which live here as references.

Max-type outputs (q = inf norms, masks, counts, the noise floor, the
realized radius, the proximity distances) must be equal; sum-type outputs
(quadratures) agree to 1e-12 relative, since summing a cropped block
regroups the additions. The weak-form defect is a cancellation, so its
bound is 1e-12 of the summed magnitudes of its terms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.cylinders import Cylinder, critical_zone
from plaplab.grids import GridFunction, Region, SpaceTimeGrid, anisotropic_norm
from plaplab.probe import _interp_noise_floor, _realized_radius, p_caloric_proximity
from plaplab.solver import (
    BoundarySpec,
    SolveConfig,
    SourceSpec,
    _rim,
    _source_reader,
    _time_derivative,
    bump_battery,
    caccioppoli_gap,
    make_cutoff,
    make_source,
    solve,
    weak_residual,
)

REL = 1e-12


# ---------------------------------------------------------------------------
# the replaced implementations

def _frame_free(grid):
    interior = np.zeros(grid.spatial_shape, dtype=bool)
    interior[tuple(slice(1, -1) for _ in range(grid.n))] = True
    return interior


def _space_mask_by_meshgrid(region, grid):
    diffs = [m - c for m, c in zip(grid.meshgrid(), region.center)]
    if region.radius is not None:
        rr = np.sqrt(sum(d * d for d in diffs))
        return rr <= region.radius * (1.0 + 1e-12) + 1e-15
    mask = np.ones(grid.spatial_shape, dtype=bool)
    for d, w in zip(diffs, region.half_widths):
        mask &= np.abs(d) <= w * (1.0 + 1e-12) + 1e-15
    return mask


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(24)


def _disk_cell_overlap(cx, cy, h, radius):
    x1, x2 = cx - h / 2, cx + h / 2
    y1, y2 = cy - h / 2, cy + h / 2
    xm = 0.5 * (x1 + x2) + 0.5 * (x2 - x1) * _GAUSS_X
    s = np.sqrt(np.maximum(radius * radius - xm * xm, 0.0))
    ln = np.maximum(np.minimum(y2, s) - np.maximum(y1, -s), 0.0)
    return float(0.5 * (x2 - x1) * np.sum(_GAUSS_W * ln))


def _disk_weights_by_meshgrid(grid, center, radius):
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


def _space_weights_by_meshgrid(region, grid):
    h = grid.h
    if region.half_widths is not None or grid.n == 1:
        widths = region.half_widths if region.half_widths is not None else (region.radius,)
        axis_w = []
        for ax, c, w in zip(grid.spatial_axes(), region.center, widths):
            ov = np.minimum(c + w, ax + h / 2) - np.maximum(c - w, ax - h / 2)
            axis_w.append(np.clip(ov, 0.0, h))
        out = axis_w[0]
        for aw in axis_w[1:]:
            out = np.multiply.outer(out, aw)
        return out
    if grid.n == 2:
        return _disk_weights_by_meshgrid(grid, region.center, region.radius)
    return np.where(_space_mask_by_meshgrid(region, grid), h**grid.n, 0.0)


def _gradient_by_slices(u, j):
    g = np.gradient(u.values[j], u.grid.h)
    return np.stack(g if u.grid.n > 1 else [g])


def _gradient_at_by_stencil(u, x, t):
    idx, weights = u._cell(x, t)
    last = u.grid.nodes_per_axis - 1
    out = np.empty(u.grid.n)
    for a in range(1, u.grid.n + 1):
        up, dn = idx.copy(), idx.copy()
        up[a] = np.minimum(idx[a] + 1, last)
        dn[a] = np.maximum(idx[a] - 1, 0)
        diff = u.values[tuple(up)] - u.values[tuple(dn)]
        out[a - 1] = weights @ (diff / ((up[a] - dn[a]) * u.grid.h))
    return out


def _time_weights_by_rule(region, grid):
    """(slice indices, trapezoid weights): the slices t with
    t_start - dt/2 < t <= t_end, weighted dt and dt/2 at both ends, or dt
    alone for a single slice."""
    idx = np.array([j for j, t in enumerate(grid.times())
                    if region.t_start - grid.dt / 2 < t <= region.t_end + grid.dt * 1e-9])
    tw = np.full(idx.size, grid.dt)
    if idx.size >= 2:
        tw[0] = tw[-1] = grid.dt / 2
    return idx, tw


def _anisotropic_norm_by_slices(f, q, r, region):
    grid = f.grid
    idx, tw = _time_weights_by_rule(region, grid)
    if np.isinf(q):
        sw = _space_mask_by_meshgrid(region, grid)
        slice_vals = np.array([np.max(np.abs(f.values[j][sw])) for j in idx])
    else:
        sw = _space_weights_by_meshgrid(region, grid)
        slice_vals = np.array([np.sum(np.abs(f.values[j]) ** q * sw) ** (1.0 / q) for j in idx])
    if np.isinf(r):
        return float(np.max(slice_vals))
    return float(np.sum(slice_vals**r * tw) ** (1.0 / r))


def _critical_zone_by_slices(u, rho, alpha, region):
    grid = u.grid
    idx = region.time_indices(grid)
    smask = _space_mask_by_meshgrid(region, grid) & _frame_free(grid)
    flags = np.zeros((idx.size,) + grid.spatial_shape, dtype=bool)
    total = hits = 0
    for row, j in enumerate(idx):
        g = _gradient_by_slices(u, j)
        sel = smask & (np.sqrt(np.sum(g * g, axis=0)) <= rho**alpha)
        flags[row] = sel
        total += int(smask.sum())
        hits += int(sel.sum())
    return flags, (hits / total if total else 0.0), total


def _realized_radius_by_meshgrid(grid, region):
    mask = _space_mask_by_meshgrid(region, grid)
    d2 = sum((m - c) ** 2 for m, c in zip(grid.meshgrid(), region.center))
    return float(np.sqrt(np.max(d2[mask])))


def _noise_floor_by_slices(u, region):
    grid = u.grid
    mask = _space_mask_by_meshgrid(region, grid) & _frame_free(grid)
    worst = scale = 0.0
    for j in region.time_indices(grid):
        v = u.values[j]
        scale = max(scale, float(np.max(np.abs(v[mask]))))
        for ax in range(grid.n):
            d2 = np.abs(np.roll(v, -1, axis=ax) - 2 * v + np.roll(v, 1, axis=ax))
            worst = max(worst, float(np.max(d2[mask])))
    return 10.0 * worst / 8.0 + 1e-13 * scale + 1e-300


def _rim_by_roll(sw):
    rim = np.zeros_like(sw)
    for ax in range(sw.ndim):
        for step, edge in ((1, slice(0, 1)), (-1, slice(-1, None))):
            shifted = np.roll(sw, step, axis=ax)
            shifted[tuple(edge if a == ax else slice(None) for a in range(sw.ndim))] = False
            rim |= sw & ~shifted
    return rim


def _weak_residual_by_slices(u, source, psi, region, p):
    """The defect, and the sum of the magnitudes of the terms it adds up."""
    grid = u.grid
    idx, tw = _time_weights_by_rule(region, grid)
    sw = _space_weights_by_meshgrid(region, grid)
    source_at = _source_reader(source, grid)
    whole = (slice(None),) * grid.n
    psi_t = _time_derivative(psi.values, grid.dt)
    ends = [float(np.sum(u.values[j] * psi.values[j] * sw)) for j in (idx[-1], idx[0])]
    boundary_term = float(np.sum(u.values[idx[-1]] * psi.values[idx[-1]] * sw)
                          - np.sum(u.values[idx[0]] * psi.values[idx[0]] * sw))
    bulk, scale = 0.0, abs(ends[0]) + abs(ends[1])
    for j, w_t in zip(idx, tw):
        f_j = source_at((j,) + whole)
        gu, gpsi = _gradient_by_slices(u, j), _gradient_by_slices(psi, j)
        gmag = np.sqrt(np.sum(gu * gu, axis=0))
        flux_dot = np.sum(gu * gpsi, axis=0) * np.where(gmag > 0, gmag, 1.0) ** (p - 2.0)
        integrand = -u.values[j] * psi_t[j] + flux_dot - f_j * psi.values[j]
        bulk += w_t * float(np.sum(integrand * sw))
        scale += w_t * float(np.sum((np.abs(u.values[j] * psi_t[j]) + np.abs(flux_dot)
                                     + np.abs(f_j * psi.values[j])) * sw))
    return boundary_term + bulk, scale


def _caccioppoli_gap_by_slices(u, source, cutoff, region, p, c_fit):
    grid = u.grid
    xi = cutoff.values
    idx, tw = _time_weights_by_rule(region, grid)
    sw = _space_weights_by_meshgrid(region, grid)
    xi_t = _time_derivative(xi, grid.dt)
    sup_term = grad_term = rhs_bulk = rhs_time = 0.0
    for j, w_t in zip(idx, tw):
        uj, xj = u.values[j], xi[j]
        sup_term = max(sup_term, float(np.sum(uj * uj * xj**p * sw)))
        gu, gxi = _gradient_by_slices(u, j), _gradient_by_slices(cutoff, j)
        gu_mag = np.sqrt(np.sum(gu * gu, axis=0))
        gxi_mag = np.sqrt(np.sum(gxi * gxi, axis=0))
        grad_term += w_t * float(np.sum(gu_mag**p * xj**p * sw))
        rhs_bulk += w_t * float(np.sum(np.abs(uj) ** p * (xj**p + gxi_mag**p) * sw))
        rhs_time += w_t * float(np.sum(uj * uj * xj ** (p - 1.0) * np.abs(xi_t[j]) * sw))
    f_norm = make_source(source, grid)
    return sup_term + grad_term, rhs_bulk + c_fit * rhs_time + c_fit * f_norm


def _p_caloric_distances_by_slices(u, phi, half):
    grid = u.grid
    mask = _space_mask_by_meshgrid(half, grid)
    gmask = mask & _frame_free(grid)
    v_dist = g_dist = 0.0
    for j in half.time_indices(grid):
        v_dist = max(v_dist, float(np.max(np.abs((u.values[j] - phi.values[j])[mask]))))
        gd = np.sqrt(np.sum((_gradient_by_slices(u, j) - _gradient_by_slices(phi, j)) ** 2, axis=0))
        g_dist = max(g_dist, float(np.max(gd[gmask])))
    return v_dist, g_dist


def _close(got, want):
    assert got == pytest.approx(want, rel=REL, abs=0.0)


# ---------------------------------------------------------------------------
# one hypothesis test over balls and boxes in 1D-3D

GRID_T_END = 0.5


def _grid(n):
    return SpaceTimeGrid(n=n, extent=1.0, h=1 / 8, dt=1 / 32, t_start=0.0, t_end=GRID_T_END)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    ball=st.booleans(),
    size=st.floats(0.05, 1.5),
    # centers out to the domain edge: large regions get clipped by it
    offset=st.floats(-1.0, 1.0),
    # depths below dt/2 give single-slice regions
    depth=st.one_of(st.floats(0.002, 0.015), st.floats(0.02, 0.5)),
    t_end=st.sampled_from([GRID_T_END, 0.25]),
)
def test_region_block_reductions_match_the_per_slice_references(n, seed, ball, size, offset, depth, t_end):
    g = _grid(n)
    rng = np.random.default_rng(seed)
    u = GridFunction(g, rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-3, 3))
    x0 = (offset,) + (0.5 * offset,) * (n - 1)
    shape = {"radius": size} if ball else {"half_widths": tuple(size * (1 - 0.3 * a) for a in range(n))}
    region = Region(center=x0, t_start=t_end - depth, t_end=t_end, **shape)
    if depth < g.dt / 2:
        assert region.time_indices(g).size == 1

    # the block: mask, interior mask, offsets, weights and gradients
    mask = _space_mask_by_meshgrid(region, g)
    assert np.array_equal(region.space_mask(g), mask)
    blk, tw, sw = region.quadrature(g)
    idx, want_tw = _time_weights_by_rule(region, g)
    assert blk.times == slice(idx[0], idx[-1] + 1) and blk.box == region.block(g).box
    assert np.array_equal(tw, want_tw)
    full_sw = np.zeros(g.spatial_shape)
    full_sw[blk.box] = sw
    assert np.array_equal(full_sw, _space_weights_by_meshgrid(region, g))
    for interior in (False, True):
        blk = region.block(g, interior=interior)
        idx = region.time_indices(g)
        assert blk.times == slice(idx[0], idx[-1] + 1)
        full = np.zeros(g.spatial_shape, dtype=bool)
        full[blk.box] = blk.mask
        assert np.array_equal(full, mask & _frame_free(g) if interior else mask)
        mesh = [m[blk.box] for m in g.meshgrid()]
        for d, m, c in zip(blk.offsets, mesh, x0):
            assert np.array_equal(np.broadcast_to(d, m.shape), m - c)
        grads = np.stack([_gradient_by_slices(u, j) for j in range(g.num_times)], axis=1)
        assert np.array_equal(u.gradient_on(blk.index), grads[(slice(None),) + blk.index])
    whole = (3,) + (slice(0, g.nodes_per_axis),) * g.n
    assert np.array_equal(u.gradient_on(whole), _gradient_by_slices(u, 3))
    zone = critical_zone(u, 0.45, 0.5, region)
    flags, fraction, count = _critical_zone_by_slices(u, 0.45, 0.5, region)
    assert np.array_equal(zone.mask, flags)
    assert (zone.fraction, zone.node_count) == (fraction, count)

    if not mask.any():
        with pytest.raises(ValueError, match="no spatial nodes"):
            anisotropic_norm(u, np.inf, 2.0, region)
        return

    # max-type: equal
    for r in (np.inf, 3.0):
        assert anisotropic_norm(u, np.inf, r, region) == _anisotropic_norm_by_slices(u, np.inf, r, region)
    assert _realized_radius(region.block(g)) == _realized_radius_by_meshgrid(g, region)
    full_rim = np.zeros(g.spatial_shape, dtype=bool)
    full_rim[region.block(g).box] = _rim(region.block(g).mask)
    assert np.array_equal(full_rim, _rim_by_roll(mask))
    if ball and (mask & _frame_free(g)).any():
        cyl = Cylinder(center_x=x0, center_t=t_end, rho=size, theta_eff=2.0, depth=depth,
                       theta=2.0, sigma=1.0)
        assert _interp_noise_floor(u, cyl) == _noise_floor_by_slices(u, region)

    # sum-type: within 1e-12 relative
    if (sw > 0).any():
        for q, r in ((2.0, 2.0), (1.5, np.inf), (3.0, 1.0)):
            _close(anisotropic_norm(u, q, r, region), _anisotropic_norm_by_slices(u, q, r, region))


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    ball=st.booleans(),
    size=st.floats(0.3, 0.9),
    offset=st.floats(-1.0, 1.0),
    p=st.sampled_from([1.5, 2.0, 3.0]),
)
def test_weak_form_and_energy_sides_match_the_per_slice_references(n, seed, ball, size, offset, p):
    g = _grid(n)
    rng = np.random.default_rng(seed)
    u = GridFunction(g, rng.standard_normal(g.shape))
    # inside the domain, so that the cutoff vanishes on the region's rim
    x0 = (offset * (1.0 - size),) + (0.5 * offset * (1.0 - size),) * (n - 1)
    shape = {"radius": size} if ball else {"half_widths": tuple(size * (1 - 0.2 * a) for a in range(n))}
    region = Region(center=x0, t_start=0.125, t_end=0.375, **shape)
    source = SourceSpec(kind="constant", c=float(rng.uniform(-1, 1)), q=4.0, r=4.0)
    cutoff = make_cutoff(g, region)
    want, scale = _weak_residual_by_slices(u, source, cutoff, region, p)
    assert abs(weak_residual(u, source, cutoff, region, p) - want) <= REL * scale
    for c_fit in (0.0, 1.5):
        got = caccioppoli_gap(u, source, cutoff, region, p, c_fit)
        want = _caccioppoli_gap_by_slices(u, source, cutoff, region, p, c_fit)
        for a, b in zip(got, want):
            _close(a, b)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_weak_residual_of_a_solution_matches_the_reference_to_rounding_of_its_terms(p):
    # on a solution the defect is a cancellation of much larger terms, so
    # regrouping the sums moves it by the rounding of those terms, not of itself
    g = SpaceTimeGrid(n=1, extent=1.0, h=1 / 64, dt=1 / 8192, t_start=0.0, t_end=400 / 8192)
    init = 0.5 * np.sin(np.pi * g.axis_nodes())
    source = SourceSpec(kind="separable_power", a=0.0, b=0.2, q=np.inf, r=4.0)
    u = solve(g, SolveConfig(p=p, boundary=BoundarySpec(kind="zero")), source, init)
    region = Region(center=(0.25,), half_widths=(0.7,), t_start=0.0, t_end=g.t_end)
    for psi in bump_battery(g, region):
        want, scale = _weak_residual_by_slices(u, source, psi, region, p)
        assert abs(want) < 1e-3 * scale  # the cancellation is real
        assert abs(weak_residual(u, source, psi, region, p) - want) <= REL * scale


@pytest.mark.parametrize("ball", [True, False])
def test_each_region_integral_builds_the_space_block_once(monkeypatch, ball):
    g = _grid(2)
    u = GridFunction(g, np.random.default_rng(3).standard_normal(g.shape))
    shape = {"radius": 0.6} if ball else {"half_widths": (0.6, 0.5)}
    region = Region(center=(0.1, -0.1), t_start=0.125, t_end=0.375, **shape)
    source = SourceSpec(kind="constant", c=0.3, q=4.0, r=4.0)
    cutoff = make_cutoff(g, region)
    built = []
    space_block = Region._space_block
    monkeypatch.setattr(Region, "_space_block",
                        lambda self, *args: built.append(self) or space_block(self, *args))
    calls = {
        "anisotropic_norm, finite q": (lambda: anisotropic_norm(u, 2.0, 3.0, region), 1),
        "anisotropic_norm, q = inf": (lambda: anisotropic_norm(u, np.inf, 3.0, region), 1),
        "weak_residual": (lambda: weak_residual(u, source, cutoff, region, 2.0), 1),
        "make_source": (lambda: make_source(source, g), 1),
        # its region's block and the whole domain's, for the source norm
        "caccioppoli_gap": (lambda: caccioppoli_gap(u, source, cutoff, region, 2.0, 1.0), 2),
    }
    for name, (call, want) in calls.items():
        built.clear()
        call()
        assert len(built) == want, name


@pytest.mark.parametrize("n", [1, 2])
def test_p_caloric_proximity_matches_the_per_slice_reference(n):
    g = SpaceTimeGrid(n=n, extent=1.0, h=1 / 16, dt=1 / 512, t_start=0.0, t_end=1 / 16)
    config = SolveConfig(p=3.0, boundary=BoundarySpec(kind="zero"))
    source = SourceSpec(kind="constant", c=0.3, q=np.inf, r=4.0)
    init = np.cos(0.5 * np.pi * g.meshgrid()[0]) * 0.4
    u = solve(g, config, source, init)
    phi = solve(g, config, SourceSpec(kind="zero", q=source.q, r=source.r), init)
    half = Region(center=(0.0,) * n, radius=0.5, t_start=g.t_end - g.t_end / 4.0, t_end=g.t_end)
    assert p_caloric_proximity(g, config, source, init) == _p_caloric_distances_by_slices(u, phi, half)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    # interior points, cell edges, nodes and the domain's corners
    spots=st.lists(st.sampled_from(["random", "edge", "node", "corner"]), min_size=1, max_size=6),
)
def test_point_and_node_gradients_equal_the_stencils_they_replaced(n, seed, spots):
    g = _grid(n)
    rng = np.random.default_rng(seed)
    u = GridFunction(g, rng.standard_normal(g.shape))
    for spot in spots:
        if spot == "random":
            x, t = rng.uniform(-1.0, 1.0, n), float(rng.uniform(0.0, GRID_T_END))
        elif spot == "edge":
            x, t = rng.integers(-8, 9, n) / 8 + rng.uniform(0, 1 / 8, n) * (rng.random(n) < 0.5), 0.25
            x = np.clip(x, -1.0, 1.0)
        elif spot == "node":
            x, t = rng.integers(-8, 9, n) / 8, float(rng.integers(0, 17)) / 32
        else:
            x, t = rng.choice([-1.0, 1.0], n), rng.choice([0.0, GRID_T_END])
        assert np.array_equal(u.gradient_at(x, t), _gradient_at_by_stencil(u, x, t))
    ix = tuple(int(i) for i in rng.integers(1, g.nodes_per_axis - 1, n))
    j = int(rng.integers(0, g.num_times))
    want = [(u.values[j][tuple(i + (a == b) for b, i in enumerate(ix))]
             - u.values[j][tuple(i - (a == b) for b, i in enumerate(ix))]) / (2.0 * g.h) for a in range(n)]
    assert np.array_equal(u.gradient_on((j,) + tuple(slice(i, i + 1) for i in ix)).reshape(n), want)
