"""Acceptance battery: one test per criterion, one pass/fail line each.

Heavy solves are shared through module-scoped fixtures; every tolerance is
pinned in the assertions below.
"""

import math
import time

import numpy as np
import pytest

from plaplab.exponents import (
    INF,
    ProblemParams,
    check_compatibility_values,
    epsilon_layers,
    sharp_exponents,
    theta,
    theta_bounds,
)
from plaplab.grids import (
    GridFunction,
    Region,
    SpaceTimeGrid,
    anisotropic_norm,
    origin_cell_mean_radial_power,
)
from plaplab.probe import (
    check_dyadic_bound,
    check_pointwise_c1alpha,
    dyadic_bound_sequence,
    fit_exponent,
    oscillation_profile,
    p_caloric_proximity,
)
from plaplab.solver import (
    BoundarySpec,
    SolveConfig,
    SourceSpec,
    _source_reader,
    bump_battery,
    caccioppoli_gap,
    make_cutoff,
    reference_solutions,
    semi_discrete_residual,
    solve,
    truncation_estimate,
    weak_residual,
)

LAM = 0.45


def _passline(k, msg):
    print(f"[PASS] criterion {k}: {msg}")


def snapped_grid(n, extent, h, dt, t_end, t_start=0.0):
    steps = max(2, round((t_end - t_start) / dt))
    return SpaceTimeGrid(n=n, extent=extent, h=h, dt=dt, t_start=t_start,
                         t_end=t_start + steps * dt)


def _sample_admissible(rng, count):
    """Rejection-sample admissible parameter tuples, inf rows included."""
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 4))
        p_floor = max(1.0, 2.0 * n / (n + 2.0))
        p = float(rng.uniform(p_floor + 0.02, 4.0))
        roll = rng.random()
        q = INF if roll < 0.1 else float(n * np.exp(rng.uniform(0.05, 6.0)))
        r = INF if roll > 0.9 else float(2.0 * np.exp(rng.uniform(0.05, 6.0)))
        if check_compatibility_values(p, n, q, r).admissible:
            out.append((p, n, q, r))
    return out


# ---------------------------------------------------------------------------
# criterion 1: formula suite

def test_criterion_01_formula_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    samples = _sample_admissible(rng, 10_000)
    assert len(samples) >= 10_000

    worst = 0.0
    for p, n, q, r in samples:
        iq = 0.0 if math.isinf(q) else 1.0 / q
        ir = 0.0 if math.isinf(r) else 1.0 / r
        factored = (p - 1.0) * (1.0 - ir) + ir
        expanded = p * (1.0 - (n * iq / p + ir)) - (1.0 - (n * iq + 2.0 * ir))
        worst = max(worst, abs(factored - expanded) / max(1.0, abs(factored)))
    assert worst <= 1e-12

    for _ in range(500):
        n = int(rng.integers(1, 4))
        q = float(n * np.exp(rng.uniform(0.3, 5.0)))
        r = float(2.0 * np.exp(rng.uniform(0.3, 5.0)))
        if not check_compatibility_values(2.0, n, q, r).admissible:
            continue
        exps = sharp_exponents(ProblemParams(p=2.0, n=n, q=q, r=r))
        assert abs(exps.alpha_hat - (1.0 - (n / q + 2.0 / r))) <= 1e-12

        p = float(rng.uniform(max(1.0, 2 * n / (n + 2)) + 0.05, 4.0))
        if check_compatibility_values(p, n, q, INF).admissible:
            exps = sharp_exponents(ProblemParams(p=p, n=n, q=q, r=INF, alpha_h=1.0))
            assert abs(exps.alpha_hat - (q - n) / (q * (p - 1.0))) <= 1e-12
        # a bounded source (q = r = inf) is admissible exactly on the degenerate range
        p_deg = float(rng.uniform(2.0, 4.0))
        exps = sharp_exponents(ProblemParams(p=p_deg, n=n, q=INF, r=INF, alpha_h=1.0))
        assert abs(exps.alpha_hat - 1.0 / (p_deg - 1.0)) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passline(1, f"identity to 1e-12 on {len(samples)} samples, special cases exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: theta suite

def test_criterion_02_theta_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    samples = _sample_admissible(rng, 1500)
    grads = (0.0, 0.13, 0.5, 0.87, 1.0)
    bases = (0.125, 0.25)
    for p, n, q, r in samples:
        params = ProblemParams(p=p, n=n, q=q, r=r, alpha_h=float(rng.uniform(0.05, 1.0)))
        exps = sharp_exponents(params)
        lo, hi = theta_bounds(params)
        if p > 2.0:
            iq = 0.0 if math.isinf(q) else 1.0 / q
            ir = 0.0 if math.isinf(r) else 1.0 / r
            closed = (1.0 + 2.0 / (p - 2.0) + n * iq) / (1.0 - ir + 1.0 / (p - 2.0))
            assert abs(lo - closed) <= 1e-12 * max(1.0, closed)
        else:
            assert 2.0 <= lo <= hi <= 3.0 + 1e-12
        for g in grads:
            for base in bases:
                th = theta(params, g, base)
                assert lo - 1e-12 <= th <= hi + 1e-12
                assert exps.sigma * th >= 2.0 - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passline(2, f"bounds bracket theta, closed form to 1e-12, sigma*theta >= 2; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: anisotropic norm oracle

def _radial_norm_error(h, a, q):
    m = a * q
    g = SpaceTimeGrid(n=2, extent=1.0, h=h, dt=0.25, t_start=0.0, t_end=1.0)
    mesh = g.meshgrid()
    rr = np.hypot(*mesh)
    space = np.where(rr > 0, np.where(rr > 0, rr, 1.0) ** (-a), 0.0)
    space[rr == 0] = origin_cell_mean_radial_power(2, h, m) ** (1.0 / q)
    f = GridFunction(g, np.broadcast_to(space, g.shape).copy())
    ball = Region(center=(0.0, 0.0), radius=1.0, t_start=0.0, t_end=1.0)
    exact = (2.0 * np.pi / (2.0 - m)) ** (1.0 / q)
    return abs(anisotropic_norm(f, q, 3.0, ball) - exact) / exact


def test_criterion_03_norm_oracle():
    a, q = 0.25, 2.0
    errs = [_radial_norm_error(h, a, q) for h in (1 / 32, 1 / 64, 1 / 128)]
    assert errs[-1] < 0.02
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert min(orders) >= 1.5

    # combined space-time singular source against the separable closed form
    b, r = 0.1, 3.0
    g = SpaceTimeGrid(n=2, extent=1.0, h=1 / 128, dt=1 / 16, t_start=0.0, t_end=1.0)
    spec = SourceSpec(kind="separable_power", a=a, b=b, q=q, r=r)
    sampled = _source_reader(spec, g)((slice(None),) * 3)  # every node, as the solver reads it
    ball = Region(center=(0.0, 0.0), radius=1.0, t_start=0.0, t_end=1.0)
    got = anisotropic_norm(GridFunction(g, sampled), q, r, ball)
    exact = (2.0 * np.pi / (2.0 - a * q)) ** (1.0 / q) * (1.0 / (1.0 - b * r)) ** (1.0 / r)
    assert got == pytest.approx(exact, rel=0.02)
    _passline(3, f"radial norm within 2% at h=1/128, orders {['%.2f' % o for o in orders]}")


# ---------------------------------------------------------------------------
# criterion 4: solver convergence

def test_criterion_04_solver_convergence():
    start = time.perf_counter()
    errs = []
    for h in (1 / 64, 1 / 128, 1 / 256):
        g = snapped_grid(1, 1.0, h, 0.5 * h * h, 0.05)
        mode = reference_solutions("heat_mode", 2.0, 1, g)
        cfg = SolveConfig(p=2.0, boundary=BoundarySpec(kind="zero"))
        u = solve(g, cfg, SourceSpec(kind="zero"), mode.values[0])
        errs.append(float(np.max(np.abs(u.values[-1] - mode.values[-1]))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.7

    res_levels = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        g = SpaceTimeGrid(n=1, extent=4.0, h=h, dt=h * h, t_start=1.0,
                          t_end=1.0 + 32 * h * h)
        u = reference_solutions("barenblatt", 3.0, 1, g)
        res = semi_discrete_residual(u, 3.0)
        from plaplab.solver import barenblatt_support_radius

        x = g.axis_nodes()
        rad = barenblatt_support_radius(g.t_start, 3.0, 1)
        window = (np.abs(x) > 0.15 * rad) & (np.abs(x) < 0.8 * rad)
        res_levels.append(float(np.max(np.abs(res.values[1:-1][:, window]))))
    res_orders = [np.log2(res_levels[i] / res_levels[i + 1]) for i in range(2)]
    assert min(res_orders) >= 1.0

    g = snapped_grid(1, 1.0, 1 / 32, 1 / 512, 0.05)
    cfg = SolveConfig(p=3.0, boundary=BoundarySpec(kind="constant", value=0.6))
    u = solve(g, cfg, SourceSpec(kind="zero"), np.full(g.spatial_shape, 0.6))
    assert float(np.max(np.abs(u.values - 0.6))) < 1e-8
    cfg = SolveConfig(p=1.5, boundary=BoundarySpec(kind="affine", value=0.1, gradient=(0.4,)))
    aff = 0.1 + 0.4 * g.axis_nodes()
    u = solve(g, cfg, SourceSpec(kind="zero"), aff)
    assert float(np.max(np.abs(u.values - aff[None, :]))) < 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _passline(
        4,
        f"eigenmode orders {['%.2f' % o for o in orders]}, self-similar residual orders "
        f"{['%.2f' % o for o in res_orders]}, fixed points exact; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# corpus fixtures

CORPUS_SPECS = {
    "heat_eigenmode": dict(p=2.0, alpha_h=None, source=SourceSpec(kind="zero", q=INF, r=4.0),
                           init="eigenmode"),
    "heat_singular_time": dict(p=2.0, alpha_h=None,
                               source=SourceSpec(kind="separable_power", a=0.0, b=0.2,
                                                 q=INF, r=4.0),
                               init="zero"),
    "degenerate_forced": dict(p=3.0, alpha_h=1.0,
                              source=SourceSpec(kind="constant", c=0.5, q=INF, r=4.0),
                              init="zero"),
    "singular_forced": dict(p=1.5, alpha_h=1.0,
                            source=SourceSpec(kind="constant", c=0.5, q=INF, r=4.0),
                            init="zero"),
}


@pytest.fixture(scope="module")
def small_corpus():
    """Coarse solved instances for the weak-form and energy checks."""
    out = {}
    for name, spec in CORPUS_SPECS.items():
        g = snapped_grid(1, 1.0, 1 / 64, 0.5 / 64 / 64, 0.0625)
        cfg = SolveConfig(p=spec["p"], boundary=BoundarySpec(kind="zero"))
        init = (
            reference_solutions("heat_mode", 2.0, 1, g).values[0]
            if spec["init"] == "eigenmode"
            else np.zeros(g.spatial_shape)
        )
        u = solve(g, cfg, spec["source"], init)
        out[name] = (spec, g, u)
    g2 = snapped_grid(2, 1.0, 1 / 32, 1 / 1024, 0.05)
    cfg2 = SolveConfig(p=2.0, boundary=BoundarySpec(kind="zero"))
    init2 = reference_solutions("heat_mode", 2.0, 2, g2).values[0]
    u2 = solve(g2, cfg2, SourceSpec(kind="zero", q=INF, r=4.0), init2)
    out["heat_eigenmode_2d"] = (dict(p=2.0, source=SourceSpec(kind="zero", q=INF, r=4.0)), g2, u2)
    return out


def _restrict_after(u, t_from):
    """Clip a grid function to the slices with t >= t_from."""
    g = u.grid
    j0 = int(np.searchsorted(g.times(), t_from - 1e-12))
    sub = SpaceTimeGrid(n=g.n, extent=g.extent, h=g.h, dt=g.dt,
                       t_start=g.times()[j0], t_end=g.t_end)
    return GridFunction(sub, u.values[j0:])


# ---------------------------------------------------------------------------
# criterion 5: weak form and energy inequality over the corpus

def test_criterion_05_weak_form_and_energy(small_corpus):
    # every corpus member: battery residuals at most 10x the scheme estimate,
    # measured away from the initial slice where forced solutions kick off
    for name, (spec, g, u) in small_corpus.items():
        uu = _restrict_after(u, g.t_start + (g.t_end - g.t_start) / 2)
        gg = uu.grid
        region = Region(center=(0.25,) + (0.0,) * (gg.n - 1),
                        half_widths=(0.7,) * gg.n,
                        t_start=gg.t_start, t_end=gg.t_end)
        tau_est = truncation_estimate(uu)
        for psi in bump_battery(gg, region):
            res = abs(weak_residual(uu, spec["source"], psi, region, p=spec["p"]))
            assert res <= 10.0 * tau_est, f"{name}: residual {res:.3e} vs {tau_est:.3e}"

    # refinement study on the eigenmode instance: the residual of every
    # battery member vanishes at scheme order under joint (h, dt) refinement
    levels = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        g = snapped_grid(1, 1.0, h, 0.5 * h * h, 0.05)
        mode = reference_solutions("heat_mode", 2.0, 1, g)
        cfg = SolveConfig(p=2.0, boundary=BoundarySpec(kind="zero"))
        u = solve(g, cfg, SourceSpec(kind="zero"), mode.values[0])
        region = Region(center=(0.25,), half_widths=(0.7,), t_start=g.t_start, t_end=g.t_end)
        levels.append(
            [
                abs(weak_residual(u, SourceSpec(kind="zero"), psi, region, p=2.0))
                for psi in bump_battery(g, region)
            ]
        )
    orders = [
        np.log2(levels[i][m] / levels[i + 1][m])
        for m in range(len(levels[0]))
        for i in range(2)
    ]
    assert min(orders) >= 1.5

    # single energy-inequality constant covering the whole corpus
    needed = []
    gaps = []
    for name, (spec, g, u) in small_corpus.items():
        region = Region(center=(0.0,) * g.n, half_widths=(0.8,) * g.n,
                        t_start=g.t_start, t_end=g.t_end)
        xi = make_cutoff(g, region)
        lhs, rhs0 = caccioppoli_gap(u, spec["source"], xi, region, p=spec["p"], c_fit=0.0)
        lhs1, rhs1 = caccioppoli_gap(u, spec["source"], xi, region, p=spec["p"], c_fit=1.0)
        slack = rhs1 - rhs0  # time term + source norm, the c-multiplied part
        if lhs <= rhs0:
            needed.append(0.0)
        else:
            assert slack > 0.0, f"{name}: no room for a finite constant"
            needed.append((lhs - rhs0) / slack)
        gaps.append((name, lhs, rhs0, slack))
    c_fit = max(needed) * 1.05 + 1e-6
    assert np.isfinite(c_fit)
    for name, lhs, rhs0, slack in gaps:
        assert lhs <= rhs0 + c_fit * slack * 1.0000001, name
    _passline(5, f"battery residual orders in [{min(orders):.2f}, {max(orders):.2f}], "
                 f"single energy constant C={c_fit:.3f} covers {len(gaps)} instances")


# ---------------------------------------------------------------------------
# criterion 6: synthetic exponent recovery at 257 nodes

def test_criterion_06_exponent_recovery():
    h = 1 / 128  # 257 nodes on [-1, 1]
    params = ProblemParams(p=2.0, n=1, q=8.0, r=8.0)
    for alpha0 in (0.25, 0.5, 0.75):
        dt = 1 / 16384
        g = snapped_grid(1, 1.0, h, dt, 0.25, t_start=-0.25)
        space = np.abs(g.axis_nodes()) ** (1.0 + alpha0)
        u = GridFunction(g, np.broadcast_to(space[None, :], g.shape).copy())
        prof = oscillation_profile(u, ((0.0,), 0.0), LAM, 5, params, mode="plain")
        fit = fit_exponent(prof)
        assert fit is not None
        assert abs(fit.slope - (1.0 + alpha0)) <= 0.05, alpha0
    _passline(6, "slopes within +-0.05 of 1+alpha0 for alpha0 in {0.25, 0.5, 0.75}")


# ---------------------------------------------------------------------------
# probe corpus (shared by criteria 7 and 8)

PROBE_SOURCE = SourceSpec(kind="separable_power", a=0.0, b=0.2, q=INF, r=4.0)


def _probe_solve(p, alpha_h, h, t_end):
    g = snapped_grid(1, 1.0, h, 2e-5, t_end)
    params = ProblemParams(p=p, n=1, q=INF, r=4.0, alpha_h=alpha_h)
    cfg = SolveConfig(p=p, boundary=BoundarySpec(kind="zero"))
    u = solve(g, cfg, PROBE_SOURCE, np.zeros(g.spatial_shape))
    return params, cfg, g, u


@pytest.fixture(scope="module")
def probe_corpus():
    out = {
        "p2": _probe_solve(2.0, None, 1 / 256, 0.3),
        "p3": _probe_solve(3.0, 1.0, 1 / 256, 0.3),
        "p15": _probe_solve(1.5, 1.0, 1 / 256, 0.25),
    }
    out["p2_refined"] = _probe_solve(2.0, None, 1 / 512, 0.3)
    return out


# ---------------------------------------------------------------------------
# criterion 7: dyadic oscillation bound with a single constant

def test_criterion_07_dyadic_bound(probe_corpus):
    # closed-form bound-sequence identity
    for lam in (0.25, LAM):
        for alpha in (0.3, 0.5, 0.8):
            for gmag in (0.0, 0.1, 0.7):
                for k in range(1, 9):
                    direct = lam ** (k * (1 + alpha)) + gmag * sum(
                        lam ** (k + j * alpha) for j in range(k)
                    )
                    closed = dyadic_bound_sequence(lam, k, alpha, gmag)
                    assert abs(closed - direct) <= 1e-12 * max(1.0, direct)

    fitted = {}
    for name in ("p2", "p3", "p2_refined"):
        params, cfg, g, u = probe_corpus[name]
        center = ((0.0,), g.t_end)
        prof = oscillation_profile(u, center, LAM, 6, params, mode="plain")
        alpha = sharp_exponents(params).alpha
        assert prof.grad_mag <= LAM**alpha, f"{name}: probe center not critical"
        rep = check_dyadic_bound(prof, params)
        assert rep.passes and np.isfinite(rep.fitted_M)
        assert len(rep.entries) == 6
        fitted[name] = rep.fitted_M
    ratio = fitted["p2_refined"] / fitted["p2"]
    assert 0.5 <= ratio <= 2.0
    _passline(7, f"finite M over k=1..6 on every instance; refinement ratio {ratio:.3f}; "
                 "bound-sequence identity to 1e-12")


# ---------------------------------------------------------------------------
# criterion 8: one-sided pointwise growth checks

def test_criterion_08_pointwise_one_sided(probe_corpus):
    tolerances = {"p2": 0.1, "p3": 0.15, "p15": 0.15}
    for name, tol in tolerances.items():
        params, cfg, g, u = probe_corpus[name]
        K = 6 if name != "p15" else 5
        rep = check_pointwise_c1alpha(u, ((0.0,), g.t_end), params, LAM, K, slope_tol=tol)
        assert rep.critical, name
        assert rep.slope is not None, name
        assert rep.slope >= 1.0 + rep.alpha - tol, (
            f"{name}: slope {rep.slope:.3f} under target {1 + rep.alpha - tol:.3f}"
        )
        eps_used = cfg.resolved_eps(g)
        print(f"    {name}: slope {rep.slope:.3f} >= {1 + rep.alpha - tol:.3f} "
              f"(eps_reg={eps_used:.2e})")
    _passline(8, "measured slopes clear the one-sided targets at all probed critical centers")


# ---------------------------------------------------------------------------
# criterion 9: proximity to source-free flows under a delta sweep

def test_criterion_09_proximity_trend():
    t_end = 0.25
    for p, alpha_h in ((1.5, 1.0), (2.0, None), (3.0, 1.0)):
        g = snapped_grid(1, 1.0, 1 / 32, 1 / 512, t_end)
        cfg = SolveConfig(p=p, boundary=BoundarySpec(kind="zero"))
        init = 0.3 * reference_solutions("heat_mode", 2.0, 1, g).values[0]
        dists = []
        for target in (1e-1, 1e-2, 1e-3):
            amp = target / (g.t_end - g.t_start) ** 0.25  # constant-source L^(inf,4) norm
            v, gd = p_caloric_proximity(
                g, cfg, SourceSpec(kind="constant", c=amp, q=INF, r=4.0), init
            )
            dists.append((v, gd))
        assert dists[0][0] > dists[1][0] > dists[2][0], p
        assert dists[0][1] > dists[1][1] > dists[2][1], p
    _passline(9, "value and gradient distances decrease along the delta sweep for p in {1.5, 2, 3}")


# ---------------------------------------------------------------------------
# criterion 10: epsilon layers

def test_criterion_10_epsilon_layers():
    sweep = (0.2, 0.1, 0.05, 0.01)
    deg = ProblemParams(p=3.0, n=2, q=8.0, r=8.0, alpha_h=1.0)
    deg_alphas = [epsilon_layers(deg, 0.5, e, "degenerate").alpha_eps for e in sweep]
    assert all(b < a for a, b in zip(deg_alphas, deg_alphas[1:]))
    assert deg_alphas[-1] < 0.01

    sing = ProblemParams(p=1.5, n=2, q=8.0, r=8.0, alpha_h=1.0)
    sing_alphas = [epsilon_layers(sing, 0.5, e, "singular").alpha_eps for e in sweep]
    assert all(b > a for a, b in zip(sing_alphas, sing_alphas[1:]))
    assert sing_alphas[-1] > 0.95
    assert sing_alphas[-1] <= sing.alpha_h
    _passline(10, f"degenerate layers {['%.3f' % a for a in deg_alphas]} fall to 0; "
                  f"singular layers {['%.3f' % a for a in sing_alphas]} rise to alpha_h")
