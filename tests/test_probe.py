import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from plaplab import probe
from plaplab.cylinders import rescale_outside
from plaplab.exponents import INF, ProblemParams, sharp_exponents
from plaplab.grids import GridFunction, Region, SpaceTimeGrid, _center_point
from plaplab.probe import (
    UnresolvableCylinderError,
    check_dyadic_bound,
    check_pointwise_c1alpha,
    dyadic_bound_sequence,
    fit_exponent,
    oscillation_profile,
    p_caloric_proximity,
)
from plaplab.solver import BoundarySpec, SolveConfig, SourceSpec, reference_solutions

HEAT = ProblemParams(p=2.0, n=1, q=8.0, r=8.0)

LAM, K = 0.45, 5


def synthetic_grid(h=1 / 128, dt=1 / 16384, t_depth=0.25):
    steps = round(t_depth / dt)
    return SpaceTimeGrid(n=1, extent=1.0, h=h, dt=dt, t_start=-steps * dt, t_end=0.0)


def frozen_radial(alpha0, h=1 / 128):
    g = synthetic_grid(h=h)
    space = np.abs(g.axis_nodes()) ** (1.0 + alpha0)
    vals = np.broadcast_to(space[None, :], g.shape).copy()
    return GridFunction(g, vals)


# ---------------------------------------------------------------------------
# profiles

def test_profile_constant_all_zero():
    g = synthetic_grid()
    u = GridFunction(g, np.full(g.shape, 3.3))
    prof = oscillation_profile(u, ((0.0,), 0.0), LAM, K, HEAT, mode="plain")
    assert all(e.sup_osc == 0.0 for e in prof.entries)
    assert fit_exponent(prof) is None


def test_profile_affine_cancels_in_affine_mode():
    g = synthetic_grid()
    u = GridFunction.from_callable(g, lambda x, t: 0.2 + 0.1 * x)
    prof = oscillation_profile(u, ((0.0,), 0.0), LAM, K, HEAT, mode="affine")
    assert all(e.sup_osc <= 1e-12 for e in prof.entries)
    assert fit_exponent(prof) is None


def test_profile_affine_plain_mode_slope_one():
    g = synthetic_grid()
    u = GridFunction.from_callable(g, lambda x, t: 0.5 * x)
    prof = oscillation_profile(u, ((0.0,), 0.0), LAM, K, HEAT, mode="plain")
    fit = fit_exponent(prof)
    assert fit is not None
    assert fit.slope == pytest.approx(1.0, abs=0.05)


def test_profile_radial_sup_matches_analytic():
    alpha0 = 0.5
    u = frozen_radial(alpha0)
    prof = oscillation_profile(u, ((0.0,), 0.0), LAM, K, HEAT, mode="plain")
    for e in prof.entries:
        assert e.sup_osc == pytest.approx(e.rho_eff ** (1.0 + alpha0), rel=1e-12)


@pytest.mark.parametrize("alpha0", [0.25, 0.5, 0.75])
def test_profile_synthetic_slope_recovery(alpha0):
    u = frozen_radial(alpha0)
    prof = oscillation_profile(u, ((0.0,), 0.0), LAM, K, HEAT, mode="plain")
    fit = fit_exponent(prof)
    assert fit is not None
    assert fit.slope == pytest.approx(1.0 + alpha0, abs=0.05)


def test_profile_rejects_bad_lambda_and_depth():
    u = frozen_radial(0.5)
    with pytest.raises(ValueError):
        oscillation_profile(u, ((0.0,), 0.0), 0.6, K, HEAT)
    with pytest.raises(ValueError):
        oscillation_profile(u, ((0.0,), 0.0), LAM, 3, HEAT)


def test_profile_unresolvable_cylinder():
    u = frozen_radial(0.5, h=1 / 32)  # coarse grid cannot host level 5
    with pytest.raises(UnresolvableCylinderError):
        oscillation_profile(u, ((0.0,), 0.0), LAM, K, HEAT)


def test_profile_center_near_boundary_rejected():
    u = frozen_radial(0.5)
    with pytest.raises(ValueError):
        oscillation_profile(u, ((0.9,), 0.0), LAM, K, HEAT)


# ---------------------------------------------------------------------------
# fits

def test_fit_invariant_under_scaling_and_shift():
    u = frozen_radial(0.5)
    g = u.grid
    scaled = GridFunction(g, 3.0 * u.values)
    shifted = GridFunction(g, u.values + 7.0)
    p0 = oscillation_profile(u, ((0.0,), 0.0), LAM, K, HEAT, mode="plain")
    p1 = oscillation_profile(scaled, ((0.0,), 0.0), LAM, K, HEAT, mode="plain")
    p2 = oscillation_profile(shifted, ((0.0,), 0.0), LAM, K, HEAT, mode="plain")
    f0, f1, f2 = fit_exponent(p0), fit_exponent(p1), fit_exponent(p2)
    assert f1.slope == pytest.approx(f0.slope, abs=1e-9)
    assert f1.logM == pytest.approx(f0.logM + np.log(3.0), abs=1e-9)
    assert f2.slope == pytest.approx(f0.slope, abs=1e-9)


# ---------------------------------------------------------------------------
# dyadic bounds

def test_bound_sequence_closed_form_identity():
    for lam in (0.2, 0.45):
        for alpha in (0.3, 0.5, 0.9):
            for g in (0.0, 0.05, 0.4):
                for k in range(1, 8):
                    direct = lam ** (k * (1 + alpha)) + g * sum(
                        lam ** (k + j * alpha) for j in range(k)
                    )
                    closed = dyadic_bound_sequence(lam, k, alpha, g)
                    assert closed == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_bound_sequence_chain_estimate():
    # B_k / rho_k^(1+alpha) <= (1/lam^(1+alpha)) (1 + 1/(1-lam^alpha)) (1 + g rho_k^-alpha)
    for lam in (0.25, 0.45):
        for alpha in (0.3, 0.7):
            for g in (0.0, 0.2, 1.0):
                for k in range(1, 8):
                    rho = lam**k
                    lhs = dyadic_bound_sequence(lam, k, alpha, g) / rho ** (1 + alpha)
                    rhs = (
                        (1 / lam ** (1 + alpha))
                        * (1 + 1 / (1 - lam**alpha))
                        * (1 + g * rho ** (-alpha))
                    )
                    assert lhs <= rhs * (1 + 1e-12)


def test_dyadic_bound_zero_gradient_reduces():
    u = frozen_radial(0.5)
    prof = oscillation_profile(u, ((0.0,), 0.0), LAM, K, HEAT, mode="plain")
    assert prof.grad_mag == pytest.approx(0.0, abs=1e-12)
    rep = check_dyadic_bound(prof, HEAT)
    for e in rep.entries:
        assert e.thm_bound == pytest.approx(e.rho ** (1.0 + rep.alpha), rel=1e-12)


def test_dyadic_bound_ratios_decrease_for_smoother_field():
    # alpha0 > alpha: ratios shrink like lam^(k(alpha0-alpha))
    params = HEAT
    alpha = sharp_exponents(params).alpha  # 0.5 at q=r=8
    alpha0 = 0.75
    u = frozen_radial(alpha0)
    prof = oscillation_profile(u, ((0.0,), 0.0), LAM, K, params, mode="plain")
    rep = check_dyadic_bound(prof, params)
    ratios = [e.ratio for e in rep.entries]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert rep.passes and np.isfinite(rep.fitted_M)


def test_dyadic_bound_M_reindexing_invariant():
    u = frozen_radial(0.5)
    prof = oscillation_profile(u, ((0.0,), 0.0), LAM, K, HEAT, mode="plain")
    rep = check_dyadic_bound(prof, HEAT)
    assert rep.fitted_M == max(e.ratio for e in rep.entries)
    reversed_max = max(e.ratio for e in reversed(rep.entries))
    assert rep.fitted_M == reversed_max


def test_affine_mode_triangle_inequality_per_level():
    g = synthetic_grid()
    u = GridFunction.from_callable(g, lambda x, t: np.sin(2.0 * x) + 0.3 * x)
    plain = oscillation_profile(u, ((0.1,), 0.0), LAM, K, HEAT, mode="plain")
    aff = oscillation_profile(u, ((0.1,), 0.0), LAM, K, HEAT, mode="affine")
    for ep, ea in zip(plain.entries, aff.entries):
        assert ea.sup_osc <= ep.sup_osc + ep.rho * plain.grad_mag + 1e-12


def test_dyadic_bound_requires_plain_mode():
    u = frozen_radial(0.5)
    prof = oscillation_profile(u, ((0.0,), 0.0), LAM, K, HEAT, mode="affine")
    with pytest.raises(ValueError):
        check_dyadic_bound(prof, HEAT)


# ---------------------------------------------------------------------------
# pointwise checks

def test_pointwise_affine_trivially_regular():
    g = synthetic_grid()
    u = GridFunction.from_callable(g, lambda x, t: 0.05 * x + 0.2)
    rep = check_pointwise_c1alpha(u, ((0.0,), 0.0), HEAT, LAM, K)
    assert rep.critical  # gradient 0.05 below lam^alpha
    assert rep.passes
    assert rep.slope is None  # sub-noise affine deviation
    assert rep.M <= 1e-10


def test_pointwise_critical_quadratic_passes():
    g = synthetic_grid()
    u = GridFunction.from_callable(g, lambda x, t: 0.4 * x * x)
    rep = check_pointwise_c1alpha(u, ((0.0,), 0.0), HEAT, LAM, K)
    assert rep.critical
    assert rep.passes
    assert rep.slope == pytest.approx(2.0, abs=0.1)  # smoother than required


def test_pointwise_vacuous_flags_a_pass_without_a_fit():
    g = synthetic_grid()
    affine = GridFunction.from_callable(g, lambda x, t: 0.05 * x + 0.2)
    rep = check_pointwise_c1alpha(affine, ((0.0,), 0.0), HEAT, LAM, K)
    assert rep.critical and rep.passes and rep.vacuous  # every level under the noise floor
    heat = reference_solutions("heat_mode", 2.0, 1, g)  # sin(pi x): an extremum at x = 1/2
    rep = check_pointwise_c1alpha(heat, ((0.5,), 0.0), HEAT, LAM, K)
    assert rep.critical and rep.passes and not rep.vacuous
    assert rep.slope is not None


def test_profiles_of_a_center_build_and_reduce_each_cylinder_once(monkeypatch):
    built = []
    block = Region.block

    def counting_block(self, grid, interior=False):
        if not interior:  # the noise floor reads its own interior block
            built.append(self)
        return block(self, grid, interior)

    monkeypatch.setattr(Region, "block", counting_block)
    g = synthetic_grid()
    u = GridFunction.from_callable(g, lambda x, t: 0.4 * x * x + 0.1 * x * t)
    center = ((0.0,), 0.0)
    affine = oscillation_profile(u, center, LAM, K, HEAT, mode="affine")
    plain = oscillation_profile(u, center, LAM, K, HEAT, mode="plain")
    rep = check_pointwise_c1alpha(u, center, HEAT, LAM, K)
    assert rep.critical
    assert len(built) == K  # one block per level, reduced once for all three profiles
    assert rep.profile.entries == affine.entries
    fresh = GridFunction(g, u.values)
    assert plain == oscillation_profile(fresh, center, LAM, K, HEAT, mode="plain")


def _center_results(u, center):
    """Everything the probe computes at a center, in comparable form."""
    reports = [oscillation_profile(u, center, LAM, K, HEAT, mode=mode) for mode in ("affine", "plain")]
    reports.append(check_pointwise_c1alpha(u, center, HEAT, LAM, K))
    if not reports[-1].critical:
        out = rescale_outside(u, center, HEAT)
        reports.append((out.certificates, out.tau, out.v.values.tobytes()))
    return reports


def test_a_center_interpolates_its_value_gradient_and_noise_floor_once(monkeypatch):
    g = synthetic_grid(h=1 / 256)
    u = GridFunction.from_callable(g, lambda x, t: 0.8 * x + 0.3 * x * x + 0.05 * np.sin(9 * x) * t)
    center = ((0.0,), 0.0)
    expected = _center_results(GridFunction(g, u.values), center)
    calls = {"value_at": 0, "gradient_at": 0, "noise": 0}

    def spy(name, fn):
        def counted(field, *args):
            if field is u:
                calls[name] += 1
            return fn(field, *args)
        return counted

    monkeypatch.setattr(GridFunction, "value_at", spy("value_at", GridFunction.value_at))
    monkeypatch.setattr(GridFunction, "gradient_at", spy("gradient_at", GridFunction.gradient_at))
    monkeypatch.setattr(probe, "_interp_noise_floor", spy("noise", probe._interp_noise_floor))
    got = _center_results(u, center)
    assert not got[2].critical  # so rescale_outside ran, twice
    assert calls == {"value_at": 1, "gradient_at": 1, "noise": 1}
    assert got == expected


def test_a_returned_gradient_cannot_change_a_later_profile():
    g = synthetic_grid()
    u = GridFunction.from_callable(g, lambda x, t: 0.4 * x * x + 0.1 * x * t + 0.05 * x)
    center = ((0.1,), 0.0)
    first = oscillation_profile(u, center, LAM, K, HEAT, mode="affine")
    public = u.gradient_at((0.1,), 0.0)  # never cached: the caller's own array
    public *= 100.0
    _, shared = _center_point(u, np.array([0.1]), 0.0)
    with pytest.raises(ValueError, match="read-only"):
        shared[0] = 100.0
    assert oscillation_profile(u, center, LAM, K, HEAT, mode="affine") == first
    assert first == oscillation_profile(GridFunction(g, u.values), center, LAM, K, HEAT, mode="affine")


def test_interleaved_centers_match_a_fresh_field_per_call():
    g = synthetic_grid(h=1 / 256)
    vals = GridFunction.from_callable(g, lambda x, t: 0.5 * x * x + 0.3 * x**3 + 0.2 * x * t).values
    shared = GridFunction(g, vals)
    steep, flat = ((0.5,), 0.0), ((0.0,), -0.01)
    kinds = []
    for center in (steep, flat, steep):  # A, B, A: each switch replaces the memo
        got = _center_results(shared, center)
        assert got == _center_results(GridFunction(g, vals), center)
        kinds.append(got[2].critical)
    assert kinds == [False, True, False]


def test_concurrent_profiles_of_different_centers_on_one_field():
    g = synthetic_grid()
    vals = GridFunction.from_callable(g, lambda x, t: 0.4 * x * x + 0.1 * np.sin(7 * x) * (1 + t)).values
    centers = [((x,), 0.0) for x in (-0.3, -0.1, 0.1, 0.3)]

    def profiles(u, center):
        return [oscillation_profile(u, center, LAM, K, HEAT, mode=mode) for mode in ("affine", "plain")]

    expected = {c: profiles(GridFunction(g, vals), c) for c in centers}
    shared = GridFunction(g, vals)
    got, errors = {c: [] for c in centers}, []

    def worker(center):
        try:
            for _ in range(4):  # each round replaces the memo the other threads read
                got[center].append(profiles(shared, center))
        except Exception as exc:  # reported below; a thread's exception is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(c,)) for c in centers]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for c in centers:
        assert got[c] == [expected[c]] * 4


def test_pointwise_noncritical_routes_through_rescale():
    g = synthetic_grid(h=1 / 256)
    u = GridFunction.from_callable(g, lambda x, t: 0.8 * x + 0.3 * x * x)
    rep = check_pointwise_c1alpha(u, ((0.0,), 0.0), HEAT, LAM, K)
    assert not rep.critical
    alpha = sharp_exponents(HEAT).alpha  # 0.625 for n=1, q=r=8
    assert rep.tau == pytest.approx(0.8 ** (1 / alpha), rel=1e-6)
    # frozen-factor bookkeeping: g tau^(-alpha) collapses to exactly 1
    assert rep.grad_mag * rep.tau ** (-alpha) == pytest.approx(1.0, rel=1e-9)
    assert rep.passes
    assert np.isfinite(rep.M)


def test_pointwise_checks_do_not_import_scipy():
    # both branches, the non-critical one through rescale_outside, are numpy-only
    code = (
        "import sys, numpy as np\n"
        "from plaplab.exponents import ProblemParams\n"
        "from plaplab.grids import GridFunction, SpaceTimeGrid\n"
        "from plaplab.probe import check_pointwise_c1alpha\n"
        "g = SpaceTimeGrid(n=1, extent=1.0, h=1 / 256, dt=1 / 16384, t_start=-0.25, t_end=0.0)\n"
        "heat = ProblemParams(p=2.0, n=1, q=8.0, r=8.0)\n"
        "flat = GridFunction.from_callable(g, lambda x, t: 0.4 * x * x)\n"
        "steep = GridFunction.from_callable(g, lambda x, t: 0.8 * x + 0.3 * x * x)\n"
        "reps = [check_pointwise_c1alpha(u, ((0.0,), 0.0), heat, 0.45, 5) for u in (flat, steep)]\n"
        "print([r.critical for r in reps], sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[True, False] []"


def test_pointwise_noncritical_needs_degenerate_range():
    sing = ProblemParams(p=1.5, n=1, q=4.0, r=6.0, alpha_h=0.8)
    g = synthetic_grid(h=1 / 256)
    u = GridFunction.from_callable(g, lambda x, t: 0.9 * x)
    with pytest.raises(ValueError):
        check_pointwise_c1alpha(u, ((0.0,), 0.0), sing, LAM, K)


# ---------------------------------------------------------------------------
# proximity to source-free flows

def proximity_grid(h=1 / 32, t_end=0.25):
    dt = 1 / 512
    steps = round(t_end / dt)
    return SpaceTimeGrid(n=1, extent=1.0, h=h, dt=dt, t_start=0.0, t_end=steps * dt)


def test_proximity_zero_source_is_exact_zero():
    g = proximity_grid()
    cfg = SolveConfig(p=2.0, boundary=BoundarySpec(kind="zero"))
    init = reference_solutions("heat_mode", 2.0, 1, g).values[0]
    v, gd = p_caloric_proximity(g, cfg, SourceSpec(kind="zero"), init)
    assert v == 0.0 and gd == 0.0


def test_proximity_delta_sweep_decreases():
    g = proximity_grid()
    cfg = SolveConfig(p=2.0, boundary=BoundarySpec(kind="zero"))
    init = reference_solutions("heat_mode", 2.0, 1, g).values[0]
    dists = []
    for amp in (1e-1, 1e-2, 1e-3):
        v, gd = p_caloric_proximity(g, cfg, SourceSpec(kind="constant", c=amp), init)
        dists.append((v, gd))
    assert dists[0][0] > dists[1][0] > dists[2][0]
    assert dists[0][1] > dists[1][1] > dists[2][1]


def test_proximity_linear_in_source_for_heat():
    g = proximity_grid()
    cfg = SolveConfig(p=2.0, boundary=BoundarySpec(kind="zero"))
    init = reference_solutions("heat_mode", 2.0, 1, g).values[0]
    v1, _ = p_caloric_proximity(g, cfg, SourceSpec(kind="constant", c=0.1), init)
    v2, _ = p_caloric_proximity(g, cfg, SourceSpec(kind="constant", c=0.01), init)
    assert v2 == pytest.approx(0.1 * v1, rel=1e-6)
