import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plaplab.exponents import (
    INF,
    ProblemParams,
    admissible_region,
    check_compatibility,
    check_compatibility_values,
    epsilon_layers,
    kappa_exponent,
    mu_ceiling,
    sharp_exponents,
    singular_band_level,
    theta,
    theta_bounds,
)


# ---------------------------------------------------------------------------
# strategies

@st.composite
def admissible_params(draw):
    n = draw(st.integers(1, 3))
    p_floor = max(1.0, 2.0 * n / (n + 2.0))
    p = draw(st.floats(p_floor + 0.05, 4.0))
    q = draw(st.one_of(st.just(INF), st.floats(n + 0.1, 200.0)))
    r = draw(st.one_of(st.just(INF), st.floats(2.1, 200.0)))
    assume(check_compatibility_values(p, n, q, r).admissible)
    alpha_h = draw(st.floats(0.05, 1.0))
    return ProblemParams(p=p, n=n, q=q, r=r, alpha_h=alpha_h)


# ---------------------------------------------------------------------------
# construction and compatibility

def test_construction_rejects_bad_ranges():
    with pytest.raises(ValueError):
        ProblemParams(p=1.0, n=1, q=8.0, r=8.0, alpha_h=0.5)
    with pytest.raises(ValueError):
        ProblemParams(p=1.1, n=3, q=8.0, r=8.0, alpha_h=0.5)  # p <= 2n/(n+2) = 1.2
    with pytest.raises(ValueError):
        ProblemParams(p=2.0, n=2, q=2.0, r=8.0)  # q <= n
    with pytest.raises(ValueError):
        ProblemParams(p=2.0, n=2, q=8.0, r=2.0)  # r <= 2
    with pytest.raises(ValueError):
        ProblemParams(p=3.0, n=2, q=8.0, r=8.0)  # alpha_h required for p != 2


def test_alpha_h_defaults_to_one_for_heat():
    assert ProblemParams(p=2.0, n=2, q=8.0, r=8.0).alpha_h == 1.0


def test_compatibility_heat_case():
    rep = check_compatibility(ProblemParams(p=2.0, n=2, q=8.0, r=8.0))
    assert rep.admissible
    assert rep.minimal_integrability == pytest.approx(0.25, abs=1e-15)
    assert rep.holder_band == pytest.approx(0.5, abs=1e-15)


def test_compatibility_singular_case():
    rep = check_compatibility(ProblemParams(p=1.5, n=2, q=8.0, r=8.0, alpha_h=0.9))
    assert rep.admissible
    assert rep.lower_band == pytest.approx(0.4375, abs=1e-15)
    assert rep.lower_band <= rep.holder_band


def test_compatibility_flags_small_q():
    rep = check_compatibility_values(2.0, 2, 2.0, 8.0)
    assert not rep.admissible
    assert "q>n" in rep.violations


# ---------------------------------------------------------------------------
# sharp exponents

def test_heat_alpha_is_one_minus_band():
    exps = sharp_exponents(ProblemParams(p=2.0, n=2, q=8.0, r=8.0))
    assert exps.alpha == pytest.approx(0.5, abs=1e-15)
    assert exps.alpha_hat == pytest.approx(0.5, abs=1e-15)
    assert not exps.attained_by_homogeneous


def test_bounded_source_limit():
    exps = sharp_exponents(ProblemParams(p=3.0, n=2, q=INF, r=INF, alpha_h=1.0))
    assert exps.alpha_hat == pytest.approx(1.0 / (3.0 - 1.0), abs=1e-15)
    assert exps.alpha == pytest.approx(0.5, abs=1e-15)


def test_time_independent_source_limit():
    exps = sharp_exponents(ProblemParams(p=3.0, n=3, q=6.0, r=INF, alpha_h=1.0))
    assert exps.alpha_hat == pytest.approx((6.0 - 3.0) / (6.0 * 2.0), abs=1e-15)
    assert exps.alpha == pytest.approx(0.25, abs=1e-15)


def test_homogeneous_branch_flag():
    exps = sharp_exponents(ProblemParams(p=2.0, n=2, q=8.0, r=8.0, alpha_h=0.3))
    assert exps.attained_by_homogeneous
    assert exps.alpha == 0.3


def test_sharp_exponents_rejects_inadmissible():
    # band >= 1: q, r barely above their floors
    bad = ProblemParams(p=2.0, n=2, q=2.5, r=2.5)
    with pytest.raises(ValueError):
        sharp_exponents(bad)


def test_sharp_exponents_is_one_frozen_object_per_parameter_set():
    first = sharp_exponents(ProblemParams(p=3.0, n=2, q=8.0, r=8.0, alpha_h=0.7))
    assert sharp_exponents(ProblemParams(p=3.0, n=2, q=8.0, r=8.0, alpha_h=0.7)) is first
    assert sharp_exponents(ProblemParams(p=3.0, n=2, q=8.0, r=8.0, alpha_h=0.6)) is not first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.alpha = 0.0
    bad = ProblemParams(p=2.0, n=2, q=2.5, r=2.5)
    for _ in range(2):  # a rejection is not remembered as a result
        with pytest.raises(ValueError, match="not admissible"):
            sharp_exponents(bad)


@settings(max_examples=250, deadline=None)
@given(admissible_params())
def test_denominator_identity(params):
    iq = 0.0 if math.isinf(params.q) else 1.0 / params.q
    ir = 0.0 if math.isinf(params.r) else 1.0 / params.r
    factored = (params.p - 1.0) * (1.0 - ir) + ir
    expanded = params.p * (1.0 - (params.n * iq / params.p + ir)) - (
        1.0 - (params.n * iq + 2.0 * ir)
    )
    assert abs(factored - expanded) <= 1e-12 * max(1.0, abs(factored))


@settings(max_examples=200, deadline=None)
@given(admissible_params())
def test_exponent_set_invariants(params):
    exps = sharp_exponents(params)
    assert 0.0 < exps.alpha <= exps.alpha_hat
    assert exps.sigma >= 1.0
    assert (exps.sigma == 1.0) == (params.p <= 2.0)
    if params.p >= 2.0:
        assert exps.beta_star >= exps.alpha - 1e-12


def test_alpha_hat_monotone_in_q_and_r():
    for p, n in [(1.6, 1), (2.0, 2), (3.0, 2)]:
        qs = np.linspace(n + 2.0, 60.0, 25)
        vals = []
        for q in qs:
            pp = ProblemParams(p=p, n=n, q=float(q), r=12.0, alpha_h=1.0)
            if check_compatibility(pp).admissible:
                vals.append(sharp_exponents(pp).alpha_hat)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        rs = np.linspace(3.0, 80.0, 25)
        vals = []
        for r in rs:
            pp = ProblemParams(p=p, n=n, q=30.0, r=float(r), alpha_h=1.0)
            if check_compatibility(pp).admissible:
                vals.append(sharp_exponents(pp).alpha_hat)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_alpha_hat_joint_limit():
    p = 3.0
    prev_gap = None
    for scale in [1e2, 1e4, 1e6]:
        pp = ProblemParams(p=p, n=2, q=scale, r=scale, alpha_h=1.0)
        gap = abs(sharp_exponents(pp).alpha_hat - 1.0 / (p - 1.0))
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-5


# ---------------------------------------------------------------------------
# theta

def test_theta_is_two_for_heat():
    params = ProblemParams(p=2.0, n=1, q=8.0, r=8.0)
    for g in (0.0, 0.3, 2.0):
        for base in (0.1, 0.25, 0.49):
            assert theta(params, g, base) == pytest.approx(2.0, abs=1e-15)


def test_theta_zero_gradient():
    params = ProblemParams(p=3.0, n=2, q=12.0, r=12.0, alpha_h=1.0)
    alpha = sharp_exponents(params).alpha
    assert theta(params, 0.0, 0.2) == pytest.approx(2.0 + (2.0 - 3.0) * alpha, rel=1e-12)


def test_theta_frozen_value():
    # p=3, q=6, r=inf, n=3 gives alpha = 0.25; base 0.1, grad 0.05
    params = ProblemParams(p=3.0, n=3, q=6.0, r=INF, alpha_h=1.0)
    assert sharp_exponents(params).alpha == pytest.approx(0.25)
    assert theta(params, 0.05, 0.1) == pytest.approx(1.787, abs=1e-3)


def test_theta_rejects_bad_base():
    params = ProblemParams(p=2.0, n=1, q=8.0, r=8.0)
    for base in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            theta(params, 0.1, base)


@settings(max_examples=150, deadline=None)
@given(admissible_params(), st.floats(0.0, 1.0), st.floats(0.05, 0.45))
def test_theta_monotone_in_gradient(params, g, base):
    t1 = theta(params, g, base)
    t2 = theta(params, g + 0.1, base)
    if params.p < 2.0:
        assert t2 <= t1 + 1e-12
    elif params.p == 2.0:
        assert t1 == t2 == 2.0
    else:
        assert t2 >= t1 - 1e-12


@settings(max_examples=150, deadline=None)
@given(admissible_params(), st.floats(0.0, 1.0), st.sampled_from([0.125, 0.25]))
def test_theta_bracketed_and_sigma_floor(params, g, base):
    lo, hi = theta_bounds(params)
    th = theta(params, g, base)
    assert lo - 1e-12 <= th <= hi + 1e-12
    sigma = sharp_exponents(params).sigma
    assert sigma * th >= 2.0 - 1e-9


def test_theta_bounds_heat_collapse():
    assert theta_bounds(ProblemParams(p=2.0, n=2, q=8.0, r=8.0)) == (2.0, 2.0)


def test_theta_bounds_degenerate_closed_form():
    params = ProblemParams(p=4.0, n=2, q=8.0, r=8.0, alpha_h=1.0)
    lo, hi = theta_bounds(params)
    exps = sharp_exponents(params)
    assert exps.alpha_hat == pytest.approx(0.5 / 2.75, rel=1e-12)
    closed = (1.0 + 2.0 / 2.0 + 2.0 / 8.0) / (1.0 - 1.0 / 8.0 + 1.0 / 2.0)
    assert lo == pytest.approx(closed, abs=1e-12)
    assert lo == pytest.approx(1.636363636363636, abs=1e-9)
    assert hi == 2.0
    assert 1.0 < lo <= 2.0


def test_theta_bounds_singular_range():
    for q, r in [(8.0, 8.0), (5.0, 12.0), (INF, 6.0)]:
        params = ProblemParams(p=1.5, n=2, q=q, r=r, alpha_h=0.8)
        if not check_compatibility(params).admissible:
            continue
        lo, hi = theta_bounds(params)
        assert 2.0 <= lo <= hi <= 3.0


# ---------------------------------------------------------------------------
# kappa and mu

def test_kappa_bounded_source():
    params = ProblemParams(p=2.0, n=2, q=INF, r=INF)
    assert kappa_exponent(params, 1.0) == pytest.approx(3.0, abs=1e-15)


def test_kappa_frozen_value():
    params = ProblemParams(p=3.0, n=3, q=6.0, r=4.0, alpha_h=1.0)
    assert kappa_exponent(params, 0.5) == pytest.approx(1.625, abs=1e-15)


def test_mu_ceiling_three_terms():
    assert mu_ceiling(s=1.0, kappa=2.0, delta=1.0, sup_u=4.0, f_norm=16.0) == pytest.approx(0.25)


def test_mu_ceiling_degenerate_terms_ignored():
    assert mu_ceiling(s=1.0, kappa=2.0, delta=0.5, sup_u=0.0, f_norm=0.0) == 1.0


@settings(max_examples=200, deadline=None)
@given(admissible_params(), st.floats(0.01, 5.0))
def test_kappa_positive(params, s):
    assert kappa_exponent(params, s) > 0.0


# the two published arrangements of kappa differ by exactly s/r; the direct
# definition is adopted, and is the smaller (hence safe) exponent
@settings(max_examples=100, deadline=None)
@given(admissible_params(), st.floats(0.1, 2.0))
def test_kappa_arrangement_discrepancy(params, s):
    ir = 0.0 if math.isinf(params.r) else 1.0 / params.r
    iq = 0.0 if math.isinf(params.q) else 1.0 / params.q
    direct = kappa_exponent(params, s)
    rearranged = s * ((params.p - 1.0) * (1.0 - ir) + ir) + s * params.p * (
        1.0 - (params.n * iq / params.p + ir)
    )
    assert rearranged - direct == pytest.approx(s * ir, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# epsilon layers

def test_singular_layer_level_identity():
    params = ProblemParams(p=1.5, n=2, q=8.0, r=8.0, alpha_h=1.0)
    for eps in (0.2, 0.1, 0.05, 0.01):
        rep = epsilon_layers(params, s=0.5, eps=eps, branch="singular")
        assert singular_band_level(1.5, 2, rep.q, rep.r) == pytest.approx(eps, abs=1e-12)
        assert rep.band_level == pytest.approx(eps, abs=1e-12)


def test_degenerate_layer_level_is_eps():
    params = ProblemParams(p=3.0, n=2, q=8.0, r=8.0, alpha_h=1.0)
    for eps in (0.2, 0.05):
        rep = epsilon_layers(params, s=0.5, eps=eps, branch="degenerate")
        assert rep.band_level == pytest.approx(eps, abs=1e-12)


def test_degenerate_layers_vanish():
    params = ProblemParams(p=3.0, n=2, q=8.0, r=8.0, alpha_h=1.0)
    alphas = [
        epsilon_layers(params, 0.5, eps, "degenerate").alpha_eps
        for eps in (0.2, 0.1, 0.05, 0.01)
    ]
    assert all(b < a for a, b in zip(alphas, alphas[1:]))
    assert alphas[-1] < 0.01


def test_singular_layers_approach_homogeneous():
    params = ProblemParams(p=1.5, n=2, q=8.0, r=8.0, alpha_h=1.0)
    alphas = [
        epsilon_layers(params, 0.5, eps, "singular").alpha_eps
        for eps in (0.2, 0.1, 0.05, 0.01)
    ]
    assert all(b > a for a, b in zip(alphas, alphas[1:]))
    assert alphas[-1] > 0.95


def test_singular_branch_requires_singular_p():
    params = ProblemParams(p=3.0, n=2, q=8.0, r=8.0, alpha_h=1.0)
    with pytest.raises(ValueError):
        epsilon_layers(params, 0.5, 0.1, "singular")


def test_degenerate_layer_reports_closed_form():
    params = ProblemParams(p=3.0, n=2, q=8.0, r=8.0, alpha_h=1.0)
    rep = epsilon_layers(params, 0.4, 0.1, "degenerate")
    expected = 2.0 * 0.1 / (2.0 * 2.0 - 1.0 * 0.6 * 0.1)
    assert rep.alpha_closed_form == pytest.approx(min(expected, 1.0), rel=1e-12)
    # substituted and closed-form values agree to leading order in eps
    assert rep.alpha_eps == pytest.approx(rep.alpha_closed_form, rel=0.25)


# ---------------------------------------------------------------------------
# region scan

def test_region_scan_consistent_with_checker():
    scan = admissible_region(1.5, 2, resolution=12)
    for s in scan.samples:
        rep = check_compatibility_values(1.5, 2, s.q, s.r)
        assert s.admissible == rep.admissible
        assert s.band == pytest.approx(rep.holder_band, rel=1e-12)


def test_region_scan_lower_curve_only_when_singular():
    assert admissible_region(2.5, 2, resolution=8).lower_curve == ()
    assert len(admissible_region(1.5, 2, resolution=16).lower_curve) > 0


def test_region_scan_contains_reference_point():
    scan = admissible_region(1.5, 2, resolution=24, q_max=32.0, r_max=64.0)
    hits = [s for s in scan.samples if s.admissible and s.q >= 8.0 and s.r >= 8.0]
    assert hits
    assert check_compatibility_values(1.5, 2, 8.0, 8.0).admissible


@pytest.mark.parametrize("grad_mag, base", [(-0.1, 0.25), (math.nan, 0.25), (0.1, 0.0), (0.1, 1.0)])
def test_theta_rejects_a_bad_gradient_or_base(grad_mag, base):
    with pytest.raises(ValueError, match="grad_mag must be nonnegative|base must lie in"):
        theta(ProblemParams(p=3.0, n=2, q=12.0, r=12.0, alpha_h=1.0), grad_mag, base)
