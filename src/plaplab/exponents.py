"""Closed-form exponent calculus for the p-Laplacian evolution problem.

Everything in this module is a pure function of the problem parameters
(p, n, q, r, alpha_h): admissibility of the source integrability pair
(q, r), the sharp local growth exponent, the intrinsic temporal scaling
factor theta, the normalization exponents (kappa, mu), and the behaviour
of the sharp exponent along epsilon-layers approaching the borderline
integrability cases.

Conventions:
  * q is the spatial integrability exponent of the source, r the temporal
    one; the source norm is the iterated L^q-in-space / L^r-in-time norm.
  * q = math.inf and r = math.inf are first-class values; n/q and 1/r are
    then exactly 0 (IEEE extended-real arithmetic, no finite sentinels).
  * alpha_h is the Hoelder gradient exponent of the source-free flow. It
    is an input, supplied by the user (default 1 only for p = 2).

All functions are pure and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

INF = math.inf

_IDENTITY_TOL = 1e-12


class FieldError(ValueError):
    """An argument outside the range its type accepts; field names the
    argument and reason says why. It lives here, in the module that imports
    nothing from the package, so that every library type can raise it."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


def _inv(x: float) -> float:
    """1/x on the extended reals: 1/inf = 0."""
    return 0.0 if math.isinf(x) else 1.0 / x


def _band(n: int, q: float, r: float) -> float:
    """The integrability band n/q + 2/r."""
    return n * _inv(q) + 2.0 * _inv(r)


@dataclass(frozen=True)
class ProblemParams:
    """Parameter tuple (p, n, q, r, alpha_h), the single source of truth.

    p: diffusion exponent, finite and p > max(1, 2n/(n+2)); degenerate for
       p > 2, singular for p < 2.
    n: spatial dimension, a positive integer of any integer type but bool,
       stored as an int.
    q, r: source integrability exponents, q > n, r > 2, inf allowed.
    alpha_h: gradient Hoelder exponent of the source-free flow, in (0, 1].
        Defaults to 1 when p = 2; must be given explicitly otherwise.
    """

    p: float
    n: int
    q: float
    r: float
    alpha_h: float | None = None

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise FieldError("n", f"must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        p_floor = max(1.0, 2.0 * self.n / (self.n + 2.0))
        if not self.p > p_floor:
            raise FieldError("p", f"must exceed max(1, 2n/(n+2)) = {p_floor}, got {self.p}")
        if not math.isfinite(self.p):
            raise FieldError("p", f"must be finite, got {self.p}")
        if not self.q > self.n:
            raise FieldError("q", f"must exceed n = {self.n}, got {self.q}")
        if not self.r > 2.0:
            raise FieldError("r", f"must exceed 2, got {self.r}")
        if self.alpha_h is None:
            if self.p == 2.0:
                object.__setattr__(self, "alpha_h", 1.0)
            else:
                raise FieldError("alpha_h", "must be given explicitly when p != 2")
        if not (0.0 < self.alpha_h <= 1.0):
            raise FieldError("alpha_h", f"must lie in (0, 1], got {self.alpha_h}")

    @property
    def degenerate(self) -> bool:
        return self.p > 2.0

    @property
    def singular(self) -> bool:
        return self.p < 2.0


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of the admissibility check on (p, n, q, r).

    minimal_integrability is 1/r + n/(pq) (existence of bounded solutions
    requires < 1); holder_band is n/q + 2/r; lower_band is the singular-range
    floor max(0, (1 - 1/r)(2 - p)).
    """

    admissible: bool
    minimal_integrability: float
    holder_band: float
    lower_band: float
    violations: tuple[str, ...] = ()


def check_compatibility_values(p: float, n: int, q: float, r: float) -> CompatibilityReport:
    """Admissibility report from raw values (no range preconditions).

    Evaluates every inequality and lists the failed ones by name instead of
    raising, so inadmissible corners of parameter space can be mapped.
    """
    violations: list[str] = []
    iq, ir = _inv(q), _inv(r)
    minimal = ir + n * iq / p
    band = _band(n, q, r)
    lower = max(0.0, (1.0 - ir) * (2.0 - p))
    if not q > n:
        violations.append("q>n")
    if not r > 2.0:
        violations.append("r>2")
    if not minimal < 1.0:
        violations.append("minimal_integrability")
    if not band < 1.0:
        violations.append("holder_band")
    if not lower <= band:
        violations.append("lower_band")
    return CompatibilityReport(
        admissible=not violations,
        minimal_integrability=minimal,
        holder_band=band,
        lower_band=lower,
        violations=tuple(violations),
    )


def check_compatibility(params: ProblemParams) -> CompatibilityReport:
    """Admissibility report for a constructed parameter set."""
    return check_compatibility_values(params.p, params.n, params.q, params.r)


@dataclass(frozen=True)
class ExponentSet:
    """Derived exponents for an admissible parameter set.

    alpha_hat: source-limited growth exponent.
    alpha: sharp exponent, min(alpha_hat, alpha_h).
    attained_by_homogeneous: True when the minimum is alpha_h.
    sigma: temporal correction factor for dyadic cylinders, >= 1; equals 1
        exactly when p <= 2 (only the degenerate range needs shallower
        cylinders, and sigma * theta >= 2 then holds with equality at the
        lower end of the theta range).
    gamma: temporal exponent of the gradient-scale rescaling, 2 + alpha(2-p).
    beta_star: uniformly parabolic exponent 1 - (n/q + 2/r).
    """

    alpha_hat: float
    alpha: float
    attained_by_homogeneous: bool
    sigma: float
    gamma: float
    beta_star: float


def _alpha_hat(p: float, n: int, q: float, r: float) -> float:
    iq, ir = _inv(q), _inv(r)
    numer = 1.0 - _band(n, q, r)
    denom = (p - 1.0) * (1.0 - ir) + ir
    expanded = p * (1.0 - (n * iq / p + ir)) - numer
    if abs(denom - expanded) > _IDENTITY_TOL * max(1.0, abs(denom)):
        raise ArithmeticError(
            f"denominator identity violated: {denom} vs {expanded}"
        )
    return numer / denom


@functools.lru_cache(maxsize=256)
def sharp_exponents(params: ProblemParams) -> ExponentSet:
    """Sharp growth exponents for an admissible parameter set.

    Rejects inadmissible parameters. The denominator of alpha_hat is
    computed through the factored form (p-1)(1-1/r) + 1/r and cross-checked
    against the expanded form to 1e-12.

    Cached per parameter set: equal params give the same frozen ExponentSet,
    so a probe's per-level calls cost a lookup. A rejection is not cached,
    so inadmissible params raise on every call.
    """
    report = check_compatibility(params)
    if not report.admissible:
        raise ValueError(f"parameters not admissible: {', '.join(report.violations)}")
    a_hat = _alpha_hat(params.p, params.n, params.q, params.r)
    attained = params.alpha_h <= a_hat
    alpha = min(a_hat, params.alpha_h)
    sigma = max(1.0, 2.0 / (2.0 + (2.0 - params.p) * a_hat))
    gamma = 2.0 + alpha * (2.0 - params.p)
    return ExponentSet(
        alpha_hat=a_hat,
        alpha=alpha,
        attained_by_homogeneous=attained,
        sigma=sigma,
        gamma=gamma,
        beta_star=1.0 - report.holder_band,
    )


def theta(params: ProblemParams, grad_mag: float, base: float) -> float:
    """Intrinsic temporal exponent 2 + (2-p) log_base(base**alpha + grad_mag).

    Always finite (base**alpha > 0). Constant 2 for p = 2; for p != 2 it
    interpolates between 2 + (2-p) alpha at zero gradient and 2 at unit
    gradient measure: the measure is clamped at 1, since the intrinsic
    scaling only deforms time inside the small-gradient regime.
    """
    if not grad_mag >= 0.0:  # NaN included
        raise ValueError(f"grad_mag must be nonnegative, got {grad_mag}")
    if not (0.0 < base < 1.0):
        raise ValueError(f"base must lie in (0, 1), got {base}")
    alpha = sharp_exponents(params).alpha
    clamped = min(base**alpha + grad_mag, 1.0)
    return 2.0 + (2.0 - params.p) * math.log(clamped) / math.log(base)


def theta_bounds(params: ProblemParams) -> tuple[float, float]:
    """Range of the intrinsic temporal exponent over the small-gradient regime.

    Returns (min(2, 2+(2-p)*alpha_hat), max(2, 2+(2-p)*alpha_hat)). For
    p > 2 the lower endpoint also equals the closed form
    (1 + 2/(p-2) + n/q) / (1 - 1/r + 1/(p-2)) and lies in (1, 2]; for
    p <= 2 the range sits inside [2, 3].
    """
    exps = sharp_exponents(params)
    endpoint = 2.0 + (2.0 - params.p) * exps.alpha_hat
    return (min(2.0, endpoint), max(2.0, endpoint))


def kappa_exponent(params: ProblemParams, s: float) -> float:
    """Norm-contraction exponent of the sup-normalizing rescaling.

    kappa = (2p-1)s - (s n/q + (2p-1)s/r); positive for every admissible
    parameter set and s > 0.
    """
    if not s > 0.0:
        raise ValueError(f"s must be positive, got {s}")
    p, n, q, r = params.p, params.n, params.q, params.r
    return (2.0 * p - 1.0) * s - (s * n * _inv(q) + (2.0 * p - 1.0) * s * _inv(r))


def mu_ceiling(s: float, kappa: float, delta: float, sup_u: float, f_norm: float) -> float:
    """Largest admissible rescaling parameter mu.

    min of 1, (1/sup_u)^(1/s) and (delta/f_norm)^(1/kappa); terms whose
    denominator vanishes are treated as +inf (no constraint).
    """
    if not (s > 0.0 and delta > 0.0 and kappa > 0.0):
        raise ValueError("s, delta and kappa must be positive")
    terms = [1.0]
    if sup_u > 0.0:
        terms.append((1.0 / sup_u) ** (1.0 / s))
    if f_norm > 0.0:
        terms.append((delta / f_norm) ** (1.0 / kappa))
    return min(terms)


@dataclass(frozen=True)
class LayerReport:
    """Sharp exponent along one epsilon-layer of the integrability region.

    alpha_eps is authoritative (direct substitution of the constructed
    (q, r) into the sharp exponent formula); alpha_closed_form reports the
    degenerate-branch closed form 2 eps / (2(p-1) - (p-2)(1-s) eps) as a
    cross-check (None on the singular branch). band_level is the distance
    to the borderline this layer family tracks; it equals eps.
    """

    branch: str
    s: float
    eps: float
    q: float
    r: float
    alpha_eps: float
    alpha_closed_form: float | None
    band_level: float


def singular_band_level(p: float, n: int, q: float, r: float) -> float:
    """Layer functional n r / ((r-1) q) + 2/(r-1) - (2-p) of the singular branch."""
    return n * r / ((r - 1.0) * q) + 2.0 / (r - 1.0) - (2.0 - p)


def epsilon_layers(params: ProblemParams, s: float, eps: float, branch: str) -> LayerReport:
    """Sharp exponent on the epsilon-layer (q(eps), r(eps)) of the given branch.

    branch "degenerate": layers of the band functional 1 - (n/q + 2/r);
    q = n/(s(1-eps)) and r = 2/((1-s)(1-eps)), so the band level is exactly
    eps and alpha_eps -> 0 as eps -> 0. (The alternative temporal exponent
    2/((1-s) eps) does not keep the family on the eps-level of the band; the
    closed form is reported alongside for comparison.)

    branch "singular" (requires max(1, 2n/(n+2)) < p < 2): layers of the
    functional n r/((r-1) q) + 2/(r-1) - (2-p); alpha_eps -> alpha_h as
    eps -> 0.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    p, n = params.p, params.n
    if branch == "degenerate":
        q_eps = n / (s * (1.0 - eps))
        r_eps = 2.0 / ((1.0 - s) * (1.0 - eps))
        closed = min(
            2.0 * eps / (2.0 * (p - 1.0) - (p - 2.0) * (1.0 - s) * eps),
            params.alpha_h,
        )
        level = 1.0 - _band(n, q_eps, r_eps)
    elif branch == "singular":
        if not p < 2.0:
            raise ValueError("singular branch requires p < 2")
        x = eps + 2.0 - p
        r_eps = 2.0 / (s * x) + 1.0
        q_eps = n * r_eps / ((r_eps - 1.0) * (1.0 - s) * x)
        closed = None
        level = singular_band_level(p, n, q_eps, r_eps)
    else:
        raise ValueError(f"unknown branch {branch!r}")

    layered = ProblemParams(p=p, n=n, q=q_eps, r=r_eps, alpha_h=params.alpha_h)
    report = check_compatibility(layered)
    if not report.admissible:
        raise ValueError(
            f"constructed layer (q={q_eps:.4g}, r={r_eps:.4g}) not admissible: "
            f"{', '.join(report.violations)}"
        )
    alpha_eps = sharp_exponents(layered).alpha
    return LayerReport(
        branch=branch,
        s=s,
        eps=eps,
        q=q_eps,
        r=r_eps,
        alpha_eps=alpha_eps,
        alpha_closed_form=closed,
        band_level=level,
    )


@dataclass(frozen=True)
class RegionSample:
    q: float
    r: float
    band: float
    admissible: bool
    violation: str


@dataclass(frozen=True)
class RegionScan:
    """Classified (q, r) samples plus the two boundary curves as level sets.

    holder_curve carries points of n/q + 2/r = 1; lower_curve points of
    (n/q + 2/r) r/(r-1) = 2 - p (empty for p >= 2, where the lower band
    vanishes).
    """

    p: float
    n: int
    samples: tuple[RegionSample, ...]
    holder_curve: tuple[tuple[float, float], ...]
    lower_curve: tuple[tuple[float, float], ...] = ()


def admissible_region(
    p: float,
    n: int,
    resolution: int,
    q_max: float | None = None,
    r_max: float | None = None,
) -> RegionScan:
    """Classify a log-spaced (q, r) grid over (n, q_max] x (2, r_max].

    Every sampled point gets the full admissibility verdict; boundary
    curves are reported as (q, r) level sets on the same q grid.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if q_max is None:
        q_max = 16.0 * n if p >= 2.0 else max(16.0 * n, 4.0 * n / (2.0 - p))
    if r_max is None:
        r_max = 64.0
    qs = [n * (q_max / n) ** ((i + 1) / resolution) for i in range(resolution)]
    rs = [2.0 * (r_max / 2.0) ** ((i + 1) / resolution) for i in range(resolution)]

    samples = []
    for q in qs:
        for r in rs:
            report = check_compatibility_values(p, n, q, r)
            samples.append(
                RegionSample(
                    q=q,
                    r=r,
                    band=report.holder_band,
                    admissible=report.admissible,
                    violation=";".join(report.violations),
                )
            )

    holder = []
    lower = []
    for q in qs:
        frac = 1.0 - n / q
        if frac > 0.0:
            r_h = 2.0 / frac
            if 2.0 < r_h <= r_max:
                holder.append((q, r_h))
        if p < 2.0:
            denom = (2.0 - p) - n / q
            if denom > 0.0:
                r_l = (4.0 - p) / denom
                if 2.0 < r_l <= r_max:
                    lower.append((q, r_l))
    return RegionScan(
        p=p,
        n=n,
        samples=tuple(samples),
        holder_curve=tuple(holder),
        lower_curve=tuple(lower),
    )
