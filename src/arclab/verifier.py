"""Executable checks of the inequality, sharpness, and growth claims.

Each check runs a deterministic probe (a grid, an arc family, or a
truncated product construction) and returns a VerdictReport whose
worst_ratio is the largest observed (left side)/(right side).  Asymptotic
claims are rendered as finite-range trend checks with stated windows and
tolerances; that is the only faithful desk-scale version of a limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DataError, DivergenceError, PrecisionError, ResolutionError
from .geodesics import (
    AREA_DEFAULT,
    DISC_RHO_MAX,
    GrowthSample,
    QuadConfig,
    arc_length,
    arc_length_profile,
    area_with_bound,
    disc_arc,
    halfplane_arc,
)
from .maps import (
    BlaschkeHalfPlane,
    Compose,
    ExpMap,
    LogMap,
    MapExpr,
    MobiusMap,
    Quotient,
    Scale,
    Shift,
    evaluate,
    symmetry_check,
)
from .metrics import MetricId, deriv_norm, disc_automorphism

_RATIO_TOL = 1e-9


@dataclass(frozen=True)
class VerdictReport:
    name: str
    status: str
    worst_ratio: float
    witness: object = None
    details: tuple = ()
    # the GrowthFit a scenario verdict was judged on; not part of to_line()
    fit: object = None

    def __post_init__(self):
        if self.status not in ("PASS", "FAIL", "INAPPLICABLE"):
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_line(self) -> str:
        return f"{self.name} | {self.status} | {self.worst_ratio:.6f} | {self.witness}"


class GrowthModel(Enum):
    POWER_LAW = "PowerLaw"
    EXPONENTIAL = "Exponential"


@dataclass(frozen=True)
class GrowthFit:
    """Log-space least-squares fit of a growth curve.

    PowerLaw fits log L = exponent log rho + constant; Exponential fits
    log L = exponent rho + constant.  sqrt_rho_ratios carries L/sqrt(rho)
    for the half-power trend checks.
    """

    samples: tuple
    model: GrowthModel
    exponent: float
    constant: float
    residual: float
    sqrt_rho_ratios: tuple = field(default=())


def _as_samples(samples):
    out = []
    for s in samples:
        if isinstance(s, GrowthSample):
            out.append(s)
        else:
            rho, length = s
            out.append(GrowthSample(float(rho), float(length)))
    return out


def growth_fit(samples, model: GrowthModel) -> GrowthFit:
    pts = _as_samples(samples)
    if len(pts) < 4:
        raise DataError("need at least four samples to fit")
    rhos = [s.rho for s in pts]
    lengths = [s.length for s in pts]
    if any(n <= p for p, n in zip(rhos, rhos[1:])):
        raise DataError("sample rho values must be strictly increasing")
    if any(v <= 0 for v in lengths) or rhos[0] <= 0:
        raise DataError("lengths and rho values must be positive")
    x = np.log(rhos) if model is GrowthModel.POWER_LAW else np.asarray(rhos)
    y = np.log(lengths)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    ratios = tuple(v / math.sqrt(r) for r, v in zip(rhos, lengths))
    return GrowthFit(tuple(pts), model, float(slope), float(intercept), resid, ratios)


def default_probe_grid(
    n_radii: int = 32,
    n_angles: int = 64,
    rho_max: float = 12.0,
    include_origin: bool = True,
):
    """Hyperbolically equispaced radii times uniform angles."""
    pts = [0j] if include_origin else []
    for i in range(1, n_radii + 1):
        r = math.tanh(rho_max * i / n_radii / 2.0)
        for j in range(n_angles):
            ang = 2.0 * math.pi * j / n_angles
            pts.append(r * complex(math.cos(ang), math.sin(ang)))
    return pts


def _whole_disc_area(name, label, f, target, config):
    """(area of f(D), None), or (None, an INAPPLICABLE report) when that
    area diverges or does not resolve: then no verdict either way."""
    try:
        return area_with_bound(f, math.inf, target, config)[0], None
    except DivergenceError:
        reason = (("reason", f"{label} diverges"),)
    except PrecisionError as exc:
        reason = (("reason", f"{label} did not resolve"), ("estimate", exc.estimate))
    return None, VerdictReport(name, "INAPPLICABLE", math.nan, None, reason)


def check_area_derivative_bound(
    f: MapExpr,
    target: MetricId,
    grid=None,
    config: QuadConfig = None,
) -> VerdictReport:
    """Squared derivative norm against image area: 4 pi |f'|^2 <= Area."""
    if target not in (MetricId.EUCLIDEAN, MetricId.HYPERBOLIC_DISC):
        raise ValueError("bound applies to Euclidean or hyperbolic disc targets")
    name = f"area_derivative_bound[{target.name.lower()}]"
    pts = list(grid) if grid is not None else default_probe_grid()
    total_area, inapplicable = _whole_disc_area(name, "image area", f, target, config)
    if inapplicable:
        return inapplicable
    n = deriv_norm(f, np.asarray(pts, dtype=complex), target)
    ratios = 4.0 * math.pi * n * n / total_area
    k = int(np.argmax(ratios))  # the first of equal ratios wins
    worst, witness = float(ratios[k]), pts[k]
    status = "PASS" if worst <= 1.0 + _RATIO_TOL else "FAIL"
    return VerdictReport(name, status, worst, witness, (("area", total_area),))


def check_localized_bound(
    f: MapExpr,
    z_o: complex,
    delta: float,
    config: QuadConfig = None,
) -> VerdictReport:
    """tanh(delta/2) |f'(z_o)| (hyperbolic to Euclidean) against the root
    of the image area of the hyperbolic ball around z_o."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    z_o = complex(z_o)
    r_o = math.tanh(delta / 2.0)
    recenter = MobiusMap(
        disc_automorphism(z_o, r_o),
        domain=MetricId.HYPERBOLIC_DISC,
        codomain=MetricId.HYPERBOLIC_DISC,
    )
    try:
        local_area, _ = area_with_bound(
            Compose(f, recenter), math.inf, MetricId.EUCLIDEAN, config
        )
    except (DivergenceError, PrecisionError):
        return VerdictReport(
            "localized_area_bound",
            "INAPPLICABLE",
            math.nan,
            z_o,
            (("reason", "local image area did not resolve"), ("delta", delta)),
        )
    lhs = r_o * deriv_norm(f, z_o, MetricId.EUCLIDEAN)
    rhs = math.sqrt(local_area / (4.0 * math.pi))
    worst = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    status = "PASS" if worst <= 1.0 + _RATIO_TOL else "FAIL"
    return VerdictReport(
        "localized_area_bound",
        status,
        worst,
        z_o,
        (("delta", delta), ("local_area", local_area)),
    )


def check_spherical_bound(
    f: MapExpr,
    grid=None,
    config: QuadConfig = None,
) -> VerdictReport:
    """For maps with small spherical image area, the spherical derivative
    norm admits some uniform multiple of sqrt(A_S); the constant is not
    explicit, so the check reports the empirical constant and requires it
    to be stable under grid refinement."""
    name = "small_spherical_area_bound"
    a_s, inapplicable = _whole_disc_area(name, "A_S", f, MetricId.SPHERICAL, config)
    if inapplicable:
        return inapplicable
    if a_s >= 2.0 * math.pi:
        return VerdictReport(
            name,
            "INAPPLICABLE",
            a_s / (2.0 * math.pi),
            None,
            (("reason", "hypothesis violated: A_S >= 2 pi"), ("A_S", a_s)),
        )
    if a_s == 0.0:
        return VerdictReport(name, "PASS", 0.0, None, (("A_S", 0.0),))

    def empirical(points):
        points = list(points)
        c = deriv_norm(f, np.asarray(points, dtype=complex), MetricId.SPHERICAL)
        k = int(np.argmax(c))  # the first of equal constants wins
        return float(c[k]) / math.sqrt(a_s), points[k]

    coarse = grid if grid is not None else default_probe_grid()
    c1, _ = empirical(coarse)
    c2, witness = empirical(default_probe_grid(64, 128))
    stable = abs(c2 - c1) <= 0.05 * max(c1, 1e-12)
    status = "PASS" if stable and math.isfinite(c2) else "FAIL"
    return VerdictReport(
        name,
        status,
        c2,
        witness,
        (("A_S", a_s), ("coarse_constant", c1), ("refined_constant", c2)),
    )


def check_sqrt_trend(
    f: MapExpr,
    target: MetricId,
    rhos=(4.0, 6.0, 8.0, 10.0, 12.0),
    theta: float = 0.0,
    require_halving: bool = False,
    config: QuadConfig = None,
) -> VerdictReport:
    """Is L(rho)/sqrt(rho) strictly decreasing over the grid (and, when
    asked, down to below half its starting value by the end)?

    L never decreases in rho, so the last/first ratio is at least
    sqrt(rhos[0]/rhos[-1]): require_halving=True can only pass when
    rhos[-1]/rhos[0] > 4, and on the default 4..12 grid it reports FAIL
    for every map."""
    grid = [float(r) for r in rhos]
    arc = disc_arc(grid[-1], theta)
    samples = arc_length_profile(f, arc, grid, target, config)
    ratios = [s.length / math.sqrt(s.rho) for s in samples]
    steps = [b / a for a, b in zip(ratios, ratios[1:])]
    worst = max(steps)
    decreasing = all(s < 1.0 for s in steps)
    halved = ratios[-1] < 0.5 * ratios[0]
    ok = decreasing and (halved or not require_halving)
    details = [("ratios", tuple(ratios)), ("halved", halved)]
    return VerdictReport(
        f"sqrt_rho_trend[{target.name.lower()}]",
        "PASS" if ok else "FAIL",
        worst,
        theta,
        tuple(details),
    )


def alpha_growth_check(f, alpha: float, delta: float, config: QuadConfig = None):
    """Cauchy-convergence probe of the weighted area tail integral

        int (delta/tanh(delta/2)) A(t)/(t - delta)^alpha dt

    over successive windows, plus (for map inputs, when convergent) an
    eventually-decreasing check of L(rho)/rho^(alpha/2).

    f is a MapExpr, or a callable t -> A(t) for synthetic area profiles.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    if delta <= 0 or delta > 25.0:
        raise ValueError("delta must lie in (0, 25]")
    name = "alpha_tail_growth"
    coef = delta / math.tanh(delta / 2.0)
    area_cache = {}
    is_map = isinstance(f, MapExpr)
    area_cfg = config or QuadConfig(abs_tol=1e-6, rel_tol=1e-7)

    def a_of(t):
        if t not in area_cache:
            if is_map:
                area_cache[t] = area_with_bound(f, t, MetricId.EUCLIDEAN, area_cfg)[0]
            else:
                v = float(f(t))
                if v < 0:
                    raise DataError("area profile must be nonnegative")
                area_cache[t] = v
        return area_cache[t]

    def weighted(t):
        return coef * a_of(t) / (t - delta) ** alpha

    t0 = delta + 1.0
    width = (DISC_RHO_MAX - t0) / 10.0

    def window_increment(k):
        a, b = t0 + k * width, t0 + (k + 1) * width
        mid = 0.5 * (a + b)
        return (b - a) / 6.0 * (weighted(a) + 4.0 * weighted(mid) + weighted(b))

    def classify(chunk):
        head, tail = chunk[0], chunk[-1]
        if head <= 0:
            return "convergent", 0.0
        r = tail / head
        if r < 0.4:
            return "convergent", r
        if r > 0.9:
            return "divergent", r
        return "inconclusive", r

    kind, ratio = classify([window_increment(k) for k in range(5)])
    if kind == "inconclusive":
        kind, ratio = classify([window_increment(k) for k in range(5, 10)])
    details = [("classification", kind), ("window_ratio", ratio)]

    if kind != "convergent":
        return VerdictReport(name, "INAPPLICABLE", ratio, alpha, tuple(details))
    if not is_map:
        details.append(("trend", "not checked for synthetic area profiles"))
        return VerdictReport(name, "PASS", ratio, alpha, tuple(details))

    grid = (4.0, 6.0, 8.0, 10.0, 12.0)
    samples = arc_length_profile(
        f, disc_arc(grid[-1]), grid, MetricId.EUCLIDEAN, config
    )
    powers = [s.length / s.rho ** (alpha / 2.0) for s in samples]
    tail = powers[-3:]
    decreasing = all(b < a for a, b in zip(tail, tail[1:]))
    details.append(("power_ratios", tuple(powers)))
    return VerdictReport(
        name, "PASS" if decreasing else "FAIL", ratio, alpha, tuple(details)
    )


def scenario_annulus(R: float, rho_max: float = 40.0, config: QuadConfig = None):
    """Universal cover of the round annulus with radii 1/R and R, as a map
    of the upper half-plane sending the imaginary axis to the unit circle
    with constant spherical speed.  Returns spherical length samples at
    half-period multiples; annulus_report gives their verdict."""
    if R <= 1.0:
        raise ValueError("R must exceed 1")
    beta = 2.0 * math.log(R) / math.pi
    cover = Compose(
        ExpMap(),
        Compose(Scale(1j * beta), Compose(Shift(-1j * math.pi / 2.0), LogMap())),
    )
    period = 2.0 * math.pi / beta
    grid = []
    k = 1
    while k * period / 2.0 <= rho_max:
        grid.append(k * period / 2.0)
        k += 1
    if len(grid) < 4:
        raise ValueError("rho_max must cover at least two full periods")
    return arc_length_profile(
        cover, halfplane_arc(rho_max), grid, MetricId.SPHERICAL, config
    )


def annulus_report(samples, R: float) -> VerdictReport:
    """Verdict on scenario_annulus samples: the power-law exponent lies in
    [0.95, 1.05], and the lengths are exactly periodic, i.e. each full
    period (two samples on) adds the length of the first one, to 1e-8."""
    fit = growth_fit(samples, GrowthModel.POWER_LAW)
    lengths = [s.length for s in fit.samples]
    period_gap = max(
        abs(lengths[k + 2] - lengths[k] - lengths[1])
        for k in range(len(lengths) - 2)
    )
    ok = 0.95 <= fit.exponent <= 1.05 and period_gap < 1e-8
    return VerdictReport(
        "annulus_linear_growth",
        "PASS" if ok else "FAIL",
        fit.exponent,
        R,
        (("periodicity_residual", period_gap), ("fit_residual", fit.residual)),
        fit,
    )


def scenario_symmetric_blaschke(
    n_levels: int = 40, rho_max: float = 18.0, config: QuadConfig = None
):
    """Half-plane Blaschke product with zeros at 2^n i for |n| <= n_levels,
    alternating signs on the n < 0 factors; hyperbolically evenly spaced
    zeros make the image length grow linearly.  Returns (samples, report),
    report.fit being the power-law fit of all samples."""
    if n_levels < 8:
        raise ValueError("need at least 8 levels each way")
    if n_levels > 1023:
        # 2.0**n_levels, the top zero's height, must be a finite double
        raise ValueError("at most 1023 levels each way")
    ln2 = math.log(2.0)
    if rho_max < 4 * ln2:
        raise ValueError("rho_max too small to fit four samples")
    # the arc caps rho_max, so exp(rho_max) below cannot overflow
    arc = halfplane_arc(rho_max)
    reach = math.exp(rho_max)
    tail = 2.0 * reach * 2.0 ** (-n_levels) + 2.0 ** (1 - n_levels)
    if tail > 1e-3 or reach > 2.0**n_levels / 2.0:
        raise ResolutionError(
            f"truncation tail {tail:.2e} not certified on the sampled arc; "
            "raise n_levels or lower rho_max"
        )
    ns = range(-n_levels, n_levels + 1)
    product = BlaschkeHalfPlane(
        tuple(2.0**n for n in ns), tuple(-1.0 if n < 0 else 1.0 for n in ns)
    )
    grid = [j * ln2 for j in range(1, int(rho_max / ln2) + 1)]
    samples = arc_length_profile(product, arc, grid, MetricId.SPHERICAL, config)

    sym_dev = symmetry_check(product, 64)
    axis_values, _, _ = evaluate(product, 1j * np.exp(grid), order=0)
    real_dev = float(np.max(np.abs(axis_values.imag)))
    fit = growth_fit(samples, GrowthModel.POWER_LAW)
    ok = sym_dev < 1e-10 and real_dev < 1e-10 and 0.85 <= fit.exponent <= 1.15
    report = VerdictReport(
        "symmetric_blaschke_linear_growth",
        "PASS" if ok else "FAIL",
        fit.exponent,
        n_levels,
        (
            ("symmetry_deviation", sym_dev),
            ("imag_axis_realness_deviation", real_dev),
            ("fit_residual", fit.residual),
            ("tail_bound", tail),
        ),
        fit,
    )
    return samples, report


def scenario_blaschke_quotient(n_max: int = 40, config: QuadConfig = None):
    """Quotient f(z) = B(z+1)/B(z-1) of a half-plane Blaschke product with
    zeros at i n^2.  |f| = 1 on the imaginary axis, and the spherical image
    length at rho = log(n^2) grows like 2 pi n, i.e. exponentially in rho.

    The truncation keeps enough factors that the dropped ones, paired
    between numerator and denominator, change the quotient by less than
    16/(3N) <= 1e-3 on the sampled region.  Returns (samples, report),
    report.fit being the exponential fit of the samples at rho >= 2 log 10
    (all samples when fewer than four lie there).  The length ratios to
    2 pi n are judged at n >= 30 only, where they have settled, so below
    n_max = 30 the report is INAPPLICABLE."""
    if n_max < 10:
        raise ValueError("n_max must be at least 10")
    y_top = float(n_max * n_max)
    reach = math.hypot(y_top, 1.0)
    n_factors = max(5334, math.isqrt(int(2.0 * reach)) + 2)
    tail = 16.0 / (3.0 * n_factors)
    product = BlaschkeHalfPlane(np.arange(1.0, n_factors + 1) ** 2)
    f = Quotient(Compose(product, Shift(1.0)), Compose(product, Shift(-1.0)))

    axis_values, _, axis_poles = evaluate(f, 1j * np.geomspace(1.0, y_top, 100), order=0)
    modulus_dev = (
        math.inf if axis_poles.any() else float(np.max(np.abs(np.abs(axis_values) - 1.0)))
    )

    rho_top = 2.0 * math.log(n_max)
    grid = [2.0 * math.log(n) for n in range(2, n_max + 1)]
    samples = arc_length_profile(
        f,
        halfplane_arc(rho_top),
        grid,
        MetricId.SPHERICAL,
        config or QuadConfig(abs_tol=1e-8, rel_tol=1e-8),
    )

    ratios = {
        n: samples[n - 2].length / (2.0 * math.pi * n)
        for n in range(max(30, n_max - 10), n_max + 1)
    }
    settled = [s for s in samples if s.rho >= 2.0 * math.log(10.0) - 1e-12]
    if len(settled) < 4:
        settled = samples
    fit = growth_fit(settled, GrowthModel.EXPONENTIAL)
    ok = (
        modulus_dev <= 1e-8
        and all(0.85 <= v <= 1.15 for v in ratios.values())
        and 0.45 <= fit.exponent <= 0.55
    )
    details = (
        ("axis_modulus_deviation", modulus_dev),
        ("fit_rate", fit.exponent),
        ("fit_residual", fit.residual),
        ("tail_bound", tail),
        ("kept_factors", n_factors),
    )
    status = "PASS" if ok else "FAIL"
    if not ratios:
        status = "INAPPLICABLE"
        details = (("reason", "no settled length ratio: n_max is below 30"),) + details
    report = VerdictReport(
        "blaschke_quotient_exponential_growth",
        status,
        samples[-1].length / (2.0 * math.pi * n_max),
        n_max,
        details,
        fit,
    )
    return samples, report


def check_uniform_char_length_bound(
    f0: MapExpr,
    finf: MapExpr,
    delta: float,
    arcs=None,
    grid=None,
    config: QuadConfig = None,
) -> VerdictReport:
    """Length bound for quotients with a uniform characteristic floor.

    With m(z) = sqrt(|f0|^2 + |finf|^2) pinned between delta and 1, the
    quotient's spherical derivative norm is at most 2/m pointwise, so
    image lengths obey L_S(rho) <= (2/delta) rho.  The pointwise norm is
    computed twice, through the quotient jet and through the pair
    derivative identity, and the two routes must agree.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    name = "quotient_pair_length_bound"
    pts = list(grid) if grid is not None else default_probe_grid()
    f = Quotient(f0, finf)

    zs = np.asarray(pts, dtype=complex)
    v0, d0, pole0 = evaluate(f0, zs)
    vinf, dinf, pole_inf = evaluate(finf, zs)
    m2 = np.abs(v0) ** 2 + np.abs(vinf) ** 2
    m = np.sqrt(m2)
    # in grid order, a pole raises and an off-range point answers
    stop = (pole0 | pole_inf) | (m < delta) | (m > 1.0 + _RATIO_TOL)
    if stop.any():
        k = int(np.argmax(stop))
        if pole0[k] or pole_inf[k]:
            raise DataError("pair members must be analytic on the grid")
        return VerdictReport(
            name,
            "INAPPLICABLE",
            float(m[k]) / delta,
            pts[k],
            (("reason", "hypothesis violated: sqrt(|f0|^2+|finf|^2) off range"),),
        )
    one_minus = 1.0 - np.abs(zs) ** 2
    n_s = deriv_norm(f, zs, MetricId.SPHERICAL)
    pair_route = np.abs(d0 * vinf - v0 * dinf) * one_minus / m2
    route_gap = float(np.max(np.abs(n_s - pair_route) / np.maximum(n_s, 1e-300)))
    step = np.hypot(np.abs(d0), np.abs(dinf)) * one_minus
    # per point, in order: n_s m / 2, step / 2, n_s delta / 2
    ratios = np.stack((n_s * m / 2.0, step / 2.0, n_s * delta / 2.0), axis=1).ravel()
    k = int(np.argmax(ratios))
    worst, witness = float(ratios[k]), pts[k // 3]

    arc_list = arcs if arcs is not None else [
        disc_arc(10.0, k * math.pi / 4.0) for k in range(8)
    ]
    arc_worst = -math.inf
    for arc in arc_list:
        length = arc_length(f, arc, MetricId.SPHERICAL, config)
        bound = (2.0 / delta) * arc.rho_max
        ratio = length / bound if bound > 0 else math.inf
        if ratio > arc_worst:
            arc_worst = ratio
        if ratio > worst:
            worst, witness = ratio, arc.theta

    ok = worst <= 1.0 + _RATIO_TOL and route_gap <= 1e-10
    return VerdictReport(
        name,
        "PASS" if ok else "FAIL",
        worst,
        witness,
        (
            ("derivative_route_gap", route_gap),
            ("arc_ratio", arc_worst),
            ("delta", delta),
        ),
    )
