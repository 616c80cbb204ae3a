"""Geodesic arcs, image lengths and image areas counting multiplicity.

Radial geodesics are parametrised by hyperbolic arc length t:

    disc        gamma(t) = tanh(t/2) e^{i theta}
    half-plane  gamma(t) = offset + i e^t

so the length of the image of gamma[0, rho] in a target metric is the
integral of the derivative norm over [0, rho], and the area of the image
of the hyperbolic disc of radius rho, counting multiplicity, is

    A(rho) = int_0^rho sinh t ( int_0^{2 pi} |f'|^2 dtheta ) dt

with the squared norm taken disc -> target.  Quadrature is a global
adaptive Gauss(7)/Kronrod(15) scheme; the rule never evaluates interval
endpoints, so integrable endpoint singularities need no special casing
beyond a split point.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionError,
    DivergenceError,
    DomainError,
    EvaluationError,
    PrecisionError,
)
from .maps import Compose, MapExpr, evaluate, inv_cayley_map
from .metrics import MetricId, norm_from_jet

# 15-point Kronrod nodes on [-1, 1] (symmetric half) and weights, with the
# embedded 7-point Gauss weights sitting at the odd-index nodes.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)
# the same rule on all 15 nodes, left to right, for one call per panel
_NODES = np.concatenate((-np.array(_XGK), _XGK[-2::-1]))
_KRONROD = np.concatenate((_WGK, _WGK[-2::-1]))
_GAUSS = np.zeros(15)
_GAUSS[1::2] = _WG + _WG[-2::-1]

# tanh(t/2) rounds to 1.0 in doubles a little above t = 37, so disc radial
# parameters are capped where the parametrisation is still faithful.
DISC_RHO_MAX = 35.0
HALF_PLANE_RHO_MAX = 700.0
# circle_energy takes a panel set in batches of at most this many points,
# which bounds the memory of its last doublings
_CHUNK = 2048


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and subdivision limits for the adaptive quadrature."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_depth: int = 40
    max_segments: int = 20000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ConstructionError("tolerances must be positive")
        if self.max_depth < 1:
            raise ConstructionError("max_depth must be at least 1")


LENGTH_DEFAULT = QuadConfig()
AREA_DEFAULT = QuadConfig(abs_tol=1e-7, rel_tol=1e-9)


@dataclass(frozen=True)
class RadialArc:
    """Radial geodesic of hyperbolic length rho_max, parametrised by t.

    Disc arcs run from 0 at argument theta, unit speed exactly.  Half-plane
    arcs run upward from offset + i; for real offsets the speed is exactly 1,
    and position t sits at height e^t, so rho = t throughout.
    """

    domain: MetricId
    rho_max: float
    theta: float = 0.0
    offset: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "rho_max", float(self.rho_max))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "offset", complex(self.offset))
        if self.domain is MetricId.HYPERBOLIC_DISC:
            cap = DISC_RHO_MAX
        elif self.domain is MetricId.HYPERBOLIC_HALF_PLANE:
            cap = HALF_PLANE_RHO_MAX
        else:
            raise ConstructionError("radial arcs live in the disc or the half-plane")
        if not 0.0 < self.rho_max <= cap:
            raise ConstructionError(f"rho_max must be in (0, {cap}]")

    def point(self, t):
        """The point at parameter t, or the array of points at an array t."""
        ts = np.asarray(t, dtype=float)
        bad = ~((0.0 <= ts) & (ts <= self.rho_max))
        if bad.any():
            raise ValueError(f"arc parameter {ts[bad][0]} outside [0, {self.rho_max}]")
        if self.domain is MetricId.HYPERBOLIC_DISC:
            z = np.tanh(ts / 2.0) * cmath.exp(1j * self.theta)
        else:
            z = self.offset + 1j * np.exp(ts)
        return z if ts.ndim else complex(z)


def disc_arc(rho_max: float, theta: float = 0.0) -> RadialArc:
    return RadialArc(MetricId.HYPERBOLIC_DISC, rho_max, theta=theta)


def halfplane_arc(rho_max: float, offset: complex = 0j) -> RadialArc:
    """Geodesic t -> offset + i e^t, starting at height 1."""
    return RadialArc(MetricId.HYPERBOLIC_HALF_PLANE, rho_max, offset=offset)


@dataclass(frozen=True)
class GrowthSample:
    """One (rho, length) point of a growth curve."""

    rho: float
    length: float


def _g7k15(g, a: float, b: float):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    f = g(c + h * _NODES)
    resk = float(_KRONROD @ f)
    val = resk * h
    if not math.isfinite(val):
        raise EvaluationError(f"integrand is not finite inside [{a}, {b}]")
    return val, abs(resk - float(_GAUSS @ f)) * abs(h)


def adaptive_integrate(
    g,
    a: float,
    b: float,
    config: QuadConfig = None,
    split_points=(),
):
    """Integrate g over [a, b]; returns (value, error_bound).

    g is vectorised: it takes a 1-d array of points and returns the
    integrand's values there as an array of the same length.  Each G7K15
    panel calls it once, with its 15 nodes.

    Raises PrecisionError, carrying the best estimate, when the requested
    tolerance cannot be certified within the subdivision budget.
    """
    cfg = config or LENGTH_DEFAULT
    if b < a:
        raise ValueError("integration bounds are reversed")
    if b == a:
        return 0.0, 0.0
    edges = sorted({a, b, *(p for p in split_points if a < p < b)})
    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges, edges[1:]):
        val, err = _g7k15(g, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, counter, lo, hi, val, err, 0))
        counter += 1
    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        _, _, lo, hi, val, err, depth = heapq.heappop(heap)
        if depth >= cfg.max_depth or counter >= cfg.max_segments:
            raise PrecisionError(
                f"quadrature stalled on [{lo}, {hi}]",
                estimate=total,
                error_bound=total_err,
            )
        mid = 0.5 * (lo + hi)
        v1, e1 = _g7k15(g, lo, mid)
        v2, e2 = _g7k15(g, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1, depth + 1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2, depth + 1))
        counter += 1
    return total, total_err


def _check_source(f: MapExpr, arc: RadialArc):
    if f.domain is not None and f.domain is not arc.domain:
        raise DomainError(
            f"map domain {f.domain.name} does not match arc domain {arc.domain.name}"
        )


def _speed(f: MapExpr, arc: RadialArc, target: MetricId):
    source = arc.domain

    def g(t):
        z = arc.point(t)
        return norm_from_jet(evaluate(f, z), z, source, target)

    return g


def arc_length(
    f: MapExpr,
    arc: RadialArc,
    target: MetricId,
    config: QuadConfig = None,
) -> float:
    """Length of the image of arc[0, rho_max] under f in the target metric."""
    _check_source(f, arc)
    value, _ = adaptive_integrate(
        _speed(f, arc, target), 0.0, arc.rho_max, config or LENGTH_DEFAULT
    )
    return value


def arc_length_profile(
    f: MapExpr,
    arc: RadialArc,
    rhos,
    target: MetricId,
    config: QuadConfig = None,
):
    """GrowthSamples of cumulative image length over an increasing rho grid."""
    grid = [float(r) for r in rhos]
    if not grid:
        return []
    if grid[0] <= 0 or any(n <= p for p, n in zip(grid, grid[1:])):
        raise ValueError("rho grid must be positive and strictly increasing")
    if grid[-1] > arc.rho_max:
        raise ValueError("rho grid exceeds the arc's rho_max")
    _check_source(f, arc)
    cfg = config or LENGTH_DEFAULT
    speed = _speed(f, arc, target)
    samples = []
    total = 0.0
    lo = 0.0
    for hi in grid:
        piece, _ = adaptive_integrate(speed, lo, hi, cfg)
        total += piece
        samples.append(GrowthSample(hi, total))
        lo = hi
    return samples


def circle_energy(
    f: MapExpr,
    t: float,
    target: MetricId,
    rel_tol: float = 1e-10,
    max_panels: int = 1 << 14,
) -> float:
    """Integral over theta of |f'|^2 (disc -> target) on the hyperbolic
    circle of radius t, by doubling left-point panel sums until two
    refinements agree.  Left-point sums of a periodic analytic integrand
    converge spectrally, so doubling is cheap.
    """
    if t < 0:
        raise ValueError("radius must be non-negative")
    r = math.tanh(t / 2.0)
    source = MetricId.HYPERBOLIC_DISC

    def panel_sum(k, panels):
        # sum of |f'|^2 at the points r e^{2 pi i k / panels}
        total = 0.0
        for lo in range(0, len(k), _CHUNK):
            z = r * np.exp(2j * np.pi * k[lo : lo + _CHUNK] / panels)
            n = norm_from_jet(evaluate(f, z), z, source, target)
            total += float(n @ n)
        return total

    panels = 32
    acc = panel_sum(np.arange(panels), panels)
    mean = acc / panels
    gap = math.inf
    while panels < max_panels:
        doubled = 2 * panels
        acc += panel_sum(np.arange(1, doubled, 2), doubled)
        new_mean = acc / doubled
        gap = abs(new_mean - mean)
        panels, mean = doubled, new_mean
        if gap <= max(1e-13, rel_tol * abs(new_mean)):
            return 2.0 * math.pi * mean
    raise PrecisionError(
        f"circle energy did not settle at t = {t}",
        estimate=2.0 * math.pi * mean,
        error_bound=2.0 * math.pi * gap,
    )


def _as_disc_map(f: MapExpr) -> MapExpr:
    if f.domain is MetricId.HYPERBOLIC_HALF_PLANE:
        # transport through the disc -> half-plane isometry
        return Compose(f, inv_cayley_map())
    return f


def area_with_bound(
    f: MapExpr,
    rho: float,
    target: MetricId,
    config: QuadConfig = None,
):
    """Image area counting multiplicity over the hyperbolic disc of radius
    rho; rho may be math.inf.  Returns (area, error_bound).

    Improper areas are summed over radial windows of width 5 with a Cauchy
    stopping rule, and declared divergent after two consecutive growing
    increments.
    """
    cfg = config or AREA_DEFAULT
    g = _as_disc_map(f)

    def radial(ts):
        rel_tol = 0.01 * cfg.rel_tol
        return np.sinh(ts) * [circle_energy(g, t, target, rel_tol) for t in ts.tolist()]

    if not math.isinf(rho):
        if not 0.0 < rho <= DISC_RHO_MAX:
            raise ValueError(f"rho must be in (0, {DISC_RHO_MAX}] or infinite")
        return adaptive_integrate(radial, 0.0, rho, cfg)

    total = 0.0
    err = 0.0
    partials = []
    prev_inc = None
    rising = 0
    lo = 0.0
    while lo < DISC_RHO_MAX:
        hi = min(lo + 5.0, DISC_RHO_MAX)
        inc, inc_err = adaptive_integrate(radial, lo, hi, cfg)
        total += inc
        err += inc_err
        partials.append(total)
        if prev_inc is not None and inc > prev_inc:
            rising += 1
            if rising >= 2:
                raise DivergenceError(
                    "area increments keep growing; the improper area diverges",
                    partial_sums=tuple(partials),
                )
        else:
            rising = 0
        if abs(inc) <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            return total, err + abs(inc)
        prev_inc = inc
        lo = hi
    raise PrecisionError(
        f"window increments still material at rho = {DISC_RHO_MAX}",
        estimate=total,
        error_bound=err + abs(prev_inc if prev_inc is not None else total),
    )


def area(
    f: MapExpr,
    rho: float,
    target: MetricId,
    config: QuadConfig = None,
) -> float:
    return area_with_bound(f, rho, target, config)[0]


def area_from_coefficients(coeffs, r: float) -> float:
    """Euclidean image area of |z| < r under sum a_n z^n, counting
    multiplicity: pi * sum n |a_n|^2 r^(2n)."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("radius must lie in [0, 1]")
    terms = [
        n * (abs(complex(c)) ** 2) * r ** (2 * n)
        for n, c in enumerate(coeffs)
        if n >= 1
    ]
    return math.pi * math.fsum(terms)
