"""Geodesic arcs, image lengths and image areas counting multiplicity.

Radial geodesics are parametrised by hyperbolic arc length t:

    disc        gamma(t) = tanh(t/2) e^{i theta}
    half-plane  gamma(t) = offset + i e^t

so the length of the image of gamma[0, rho] in a target metric is the
integral of the derivative norm over [0, rho], and the area of the image
of the hyperbolic disc of radius rho, counting multiplicity, is

    A(rho) = int_0^rho sinh t ( int_0^{2 pi} |f'|^2 dtheta ) dt

with the squared norm taken disc -> target.  Lengths, and areas on the
nested route, use a global adaptive Gauss(7)/Kronrod(15) scheme; the rule
never evaluates interval endpoints, so integrable endpoint singularities
need no special casing beyond a split point.

One function, _on_circles, owns the image areas over |z| < r =
tanh(rho/2) (r = 1 at rho = inf) here and the S and T of nevanlinna, all
radii in one call.  A map of the half-plane is carried to the disc first.
It takes each radius by the boundary route when _boundary_route allows it
from the divisor alone: a known divisor, no pole or essential point on
the circle |z| = r, no essential point inside and, for the Euclidean and
the two hyperbolic targets, no pole inside that a zero does not cancel;
r = 1 in the hyperbolic targets takes the nested route.  Such a pole, or
one that counts on the circle, makes the Euclidean area infinite, which
raises PrecisionError before any quadrature.  For the sphere the map is f
or 1/f, whichever _sphere_chart picks.  With Phi a potential whose
Laplacian is the squared target density (|w|^2/4, log(1 + |w|^2),
-log(1 - |w|^2), -log Im w), Green's theorem gives

    A(r) = int_0^{2 pi} 2 Re(z f'(z) dPhi/dw(f(z))) dtheta  [+ 4 pi n(r, inf)]

the bracket for the sphere, n(r, inf) the poles in |z| < r.  Every other
radius takes the nested route, _nested: radial windows of width 5, whose
bound carries its circles' tolerance.  One circle rule (_circle_rule)
takes the boundary integrals and the nested route's inner
theta-integrals, and certifies each circle on the Fourier tail of its
samples plus their rounding floor; a circle whose floor alone exceeds its
tolerance, or that it cannot certify within _MAX_PANELS points, raises
PrecisionError with its best estimate, and no route falls back to the
other.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionError,
    DivergenceError,
    DomainError,
    EvaluationError,
    PrecisionError,
    RangeError,
    StructureError,
)
from .maps import Compose, ConstMap, MapExpr, Quotient, Scale, _cancelled, evaluate, inv_cayley_map
from .metrics import MetricId, _abs2, density, is_infinite, norm_from_jet

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
# one product with the node values gives both sums of a panel
_RULES = np.stack((_KRONROD, _GAUSS))
_HALVES = np.array(((0.5, 0.5), (-0.5, 0.5)))

# tanh(t/2) rounds to 1.0 in doubles a little above t = 37, so disc radial
# parameters are capped where the parametrisation is still faithful.
DISC_RHO_MAX = 35.0
HALF_PLANE_RHO_MAX = 700.0
# an integrand call and a circle-energy evaluate take at most this many
# points, which bounds the memory of a batch of many panels or radii
_CHUNK = 2048
_PANELS_PER_CALL = _CHUNK // len(_NODES)
# a circle that has not certified at this many points raises PrecisionError
_MAX_PANELS = 1 << 14
# the circle rule starts at this many points, on the boundary route at four
# times the map's number of zeros and poles if more, and doubles
_FIRST_POINTS = 64
# rounding allowed per sample, relative to the size of the terms it is made of
_ROUNDOFF = 16 * float(np.finfo(float).eps)
# the share by which _circle_rule's reduced form must be the smaller
_FORM_MARGIN = 1e-9
# divisor points within this relative distance of a circle count as on it
_ON_CIRCLE = 1e-6
# the largest absolute tolerance of a circle energy: 1e-13 on its mean
_CIRCLE_FLOOR = 2.0 * math.pi * 1e-13


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and subdivision limits for the adaptive quadrature."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_depth: int = 40
    # the most panels one piece may make, its first panels included
    max_segments: int = 20000

    def __post_init__(self):
        # written so that a NaN tolerance fails too
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ConstructionError("tolerances must be positive and finite")
        # a NaN budget would bound nothing: depth >= nan is never true
        for name in ("max_depth", "max_segments"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
                raise ConstructionError(f"{name} must be an integer at least 1")


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
        if not (math.isfinite(self.theta) and cmath.isfinite(self.offset)):
            raise ConstructionError("arc theta and offset must be finite")
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


def _g7k15(g, lo, hi):
    """The G7K15 rule on the panels [lo_i, hi_i]: (values, error estimates)
    as two lists of floats.  g gets the nodes of whole panels, at most
    _PANELS_PER_CALL of them per call."""
    # 0.5 (lo + hi) and 0.5 (hi - lo), each rounded once as 0.5 * (a + b) is
    ch = _HALVES @ np.array((lo, hi), dtype=float)
    c, h = ch[0], ch[1]
    ts = c[:, None] + h[:, None] * _NODES
    f = np.concatenate(
        [g(ts[k : k + _PANELS_PER_CALL].ravel()) for k in range(0, len(ts), _PANELS_PER_CALL)]
    )
    # einsum, not a matrix product: BLAS rounds one panel (gemv) and a
    # batch (gemm) apart, and a panel's sums must not depend on its batch
    sums = np.einsum("rk,nk->rn", _RULES, f.reshape(ts.shape))
    kronrod, gauss = sums[0], sums[1]
    vals = (kronrod * h).tolist()
    if not math.isfinite(sum(vals)):
        for i, v in enumerate(vals):
            if not math.isfinite(v):
                raise EvaluationError(f"integrand is not finite inside [{lo[i]}, {hi[i]}]")
    # hi >= lo, so h needs no abs
    return vals, (np.abs(kronrod - gauss) * h).tolist()


def _integrate(g, pieces, cfg: QuadConfig):
    """Integrate g over each piece, a sorted list of edges, by global
    adaptive G7K15; returns [(value, error_bound), ...] in piece order.

    Every piece keeps its own heap of panels, panel counter and budget, so
    it refines exactly as it would alone.  The pieces refine in lockstep:
    the first panels of all pieces form one batch.  In each round every
    piece that has not met its tolerance pops its worst panels until the
    error left in its heap is at most half that tolerance, which leaves the
    other half to the new halves' errors (scipy's quad_vec batches so, to
    an eighth, which bisects more panels than needed here).  All popped
    panels of all pieces are bisected in one batch.  A pop past max_depth
    or max_segments stalls its piece; once all pieces are done, the first
    stalled one in order raises PrecisionError with its own estimate.  A
    non-finite integrand raises EvaluationError at once, whichever piece it
    is in.
    """
    lo = [e for edges in pieces for e in edges[:-1]]
    hi = [e for edges in pieces for e in edges[1:]]
    vals, errs = _g7k15(g, lo, hi)
    heaps, counters, totals, total_errs = [], [], [], []
    k = 0
    for edges in pieces:
        heap = []
        total = total_err = 0.0
        for j in range(len(edges) - 1):
            total += vals[k]
            total_err += errs[k]
            heap.append((-errs[k], j, lo[k], hi[k], vals[k], errs[k], 0))
            k += 1
        # counters are unique keys, so a heapified list pops as pushes would
        heapq.heapify(heap)
        heaps.append(heap)
        counters.append(len(heap))
        totals.append(total)
        total_errs.append(total_err)

    def tolerance(i):
        return max(cfg.abs_tol, cfg.rel_tol * abs(totals[i]))

    stalls = [None] * len(pieces)
    live = [i for i in range(len(pieces)) if total_errs[i] > tolerance(i)]
    while live:
        popped, lo, hi = [], [], []
        for i in live:
            heap = heaps[i]
            left, goal = total_errs[i], tolerance(i) / 2.0
            while heap and left > goal:
                _, _, a, b, val, err, depth = heapq.heappop(heap)
                if depth >= cfg.max_depth or counters[i] + 2 > cfg.max_segments:
                    stalls[i] = (a, b)
                    break
                mid = 0.5 * (a + b)
                popped.append((i, val, err, depth + 1, counters[i]))
                lo += (a, mid)
                hi += (mid, b)
                counters[i] += 2
                left -= err
        if not popped:
            break
        vals, errs = _g7k15(g, lo, hi)
        for j, (i, val, err, depth, n) in enumerate(popped):
            v1, v2 = vals[2 * j], vals[2 * j + 1]
            e1, e2 = errs[2 * j], errs[2 * j + 1]
            totals[i] += v1 + v2 - val
            total_errs[i] += e1 + e2 - err
            a, mid, b = lo[2 * j], hi[2 * j], hi[2 * j + 1]
            heapq.heappush(heaps[i], (-e1, n, a, mid, v1, e1, depth))
            heapq.heappush(heaps[i], (-e2, n + 1, mid, b, v2, e2, depth))
        live = [i for i in live if stalls[i] is None and total_errs[i] > tolerance(i)]
    for i, stall in enumerate(stalls):
        if stall is not None:
            raise PrecisionError(
                f"quadrature stalled on [{stall[0]}, {stall[1]}]",
                estimate=totals[i],
                error_bound=total_errs[i],
            )
    return list(zip(totals, total_errs))


def adaptive_integrate(
    g,
    a: float,
    b: float,
    config: QuadConfig = None,
    split_points=(),
):
    """Integrate g over [a, b]; returns (value, error_bound).

    g is vectorised: it takes a 1-d array of points and returns the
    integrand's values there as an array of the same length.  It gets the
    15 nodes of one or more G7K15 panels per call, at most _CHUNK points.
    The split points cut [a, b] into panels that share one heap.

    Raises PrecisionError, carrying the best estimate, when the requested
    tolerance cannot be certified within the subdivision budget.
    """
    cfg = config or LENGTH_DEFAULT
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a}, {b}]")
    if b < a:
        raise ValueError("integration bounds are reversed")
    if b == a:
        return 0.0, 0.0
    edges = sorted({a, b, *(p for p in split_points if a < p < b)})
    return _integrate(g, [edges], cfg)[0]


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
    """GrowthSamples of cumulative image length over an increasing rho grid.

    The pieces [0, rho_1], [rho_1, rho_2], ... refine in lockstep, so one
    integrand call serves a round of bisections on all of them."""
    grid = [float(r) for r in rhos]
    if not grid:
        return []
    if grid[0] <= 0 or any(n <= p for p, n in zip(grid, grid[1:])):
        raise ValueError("rho grid must be positive and strictly increasing")
    if grid[-1] > arc.rho_max:
        raise ValueError("rho grid exceeds the arc's rho_max")
    _check_source(f, arc)
    pieces = list(zip([0.0, *grid], grid))
    results = _integrate(_speed(f, arc, target), pieces, config or LENGTH_DEFAULT)
    samples = []
    total = 0.0
    for hi, (piece, _) in zip(grid, results):
        total += piece
        samples.append(GrowthSample(hi, total))
    return samples


def _circle_energies(f, ts, target, rel_tol, max_panels, abs_tol=_CIRCLE_FLOOR):
    """circle_energy at every radius of the 1-d array ts, as an array: the
    circle rule on |f'|^2 (disc -> target), one form, each circle certified
    to max(abs_tol, rel_tol |energy|) within max_panels points, abs_tol a
    number or an array with one per radius."""
    if not (ts >= 0).all():
        raise ValueError("radius must be non-negative")

    def sample(z, _):
        n = norm_from_jet(evaluate(f, z), z, MetricId.HYPERBOLIC_DISC, target)
        h = (n * n)[None, None]
        return h, h

    r, scale, shift = np.tanh(ts / 2.0), 2.0 * math.pi, np.zeros((1, len(ts)))
    return _circle_rule(sample, r, scale, shift, abs_tol, rel_tol, _FIRST_POINTS, max_panels)[0][0]


def circle_energy(
    f: MapExpr,
    t: float,
    target: MetricId,
    rel_tol: float = 1e-10,
    max_panels: int = _MAX_PANELS,
) -> float:
    """Integral over theta of |f'|^2 (disc -> target) on the hyperbolic
    circle of radius t by the certified circle rule, which raises
    PrecisionError when the circle has not certified at max_panels points."""
    return _circle_energies(f, np.array([t], dtype=float), target, rel_tol, max_panels)[0].item()


def _boundary_route(f: MapExpr, rs, target: MetricId, reach: float = 1.0, cfg=None):
    """(routes, first, counted): for each radius r of rs, the poles of f in
    |z| < r when its area in the target over |z| < r takes the boundary
    route, else None for the nested route; the point count the circle rule
    starts at, _first_points of the number of f's zeros and poles; and the
    poles of f that count, which _cancelled leaves, in |z| < reach max(rs),
    and for the Euclidean target on and just past the circle too.

    The route needs a map whose divisor() is known, read through
    polar_divisor(), with no pole or essential point on the closed disc
    |z| <= r, apart from poles strictly inside for the spherical target,
    and r < 1 for the hyperbolic targets.  Points within _ON_CIRCLE of the
    circle, relative to r, count as on it, all the poles listed included.
    A pole counts only where _cancelled leaves it: divisor() is read for
    that only when a pole lies inside the window.  Near a pole p of order
    k, |f'|^2 grows as |z - p|^(-2k-2), so the Euclidean target raises
    PrecisionError at once, error bound inf, for a pole that counts:
    - inside deeper than that band: the area is infinite, as is the
      estimate;
    - else in the band: the area is infinite, or beyond certifying when
      the pole lies just outside.  The estimate is the area over
      |z| < r/2 to cfg's tolerances, or that circle's best estimate, a
      lower bound, since no pole that counts lies inside."""
    try:
        poles, essential, degree = f.polar_divisor()
    except StructureError:
        return [None] * len(rs), None, []
    euclidean = target is MetricId.EUCLIDEAN
    # the Euclidean window takes in the band of the largest circle
    near = max(rs) * (1.0 + 2.0 * _ON_CIRCLE if euclidean else reach)
    counted = [p for p in poles if abs(p) < near]
    if counted:
        zeros, listed, _ = f.divisor()
        counted = [p for p in _cancelled(zeros, listed)[1] if abs(p) < near]
    hyperbolic = target in (MetricId.HYPERBOLIC_DISC, MetricId.HYPERBOLIC_HALF_PLANE)
    routes = []
    for r in rs:
        inside = [p for p in counted if abs(p) < r]
        deep = [p for p in inside if abs(p) < r * (1.0 - _ON_CIRCLE)]
        if deep and euclidean:
            raise PrecisionError(
                f"the pole at {deep[0]!r} makes the Euclidean area over |z| < {r!r} infinite",
                estimate=math.inf,
                error_bound=math.inf,
            )
        edge = [p for p in counted if abs(p) <= r * (1.0 + _ON_CIRCLE)]
        if edge and euclidean:
            try:
                estimate = _on_circles(f, [0.5 * r], target, cfg)[0][0][0]
            except PrecisionError as exc:
                estimate = exc.estimate
            raise PrecisionError(
                f"the Euclidean area over |z| < {r!r} did not certify: the pole at"
                f" {edge[0]!r} lies on the circle up to a relative {_ON_CIRCLE}, which"
                " makes the area infinite, or beyond certifying if it lies just outside;"
                f" the estimate is the area over |z| < {0.5 * r!r}",
                estimate=estimate,
                error_bound=math.inf,
            )
        if (
            (hyperbolic and r == 1.0)
            or any(not is_infinite(p) and abs(p) <= r * (1.0 + _ON_CIRCLE) for p in essential)
            or any(abs(abs(p) - r) <= r * _ON_CIRCLE for p in poles)
            or (inside and target is not MetricId.SPHERICAL)
        ):
            inside = None
        routes.append(inside)
    return routes, _first_points(degree), counted


def _sphere_chart(f: MapExpr, rs, finite_origin: bool, reach: float, origin=None):
    """(g, g0, routes, first, counted): the chart g, f or 1/f, which the
    spherical metric does not tell apart, for the spherical area, S and T
    of f on the circles |z| = r of rs; g0 = g(0), 0 at a pole, and routes,
    first, counted from _boundary_route(g, rs, SPHERICAL, reach).  g is 1/f
    when f(0) is infinite, and when 1/f is on the route at more radii than
    f (a pole of f on a circle is a zero of 1/f) unless finite_origin asks
    for g(0) finite and f(0) is 0.  1/f is tried only then: its divisor
    may cost a root finding.  origin is the Jet of f at 0 when the caller
    has it, else evaluated here where needed."""
    routes, first, counted = _boundary_route(f, rs, MetricId.SPHERICAL, reach)
    served = sum(p is not None for p in routes)
    # a map on the route at some radius is meromorphic at 0
    if served and origin is None:
        origin = evaluate(f, 0.0, order=0)
    if served == len(rs) and not origin.is_pole:
        return f, origin.value, routes, first, counted
    g = Quotient(ConstMap(1.0), f)
    g_route = _boundary_route(g, rs, MetricId.SPHERICAL, reach)
    if sum(p is not None for p in g_route[0]) > served:
        if origin is None:
            origin = evaluate(f, 0.0, order=0)
        swap = origin.is_pole or origin.value != 0 or not finite_origin
    else:
        swap = served and origin.is_pole
    if swap:
        return (g, evaluate(g, np.zeros(1), order=0)[0][0], *g_route)
    return f, origin.value if served else None, routes, first, counted


def _first_points(degree):
    """The power of two from _FIRST_POINTS up to _MAX_PANELS at which a
    circle of a map with degree zeros and poles starts: at least 4 degree.
    An integrand that repeats under the rotation z -> e^{2 pi i/m} z has
    Fourier content at the multiples of m alone, and for a map with a
    known divisor m is at most its number of zeros and poles, unless the
    integrand is constant; from 4 m points on the top quarter n/4..n/2
    holds a multiple of m, so that content shows in the tail instead of
    aliasing into the mean unseen."""
    n = _FIRST_POINTS
    while n < 4 * degree and n < _MAX_PANELS:
        n *= 2
    return n


def _slope(target: MetricId, w):
    """dPhi/dw at the array of values w for the target's area potential
    Phi, whose Laplacian is the squared density: |w|^2/4, log(1 + |w|^2),
    -log(1 - |w|^2) and -log Im w.  A value outside the target raises
    RangeError."""
    if target is MetricId.EUCLIDEAN:
        return 0.25 * np.conj(w)
    if target is MetricId.SPHERICAL:
        # conj(w)/(1 + |w|^2) is u/(1 + |u|^2) at u = 1/w, taken where |w| > 1
        big = np.abs(w) > 1.0
        u = np.where(big, 1.0 / np.where(big, w, 1.0), np.conj(w))
        return u / (1.0 + _abs2(u))
    try:
        lam = density(target, w)
    except DomainError as exc:
        raise RangeError(f"value {exc}") from None
    return 0.5 * lam * (np.conj(w) if target is MetricId.HYPERBOLIC_DISC else 1j)


def _area_terms(jets, z, target, slope0, h, size):
    """The Green's-theorem integrand 2 Re(z f' dPhi/dw(f)) of an image area
    from f's jets on a circle, written into h[0] as it stands and into h[1]
    less 2 Re(z f' slope0), slope0 = dPhi/dw at f(0), a part of mean 0 and
    of order r; size[0] and size[1] get the sizes of the terms that form
    each sample of the two.  h and size have shape (2,) + z.shape.  The
    mean over the circle |z| = r, times 2 pi, is the area over |z| < r,
    less 4 pi per pole inside for the sphere."""
    value, derivative, pole = jets
    if pole.any():
        raise EvaluationError(f"map has a pole at {complex(z[pole][0])} on the circle")
    zd = z * derivative
    slope = _slope(target, value)
    np.multiply(2.0, (zd * slope).real, out=h[0])
    np.multiply(2.0, (zd * (slope - slope0)).real, out=h[1])
    twice = 2.0 * np.abs(zd)
    np.multiply(twice, np.abs(slope), out=size[0])
    np.add(size[0], twice * abs(slope0), out=size[1])


@functools.cache
def _roots(n: int):
    """The n points e^{2 pi i k / n} of the unit circle, read-only and made
    once per n, which must be a power of two: the circle rule asks for 64
    to _MAX_PANELS points, and the doubling's new points are the view
    [1::2]; the boundary sampling of nevanlinna for 256 to 65536."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"the number of circle points must be a power of two, got {n}")
    z = np.exp(2j * np.pi * np.arange(n) / n)
    z.setflags(write=False)
    return z


def _spectral_tail(h):
    """(mean, tail) of periodic samples at n equispaced points along the
    last axis.  tail sums the moduli of the Fourier coefficients in the top
    quarter, frequencies n/4 to n/2 of either sign.  The trapezoid rule's
    error is the sum of the aliased coefficients at the multiples of n
    (Trefethen & Weideman, SIAM Rev. 56, 2014, sec. 3), far below tail
    once the coefficients decay; tail stays positive when the rule aliases,
    where the gap between two doublings vanishes.  The rows are transformed
    in blocks of at most _MAX_PANELS samples, which bounds the memory."""
    n = h.shape[-1]
    rows, step = h.reshape(-1, n), max(1, _MAX_PANELS // n)
    tail = np.empty(len(rows))
    for lo in range(0, len(rows), step):
        tail[lo : lo + step] = np.abs(np.fft.rfft(rows[lo : lo + step])[:, n // 4 :]).sum(axis=-1)
    # the bits of h.mean(axis=-1), without its Python wrapper
    return np.add.reduce(h, axis=-1) / n, 2.0 * tail.reshape(h.shape[:-1]) / n


def _circle_samples(sample, r, live, unit):
    """sample on the circles r[live] at the points r_i unit: the integrands
    h in all forms, of shape (forms, integrands, len(live), len(unit)), and
    their term sizes summed over the points.  Each call takes at most
    _CHUNK points, splitting the circles and, past _CHUNK points, the
    angles too."""
    step = max(1, _CHUNK // len(unit))
    h = size = None
    for lo in range(0, len(live), step):
        rows = live[lo : lo + step]
        for col in range(0, len(unit), _CHUNK):
            z = r[rows, None] * unit[col : col + _CHUNK]
            part, part_size = sample(z, rows)
            if not np.isfinite(part).all():
                bad = ~np.isfinite(part).all(axis=(0, 1))
                raise EvaluationError(f"circle integrand is not finite at {complex(z[bad][0])}")
            if h is None:
                h = np.empty(part.shape[:2] + (len(live), len(unit)))
                size = np.zeros(h.shape[:3])
            h[..., lo : lo + step, col : col + _CHUNK] = part
            size[..., lo : lo + step] += np.add.reduce(part_size, axis=-1)
    return h, size


def _pick(h, size, reduced):
    """The samples and term sizes of the form each (integrand, circle) uses:
    the last where reduced holds, else the first; views of h and size when
    all use one form."""
    if reduced.all():
        return h[-1], size[-1]
    if not reduced.any():
        return h[0], size[0]
    return np.where(reduced[..., None], h[-1], h[0]), np.where(reduced, size[-1], size[0])


def _circle_rule(sample, r, scale, shift, abs_tol, rel_tol, first, cap=_MAX_PANELS):
    """Certified periodic trapezoid rule on the circles |z| = r_i.

    sample(z, rows) takes a 2-d array of points on the circles r[rows], one
    row each, and returns two arrays of shape (forms, k) + z.shape: k real
    integrands in one form, or in two with the same mean, the second less a
    part of mean 0; and the size of the terms each sample is formed from.
    Each integrand on each circle keeps the form whose first samples are
    the smaller in mean modulus: at small r taking out the part of order r
    leaves a sum without its cancellation, and where that part dwarfs the
    integrand (|f| large on the sphere) its rounding would swamp the mean.
    The second form must be smaller by the share _FORM_MARGIN: where the
    part taken out is 0 to rounding, the two sums differ by rounding alone,
    and the second form's rounding noise would cost doublings.

    The values are scale * (mean of h + shift), shift of shape
    (k, len(r)).  A bound is scale times the top-quarter Fourier tail plus
    the rounding floor, scale times _ROUNDOFF times the mean term size.
    Each circle takes first points, doubling over the circles not yet
    certified in one batch, and is certified once for every integrand its
    bound is at most max(abs_tol, rel_tol |value|), abs_tol a number or an
    array with one per circle.  Returns (values, bounds).  Doubling does
    not lower the floor, so a circle whose floor alone exceeds that
    tolerance raises PrecisionError at once, as does a circle that has not
    certified at cap points, each naming the first such circle in the
    order of r and its first such integrand, with its value and bound.
    """
    n = first
    live = np.arange(len(r))
    abs_tol = np.full(len(r), abs_tol)
    forms, forms_size = _circle_samples(sample, r, live, _roots(n))
    moduli = np.add.reduce(np.abs(forms), axis=-1)
    reduced = moduli[-1] < (1.0 - _FORM_MARGIN) * moduli[0]
    h, size = _pick(forms, forms_size, reduced)
    values = np.empty(shift.shape)
    bounds = np.empty(shift.shape)
    while True:
        mean, tail = _spectral_tail(h)
        value = scale * (mean + shift[:, live])
        floor = scale * _ROUNDOFF * size / n
        bound = scale * tail + floor
        tol = np.maximum(abs_tol[live], rel_tol * np.abs(value))
        ok = bound <= tol
        done = ok.all(axis=0)
        values[:, live[done]] = value[:, done]
        bounds[:, live[done]] = bound[:, done]
        if done.all():
            return values, bounds
        stuck = floor > tol
        if stuck.any() or n >= cap:
            bad = stuck if stuck.any() else ~ok
            i = np.flatnonzero(bad.any(axis=0))[0]
            j = np.flatnonzero(bad[:, i])[0]
            why = ": its rounding floor exceeds the tolerance" if stuck.any() else f" within {n} points"
            raise PrecisionError(
                f"circle integral did not certify at r = {r[live[i]]}{why}",
                estimate=value[j, i].item(),
                error_bound=bound[j, i].item(),
            )
        if done.any():
            keep = ~done
            live, h, size, reduced = live[keep], h[:, keep], size[:, keep], reduced[:, keep]
        n *= 2
        new, new_size = _pick(*_circle_samples(sample, r, live, _roots(n)[1::2]), reduced)
        merged = np.empty(h.shape[:2] + (n,))
        merged[..., 0::2], merged[..., 1::2] = h, new
        h, size = merged, size + new_size
        del merged, new  # h alone holds the samples through the transform


def _on_circles(f: MapExpr, rs, target: MetricId, cfg: QuadConfig, want=("A",), origin=None):
    """The quantities in want at the radii rs: one list per quantity, in
    the order of want, of (value, error bound) at every radius, in the
    units of S, as are the numbers a PrecisionError or DivergenceError
    carries.  "A" is the image area in the target over |z| < r over 4 pi
    (r = 1 for the whole disc), S(r) for the sphere, and "T" the
    Ahlfors-Shimizu characteristic, for the sphere alone; T at r = 1 takes
    the boundary route or raises StructureError.  origin, the Jet of f at
    0 when the caller has it, spares _sphere_chart evaluating it again.  A
    map f of the half-plane is taken as f(i (1 + w)/(1 - w)), w = e^i z:
    the rotation puts the pole w = 1 at z = e^{-i}, which no sample of the
    circle rule, at a dyadic fraction of a turn, comes within 1.5e-4 of.

    The radii on the boundary route (_boundary_route) are certified in one
    call of the circle rule, to cfg's tolerances on 4 pi times each value;
    every other radius takes the nested route (_nested).  The map g
    sampled is f, or for the sphere the chart f or 1/f that _sphere_chart
    picks (S and T do not change), g(0) finite when T is wanted; where
    that chart leaves S off the route, S comes from one call for "A" alone
    on those radii, whose chart may take them.  With Phi the target's area
    potential (see _slope) and b the poles of g in |z| < r, which only the
    sphere admits,

        A(r)/4pi = (1/4pi) int 2 Re(z g' dPhi/dw(g)) dtheta + n(r, inf)
        T(r) = (1/4pi) int log(1 + |g|^2) dtheta - log(1 + |g(0)|^2)/2
               + sum log(r/|b|),

    Green's theorem and the Ahlfors-Shimizu first main theorem (Hayman,
    Meromorphic Functions, 1964, sec. 1.5).  T's second form is less its
    linear part at g(0) on the circles with no pole inside, where that
    part integrates to 0, nor a peeled pole outside, whose peak that part
    keeps; elsewhere its two forms are one.

    T's samples take a Jensen peel.  Near a pole b of g, log(1 + |g|^2)
    is about -log|z - b|^2, and on a circle a relative distance d from b
    the trapezoid rule needs about 4 log(1/tol)/d points.  So each pole
    that counts, inside or outside, closer than band = 4 log(1/tol) /
    _MAX_PANELS (relative to r, tol the circle rule's absolute tolerance),
    where the circle could not certify without the peel, adds
    log|z - b|^2 to both forms, and its circle mean 2 log max(r, |b|)
    (Jensen's formula) leaves through the shift.  Poles farther out are not
    peeled: on |z| = 1 a Blaschke quotient's integrand is constant, and
    the peel would make it vary."""
    if f.domain is MetricId.HYPERBOLIC_HALF_PLANE:
        f = Compose(Compose(f, inv_cayley_map()), Scale(cmath.exp(1j)))
    band = 0.0
    if "T" in want:
        band = max(0.0, 4.0 * math.log(4.0 * math.pi / cfg.abs_tol) / _MAX_PANELS)
    if target is MetricId.SPHERICAL:
        g, g0, routes, first, counted = _sphere_chart(f, rs, "T" in want, 1.0 + band, origin)
    else:
        g, g0, (routes, first, counted) = f, None, _boundary_route(f, rs, target, cfg=cfg)
    out = tuple([None] * len(rs) for _ in want)
    off = [i for i, poles in enumerate(routes) if poles is None]
    if "T" in want and any(rs[i] == 1.0 for i in off):
        raise StructureError(
            "T at r = 1 takes the boundary route alone: a disc map with a known"
            " divisor and no pole or essential point on the circle"
        )
    for q, column in zip(want, out):
        if off and q == "A" and "T" in want:
            values = _on_circles(f, [rs[i] for i in off], target, cfg)[0]
        else:
            values = [_nested(f, rs[i], target, cfg, q) for i in off]
        for i, value in zip(off, values):
            column[i] = value
    on = [i for i, poles in enumerate(routes) if poles is not None]
    if not on:
        return out
    if g0 is None:
        g0 = evaluate(g, np.zeros(1), order=0)[0][0]
    slope0 = _slope(target, np.array([g0]))[0]
    scale0 = 1.0 + _abs2(g0)
    peeled = [[b for b in counted if abs(abs(b) - rs[i]) < band * rs[i]] for i in on]
    linear = np.array([not routes[i] and not near for i, near in zip(on, peeled)])
    peeling = any(peeled)

    order, big_g0, log_scale0 = int("A" in want), abs(g0), math.log(scale0)

    def log_ratio(jets, z, rows, h, size):
        w = jets[0]
        diff = w - g0
        # log1p of (|g|^2 - |g0|^2)/(1 + |g0|^2), exact to rounding near g0
        ratio = (diff * np.conj(w + g0)).real / scale0
        plain, plain_size = np.log1p(ratio, out=h[0]), size[0]
        np.add(np.abs(diff) * (np.abs(w) + big_g0) / (1.0 + _abs2(w)), np.abs(plain), out=plain_size)
        # where |g| is well below |g0|, which needs |g0| > 1, log1p would
        # swell the rounding of the ratio up to 1 + |g0|^2 times: there the
        # two logs go apart
        if scale0 > 2.0:
            low = ratio < -0.5
            logs = np.log1p(_abs2(w[low]))
            plain[low], plain_size[low] = logs - log_scale0, logs + log_scale0
        if peeling:
            for k, j in enumerate(rows):
                for b in peeled[j]:
                    term = np.log(_abs2(z[k] - b))
                    plain[k] += term
                    plain_size[k] += np.abs(term)
        part = np.where(linear[rows, None], 2.0 * (slope0 * diff).real, 0.0)
        np.subtract(plain, part, out=h[1])
        np.add(plain_size, np.abs(part), out=size[1])

    def sample(z, rows):
        jets = evaluate(g, z, order=order)
        h = np.empty((2, len(want)) + z.shape)
        size = np.empty(h.shape)
        for k, q in enumerate(want):
            if q == "A":
                _area_terms(jets, z, target, slope0, h[:, k], size[:, k])
            else:
                log_ratio(jets, z, rows, h[:, k], size[:, k])
        return h, size

    def t_shift(j, i):
        jensen = [-math.log(max(rs[i], abs(b))) for b in peeled[j]]
        return 2.0 * math.fsum([math.log(rs[i] / abs(b)) for b in routes[i]] + jensen)

    shifts = {
        "A": lambda j, i: 2.0 * len(routes[i]),
        "T": t_shift,
    }
    values, bounds = _circle_rule(
        sample,
        np.array([rs[i] for i in on]),
        0.5,
        np.array([[shifts[q](j, i) for j, i in enumerate(on)] for q in want]),
        cfg.abs_tol / (4.0 * math.pi),
        cfg.rel_tol,
        first,
    )
    for k, column in enumerate(out):
        for j, i in enumerate(on):
            column[i] = values[k, j].item(), bounds[k, j].item()
    return out


def _nested(f: MapExpr, r: float, target: MetricId, cfg: QuadConfig, quantity: str):
    """The quantity "A" or "T" of _on_circles at the radius r by the
    nested route, as (value, error bound) in the units of S, as are the
    numbers a PrecisionError or DivergenceError carries.

    The outer G7K15 rule integrates sinh v Q(v), for T times the kernel
    log(r / tanh(v/2)) from exchanging the order of int_0^r S(t)/t dt, over
    windows of width 5 in the hyperbolic radius v; Q(v) is the circle
    energy of f, a map of the disc.  The windows end
    at rho, the hyperbolic radius of |z| = r, or at r = 1 by a Cauchy rule
    (the last increment is the tail allowance, a heuristic), after two
    growing increments (DivergenceError) or at DISC_RHO_MAX.  A stall
    raises PrecisionError with the windows done, a lower bound, and bound
    inf.  A circle is certified to max(min(_CIRCLE_FLOOR, abs_tol/(5 sinh
    v)), rel_tol |Q|/100), cfg's tolerances, so a window [lo, hi] adds to
    its G7K15 bound abs_tol (hi - lo)/5, or abs_tol (pi^2/4)/5 for T, whose
    kernel integrates to at most pi^2/4 over [0, rho], and (rel_tol/100 +
    _ROUNDOFF) times the increment, which is at least 0."""
    rel_tol, log_r, unit = 0.01 * cfg.rel_tol, math.log(r), 4.0 * math.pi

    def radial(ts):
        weight = np.sinh(ts)
        floor = np.minimum(_CIRCLE_FLOOR, cfg.abs_tol / (5.0 * weight))
        q = weight * _circle_energies(f, ts, target, rel_tol, _MAX_PANELS, floor)
        return q if quantity == "A" else q * (log_r - np.log(np.tanh(ts / 2.0)))

    rho = DISC_RHO_MAX if r == 1.0 else math.log1p(r) - math.log1p(-r)
    total = err = lo = 0.0
    partials, inc, rising = [], math.inf, 0
    while lo < rho:
        hi, prev_inc = min(lo + 5.0, rho), inc
        try:
            inc, inc_err = adaptive_integrate(radial, lo, hi, cfg)
        except PrecisionError as exc:
            # the windows done are a lower bound: the integrand is >= 0
            raise PrecisionError(exc.reason, total / unit, math.inf) from None
        span = math.pi**2 / 4.0 if quantity == "T" else hi - lo
        total, lo = total + inc, hi
        err += inc_err + cfg.abs_tol * span / 5.0 + (rel_tol + _ROUNDOFF) * abs(inc)
        if r < 1.0:
            continue
        partials.append(total / unit)
        rising = rising + 1 if inc > prev_inc else 0
        if rising >= 2:
            raise DivergenceError(
                "area increments keep growing; the improper area diverges",
                partial_sums=partials,
            )
        if abs(inc) <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            return total / unit, (err + abs(inc)) / unit
    if r < 1.0:
        return total / unit, err / unit
    raise PrecisionError(
        f"window increments still material at rho = {DISC_RHO_MAX}",
        estimate=total / unit,
        error_bound=(err + abs(inc)) / unit,
    )


def area_with_bound(
    f: MapExpr,
    rho: float,
    target: MetricId,
    config: QuadConfig = None,
):
    """Image area counting multiplicity over the hyperbolic disc of radius
    rho; rho may be math.inf.  Returns (area, error_bound): 4 pi times
    the "A" of _on_circles on |z| = tanh(rho/2), or |z| = 1 at rho = inf,
    whose PrecisionError or DivergenceError carries area units too."""
    if not (math.isinf(rho) or 0.0 < rho <= DISC_RHO_MAX):
        raise ValueError(f"rho must be in (0, {DISC_RHO_MAX}] or infinite")
    r = 1.0 if math.isinf(rho) else math.tanh(rho / 2.0)
    unit = 4.0 * math.pi
    try:
        value, bound = _on_circles(f, [r], target, config or AREA_DEFAULT)[0][0]
    except DivergenceError as exc:
        raise DivergenceError(str(exc), [unit * s for s in exc.partial_sums]) from None
    except PrecisionError as exc:
        raise PrecisionError(exc.reason, unit * exc.estimate, unit * exc.error_bound) from None
    return unit * value, unit * bound


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
