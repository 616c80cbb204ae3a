"""Analytic map expressions with exact derivative propagation.

A map is a small expression tree.  Evaluation returns a jet (value,
derivative) computed structurally, never by numerical differencing, at a
whole array of points at once.  Values live on the Riemann sphere: at a
pole the jet switches to the chart w -> 1/w and stores the derivative of
1/f there, which is the right object for spherical geometry.

Each node's _jet takes a 1-d complex array of points and returns three
arrays of the same length: value, derivative and a pole mask.  Where the
mask is set the value is 0 and the derivative is that of 1/f.

Trees carry optional domain/codomain tags (MetricId) used to sanity-check
compositions.  Untagged nodes (scale, shift, exp, power series...) are
polymorphic and adopt the tag demanded by context.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    EvaluationError,
    IndeterminateFormError,
    StructureError,
    TagMismatchError,
)
from .metrics import (
    INFINITY,
    MetricId,
    MobiusTransform,
    _abs2,
    cayley,
    is_infinite,
    mobius_apply,
    mobius_inverse,
)

_DISC_RADIUS = math.sqrt(1.0 + 2e-9)  # closed disc plus slack
_HALF_PLANE_SLACK = 1e-12
# e^w overflows past this real part; ExpMap switches to the 1/f chart there
_LOG_MAX = math.log(sys.float_info.max)
# point-factor elements per block of a Blaschke product's broadcast: a
# batch of points on a long product keeps its memory small, and blocks
# larger than this measured slower than one point at a time
_BLOCK = 1 << 12


@dataclass(frozen=True)
class Jet:
    """First-order jet of a map at one point, as scalar evaluate returns it.

    value is a finite complex number or INFINITY.  derivative is the
    derivative of the finite-chart representative; when value is INFINITY
    it is the derivative of 1/f instead.
    """

    value: object
    derivative: complex

    def __post_init__(self):
        if not is_infinite(self.value):
            object.__setattr__(self, "value", complex(self.value))
        object.__setattr__(self, "derivative", complex(self.derivative))

    @property
    def is_pole(self) -> bool:
        return is_infinite(self.value)


def _finite(z):
    """The pole mask of a map with no poles at the points z."""
    return np.zeros(z.shape, dtype=bool)


def _jet_mul(p, q):
    (pv, pd, pp), (qv, qd, qp) = p, q
    pole = pp | qp
    if not pole.any():
        return pv * qv, pd * qv + pv * qd, pole
    one = pp ^ qp
    fin = np.where(pp, qv, pv)  # the finite factor where exactly one is a pole
    if np.any(one & (fin == 0)):
        raise IndeterminateFormError("product of a pole and a zero")
    # chart 1/(lr) = (1/l)/r at one pole; (1/l)(1/r) has a double zero at two
    chart = np.where(pp, pd, qd) / np.where(one, fin, 1.0)
    d = np.where(one, chart, np.where(pole, 0.0, pd * qv + pv * qd))
    return np.where(pole, 0.0, pv * qv), d, pole


def _jet_div(p, q):
    (pv, pd, pp), (qv, qd, qp) = p, q
    zero = (qv == 0) & ~pp & ~qp
    special = pp | qp | zero
    if not special.any():
        v = pv / qv
        return v, (pd - v * qd) / qv, special
    if np.any(pp & qp):
        raise IndeterminateFormError("quotient of two poles")
    if np.any(zero & (pv == 0)):
        raise IndeterminateFormError("structural 0/0")
    safe = np.where(special, 1.0, qv)
    v = np.where(special, 0.0, pv / safe)
    # at a pole of l the chart r * (1/l) vanishes; at a pole of r, l * (1/r)
    # is finite with value 0; at a zero of r the chart r/l of the new pole
    d = np.select(
        [pp, qp, zero],
        [qv * pd, pv * qd, qd / np.where(zero, pv, 1.0)],
        (pd - v * qd) / safe,
    )
    return v, d, pp | zero


def _unify(first, second):
    if first is not None and second is not None and first is not second:
        raise TagMismatchError(first, second)
    return first if first is not None else second


class MapExpr:
    """Base class for map expression nodes."""

    domain = None
    codomain = None

    def _jet(self, z: np.ndarray):
        raise NotImplementedError

    def divisor(self):
        """(zeros, poles, essential): the zeros and poles of the map in the
        finite plane, listed with multiplicity, and the sphere points
        (INFINITY allowed) where the map is not meromorphic.  Nodes
        without a closed-form divisor raise StructureError."""
        raise StructureError(
            f"cannot extract zeros and poles from a {type(self).__name__} node"
        )


def evaluate(f: MapExpr, z):
    """Evaluate the jet of f at a finite point z, or at an array of them.

    A scalar z gives a Jet.  An array gives the arrays (value, derivative,
    pole) of its shape; where pole is set, value is 0 and derivative is
    that of 1/f.  Points must lie in the closure of f's tagged domain
    (boundary sampling is a legitimate use); untagged maps accept any
    finite z.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    dom = f.domain
    if dom is MetricId.HYPERBOLIC_DISC:
        bad, where = np.abs(flat) > _DISC_RADIUS, "closed unit disc"
    elif dom is MetricId.HYPERBOLIC_HALF_PLANE:
        bad, where = flat.imag < -_HALF_PLANE_SLACK, "closed upper half-plane"
    else:
        bad = None
    if bad is not None and bad.any():
        raise DomainError(f"{complex(flat[bad][0])} is outside the {where}")
    value, derivative, pole = f._jet(flat)
    if zs.ndim:
        return value.reshape(zs.shape), derivative.reshape(zs.shape), pole.reshape(zs.shape)
    return Jet(INFINITY if pole[0] else value[0], derivative[0])


@dataclass(frozen=True)
class Identity(MapExpr):
    transform = MobiusTransform(1, 0, 0, 1)

    def _jet(self, z):
        return z, np.ones_like(z), _finite(z)

    def divisor(self):
        return [0j], [], []


@dataclass(frozen=True)
class ConstMap(MapExpr):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))

    def _jet(self, z):
        return np.full_like(z, self.value), np.zeros_like(z), _finite(z)

    def divisor(self):
        if self.value == 0:
            raise StructureError("the zero map has no divisor")
        return [], [], []


@dataclass(frozen=True)
class Scale(MapExpr):
    factor: complex

    def __post_init__(self):
        object.__setattr__(self, "factor", complex(self.factor))

    def _jet(self, z):
        return self.factor * z, np.full_like(z, self.factor), _finite(z)

    @property
    def transform(self) -> MobiusTransform:
        if self.factor == 0:
            raise StructureError("scale by 0 is not invertible")
        return MobiusTransform(self.factor, 0, 0, 1)

    def divisor(self):
        if self.factor == 0:
            raise StructureError("the zero map has no divisor")
        return [0j], [], []


@dataclass(frozen=True)
class Shift(MapExpr):
    offset: complex

    def __post_init__(self):
        object.__setattr__(self, "offset", complex(self.offset))

    def _jet(self, z):
        return z + self.offset, np.ones_like(z), _finite(z)

    @property
    def transform(self) -> MobiusTransform:
        return MobiusTransform(1, self.offset, 0, 1)

    def divisor(self):
        # -offset, not the Moebius form -b/a: dividing by 1+0j would flip
        # the sign of a zero imaginary part, which the manifest prints
        return [-self.offset], [], []


@dataclass(frozen=True)
class PowerSeries(MapExpr):
    """Polynomial z -> sum coeffs[n] z^n evaluated by Horner's rule."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            raise ConstructionError("power series needs at least one coefficient")
        object.__setattr__(self, "coeffs", cs)

    def _jet(self, z):
        val = np.zeros_like(z)
        der = np.zeros_like(z)
        for c in reversed(self.coeffs):
            der = der * z + val
            val = val * z + c
        return val, der, _finite(z)

    def divisor(self):
        if not any(self.coeffs):
            raise StructureError("the zero map has no divisor")
        # np.roots drops the vanishing top coefficients itself
        roots = np.roots(np.asarray(self.coeffs[::-1], dtype=complex))
        return [complex(z) for z in roots], [], []


@dataclass(frozen=True)
class MobiusMap(MapExpr):
    transform: MobiusTransform
    domain: object = None
    codomain: object = None

    def _jet(self, z):
        t = self.transform
        num = t.a * z + t.b
        den = t.c * z + t.d
        pole = den == 0
        den[pole] = 1.0
        value, derivative = num / den, t.determinant / (den * den)
        # at a pole the chart (cz+d)/(az+b) takes over
        value[pole] = 0.0
        derivative[pole] = -t.determinant / (num[pole] * num[pole])
        return value, derivative, pole

    def divisor(self):
        t = self.transform
        zeros = [-t.b / t.a] if t.a != 0 else []
        poles = [-t.d / t.c] if t.c != 0 else []
        return zeros, poles, []

    def _jet_at_pole(self, chart_derivative):
        # jet of T(g(z)) where g(z) = infinity and 1/g has the given derivative
        t = self.transform
        pole = np.full(chart_derivative.shape, t.c == 0)
        if t.c != 0:
            value = np.full_like(chart_derivative, t.a / t.c)
            return value, -t.determinant / (t.c * t.c) * chart_derivative, pole
        return np.zeros_like(chart_derivative), t.d / t.a * chart_derivative, pole


@dataclass(frozen=True)
class Koebe(MapExpr):
    """z / (1 - z)^2, the map of the slit plane; derivative (1+z)/(1-z)^3."""

    domain = MetricId.HYPERBOLIC_DISC
    codomain = MetricId.EUCLIDEAN

    def _jet(self, z):
        # z = 1 is a pole; its chart (1-z)^2 / z has a double zero there
        pole = z == 1.0
        w = 1.0 - z
        w[pole] = 1.0
        w2 = w * w
        value, derivative = z / w2, (1.0 + z) / (w2 * w)
        value[pole] = derivative[pole] = 0.0
        return value, derivative, pole

    def divisor(self):
        return [0j], [1.0 + 0j, 1.0 + 0j], []


@dataclass(frozen=True)
class ExpMap(MapExpr):
    def _jet(self, z):
        # where e^z overflows, 1/f = e^{-z} with derivative -e^{-z}
        pole = z.real > _LOG_MAX
        w = np.exp(np.where(pole, -z, z))
        return np.where(pole, 0.0, w), np.where(pole, -w, w), pole

    def divisor(self):
        return [], [], [INFINITY]


@dataclass(frozen=True)
class LogMap(MapExpr):
    """Principal branch of the logarithm; needed by covering-map scenarios."""

    def _jet(self, z):
        if np.any(z == 0):
            raise EvaluationError("log is singular at 0")
        return np.log(z), 1.0 / z, _finite(z)


def _combined_product_jet(vals: np.ndarray, ders: np.ndarray):
    """Jets of finite products from per-factor jets, one product per row,
    robust near zeros."""
    rows = np.arange(len(vals))
    k = np.argmin(np.abs(vals), axis=1)
    small = np.abs(vals[rows, k]) < 1e-8
    if not small.any():
        prod = np.prod(vals, axis=1)
        return prod, prod * np.sum(ders / vals, axis=1)
    value, derivative = np.empty_like(vals[:, 0]), np.empty_like(vals[:, 0])
    value[~small], derivative[~small] = _combined_product_jet(vals[~small], ders[~small])
    # rows with a factor within 1e-8 of zero split it off, so that the
    # log-derivative sum stays tame; a second exact zero makes value and
    # derivative vanish
    rest_vals, rest_ders, k = vals[small], ders[small], k[small]
    i = np.arange(len(k))
    vk, dk = rest_vals[i, k], rest_ders[i, k]
    rest_vals[i, k], rest_ders[i, k] = 1.0, 0.0
    double = np.any(rest_vals == 0, axis=1)
    rest_vals[double] = 1.0
    rest = np.prod(rest_vals, axis=1)
    s = np.sum(rest_ders / rest_vals, axis=1)
    value[small] = np.where(double, 0.0, vk * rest)
    derivative[small] = np.where(double, 0.0, rest * (dk + vk * s))
    return value, derivative


def _product_jet(z, n, factor_jets):
    """Jets at the points z of a product of n factors; factor_jets(block)
    gives the factors' values and derivatives at a column of points, one
    row per point.  Rows go in blocks of at most _BLOCK elements."""
    if n == 0:
        return np.ones_like(z), np.zeros_like(z), _finite(z)
    value, derivative = np.empty_like(z), np.empty_like(z)
    step = max(1, _BLOCK // n)
    for lo in range(0, len(z), step):
        rows = slice(lo, lo + step)
        value[rows], derivative[rows] = _combined_product_jet(*factor_jets(z[rows, None]))
    return value, derivative, _finite(z)


def _check_factors(den, block, maybe, what):
    """Raise at the first point of the column block where a factor's
    denominator vanishes; only rows where maybe holds can have one."""
    if maybe.any():
        hit = np.any(den == 0, axis=1)
        if hit.any():
            raise EvaluationError(f"{what} singular at {complex(block[hit][0, 0])}")


@dataclass(frozen=True)
class BlaschkeDisc(MapExpr):
    """Finite Blaschke product on the disc.

    Factor for a zero a: (|a|/a) (a - z)/(1 - conj(a) z), the normaliser
    being skipped when a = 0 (that factor is plain -z).  An empty product
    is the constant 1.
    """

    zeros: tuple

    domain = MetricId.HYPERBOLIC_DISC
    codomain = MetricId.HYPERBOLIC_DISC

    def __post_init__(self):
        zs = tuple(complex(a) for a in self.zeros)
        for a in zs:
            if _abs2(a) >= 1.0:
                raise ConstructionError(f"Blaschke zero {a} is not inside the disc")
        object.__setattr__(self, "zeros", zs)
        # quadrature evaluates these jets thousands of times, so the
        # per-factor constants are precomputed once (non-field attributes
        # stay out of equality and repr)
        a = np.asarray(zs, dtype=complex)
        norm = np.ones_like(a)
        nz = a != 0
        # the phase conj(a)/|a| is computed through arctan2 so its modulus
        # stays 1 to a ulp even for subnormal zeros, where a division-based
        # form loses precision or overflows outright
        norm[nz] = np.exp(-1j * np.arctan2(a[nz].imag, a[nz].real))
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_conj_a", np.conj(a))
        object.__setattr__(self, "_norm", norm)
        object.__setattr__(self, "_norm_sq_drop", norm * (np.abs(a) ** 2 - 1.0))

    def _factor_jets(self, z):
        den = 1.0 - self._conj_a * z
        # the singular points 1/conj(a) lie outside the unit disc
        _check_factors(den, z, np.abs(z) > 1.0, "Blaschke factor")
        vals = self._norm * (self._a - z) / den
        ders = self._norm_sq_drop / (den * den)
        return vals, ders

    def _jet(self, z):
        return _product_jet(z, len(self._a), self._factor_jets)

    def divisor(self):
        # a factor with a != 0 has its pole at the reflection 1/conj(a)
        poles = [1.0 / a.conjugate() for a in self.zeros if a != 0]
        return list(self.zeros), poles, []


@dataclass(frozen=True)
class BlaschkeHalfPlane(MapExpr):
    """Blaschke-type product for the upper half-plane with zeros i*y_n:

        B(z) = prod s_n (i y_n - z)/(i y_n + z),  s_n in {+1, -1}.

    The signs make doubly infinite height families (e.g. 2^n for n < 0)
    converge after truncation; they default to +1.
    """

    heights: tuple
    signs: tuple = None

    domain = MetricId.HYPERBOLIC_HALF_PLANE
    codomain = MetricId.HYPERBOLIC_DISC

    def __post_init__(self):
        ys = tuple(float(y) for y in self.heights)
        if not ys:
            raise ConstructionError("need at least one height")
        if any(y <= 0 for y in ys):
            raise ConstructionError("heights must be positive reals")
        signs = self.signs
        if signs is None:
            signs = (1.0,) * len(ys)
        else:
            signs = tuple(float(s) for s in signs)
            if len(signs) != len(ys):
                raise ConstructionError("signs and heights must have equal length")
            if any(s not in (1.0, -1.0) for s in signs):
                raise ConstructionError("signs must be +1 or -1")
        object.__setattr__(self, "heights", ys)
        object.__setattr__(self, "signs", signs)
        # complex, so that products with them need no cast
        s = np.asarray(signs, dtype=complex)
        object.__setattr__(self, "_iy", 1j * np.asarray(ys, dtype=float))
        object.__setattr__(self, "_s", s)
        object.__setattr__(self, "_minus_2s", -2.0 * s)

    def _factor_jets(self, z):
        den = self._iy + z
        # the singular points -iy lie below the real axis
        _check_factors(den, z, z.imag < 0, "half-plane Blaschke factor")
        # in place, so that a long product allocates three arrays per block
        inv = np.reciprocal(den, out=den)
        vals = self._iy - z
        vals *= inv
        vals *= self._s
        # -2 s iy / den^2, grouped so that huge heights never overflow
        ders = self._iy * inv
        ders *= inv
        ders *= self._minus_2s
        return vals, ders

    def _jet(self, z):
        return _product_jet(z, len(self._iy), self._factor_jets)


@dataclass(frozen=True)
class Product(MapExpr):
    left: MapExpr
    right: MapExpr

    def __post_init__(self):
        object.__setattr__(self, "domain", _unify(self.left.domain, self.right.domain))
        both_disc = (
            self.left.codomain is MetricId.HYPERBOLIC_DISC
            and self.right.codomain is MetricId.HYPERBOLIC_DISC
        )
        object.__setattr__(
            self, "codomain", MetricId.HYPERBOLIC_DISC if both_disc else None
        )

    def _jet(self, z):
        return _jet_mul(self.left._jet(z), self.right._jet(z))

    def divisor(self):
        zl, pl, el = self.left.divisor()
        zr, pr, er = self.right.divisor()
        return zl + zr, pl + pr, el + er


@dataclass(frozen=True)
class Quotient(MapExpr):
    numerator: MapExpr
    denominator: MapExpr

    def __post_init__(self):
        object.__setattr__(
            self, "domain", _unify(self.numerator.domain, self.denominator.domain)
        )
        object.__setattr__(self, "codomain", MetricId.SPHERICAL)

    def _jet(self, z):
        return _jet_div(self.numerator._jet(z), self.denominator._jet(z))

    def divisor(self):
        zn, pn, en = self.numerator.divisor()
        zd, pd, ed = self.denominator.divisor()
        return zn + pd, pn + zd, en + ed


@dataclass(frozen=True)
class Compose(MapExpr):
    """outer after inner: z -> outer(inner(z))."""

    outer: MapExpr
    inner: MapExpr

    def __post_init__(self):
        ic, od = self.inner.codomain, self.outer.domain
        if ic is not None and od is not None and ic is not od:
            raise TagMismatchError(od, ic)
        object.__setattr__(
            self,
            "domain",
            self.inner.domain if self.inner.domain is not None else self.outer.domain,
        )
        object.__setattr__(self, "codomain", self.outer.codomain)

    def _jet(self, z):
        iv, idr, ip = self.inner._jet(z)
        through = ip.any()
        if through and not isinstance(self.outer, MobiusMap):
            raise EvaluationError(
                "composition through infinity needs a Moebius outer map"
            )
        ov, od, op = self.outer._jet(iv)
        # chain rule holds in either chart of the outer jet
        with np.errstate(over="ignore", invalid="ignore"):
            chained = od * idr
        lost = ~np.isfinite(chained)
        if lost.any():
            # the chained derivative overflowed: where |f| > 1 the point goes
            # to the 1/f chart, whose derivative -f'/f^2 is representable
            lost &= np.abs(ov) > 1.0
            big = np.where(lost, ov, 1.0)
            chained = np.where(lost, -(od / big) / big * idr, chained)
            ov, op = np.where(lost, 0.0, ov), op | lost
        od = chained
        if through:
            pv, pd, pp = self.outer._jet_at_pole(idr)
            ov, od, op = np.where(ip, pv, ov), np.where(ip, pd, od), np.where(ip, pp, op)
        return ov, od, op

    def divisor(self):
        """The outer divisor pulled back through a Moebius inner map t.

        t sends -d/c to infinity, so the outer map's order at infinity,
        finite zeros minus finite poles unless it is essential there,
        lands at -d/c; outer points at t(infinity) pull back to infinity.
        """
        t = getattr(self.inner, "transform", None)
        if t is None:
            raise StructureError(
                "zeros and poles can only be pulled back through a Moebius inner map"
            )
        zeros, poles, essential = self.outer.divisor()
        back = mobius_inverse(t)

        def pull(points):
            return [w for w in (mobius_apply(back, p) for p in points) if not is_infinite(w)]

        order = len(zeros) - len(poles)
        zeros, poles = pull(zeros), pull(poles)
        if t.c != 0 and INFINITY not in essential:
            star = -t.d / t.c
            zeros += [star] * -order
            poles += [star] * order
        return zeros, poles, [mobius_apply(back, p) for p in essential]


_CAYLEY = cayley()


def cayley_map() -> MobiusMap:
    """The isometry half-plane -> disc, z -> (z - i)/(z + i), as a map node."""
    return MobiusMap(
        _CAYLEY,
        domain=MetricId.HYPERBOLIC_HALF_PLANE,
        codomain=MetricId.HYPERBOLIC_DISC,
    )


def inv_cayley_map() -> MobiusMap:
    """The isometry disc -> half-plane, z -> i (1 + z)/(1 - z)."""
    return MobiusMap(
        mobius_inverse(_CAYLEY),
        domain=MetricId.HYPERBOLIC_DISC,
        codomain=MetricId.HYPERBOLIC_HALF_PLANE,
    )


def symmetry_check(f: MapExpr, samples=64) -> float:
    """Max deviation of f(-conj(z)) from conj(f(z)) over half-plane points.

    samples: an iterable of points, or a count drawn from a fixed grid.
    """
    if isinstance(samples, int):
        xs = np.linspace(-3.0, 3.0, 8)
        ys = np.geomspace(0.05, 20.0, max(1, (samples + 7) // 8))
        pts = [complex(x, y) for y in ys for x in xs][:samples]
    else:
        pts = [complex(z) for z in samples]
    z = np.array(pts, dtype=complex)
    left, _, left_pole = evaluate(f, -z.conj())
    right, _, right_pole = evaluate(f, z)
    if np.any(left_pole != right_pole):
        return float("inf")
    gap = np.abs(left - right.conj())[~left_pole]
    return float(np.max(gap, initial=0.0))
