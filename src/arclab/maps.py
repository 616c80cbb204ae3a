"""Analytic map expressions with exact derivative propagation.

A map is a small expression tree.  Evaluation returns a jet (value,
derivative) computed structurally, never by numerical differencing.
Values live on the Riemann sphere: at a pole the jet switches to the
chart w -> 1/w and stores the derivative of 1/f there, which is the
right object for spherical geometry.

Trees carry optional domain/codomain tags (MetricId) used to sanity-check
compositions.  Untagged nodes (scale, shift, exp, power series...) are
polymorphic and adopt the tag demanded by context.
"""

from __future__ import annotations

import cmath
import warnings
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

_DISC_CLOSURE_SLACK = 2e-9
_HALF_PLANE_SLACK = 1e-12


@dataclass(frozen=True)
class Jet:
    """First-order jet of a map at a point.

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


def _jet_mul(p: Jet, q: Jet) -> Jet:
    if not p.is_pole and not q.is_pole:
        return Jet(p.value * q.value, p.derivative * q.value + p.value * q.derivative)
    if p.is_pole and q.is_pole:
        # chart of 1/(lr) = (1/l)(1/r): double zero, derivative 0
        return Jet(INFINITY, 0.0j)
    pole, fin = (p, q) if p.is_pole else (q, p)
    if fin.value == 0:
        raise IndeterminateFormError("product of a pole and a zero")
    # chart 1/(lr) = (1/l)/r
    return Jet(INFINITY, pole.derivative / fin.value)


def _jet_div(p: Jet, q: Jet) -> Jet:
    if p.is_pole and q.is_pole:
        raise IndeterminateFormError("quotient of two poles")
    if p.is_pole:
        # l/r has a pole; its chart r * (1/l) vanishes there
        return Jet(INFINITY, q.value * p.derivative)
    if q.is_pole:
        # l * (1/r): finite, with value 0
        return Jet(0.0j, p.value * q.derivative)
    if q.value == 0:
        if p.value == 0:
            raise IndeterminateFormError("structural 0/0")
        # chart r/l of the resulting pole
        return Jet(INFINITY, q.derivative / p.value)
    v = p.value / q.value
    return Jet(v, (p.derivative - v * q.derivative) / q.value)


def _unify(first, second):
    if first is not None and second is not None and first is not second:
        raise TagMismatchError(first, second)
    return first if first is not None else second


class MapExpr:
    """Base class for map expression nodes."""

    domain = None
    codomain = None

    def _jet(self, z: complex) -> Jet:
        raise NotImplementedError

    def divisor(self):
        """(zeros, poles, essential): the zeros and poles of the map in the
        finite plane, listed with multiplicity, and the sphere points
        (INFINITY allowed) where the map is not meromorphic.  Nodes
        without a closed-form divisor raise StructureError."""
        raise StructureError(
            f"cannot extract zeros and poles from a {type(self).__name__} node"
        )


def evaluate(f: MapExpr, z) -> Jet:
    """Evaluate the jet of f at a finite point z.

    The point must lie in the closure of f's tagged domain (boundary
    sampling is a legitimate use); untagged maps accept any finite z.
    """
    z = complex(z)
    dom = f.domain
    if dom is MetricId.HYPERBOLIC_DISC:
        if _abs2(z) > 1.0 + _DISC_CLOSURE_SLACK:
            raise DomainError(f"{z} is outside the closed unit disc")
    elif dom is MetricId.HYPERBOLIC_HALF_PLANE:
        if z.imag < -_HALF_PLANE_SLACK:
            raise DomainError(f"{z} is outside the closed upper half-plane")
    return f._jet(z)


@dataclass(frozen=True)
class Identity(MapExpr):
    transform = MobiusTransform(1, 0, 0, 1)

    def _jet(self, z):
        return Jet(z, 1.0)

    def divisor(self):
        return [0j], [], []


@dataclass(frozen=True)
class ConstMap(MapExpr):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))

    def _jet(self, z):
        return Jet(self.value, 0.0)

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
        return Jet(self.factor * z, self.factor)

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
        return Jet(z + self.offset, 1.0)

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
        val = 0.0j
        der = 0.0j
        for c in reversed(self.coeffs):
            der = der * z + val
            val = val * z + c
        return Jet(val, der)

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
        den = t.c * z + t.d
        det = t.determinant
        if den == 0:
            # pole: chart (cz+d)/(az+b)
            num = t.a * z + t.b
            return Jet(INFINITY, -det / (num * num))
        return Jet((t.a * z + t.b) / den, det / (den * den))

    def divisor(self):
        t = self.transform
        zeros = [-t.b / t.a] if t.a != 0 else []
        poles = [-t.d / t.c] if t.c != 0 else []
        return zeros, poles, []

    def _jet_at_pole(self, chart_derivative: complex) -> Jet:
        # jet of T(g(z)) where g(z) = infinity and 1/g has the given derivative
        t = self.transform
        if t.c != 0:
            return Jet(t.a / t.c, -t.determinant / (t.c * t.c) * chart_derivative)
        return Jet(INFINITY, t.d / t.a * chart_derivative)


@dataclass(frozen=True)
class Koebe(MapExpr):
    """z / (1 - z)^2, the map of the slit plane; derivative (1+z)/(1-z)^3."""

    domain = MetricId.HYPERBOLIC_DISC
    codomain = MetricId.EUCLIDEAN

    def _jet(self, z):
        if z == 1.0:
            # chart (1-z)^2 / z has a double zero here
            return Jet(INFINITY, 0.0)
        w = 1.0 - z
        return Jet(z / (w * w), (1.0 + z) / (w * w * w))

    def divisor(self):
        return [0j], [1.0 + 0j, 1.0 + 0j], []


@dataclass(frozen=True)
class ExpMap(MapExpr):
    def _jet(self, z):
        try:
            w = cmath.exp(z)
        except OverflowError:
            raise EvaluationError(f"exp overflow at {z}") from None
        return Jet(w, w)

    def divisor(self):
        return [], [], [INFINITY]


@dataclass(frozen=True)
class LogMap(MapExpr):
    """Principal branch of the logarithm; needed by covering-map scenarios."""

    def _jet(self, z):
        if z == 0:
            raise EvaluationError("log is singular at 0")
        return Jet(cmath.log(z), 1.0 / z)


def _combined_product_jet(vals: np.ndarray, ders: np.ndarray) -> Jet:
    """Jet of a finite product from per-factor jets, robust near zeros."""
    zero = np.flatnonzero(vals == 0)
    if zero.size >= 2:
        return Jet(0.0j, 0.0j)
    if zero.size == 1:
        k = zero[0]
        rest = complex(np.prod(np.delete(vals, k)))
        return Jet(0.0j, complex(ders[k]) * rest)
    k = int(np.argmin(np.abs(vals)))
    if abs(vals[k]) < 1e-8:
        # split off the small factor so the log-derivative sum stays tame
        rest_vals = np.delete(vals, k)
        rest = complex(np.prod(rest_vals))
        s = complex(np.sum(np.delete(ders, k) / rest_vals))
        vk, dk = complex(vals[k]), complex(ders[k])
        return Jet(vk * rest, rest * (dk + vk * s))
    prod = complex(np.prod(vals))
    return Jet(prod, prod * complex(np.sum(ders / vals)))


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
        if np.any(den == 0):
            raise EvaluationError(f"Blaschke factor singular at {z}")
        vals = self._norm * (self._a - z) / den
        ders = self._norm_sq_drop / (den * den)
        return vals, ders

    def _jet(self, z):
        if not self.zeros:
            return Jet(1.0, 0.0)
        return _combined_product_jet(*self._factor_jets(z))

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
        iy = 1j * np.asarray(ys, dtype=float)
        s = np.asarray(signs, dtype=float)
        object.__setattr__(self, "_iy", iy)
        object.__setattr__(self, "_s", s)
        object.__setattr__(self, "_minus_2iy_s", -2.0 * iy * s)

    def _jet(self, z):
        den = self._iy + z
        if np.any(den == 0):
            raise EvaluationError(f"half-plane Blaschke factor singular at {z}")
        vals = self._s * (self._iy - z) / den
        ders = self._minus_2iy_s / (den * den)
        return _combined_product_jet(vals, ders)


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
        inner = self.inner._jet(z)
        if inner.is_pole:
            if isinstance(self.outer, MobiusMap):
                return self.outer._jet_at_pole(inner.derivative)
            raise EvaluationError(
                "composition through infinity needs a Moebius outer map"
            )
        outer = self.outer._jet(inner.value)
        # chain rule holds in either chart of the outer jet
        return Jet(outer.value, outer.derivative * inner.derivative)

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


def boundary_modulus_check(b: MapExpr, samples: int = 256) -> float:
    """Max deviation of |b| from 1 over uniform samples of the unit circle."""
    if not isinstance(b, BlaschkeDisc):
        raise StructureError("boundary modulus check applies to disc Blaschke products")
    if samples < 1:
        raise ValueError("need at least one sample")
    worst = 0.0
    for j in range(samples):
        zeta = cmath.exp(2j * cmath.pi * j / samples)
        worst = max(worst, abs(abs(evaluate(b, zeta).value) - 1.0))
    return worst


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
    worst = 0.0
    for z in pts:
        left = evaluate(f, -z.conjugate())
        right = evaluate(f, z)
        if left.is_pole and right.is_pole:
            continue
        if left.is_pole or right.is_pole:
            return float("inf")
        worst = max(worst, abs(left.value - right.value.conjugate()))
    return worst


def _height_chunk(rule, start, stop):
    # prefer a vectorised rule; fall back to scalar calls
    n = np.arange(start, stop, dtype=float)
    with np.errstate(over="ignore"):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ys = np.asarray(rule(n), dtype=float)
            if ys.shape != n.shape:
                raise TypeError
        except Exception:
            ys = np.array([float(rule(int(k))) for k in range(start, stop)])
    if np.any(ys <= 0):
        raise ConstructionError("heights must be positive reals")
    return ys


def truncate_blaschke(heights, n_terms: int, radius: float):
    """Truncate a half-plane Blaschke product to its first n_terms factors.

    heights is a finite sequence or a callable n -> y_n (n = 1, 2, ...).
    Returns (product, tail_bound) where tail_bound = sum_{n > N} 2 R / y_n
    bounds |1 - factor| summed over the dropped factors on {|z| <= R} in
    the closed half-plane; R must not exceed y_{N+1} / 2.

    Raises ConstructionError when the partial sums of 1/y_n look divergent
    (heuristic over the first 10^4 terms of a callable rule).
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")

    if callable(heights):
        ys = _height_chunk(heights, 1, n_terms + 1)
        probe = _height_chunk(heights, 1, 10_001)
        head = np.sum(1.0 / probe[:1000])
        tail = np.sum(1.0 / probe[1000:])
        if tail >= 0.25 * head:
            raise ConstructionError(
                "sum of 1/y_n is not converging over the first 10^4 terms"
            )
        y_next = _height_chunk(heights, n_terms + 1, n_terms + 2)[0]
        if radius > y_next / 2.0:
            raise ConstructionError(
                f"radius {radius} exceeds y_(N+1)/2 = {y_next / 2.0}; bound not certified"
            )
        total = 0.0
        chunk = 100_000
        start = n_terms + 1
        for _ in range(20):
            ys_c = _height_chunk(heights, start, start + chunk)
            part = float(np.sum(2.0 * radius / ys_c))
            total += part
            start += chunk
            if part < 1e-10 * max(total, 1e-300):
                break
        return BlaschkeHalfPlane(tuple(ys)), total

    ys_all = [float(y) for y in heights]
    if any(y <= 0 for y in ys_all):
        raise ConstructionError("heights must be positive reals")
    if n_terms >= len(ys_all):
        return BlaschkeHalfPlane(tuple(ys_all)), 0.0
    kept, dropped = ys_all[:n_terms], ys_all[n_terms:]
    if radius > dropped[0] / 2.0:
        raise ConstructionError(
            f"radius {radius} exceeds y_(N+1)/2 = {dropped[0] / 2.0}; bound not certified"
        )
    return BlaschkeHalfPlane(tuple(kept)), float(np.sum(2.0 * radius / np.asarray(dropped)))
