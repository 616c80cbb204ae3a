"""Analytic map expressions with exact derivative propagation.

A map is a small expression tree.  Evaluation returns a jet (value,
derivative) computed structurally, never by numerical differencing, at a
whole array of points at once.  Values live on the Riemann sphere: at a
pole the jet switches to the chart w -> 1/w and stores the derivative of
1/f there, which is the right object for spherical geometry.

Each node's _jet(z, order) returns three arrays as long as the 1-d points
z: value, derivative (None at order 0) and a pole mask.  Where the mask
is set the value is 0 and the derivative is that of 1/f.

A product or quotient whose operands are compositions with one outer map,
the same object or an equal one (B(z+1)/B(z-1) for a long Blaschke
product B), evaluates that outer map once, at the inner values of both
operands together, and applies the chain rule to each half.  Its jets are
bitwise those of two separate evaluations, and so are its errors.

Trees carry optional domain/codomain tags (MetricId) used to sanity-check
compositions.  Untagged nodes (scale, shift, exp, power series...) are
polymorphic and adopt the tag demanded by context.
"""

from __future__ import annotations

import math
import pickle
import sys
from dataclasses import dataclass, fields

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
# error of the truncated far-field series of a half-plane product's log
_FAR_TOL = 2.0**-56


@dataclass(frozen=True)
class Jet:
    """First-order jet of a map at one point, as scalar evaluate returns it.

    value is a finite complex number or INFINITY.  derivative is the
    derivative of the finite-chart representative; when value is INFINITY
    it is the derivative of 1/f instead.  It is None at order 0.
    """

    value: object
    derivative: complex

    def __post_init__(self):
        if not is_infinite(self.value):
            object.__setattr__(self, "value", complex(self.value))
        if self.derivative is not None:
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
        return pv * qv, None if pd is None else pd * qv + pv * qd, pole
    one = pp ^ qp
    fin = np.where(pp, qv, pv)  # the finite factor where exactly one is a pole
    if np.any(one & (fin == 0)):
        raise IndeterminateFormError("product of a pole and a zero")
    if pd is not None:
        # chart 1/(lr) = (1/l)/r at one pole; (1/l)(1/r) has a double zero at two
        chart = np.where(pp, pd, qd) / np.where(one, fin, 1.0)
        pd = np.where(one, chart, np.where(pole, 0.0, pd * qv + pv * qd))
    return np.where(pole, 0.0, pv * qv), pd, pole


def _jet_div(p, q):
    (pv, pd, pp), (qv, qd, qp) = p, q
    zero = (qv == 0) & ~pp & ~qp
    special = pp | qp | zero
    if not special.any():
        v = pv / qv
        return v, None if pd is None else (pd - v * qd) / qv, special
    if np.any(pp & qp):
        raise IndeterminateFormError("quotient of two poles")
    if np.any(zero & (pv == 0)):
        raise IndeterminateFormError("structural 0/0")
    safe = np.where(special, 1.0, qv)
    v = np.where(special, 0.0, pv / safe)
    if pd is not None:
        # at a pole of l the chart r * (1/l) vanishes; at a pole of r, l * (1/r)
        # is finite with value 0; at a zero of r the chart r/l of the new pole
        pd = np.select(
            [pp, qp, zero],
            [qv * pd, pv * qd, qd / np.where(zero, pv, 1.0)],
            (pd - v * qd) / safe,
        )
    return v, pd, pp | zero


def _unify(first, second):
    if first is not None and second is not None and first is not second:
        raise TagMismatchError(first, second)
    return first if first is not None else second


class MapExpr:
    """Base class for map expression nodes."""

    domain = None
    codomain = None

    def _jet(self, z: np.ndarray, order=1):
        raise NotImplementedError

    @property
    def _at_infinity(self):
        """(value, factor, pole) at w = infinity of an outer map of Compose:
        the value there, 0 at a pole, and the factor from the derivative of
        1/w to that of the map, or of its 1/f chart at a pole; None where
        the map has no Moebius transform."""
        t = getattr(self, "transform", None)
        if t is None:
            return None
        if t.c == 0:
            return 0.0, t.d / t.a, True
        return t.a / t.c, -t.determinant / (t.c * t.c), False

    def divisor(self):
        """(zeros, poles, essential): the zeros and poles of the map in the
        finite plane, listed with multiplicity, and the sphere points
        (INFINITY allowed) where the map is not meromorphic.  Nodes
        without a closed-form divisor raise StructureError."""
        raise StructureError(
            f"cannot extract zeros and poles from a {type(self).__name__} node"
        )

    def polar_divisor(self):
        """(poles, essential, degree): the poles and essential points of
        divisor() and its number of zeros and poles, for callers that need
        no zero locations; a node whose zeros cost more than the rest gives
        these directly."""
        zeros, poles, essential = self.divisor()
        return poles, essential, len(zeros) + len(poles)


def _cancelled(zeros, poles):
    """(zeros, poles) less one zero for each pole equal to it: divisor()
    does not reduce a quotient, and a pole that a zero cancels is
    removable.  Equal means equal as complex numbers, with no tolerance,
    so a pole a rounding error away from a zero stays a pole."""
    zeros, kept = list(zeros), []
    for p in poles:
        if p in zeros:
            zeros.remove(p)
        else:
            kept.append(p)
    return zeros, kept


def _check_domain(dom: MetricId, flat):
    """Raise DomainError at the first of the 1-d points flat outside the
    closure of the tagged domain dom; an untagged domain takes any point."""
    if dom is MetricId.HYPERBOLIC_DISC:
        bad, where = np.abs(flat) > _DISC_RADIUS, "closed unit disc"
    elif dom is MetricId.HYPERBOLIC_HALF_PLANE:
        bad, where = flat.imag < -_HALF_PLANE_SLACK, "closed upper half-plane"
    else:
        return
    if bad.any():
        raise DomainError(f"{complex(flat[bad][0])} is outside the {where}")


def evaluate(f: MapExpr, z, order=1):
    """Evaluate the jet of f at a finite point z, or at an array of them.

    A scalar z gives a Jet.  An array gives the arrays (value, derivative,
    pole) of its shape; where pole is set, value is 0 and derivative is
    that of 1/f.  order=0 gives values alone, derivative None.  Points
    must lie in the closure of f's tagged domain (boundary sampling is a
    legitimate use); untagged maps accept any finite z.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    _check_domain(f.domain, flat)
    value, derivative, pole = f._jet(flat, order)
    if zs.ndim:
        if derivative is not None:
            derivative = derivative.reshape(zs.shape)
        return value.reshape(zs.shape), derivative, pole.reshape(zs.shape)
    return Jet(INFINITY if pole[0] else value[0], None if derivative is None else derivative[0])


@dataclass(frozen=True)
class Identity(MapExpr):
    transform = MobiusTransform(1, 0, 0, 1)

    def _jet(self, z, order=1):
        return z, np.ones_like(z) if order else None, _finite(z)

    def divisor(self):
        return [0j], [], []


@dataclass(frozen=True)
class ConstMap(MapExpr):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))

    def _jet(self, z, order=1):
        return np.full_like(z, self.value), np.zeros_like(z) if order else None, _finite(z)

    def divisor(self):
        if self.value == 0:
            raise StructureError("the zero map has no divisor")
        return [], [], []


@dataclass(frozen=True)
class Scale(MapExpr):
    factor: complex

    def __post_init__(self):
        object.__setattr__(self, "factor", complex(self.factor))

    def _jet(self, z, order=1):
        return self.factor * z, np.full_like(z, self.factor) if order else None, _finite(z)

    @property
    def transform(self):
        """z -> factor z as a MobiusTransform; None for a scale by 0."""
        if self.factor != 0:
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

    def _jet(self, z, order=1):
        return z + self.offset, np.ones_like(z) if order else None, _finite(z)

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

    def _jet(self, z, order=1):
        val = np.zeros_like(z)
        der = np.zeros_like(z) if order else None
        for c in reversed(self.coeffs):
            der = der * z + val if order else None
            val = val * z + c
        return val, der, _finite(z)

    @property
    def _at_infinity(self):
        # a pole of order n >= 1, whose 1/f chart has derivative 1/c_1 of
        # that of 1/w for n = 1 and 0 past it; the constant for n = 0
        n = max((n for n, c in enumerate(self.coeffs) if c), default=0)
        if n == 0:
            return self.coeffs[0], 0.0, False
        return 0.0, 1.0 / self.coeffs[1] if n == 1 else 0.0, True

    def divisor(self):
        if not any(self.coeffs):
            raise StructureError("the zero map has no divisor")
        # np.roots drops the vanishing top coefficients itself
        roots = np.roots(np.asarray(self.coeffs[::-1], dtype=complex))
        return [complex(z) for z in roots], [], []

    def polar_divisor(self):
        # no poles and as many zeros as the degree, without root finding:
        # the first np.roots call in a process pages in about 1 MB of LAPACK
        degree = max((n for n, c in enumerate(self.coeffs) if c), default=None)
        if degree is None:
            raise StructureError("the zero map has no divisor")
        return [], [], degree


@dataclass(frozen=True)
class MobiusMap(MapExpr):
    transform: MobiusTransform
    domain: object = None
    codomain: object = None

    def _jet(self, z, order=1):
        t = self.transform
        num = t.a * z + t.b
        den = t.c * z + t.d
        pole = den == 0
        den[pole] = 1.0
        value, derivative = num / den, t.determinant / (den * den) if order else None
        # at a pole the chart (cz+d)/(az+b) takes over
        value[pole] = 0.0
        if order:
            derivative[pole] = -t.determinant / (num[pole] * num[pole])
        return value, derivative, pole

    def divisor(self):
        t = self.transform
        zeros = [-t.b / t.a] if t.a != 0 else []
        poles = [-t.d / t.c] if t.c != 0 else []
        return zeros, poles, []


@dataclass(frozen=True)
class Koebe(MapExpr):
    """z / (1 - z)^2, the map of the slit plane; derivative (1+z)/(1-z)^3."""

    domain = MetricId.HYPERBOLIC_DISC
    codomain = MetricId.EUCLIDEAN

    def _jet(self, z, order=1):
        # z = 1 is a pole; its chart (1-z)^2 / z has a double zero there
        pole = z == 1.0
        w = 1.0 - z
        w[pole] = 1.0
        w2 = w * w
        value, derivative = z / w2, (1.0 + z) / (w2 * w) if order else None
        for part in (value, derivative)[: 1 + order]:
            part[pole] = 0.0
        return value, derivative, pole

    def divisor(self):
        return [0j], [1.0 + 0j, 1.0 + 0j], []


@dataclass(frozen=True)
class ExpMap(MapExpr):
    def _jet(self, z, order=1):
        # where e^z overflows, 1/f = e^{-z} with derivative -e^{-z}
        pole = z.real > _LOG_MAX
        w = np.exp(np.where(pole, -z, z))
        return np.where(pole, 0.0, w), np.where(pole, -w, w) if order else None, pole

    def divisor(self):
        return [], [], [INFINITY]


@dataclass(frozen=True)
class LogMap(MapExpr):
    """Principal branch of the logarithm; needed by covering-map scenarios."""

    def _jet(self, z, order=1):
        if np.any(z == 0):
            raise EvaluationError("log is singular at 0")
        return np.log(z), 1.0 / z if order else None, _finite(z)


def _tree(op, rows):
    """The 2-d arrays in the list rows, alike in shape, each reduced over
    its rows by a pairwise tree, which overwrites them: op(lower, upper)
    combines the lists of the lower and the upper slots' rows into a list
    of rows.  n rows are the first n of 2^L slots, the rest units; each
    level combines slot i with slot half + i for the first half of the
    slots in one call, and where units partner the rest it writes the
    combined rows over the first rows rather than concatenate them.  numpy
    reduces a complex axis in an order that depends on the length of the
    other axis, and rounds an in-place product of one element without the
    fused multiply-add of its array loops; the tree uses neither, so a point
    rounds alike alone and in any batch, and unit rows appended past the
    rows, which meet only units or leave their partners as they are, change
    no bit of the result.  Returns the reduced row of each array."""
    n = len(rows[0])
    while n > 1:
        half = 1 << (n - 1).bit_length() - 1
        k = n - half
        pairs = op([r[:k] for r in rows], [r[half:n] for r in rows])
        if k < half:
            for r, p in zip(rows, pairs):
                r[:k] = p
        else:
            rows = pairs
        n = half
    return [r[0] for r in rows]


def _product(lower, upper):
    """Values times values, for _tree."""
    return [lower[0] * upper[0]]


def _product_rule(lower, upper):
    """Jets (u, u') times jets (v, v'), for _tree: (1, 0) is the unit."""
    (u, du), (v, dv) = lower, upper
    return [u * v, du * v + u * dv]


def _factor_jet(vals, ders, unit):
    """Value and derivative of unit times the product of factor-major
    factors, values vals and derivatives ders, at each column, by the
    product rule on _tree: nothing divides by a factor's value, so a point
    at or near a zero, single or double, takes no branch of its own."""
    if ders is None:
        return unit * _tree(_product, [vals])[0], None
    value, derivative = _tree(_product_rule, [vals, ders])
    return unit * value, unit * derivative


def _put(jet, where, part):
    """Write the (value, derivative) part into the arrays jet at where."""
    for a, b in zip(jet, part if jet[1] is not None else part[:1]):
        a[where] = b


def _point_blocks(count, n):
    """Slices of count points in blocks of at most _BLOCK point-factor
    elements for n factors."""
    step = max(1, _BLOCK // n)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _product_jet(z, n, block_jet, order):
    """Jets at the points z of a product of n factors; block_jet(block,
    order) gives the value and derivative at a block of the points, each
    block of at most _BLOCK point-factor elements."""
    if n == 0:
        return np.ones_like(z), np.zeros_like(z) if order else None, _finite(z)
    parts = _point_blocks(len(z), n)
    if len(parts) == 1:
        return (*block_jet(z, order), _finite(z))
    jet = np.empty_like(z), np.empty_like(z) if order else None
    for part in parts:
        _put(jet, part, block_jet(z[part], order))
    return (*jet, _finite(z))


def _check_factors(den, z, what):
    """Raise at the first of the points z where a factor's denominator
    vanishes, den holding the factors' rows, the points along its last axis."""
    if not den.all():
        hit = ~den.reshape(-1, len(z)).all(axis=0)
        raise EvaluationError(f"{what} singular at {complex(z[hit][0])}")


@dataclass(frozen=True)
class BlaschkeDisc(MapExpr):
    """Finite Blaschke product on the disc.

    Factor for a zero a: (|a|/a) (a - z)/(1 - conj(a) z), the normaliser
    being skipped when a = 0 (that factor is plain -z).  An empty product
    is the constant 1.

    The factors are evaluated factor-major: one row per factor, the points
    along the contiguous last axis, and reduced over the factors by
    _factor_jet, so that a point rounds alike alone and in any batch.  The
    normalisers multiply into one unimodular constant.
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
        # columns, one row per factor, which broadcast against the points
        object.__setattr__(self, "_a", a[:, None])
        object.__setattr__(self, "_conj_a", np.conj(a)[:, None])
        # the derivative of (a - z)/(1 - conj(a) z) is this over den^2
        object.__setattr__(self, "_drop", (_abs2(a) - 1.0).astype(complex)[:, None])
        object.__setattr__(self, "_norm", norm)
        object.__setattr__(self, "_unit", complex(np.prod(norm)))

    def _block_jet(self, z, order):
        """Value and derivative at the 1-d points z of the factors
        (a - z)/(1 - conj(a) z), with derivatives (|a|^2 - 1)/(1 - conj(a) z)^2."""
        # a row, as the columns are 2-d: numpy rounds a product of one
        # element broadcast to a new axis without the fused multiply-add of
        # its array loops
        row = z[None]
        den = 1.0 - self._conj_a * row
        _check_factors(den, z, "Blaschke factor")
        inv = np.reciprocal(den, out=den)
        ders = self._drop * inv * inv if order else None
        return _factor_jet((self._a - row) * inv, ders, self._unit)

    def _jet(self, z, order=1):
        return _product_jet(z, len(self._a), self._block_jet, order)

    @property
    def transform(self):
        """A lone factor as the Moebius map it is, which Compose.divisor
        pulls back through; None for any other number of zeros."""
        if len(self.zeros) == 1:
            n, a = self._unit, self.zeros[0]
            return MobiusTransform(-n, n * a, -a.conjugate(), 1)

    def divisor(self):
        # a factor with a != 0 has its pole at the reflection 1/conj(a)
        poles = [1.0 / a.conjugate() for a in self.zeros if a != 0]
        return list(self.zeros), poles, []


def _far_terms(n):
    """Odd terms K of the far-field series of n factors: with |w| <= 1/2
    the dropped ones sum to at most 2n 2^-(2K+1) / ((2K+1) 3/4)."""
    k = 1
    while 2.0 * n * 2.0 ** -(2 * k + 1) / (0.75 * (2 * k + 1)) > _FAR_TOL:
        k += 1
    return k


def _mirror(y, level):
    """How many of the sorted heights y lie under 2^(level - 54): below
    2^-53 |z| at every point past the level, |z| > 2^(level - 1)."""
    return np.searchsorted(y, np.ldexp(1.0, np.subtract(level, 54)))


def _far_field(y, terms, top):
    """Far-field tables of a half-plane product with heights y sorted
    ascending, one per dyadic level 2^l, l = floor(log2 y_n), up to the
    level 2^top.

    Table j covers the far set of its level l, the factors with
    y_n >= 2^l, without their signs.  In w = -iz/2^l their log is
    -2 sum_{k odd} q_k w^k / k, with the power sums q_k = sum (2^l/y_n)^k.
    Returns the tables stacked, one entry per level:
    (reach, near, mirror, step, coef).  A point with |z| <= reach[j]
    = 2^(l-1) has |w| <= 1/2 and may use table j; np.searchsorted(reach,
    |z|) is the first table it may use, len(reach) past every table.  The
    near[j] factors below the level stay explicit, the first mirror[j] of
    them lie below 2^-53 |z|, step[j] = -i/2^l and the row coef[j] holds
    q_k, then -2 q_k / k, each from the highest k down."""
    mant, level = np.frexp(y)
    level -= 1
    starts = np.flatnonzero(np.diff(level, prepend=level[0] - 1))
    starts = starts[level[starts] <= top]
    lev = level[starts]
    # 2^l/y per factor against its own level, or against the top level
    # for the factors above it, which the top table sums as one block
    ratio = np.ldexp(0.5 / mant, np.minimum(top - level, 0))
    ratio_sq = ratio * ratio
    q = np.empty((len(lev), terms))
    for k in range(terms):  # term by term, so that the build needs O(n) memory
        q[:, k] = np.add.reduceat(ratio, starts)
        ratio *= ratio_sq
    odd = np.arange(1, 2 * terms, 2)
    # suffix sums: a level's far set is its own block plus the next level's
    # far set, rescaled by 2^(l - l') exactly
    for j in range(len(lev) - 2, -1, -1):
        q[j] += np.ldexp(q[j + 1], -odd * (lev[j + 1] - lev[j]))
    # a point that uses table j lies past the level of table j - 1
    mirror = np.concatenate(([0], _mirror(y, lev[:-1])))
    return (
        np.ldexp(1.0, lev - 1),
        starts,
        mirror,
        -1j * np.ldexp(1.0, -lev),
        np.hstack((-2.0 * q / odd, q))[:, ::-1],
    )


@dataclass(frozen=True)
class BlaschkeHalfPlane(MapExpr):
    """Blaschke-type product for the upper half-plane with zeros i*y_n:

        B(z) = prod s_n (i y_n - z)/(i y_n + z),  s_n in {+1, -1}.

    The signs make doubly infinite height families (e.g. 2^n for n < 0)
    converge after truncation; they default to +1.

    At a point z the factors with y_n >= 2^l, for the first dyadic level
    2^l >= 2|z| that holds a height, are far: their product, without the
    signs, is exp of one odd power series in w = -iz/2^l, |w| <= 1/2,
    truncated at an error below 2^-56 in the log (a multipole expansion,
    after Greengard and Rokhlin, J. Comput. Phys. 73, 1987).  The factors
    below stay explicit.  Where the far set has no more factors than the
    series' degree, every factor is explicit: the direct product.  The
    explicit factors go factor-major through _factor_jet, as BlaschkeDisc's
    do, and the signs multiply into one constant, prod s_n.

    Heights near 2^-1024 make |B'| pass the largest double near z = 0;
    there the jet raises EvaluationError.
    """

    heights: tuple
    signs: tuple = None

    domain = MetricId.HYPERBOLIC_HALF_PLANE
    codomain = MetricId.HYPERBOLIC_DISC

    def __post_init__(self):
        y = np.array(self.heights, dtype=float)
        if y.ndim != 1 or not len(y):
            raise ConstructionError("need a list of at least one height")
        if not np.all((y > 0) & np.isfinite(y)):
            raise ConstructionError("heights must be positive reals")
        s = np.ones_like(y) if self.signs is None else np.array(self.signs, dtype=float)
        if s.shape != y.shape:
            raise ConstructionError("signs and heights must have equal length")
        if not np.all(np.abs(s) == 1.0):
            raise ConstructionError("signs must be +1 or -1")
        # tuples of floats, which equality and _shared_outer's pickles compare
        object.__setattr__(self, "heights", tuple(y.tolist()))
        object.__setattr__(self, "signs", tuple(s.tolist()))
        # sorted by height, so that the factors below a level are a prefix
        y = np.sort(y)
        object.__setattr__(self, "_y", y)
        # complex columns, one row per factor, which broadcast against the
        # points with no cast; the factors are formed from iy/2 and z/2, so
        # that iy + z and its reciprocal stay finite up to the largest double
        object.__setattr__(self, "_half_iy", 0.5j * y[:, None])
        object.__setattr__(self, "_minus_half_iy", -self._half_iy)
        object.__setattr__(self, "_unit", complex(np.prod(s)))
        # the top level with a table is that of the height with 2K - 1
        # heights above it: its far set outnumbers the series' degree
        terms = _far_terms(len(y))
        rank = len(y) - 2 * terms
        top = math.frexp(y[rank])[1] - 1 if rank >= 0 else None
        object.__setattr__(self, "_far_terms", terms)
        object.__setattr__(self, "_top", top)
        object.__setattr__(self, "_reach", -1.0 if top is None else math.ldexp(1.0, top - 1))
        object.__setattr__(self, "_tables", None)
        # past the top level every factor is near
        mirror = 0 if top is None else int(_mirror(y, top))
        object.__setattr__(self, "_direct", (len(y), np.array([mirror])))

    def _factor_values(self, z, m, mirror, order):
        """The first m factors (iy - z)/(iy + z) at the 1-d points z,
        without their signs, factor-major: values (iy/2 - z/2)/den and
        derivatives lead/den, den = iy/2 + z/2, lead = -(iy/2)/den.  At each
        point the first mirror of them lie below 2^-53 |z|, mirror being a
        row of counts, ascending, or one count for all."""
        row = z[None]
        half_z = 0.5 * row
        den = self._half_iy[:m] + half_z
        _check_factors(den, z, "half-plane Blaschke factor")
        inv = np.reciprocal(den, out=den)
        vals = (self._half_iy[:m] - half_z) * inv
        lead = self._minus_half_iy[:m] * inv
        top = int(mirror[-1])
        if top:
            # those heights lie below 2^-53 |z|, where (iy - z)/den repeats
            # one rounding error factor after factor, while 2 iy/den - 1 is
            # -1 to within |2 iy/den|
            mirrored = np.arange(top)[:, None] < mirror
            np.copyto(vals[:top], -2.0 * lead[:top] - 1.0, where=mirrored)
        return vals, lead * inv if order else None

    @staticmethod
    def _checked(jet, z, *args):
        """jet(z, *args), raising EvaluationError where the derivative
        passes the largest double."""
        # heights near 2^-1024 overflow |B'| near z = 0: formed without
        # warnings, then checked
        with np.errstate(over="ignore", invalid="ignore"):
            value, derivative = jet(z, *args)
        bad = ~(np.isfinite(value) & np.isfinite(value if derivative is None else derivative))
        if bad.any():
            raise EvaluationError(
                f"half-plane Blaschke derivative overflows at {complex(z[bad][0])}"
            )
        return value, derivative

    def _direct_jet(self, z, order):
        """Jets at the points z past the top level, every factor explicit."""
        return _product_jet(z, self._direct[0], self._direct_block, order)[:2]

    def _direct_block(self, z, order):
        return _factor_jet(*self._factor_values(z, *self._direct, order), self._unit)

    def _far_jet(self, z, level, order):
        """Jets at the points z below the top level: at each point the
        factors below the level of its far-field table, level[i],
        explicitly, times that table's series for the rest.  The points go
        in order of level, in blocks of at most _BLOCK factors; a block
        forms the near sets up to its largest, with unit factors (value 1,
        derivative 0) past a point's own, which leave every bit of the
        point's own product as _tree forms it alone."""
        _, near, mirror, step, coef = self._tables
        perm = np.argsort(level, kind="stable")
        z, level = z[perm], level[perm]
        n, p = near[level], mirror[level]
        jet = value, derivative = np.empty_like(z), np.empty_like(z) if order else None
        lo = 0
        while lo < len(z):
            # n ascends, so a block takes points while points * n stays in _BLOCK
            k = len(z) - lo
            if k * n[-1] > _BLOCK:
                sizes = np.arange(1, k + 1) * n[lo:]
                k = max(1, int(np.searchsorted(sizes, _BLOCK, side="right")))
            part, m = slice(lo, lo + k), int(n[lo + k - 1])
            lo += k
            if not m:
                _put(jet, part, (self._unit, 0.0))
                continue
            vals, ders = self._factor_values(z[part], m, p[part], order)
            if n[part.start] < m:
                # a point's factors past its near set are units
                unit = np.arange(m)[:, None] >= n[part]
                np.copyto(vals, 1.0, where=unit)
                if order:
                    np.copyto(ders, 0.0, where=unit)
            _put(jet, part, _factor_jet(vals, ders, self._unit))
        # the far sets' series, each at its point's level: w^0, w^2, ... row
        # by row, from w^0 since w^1 / w would be 0/0 at z = 0, and summed
        # smallest terms first, the order that rounds the sums best
        terms = coef.shape[1] // 2
        s = step[level]
        w = z * s
        square = (w * w)[:, None]
        sums = np.empty((2, len(z)), dtype=complex)
        rows = max(1, _BLOCK // terms)
        for lo in range(0, len(z), rows):
            part = slice(lo, lo + rows)
            powers = np.empty((len(square[part]), terms), dtype=complex)
            powers[:, 0] = 1.0
            powers[:, 1:] = square[part]
            np.cumprod(powers, axis=1, out=powers)
            np.einsum(
                "nk,ntk->tn",
                powers[:, ::-1],
                coef[level[part]].reshape(len(powers), 2, terms),
                out=sums[:, part],
            )
        dlog, log = sums
        far = np.exp(w * log)
        if order:
            derivative = (derivative + value * (dlog * (-2.0 * s))) * far
        _put(jet, perm, (value * far, derivative))
        return jet

    def divisor(self):
        return [1j * y for y in self.heights], [-1j * y for y in self.heights], []

    def _jet(self, z, order=1):
        az = np.abs(z)
        if az.min(initial=math.inf) > self._reach:
            return (*self._checked(self._direct_jet, z, order), _finite(z))
        if self._tables is None:
            # built for the first batch that reaches them, so that a product
            # only evaluated above its top level never pays for them
            tables = _far_field(self._y, self._far_terms, self._top)
            object.__setattr__(self, "_tables", tables)
        level = np.searchsorted(self._tables[0], az)
        past = level == len(self._tables[0])
        jet = np.empty_like(z), np.empty_like(z) if order else None
        below = ~past
        _put(jet, below, self._checked(self._far_jet, z[below], level[below], order))
        if past.any():
            _put(jet, past, self._checked(self._direct_jet, z[past], order))
        return (*jet, _finite(z))


def _shared_outer(left, right):
    """Whether the operands of a binary node are compositions with one
    outer map: the same object, or an equal one.  == takes -0.0 for 0.0,
    which a jet keeps apart, so equal fields must also pickle alike."""
    if not (isinstance(left, Compose) and isinstance(right, Compose)):
        return False
    a, b = left.outer, right.outer
    if a is b:
        return True
    if a != b:
        return False
    a_fields, b_fields = ([getattr(m, f.name) for f in fields(m)] for m in (a, b))
    return pickle.dumps(a_fields) == pickle.dumps(b_fields)


def _operand_jets(shared, left, right, z, order):
    """The jets of a binary node's operands at the points z.  Where they
    share an outer map, it is evaluated once, at the inner values of both;
    the jets are those of two evaluations, and an error is raised by two
    evaluations, so that it names the point they would."""
    if shared:
        try:
            inner_l, inner_r = left._inner_jet(z, order), right._inner_jet(z, order)
            outer = left.outer._jet(np.concatenate((inner_l[0], inner_r[0])), order)
        except EvaluationError:
            pass
        else:
            n = len(z)
            return (
                left._chain(inner_l, [a if a is None else a[:n] for a in outer]),
                right._chain(inner_r, [a if a is None else a[n:] for a in outer]),
            )
    return left._jet(z, order), right._jet(z, order)


@dataclass(frozen=True)
class Product(MapExpr):
    left: MapExpr
    right: MapExpr

    def __post_init__(self):
        object.__setattr__(self, "domain", _unify(self.left.domain, self.right.domain))
        object.__setattr__(self, "_shared_outer", _shared_outer(self.left, self.right))
        both_disc = (
            self.left.codomain is MetricId.HYPERBOLIC_DISC
            and self.right.codomain is MetricId.HYPERBOLIC_DISC
        )
        object.__setattr__(
            self, "codomain", MetricId.HYPERBOLIC_DISC if both_disc else None
        )

    def _jet(self, z, order=1):
        return _jet_mul(*_operand_jets(self._shared_outer, self.left, self.right, z, order))

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
        object.__setattr__(
            self, "_shared_outer", _shared_outer(self.numerator, self.denominator)
        )
        object.__setattr__(self, "codomain", MetricId.SPHERICAL)

    def _jet(self, z, order=1):
        return _jet_div(*_operand_jets(self._shared_outer, self.numerator, self.denominator, z, order))

    def divisor(self):
        zn, pn, en = self.numerator.divisor()
        zd, pd, ed = self.denominator.divisor()
        return zn + pd, pn + zd, en + ed


@dataclass(frozen=True)
class Compose(MapExpr):
    """outer after inner: z -> outer(inner(z)).  Its Moebius rules read
    the transform of a node, a MobiusTransform or None where it has none."""

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

    def _jet(self, z, order=1):
        inner = self._inner_jet(z, order)
        return self._chain(inner, self.outer._jet(inner[0], order))

    def _inner_jet(self, z, order):
        """The inner jet at the points z, with None for its pole mask
        where no point is a pole."""
        iv, idr, ip = self.inner._jet(z, order)
        if not ip.any():
            return iv, idr, None
        if self.outer._at_infinity is None:
            raise EvaluationError(
                "composition through infinity needs a Moebius outer map"
            )
        return iv, idr, ip

    def _chain(self, inner, outer):
        """The jet of outer after inner from _inner_jet and the outer jet at
        the inner values."""
        (iv, idr, ip), (ov, od, op) = inner, outer
        # order 0 keeps the finite value where order 1 takes the 1/f chart below
        if od is not None:
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
        if ip is not None:
            value, factor, pole = self.outer._at_infinity
            ov, op = np.where(ip, value, ov), np.where(ip, pole, op)
            od = od if od is None else np.where(ip, factor * idr, od)
        return ov, od, op

    def divisor(self):
        """The inner divisor under an outer scale, z -> a z, else the outer
        divisor pulled back through a Moebius inner map t.

        t sends -d/c to infinity, so the outer map's order at infinity,
        finite zeros minus finite poles unless it is essential there,
        lands at -d/c; outer points at t(infinity) pull back to infinity.
        """
        s = getattr(self.outer, "transform", None)
        if s is not None and s.b == s.c == 0:
            return self.inner.divisor()
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
    value, _, pole = evaluate(f, np.concatenate((-z.conj(), z)), order=0)
    (left, right), (left_pole, right_pole) = np.split(value, 2), np.split(pole, 2)
    if np.any(left_pole != right_pole):
        return float("inf")
    gap = np.abs(left - right.conj())[~left_pole]
    return float(np.max(gap, initial=0.0))
