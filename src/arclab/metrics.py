"""Conformal metrics on the four classical domains.

Each metric is a conformal density lambda against |dz|:

    euclidean plane      lambda(z) = 1
    hyperbolic disc      lambda(z) = 2 / (1 - |z|^2)      (curvature -1)
    hyperbolic half-plane lambda(z) = 1 / im(z)           (curvature -1)
    sphere               lambda(z) = 2 / (1 + |z|^2)      (curvature +1)

With the 1/im(z) normalisation the Cayley map z -> (z - i)/(z + i) is an
isometry from the half-plane onto the disc, and the distance from i to iy
is log y.

The norm of the derivative of an analytic map f between metrised domains
A and B is

    ||f'(z)||_{A->B} = |f'(z)| * lambda_B(f(z)) / lambda_A(z),

the factor by which f stretches infinitesimal lengths.  Near poles the
spherical norm is computed through the chart w -> 1/w, under which the
spherical metric is invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConstructionError, DomainError, RangeError


class _Infinity:
    """The point at infinity on the Riemann sphere.  Singleton."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"


#: The unique point at infinity.  Never encoded as a huge float.
INFINITY = _Infinity()

def is_infinite(w) -> bool:
    return isinstance(w, _Infinity)


class MetricId(Enum):
    EUCLIDEAN = "euclidean"
    HYPERBOLIC_DISC = "hyperbolic_disc"
    HYPERBOLIC_HALF_PLANE = "hyperbolic_half_plane"
    SPHERICAL = "spherical"


def _abs2(z: complex) -> float:
    # |z|^2 without abs(z)**2, which can raise OverflowError for large |z|
    return z.real * z.real + z.imag * z.imag


def density(metric: MetricId, z):
    """Conformal density lambda(z) of the metric at z, or elementwise at an
    array of points.

    Raises DomainError outside the metric's domain, naming the first such
    point.  For the sphere, density(INFINITY) = 0: the finite-chart
    density decays like 2/|z|^2.
    """
    if is_infinite(z):
        if metric is MetricId.SPHERICAL:
            return 0.0
        raise DomainError(f"infinity is not a point of {metric.value}")
    zs = np.asarray(z, dtype=complex)
    if metric is MetricId.EUCLIDEAN:
        lam = np.ones(zs.shape)
    elif metric is MetricId.HYPERBOLIC_HALF_PLANE:
        bad = zs.imag <= 0.0
        if np.count_nonzero(bad):
            raise DomainError(f"{complex(zs[bad][0])} is not in the upper half-plane")
        lam = 1.0 / zs.imag
    else:
        with np.errstate(over="ignore"):  # |z|^2 of a huge point is inf
            r2 = _abs2(zs)
        if metric is MetricId.SPHERICAL:
            lam = 2.0 / (1.0 + r2)
        elif metric is MetricId.HYPERBOLIC_DISC:
            bad = r2 >= 1.0
            if np.count_nonzero(bad):
                raise DomainError(f"{complex(zs[bad][0])} is not inside the unit disc")
            lam = 2.0 / (1.0 - r2)
        else:
            raise ValueError(f"unknown metric {metric!r}")
    return lam if zs.ndim else float(lam)


def chordal(w, wp) -> float:
    """Chordal distance on the Riemann sphere (diameter 2).

    k(w, w') = 2|w - w'| / (sqrt(1 + |w|^2) sqrt(1 + |w'|^2)),
    k(w, INFINITY) = 2 / sqrt(1 + |w|^2).

    Invariant under w -> 1/w; large arguments are folded through that
    inversion so the formula never overflows.
    """
    winf, pinf = is_infinite(w), is_infinite(wp)
    if winf and pinf:
        return 0.0
    if winf or pinf:
        v = complex(wp if winf else w)
        a2 = _abs2(v)
        if a2 > 1.0:
            # k(v, inf) = k(1/v, 0)
            iv = 1.0 / v
            return 2.0 * abs(iv) / math.sqrt(1.0 + _abs2(iv))
        return 2.0 / math.sqrt(1.0 + a2)
    w, wp = complex(w), complex(wp)
    aw, ap = _abs2(w), _abs2(wp)
    if aw > 1.0 and ap > 1.0:
        w, wp = 1.0 / w, 1.0 / wp
        aw, ap = _abs2(w), _abs2(wp)
    elif ap > 1.0:
        # one large argument: k = 2|w/w' - 1| / (sqrt(1+|w|^2) sqrt(1+1/|w'|^2))
        q = w / wp - 1.0
        return 2.0 * abs(q) / math.sqrt((1.0 + aw) * (1.0 + _abs2(1.0 / wp)))
    elif aw > 1.0:
        q = wp / w - 1.0
        return 2.0 * abs(q) / math.sqrt((1.0 + ap) * (1.0 + _abs2(1.0 / w)))
    return 2.0 * abs(w - wp) / math.sqrt((1.0 + aw) * (1.0 + ap))


def distance(metric: MetricId, z1, z2) -> float:
    """Geodesic distance between two points of the metric's domain."""
    if metric is MetricId.SPHERICAL:
        # 2 arcsin(k/2): chordal length converted to great-circle length
        half = 0.5 * chordal(z1, z2)
        return 2.0 * math.asin(min(1.0, half))
    if is_infinite(z1) or is_infinite(z2):
        raise DomainError(f"infinity is not a point of {metric.value}")
    z1, z2 = complex(z1), complex(z2)
    if metric is MetricId.EUCLIDEAN:
        return abs(z1 - z2)
    if metric is MetricId.HYPERBOLIC_DISC:
        density(metric, z1), density(metric, z2)  # domain checks
        u = abs((z1 - z2) / (1.0 - z2.conjugate() * z1))
    elif metric is MetricId.HYPERBOLIC_HALF_PLANE:
        density(metric, z1), density(metric, z2)
        u = abs((z1 - z2) / (z1 - z2.conjugate()))
    else:
        raise ValueError(f"unknown metric {metric!r}")
    if u >= 1.0:
        raise DomainError("points too close to the boundary to separate")
    # log((1+u)/(1-u)) = 2 artanh u, stable form
    return math.log1p(u) - math.log1p(-u)


def norm_from_jet(jet, z, source: MetricId, target: MetricId):
    """||f'(z)||_{source->target} from f's jet at z, as evaluate returns
    it: a Jet at one point, or the arrays (value, derivative, pole) at an
    array z, which give an array of norms.

    Where f has a pole the derivative is that of 1/f, which is exactly
    what the spherical chart at infinity needs.  Raises RangeError when a
    value escapes the target domain, DomainError when a point escapes the
    source domain; each names the first such point.
    """
    one = not isinstance(jet, tuple)
    if one:
        jet, z = ([0j if jet.is_pole else jet.value], [jet.derivative], [jet.is_pole]), [z]
    value, derivative, pole = map(np.asarray, jet)
    z = np.asarray(z, dtype=complex)
    lam_a = 1.0 if source is MetricId.EUCLIDEAN else density(source, z)  # 1.0: no array of ones
    d = np.abs(derivative)
    if target is MetricId.SPHERICAL:
        # 2|f'| / (1 + |f|^2), taken through 1/f where |f| > 1 so that
        # nothing overflows; a pole holds value 0 and the derivative of
        # 1/f, for which this is the chart's formula
        av = np.abs(value)
        inv = 1.0 / np.maximum(av, 1.0)
        small = np.minimum(av, 1.0)
        n = 2.0 * (d * inv * inv) / ((inv * inv + small * small) * lam_a)
    else:
        if np.count_nonzero(pole):
            raise RangeError(
                f"map has a pole at {complex(z[pole][0])}; target {target.value} excludes it"
            )
        try:
            lam_b = 1.0 if target is MetricId.EUCLIDEAN else density(target, value)
        except DomainError as exc:
            raise RangeError(f"value {exc}") from None
        n = d * lam_b / lam_a
    return float(n[0]) if one else n


def deriv_norm(f, z, target: MetricId):
    """Norm of the derivative of the map expression f at z toward target,
    or elementwise at an array of points.

    The source metric is f's domain tag; untagged expressions default to
    the hyperbolic disc.
    """
    from .maps import evaluate  # local import: metrics <-> maps cycle

    source = f.domain or MetricId.HYPERBOLIC_DISC
    return norm_from_jet(evaluate(f, z), z, source, target)


@dataclass(frozen=True)
class MobiusTransform:
    """z -> (a z + b) / (c z + d) with ad - bc != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.a * self.d - self.b * self.c == 0:
            raise ConstructionError("degenerate Moebius transform: ad - bc = 0")

    @property
    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c


def mobius_apply(t: MobiusTransform, w):
    """Apply the transform to a sphere point (INFINITY allowed)."""
    if is_infinite(w):
        if t.c == 0:
            return INFINITY
        return t.a / t.c
    w = complex(w)
    den = t.c * w + t.d
    if den == 0:
        return INFINITY
    return (t.a * w + t.b) / den


def mobius_inverse(t: MobiusTransform) -> MobiusTransform:
    return MobiusTransform(t.d, -t.b, -t.c, t.a)


def disc_automorphism(center: complex, radius: float) -> MobiusTransform:
    """Automorphism of the disc sending 0 to center and the unit disc onto
    the hyperbolic ball of euclidean radius factor `radius` about center:

        T(z) = (r z + z_o) / (1 + conj(z_o) r z),   r = tanh(rho/2).
    """
    center = complex(center)
    if _abs2(center) >= 1.0:
        raise ConstructionError(f"center {center} is not inside the unit disc")
    if not 0.0 < radius <= 1.0:
        raise ConstructionError(f"radius factor {radius} outside (0, 1]")
    return MobiusTransform(radius, center, center.conjugate() * radius, 1.0)


def cayley() -> MobiusTransform:
    """The half-plane-to-disc isometry z -> (z - i)/(z + i), sending i to 0."""
    return MobiusTransform(1.0, -1.0j, 1.0, 1.0j)
