"""30-digit references for image areas, S and T of rational maps.

A rational map f = c prod(z - a) / prod(z - b) is given by its zeros, its
poles and c.  On the circle |z| = r, with Phi a potential whose Laplacian
is the squared target density,

    A(r) = int_0^{2 pi} 2 Re(z f'(z) dPhi/dw(f(z))) dtheta + 4 pi n(r, inf) [sphere]
    T(r) = (1/4 pi) int_0^{2 pi} log(1 + |f|^2) dtheta - log(1 + |f(0)|^2)/2
           + sum_{|b| < r} log(r/|b|),

Green's theorem and the Ahlfors-Shimizu first main theorem (Hayman,
Meromorphic Functions, 1964, sec. 1.5).  mpmath integrates both at 30
digits, split at the arguments of the zeros and poles, and shares no code
with the package.
"""

import functools
import math

import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

DPS = 30


class Rational:
    """f = scale * prod(z - a) / prod(z - b), in mpmath."""

    # each stretch between two cuts is integrated in this many pieces
    pieces = 1

    def __init__(self, zeros=(), poles=(), scale=1):
        with mpmath.workdps(DPS):
            self.zeros = [mpmath.mpc(a) for a in zeros]
            self.poles = [mpmath.mpc(b) for b in poles]
            self.scale = mpmath.mpc(scale)
        self.essential = []

    @classmethod
    def blaschke(cls, zeros):
        """The disc Blaschke product with factors (|a|/a)(a - z)/(1 - conj(a) z),
        -z for a = 0: (1/|a|)(z - a)/(z - 1/conj(a))."""
        with mpmath.workdps(DPS):
            scale = mpmath.mpf(1)
            poles = []
            for a in zeros:
                a = mpmath.mpc(a)
                if a == 0:
                    scale = -scale
                else:
                    scale /= abs(a)
                    poles.append(1 / mpmath.conj(a))
            return cls(zeros, poles, scale)

    @classmethod
    def blaschke_level(cls, a, b, w):
        """B([w]) . B([a, b]), up to a unimodular constant: the Blaschke
        product whose zeros solve B([a, b])(z) = w, the roots of
        u (a - z)(b - z) - w (1 - conj(a) z)(1 - conj(b) z), u = (|a|/a)(|b|/b)."""
        with mpmath.workdps(DPS):
            a, b, w = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(w)
            u = (abs(a) / a) * (abs(b) / b)
            ca, cb = mpmath.conj(a), mpmath.conj(b)
            coeffs = [u - w * ca * cb, w * (ca + cb) - u * (a + b), u * a * b - w]
            return cls.blaschke(mpmath.polyroots(coeffs, maxsteps=100, extraprec=60))

    @classmethod
    def koebe_scaled(cls, s):
        """z -> k(s z) = s z / (1 - s z)^2."""
        return cls([0], [1 / mpmath.mpf(s)] * 2, 1 / mpmath.mpf(s))

    def value(self, z):
        return self.scale * mpmath.fprod(z - a for a in self.zeros) / mpmath.fprod(
            z - b for b in self.poles
        )

    def jet(self, z):
        """(f, f') at a point that is neither a zero nor a pole."""
        w = self.value(z)
        return w, w * (sum(1 / (z - a) for a in self.zeros) - sum(1 / (z - b) for b in self.poles))

    def _off_circle(self, r, marks):
        """Raise ValueError when a point of marks lies on |z| = r: there the
        circle integral would be a principal value that misses the point's
        share of the image."""
        for p in marks:
            if abs(abs(p) - r) <= 1e-12 * r:
                raise ValueError(f"{complex(p)} lies on the circle |z| = {float(r)}")

    def _circle_integral(self, h, r):
        """int_0^{2 pi} h(r e^{i theta}) dtheta by tanh-sinh quadrature,
        split at the arguments of the zeros, poles and essential points,
        where the nodes cluster, and each stretch in `pieces` equal parts."""
        cuts = {mpmath.mpf(0), 2 * mp.pi}
        marks = self.zeros + self.poles + self.essential
        cuts.update(mpmath.arg(p) % (2 * mp.pi) for p in marks if p != 0)
        cuts = sorted(cuts)
        points = [
            lo + (hi - lo) * k / self.pieces
            for lo, hi in zip(cuts, cuts[1:])
            for k in range(self.pieces)
        ] + [cuts[-1]]
        return mpmath.quad(lambda t: h(r * mpmath.expjpi(t / mp.pi)), points)

    @functools.lru_cache(maxsize=None)
    def area(self, r, target):
        """Image area over |z| < r in the target "E", "S" or "D"; raises
        ValueError for a pole or essential point on |z| = r."""
        with mpmath.workdps(DPS):
            r = mpmath.mpf(r)
            self._off_circle(r, self.poles + self.essential)

            def h(z):
                w, d = self.jet(z)
                if target == "E":
                    slope = mpmath.conj(w) / 4
                else:
                    slope = mpmath.conj(w) / (1 + abs(w) ** 2 * (1 if target == "S" else -1))
                return 2 * mpmath.re(z * d * slope)

            total = self._circle_integral(h, r)
            if target == "S":
                total += 4 * mp.pi * sum(1 for b in self.poles if abs(b) < r)
            return float(total)

    @functools.lru_cache(maxsize=None)
    def S(self, r):
        with mpmath.workdps(DPS):
            return float(mpmath.mpf(self.area(r, "S")) / (4 * mp.pi))

    @functools.lru_cache(maxsize=None)
    def T(self, r):
        """T(r); raises ValueError for an essential point on |z| = r.  A pole
        there leaves a logarithmic, integrable, singularity, which the split
        at its argument integrates."""
        with mpmath.workdps(DPS):
            r = mpmath.mpf(r)
            self._off_circle(r, self.essential)
            mean = self._circle_integral(lambda z: mpmath.log(1 + abs(self.value(z)) ** 2), r)
            origin = mpmath.log(1 + abs(self.value(mpmath.mpc(0))) ** 2) / 2
            counting = sum(mpmath.log(r / abs(b)) for b in self.poles if abs(b) < r)
            return float(mean / (4 * mp.pi) - origin + counting)


class ExpMobius(Rational):
    """f = exp((a z + b)/(c z + d)): no zeros or poles, and for c != 0 an
    essential point at -d/c.  |f| swings through many orders of magnitude
    on a circle, with steep steps where it crosses 1, so the circle is
    integrated in many pieces."""

    pieces = 16

    def __init__(self, a, b, c, d):
        super().__init__()
        with mpmath.workdps(DPS):
            self.m = [mpmath.mpc(x) for x in (a, b, c, d)]
            if c != 0:
                self.essential = [-self.m[3] / self.m[2]]

    def value(self, z):
        a, b, c, d = self.m
        return mpmath.exp((a * z + b) / (c * z + d))

    def jet(self, z):
        a, b, c, d = self.m
        w = self.value(z)
        return w, w * (a * d - b * c) / (c * z + d) ** 2


def blaschke_one_zero_area(a, r):
    """Euclidean image area of |z| < r under one disc Blaschke factor with
    zero a, pi r^2 (1 - |a|^2)^2 / (1 - |a|^2 r^2)^2, at 30 digits."""
    with mpmath.workdps(DPS):
        q, r = abs(mpmath.mpc(a)) ** 2, mpmath.mpf(r)
        return float(mp.pi * r * r * (1 - q) ** 2 / (1 - q * r * r) ** 2)
