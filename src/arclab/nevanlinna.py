"""Ahlfors-Shimizu characteristic and the constructive quotient
decomposition of bounded-characteristic maps.

S(r) is the normalised spherical image area A_S/(4 pi) over |z| < r and

    T(r) = int_0^r S(t)/t dt.

geodesics._on_circles gives S and T at every radius, a map of the
half-plane carried to the disc, each by one of two routes, chosen per
radius from the divisor alone of f or 1/f: the boundary route, one
periodic integral on |z| = r (S as the spherical A_S/(4 pi), T by the
Ahlfors-Shimizu first main theorem), for a known divisor and no pole or
essential point on the circle nor an essential point inside; the nested
route, over radial windows, otherwise.  Both certify each circle by the
circle rule of geodesics, or raise PrecisionError.  T's samples take a
Jensen peel for the poles near the circle.  origin_identity_T is T(1) on
the boundary route alone.

The decomposition writes a map f of the disc, analytic across the closed
disc apart from interior zeros and poles, as f0/finf with |f0|^2 +
|finf|^2 = 1 on the circle: finite Blaschke parts on the zeros and
poles, times exponentials of the harmonic extensions of log of the
chordal distances from the boundary values to 0 and to infinity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundarySingularityError,
    DataError,
    DomainError,
    NormalizationError,
    ResolutionError,
    StructureError,
)
# adaptive_integrate is not called here; perfbench's tracer self-test
# checks that this module's binding of it is the wrapped geodesics one
from .geodesics import AREA_DEFAULT, QuadConfig, _on_circles, _roots, adaptive_integrate  # noqa: F401
from .maps import (
    _DISC_RADIUS,
    BlaschkeDisc,
    MapExpr,
    _cancelled,
    _check_domain,
    _check_factors,
    _point_blocks,
    _product,
    _tree,
    evaluate,
)
from .metrics import MetricId, _abs2, chordal, is_infinite

_BOUNDARY_GAP = 1e-6
# origin_identity_T certifies T(1) to 1e-12: the circle rule's tolerance
# on T is abs_tol / (4 pi)
_ORIGIN_CFG = QuadConfig(abs_tol=4e-12 * math.pi, rel_tol=1e-12)
# a block of powers is _ROWS points x _K coefficients, 64 KiB of complex:
# 256-point blocks raised peak memory by more than they saved time
_K = 64
_ROWS = 64
# the largest tail 2 sum |c_n| of a side's series that Decomposition drops
_CHOP = 3e-14
# a dropped |c_n| is at most this times the side's largest |c_n|, one eps:
# the rounding noise of a Blaschke quotient's coefficients past c_0 reached
# 0.51 eps on 800 decompose-family maps
_PLATEAU = np.finfo(float).eps
_SIDES = ("u0_fourier", "uinf_fourier")


def rho_of_r(r: float) -> float:
    """Hyperbolic radius of the Euclidean circle |z| = r."""
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    return math.log1p(r) - math.log1p(-r)


def shimizu_S(f: MapExpr, r: float, config: QuadConfig = None) -> float:
    """Normalised spherical image area over |z| < r, counting multiplicity."""
    rho_of_r(r)  # checks r
    return _on_circles(f, [r], MetricId.SPHERICAL, config or AREA_DEFAULT)[0][0][0]


def shimizu_T(f: MapExpr, r: float, config: QuadConfig = None) -> float:
    """Ahlfors-Shimizu characteristic int_0^r S(t)/t dt."""
    rho_of_r(r)  # checks r
    return _on_circles(f, [r], MetricId.SPHERICAL, config or AREA_DEFAULT, ("T",))[0][0][0]


def _check_radii(radii):
    if not radii:
        raise DataError("need at least one radius")
    if any(n <= p for p, n in zip(radii, radii[1:])):
        raise DataError("radii must be strictly increasing")
    if any(not 0.0 < x < 1.0 for x in radii):
        raise DataError("radii must lie in (0, 1)")


@dataclass(frozen=True)
class CharacteristicCurve:
    radii: tuple
    S_values: tuple
    T_values: tuple

    def __post_init__(self):
        _check_radii(self.radii)
        # quadrature jitter allowance on the monotonicity of S and T
        for vals, label in ((self.S_values, "S"), (self.T_values, "T")):
            if any(v < -1e-12 for v in vals):
                raise DataError(f"{label} values must be nonnegative")
            if any(n < p - 1e-9 for p, n in zip(vals, vals[1:])):
                raise DataError(f"{label} values must be nondecreasing")


def characteristic_curve(
    f: MapExpr, radii, config: QuadConfig = None
) -> CharacteristicCurve:
    rs = tuple(float(r) for r in radii)
    # cheap grid validation up front; quadrature below is the expensive part
    _check_radii(rs)
    S, T = _on_circles(f, rs, MetricId.SPHERICAL, config or AREA_DEFAULT, ("A", "T"))
    return CharacteristicCurve(rs, tuple(s for s, _ in S), tuple(t for t, _ in T))


def _gate(f: MapExpr):
    """Zeros and poles of f inside the unit disc, with multiplicity, less
    the pairs that _cancelled removes, and the Jet of f at 0, order 0.

    Raises DomainError for a half-plane map, StructureError where f is not
    meromorphic on the closed disc, BoundarySingularityError when a listed
    zero or pole, cancelled or not, lies on or near the circle,
    NormalizationError when f(0) is 0 or infinity."""
    if f.domain is MetricId.HYPERBOLIC_HALF_PLANE:
        raise DomainError("the decomposition takes maps of the disc, not of the half-plane")
    zeros, poles, essential = f.divisor()
    for p in essential:
        if not is_infinite(p) and abs(p) <= 1.0 + _BOUNDARY_GAP:
            raise StructureError(f"the map is not meromorphic at {p}")
    for p in zeros + poles:
        if abs(abs(p) - 1.0) < _BOUNDARY_GAP:
            raise BoundarySingularityError(
                f"zero or pole at {p} is too close to the unit circle"
            )
    origin = evaluate(f, 0.0, order=0)
    if origin.is_pole or origin.value == 0:
        raise NormalizationError("f(0) must be neither 0 nor infinity")
    zeros, poles = _cancelled(zeros, poles)
    return (
        [p for p in zeros if abs(p) < 1.0],
        [p for p in poles if abs(p) < 1.0],
        origin,
    )


def _log_chordal(jets):
    """log k(f, 0) and log k(f, infinity) from f's jets at an array of
    points, as evaluate gives them.  Values off the closed unit disc go
    through w -> 1/w, under which the chordal distance is invariant, so
    nothing overflows; a pole is the point 1/0 of that chart."""
    value, _, pole = jets
    big = np.abs(value) > 1.0
    u = np.where(big, 1.0 / np.where(big, value, 1.0), value)
    big |= pole
    root = np.sqrt(1.0 + _abs2(u))
    near, far = 2.0 * np.abs(u) / root, 2.0 / root
    return np.log(np.where(big, far, near)), np.log(np.where(big, near, far))


def _origin_T(zeros, origin, u0) -> float:
    """The origin identity for T(1) from the zeros in the disc, f(0) and
    log k(f, 0) at equispaced circle points."""
    counting = -math.fsum(math.log(abs(a)) for a in zeros)
    base = math.log(chordal(origin, 0.0))
    return counting + base - math.fsum(u0) / len(u0)


def _tail_ok(coeffs: np.ndarray, m: int) -> bool:
    mags = np.abs(coeffs) ** 2
    total = float(np.sum(mags[1:]))
    if total == 0.0:
        return True
    tail = float(np.sum(mags[m // 4 + 1 :]))
    # inner functions have constant boundary data, so everything past the
    # mean is roundoff; an absolute floor keeps the relative gate from
    # chasing that noise through futile sample doublings
    floor = 1e-26 * max(1.0, float(mags[0]), total)
    return tail <= max(1e-8 * total, floor)


def _power_series(blocks, z):
    """sum_n c_n z^n at the 1-d points z, with blocks[..., j, i] = c[K j + i]
    and one series per leading index, at most one, shaped blocks.shape[:-2]
    + z.shape: the powers z^0..z^(K-1) times the block matrix give the
    block sums q_j, and the powers of w = z^K times those add them up
    (Paterson & Stockmeyer, SIAM J. Comput. 2, 1973).  Both products are
    stacked over the points, one vector-matrix product of one shape per
    point and series: a matrix product over a batch of points picks its
    BLAS kernel by the batch's size, and this way a point rounds alike
    alone and in any batch."""
    out = np.empty(blocks.shape[:-2] + z.shape, dtype=complex)
    for lo in range(0, len(z), _ROWS):
        zb = z[lo : lo + _ROWS]
        powers = np.vander(zb, _K, increasing=True)
        q = np.matmul(powers[:, None, None, :], blocks.mT)[..., 0, :]
        w = np.vander(powers[:, -1] * zb, blocks.shape[-2], increasing=True)
        out[..., lo : lo + _ROWS] = np.matmul(q, w[:, :, None])[..., 0].T
    return out


def _shaped(values, shape):
    """The 1-d values in the given shape, a complex at a point.  Every
    operation runs on arrays, where numpy rounds a point alike alone and in
    a batch, and Python's complex division does not."""
    return values.reshape(shape) if shape else complex(values[0])


@dataclass(frozen=True)
class Decomposition:
    """Quotient representation f = f0/finf built from boundary data.

    u0_fourier and uinf_fourier hold the nonnegative-frequency Fourier
    coefficients (rfft / M) of the real boundary data log k(f, 0) and
    log k(f, infinity), as tuples of Python complex made from any sequence;
    negative frequencies are their conjugates.  The harmonic conjugates are
    normalised to vanish at 0, and quotient_phase is the rotation of f0
    that makes f0/finf reproduce f exactly rather than up to a unimodular
    constant.

    A side, scale * B(z) * exp(c_0 + 2 sum_{n >= 1} c_n z^n), keeps c_0 to
    c_L, L the least whose dropped coefficients lie on the rounding plateau
    of the side, each |c_n| at most _PLATEAU max |c_n|, and whose
    dropped tail 2 sum_{n > L} |c_n|, its entry of _chop_bound, is at most
    _CHOP: on the closed disc the side moves by a relative e^d - 1 at most,
    d that bound.  Past c_0 a finite Blaschke quotient's coefficients are
    rounding noise, whose tail stays below 1.2e-14 on the criterion-10
    maps, so it keeps c_0 alone (compare the plateau chop of Aurentz &
    Trefethen, ACM TOMS 43, 2017).
    """

    b0_zeros: tuple
    binf_poles: tuple
    u0_fourier: tuple
    uinf_fourier: tuple
    boundary_samples: int
    quotient_phase: float

    def __post_init__(self):
        # built once (non-field attributes stay out of equality and repr):
        # the chopped series less c_0 in blocks of _K coefficients, one
        # (2, J, _K) array, with the blocks each side needs, 0 for c_0 alone;
        # one Blaschke product on b0's zeros and then finf's poles, whose
        # constructor checks the points; the scales, with the sides'
        # normalisers and exp(c_0); and the factors' columns
        sides = [np.asarray(getattr(self, name), dtype=complex) for name in _SIDES]
        coeffs = np.zeros((2, max(1, *map(len, sides))), dtype=complex)
        for name, row, side in zip(_SIDES, coeffs, sides):
            object.__setattr__(self, name, tuple(side.tolist()))
            row[: len(side)] = side
        # tails[:, j] is 2 sum |c_n| and peaks[:, j] the largest |c_n| over
        # the last j coefficients
        size = np.abs(coeffs[:, :0:-1])
        tails, peaks = np.zeros((2, *coeffs.shape))
        np.cumsum(2.0 * size, axis=1, out=tails[:, 1:])
        np.maximum.accumulate(size, axis=1, out=peaks[:, 1:])
        plateau = _PLATEAU * np.abs(coeffs).max(axis=1, keepdims=True)
        drop = np.count_nonzero((tails <= _CHOP) & (peaks <= plateau), axis=1) - 1
        object.__setattr__(self, "_chop_bound", tuple(tails[(0, 1), drop].tolist()))
        kept = (len(coeffs[0]) - drop).tolist()
        object.__setattr__(self, "_depths", tuple(-(-k // _K) if k > 1 else 0 for k in kept))
        blocks = np.zeros((2, max(1, *self._depths) * _K), dtype=complex)
        for row, side, k in zip(blocks, coeffs, kept):
            row[1:k] = 2.0 * side[1:k]
        object.__setattr__(self, "_blocks", blocks.reshape(2, -1, _K))
        b = BlaschkeDisc(self.b0_zeros + self.binf_poles)
        ends = (0, len(self.b0_zeros), len(b.zeros))
        units = [np.prod(b._norm[lo:hi]) for lo, hi in zip(ends, ends[1:])]
        units[0] *= cmath.exp(1j * self.quotient_phase)
        object.__setattr__(self, "_scales", 0.5 * np.array(units) * np.exp(coeffs[:, 0]))
        # each side's factors (p - q z)[0] / (p - q z)[1], p = (a, 1) and
        # q = (1, conj(a)), in rows, the sides side by side; the side with
        # fewer rows, or none, is padded with units, p = (1, 1) and q = 0
        factors = [b.zeros[lo:hi] for lo, hi in zip(ends, ends[1:])]
        object.__setattr__(self, "_rows", tuple(max(1, len(f)) for f in factors))
        pad = [(1, 1, 0, 0)] * max(self._rows)
        columns = [[(a, 1, 1, a.conjugate()) for a in f] + pad[len(f) :] for f in factors]
        columns = np.array(columns, dtype=complex).T
        object.__setattr__(self, "_columns", columns.reshape(2, 2, -1, 2, 1))

    def _at(self, z, sides):
        """Values at the points z, flattened, of the sides that the slice
        sides picks from (f0, finf), one row per side, and the shape of z:
        each factor's value (a - z)/(1 - conj(a) z) in one division, one
        tree product over the picked sides' factors side by side, and, when
        a side keeps more than c_0, one power-series call and one exp.
        Points off the closed disc raise DomainError, and points at a
        factor's pole 1/conj(a), within the disc's slack, EvaluationError;
        one |z| tells whether either check runs."""
        zs = np.asarray(z, dtype=complex)
        flat = zs.reshape(-1)
        top = np.abs(flat).max(initial=0.0)
        if top > _DISC_RADIUS:
            _check_domain(MetricId.HYPERBOLIC_DISC, flat)
        p, q = self._columns[:, :, : max(self._rows[sides]), sides]
        vals = np.empty((sides.stop - sides.start, len(flat)), dtype=complex)
        for part in _point_blocks(len(flat), p.size // 2):
            num, den = p - q * flat[part]
            if top > 1.0:
                _check_factors(den, flat[part], "Blaschke factor")
            vals[:, part] = _tree(_product, [num / den])[0]
        vals = self._scales[sides, None] * vals
        depth = max(self._depths[sides])
        vals = vals * np.exp(_power_series(self._blocks[sides, :depth], flat)) if depth else vals
        return vals, zs.shape

    def f0_at(self, z):
        """f0 at a point or, elementwise, at an array of points."""
        (f0,), shape = self._at(z, slice(0, 1))
        return _shaped(f0, shape)

    def finf_at(self, z):
        """finf at a point or, elementwise, at an array of points."""
        (finf,), shape = self._at(z, slice(1, 2))
        return _shaped(finf, shape)

    def quotient_at(self, z):
        """f0/finf at a point or, elementwise, at an array of points."""
        (f0, finf), shape = self._at(z, slice(0, 2))
        return _shaped(f0 / finf, shape)

    def residuals(self, f: MapExpr):
        """(pythagoras, quotient, origin) residuals of this decomposition of
        f on the circle grid of boundary_samples points: the largest gap in
        |f0|^2 + |finf|^2 = 1, the largest |f0/finf - f| away from the poles
        of f, and the gap in the origin identity
        |f0(0)|^2 + |finf(0)|^2 = exp(-2 T(1))."""
        zeros, _, origin = _gate(f)
        circle = _roots(self.boundary_samples)
        w, _, pole = jets = evaluate(f, circle, order=0)
        (v0, vinf), _ = self._at(circle, slice(0, 2))
        pyth = np.max(np.abs(np.abs(v0) ** 2 + np.abs(vinf) ** 2 - 1.0), initial=0.0)
        keep = ~pole
        quot = np.max(np.abs(v0[keep] / vinf[keep] - w[keep]), initial=0.0)
        lhs = abs(self.f0_at(0j)) ** 2 + abs(self.finf_at(0j)) ** 2
        u0, _ = _log_chordal(jets)
        origin_gap = abs(math.exp(-2.0 * _origin_T(zeros, origin.value, u0)) - lhs)
        return float(pyth), float(quot), origin_gap

    def to_manifest(self) -> str:
        m = self.boundary_samples
        lines = [
            f"boundary_samples: {m}",
            f"quotient_phase: {self.quotient_phase!r}",
            f"zeros: {len(self.b0_zeros)}",
        ]
        lines += [f"{z.real!r} {z.imag!r}" for z in self.b0_zeros]
        lines.append(f"poles: {len(self.binf_poles)}")
        lines += [f"{z.real!r} {z.imag!r}" for z in self.binf_poles]
        # frequencies lo..hi - 1, 0 past the data, the negative ones the
        # conjugates of the positive
        lo, hi = -m // 2, m // 2
        for name in _SIDES:
            lines.append(f"{name}: {m}")
            coeffs = getattr(self, name)
            c = np.zeros(1 - lo, dtype=complex)
            c[: len(coeffs)] = coeffs[: len(c)]
            c = np.concatenate((np.conj(c[-lo:0:-1]), c[:hi]))
            values = zip(range(lo, hi), c.real.tolist(), c.imag.tolist())
            lines += [f"{n} {x!r} {y!r}" for n, x, y in values]
        return "\n".join(lines) + "\n"


def _boundary_data(f: MapExpr, boundary_samples: int):
    """(m, c0, cinf): the rfft / m of log k(f, 0) and of log k(f, infinity)
    at m circle points, m doubling from boundary_samples until both
    Fourier tails resolve."""
    m = int(boundary_samples)
    if m < 256 or m & (m - 1):
        raise ValueError("boundary_samples must be a power of two, at least 256")
    while True:
        c0, cinf = (np.fft.rfft(u) / m for u in _log_chordal(evaluate(f, _roots(m), order=0)))
        if _tail_ok(c0, m) and _tail_ok(cinf, m):
            return m, c0, cinf
        m *= 2
        if m > 65536:
            raise ResolutionError(
                "boundary Fourier data has not resolved at 65536 samples"
            )


def fatou_decompose(f: MapExpr, boundary_samples: int = 4096) -> Decomposition:
    """Decompose f = f0/finf per the boundary-data construction.

    f must be analytic across the closed disc apart from interior zeros
    and poles (rational / finite-Blaschke-quotient shapes), with none of
    them close to the circle and f(0) neither 0 nor infinity.
    """
    zeros, poles, origin = _gate(f)
    m, c0, cinf = _boundary_data(f, boundary_samples)
    # the sides' Blaschke products are prod |a| > 0 at 0, and c_0 is real,
    # so the phase that makes f0/finf f is that of f(0); the Nyquist
    # coefficient, below the tail gate, is dropped
    return Decomposition(
        b0_zeros=tuple(zeros),
        binf_poles=tuple(poles),
        u0_fourier=c0[:-1],
        uinf_fourier=cinf[:-1],
        boundary_samples=m,
        quotient_phase=cmath.phase(origin.value),
    )


def origin_identity_T(f: MapExpr) -> float:
    """T(1) for a map analytic across the closed circle apart from zeros
    and poles: the Ahlfors-Shimizu T of geodesics._on_circles at r = 1,
    certified by the circle rule to 1e-12 or PrecisionError, with the
    Jensen peel for poles near the circle.  The gate in front raises for
    the maps fatou_decompose refuses."""
    origin = _gate(f)[2]
    return _on_circles(f, [1.0], MetricId.SPHERICAL, _ORIGIN_CFG, ("T",), origin)[0][0][0]


def uniform_characteristic_delta(f, probe_points, boundary_samples: int = 4096):
    """Minimum over the probes of sqrt(|f0|^2 + |finf|^2).

    f is either a pair (f0, finf) of MapExpr, or a single decomposable
    MapExpr handed to fatou_decompose first.  The minimum lies at or above
    the floor over the disc, which can be lower between the probes, so it
    certifies nothing.
    """
    pts = np.array([complex(p) for p in probe_points])
    if not pts.size:
        raise ValueError("need at least one probe point")
    if isinstance(f, MapExpr):
        dec = fatou_decompose(f, boundary_samples)
        a, b = dec.f0_at(pts), dec.finf_at(pts)
    else:
        (a, _, a_pole), (b, _, b_pole) = (evaluate(g, pts, order=0) for g in f)
        if np.any(a_pole | b_pole):
            raise DataError("pair members must be analytic at the probes")
    return float(np.min(np.hypot(np.abs(a), np.abs(b))))
