"""Ahlfors-Shimizu characteristic and the constructive quotient
decomposition of bounded-characteristic maps.

S(r) is the normalised spherical image area A_S/(4 pi) over |z| < r and

    T(r) = int_0^r S(t)/t dt.

geodesics._on_circles gives S and T at every radius, each by one of two
routes, chosen per radius from the divisor alone of f or 1/f: the boundary
route, one periodic integral on |z| = r (S as the spherical A_S/(4 pi),
T by the Ahlfors-Shimizu first main theorem), for a disc map with a known
divisor and no pole or essential point on the circle nor an essential
point inside; the nested route, one radial quadrature, otherwise.  Both
certify each circle by the circle rule of geodesics, or raise
PrecisionError.  T's samples take a Jensen peel for the poles near the
circle.  origin_identity_T is T(1) on the boundary route alone.

The decomposition writes a map f, analytic across the closed disc apart
from interior zeros and poles, as f0/finf with |f0|^2 + |finf|^2 = 1 on
the circle: finite Blaschke parts on the zeros and poles, times
exponentials of the harmonic extensions of log of the chordal distances
from the boundary values to 0 and to infinity.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundarySingularityError,
    DataError,
    NormalizationError,
    ResolutionError,
    StructureError,
)
# adaptive_integrate is not called here; perfbench's tracer self-test
# checks that this module's binding of it is the wrapped geodesics one
from .geodesics import AREA_DEFAULT, QuadConfig, _on_circles, adaptive_integrate  # noqa: F401
from .maps import BlaschkeDisc, MapExpr, _as_batch, _cancelled, _check_domain, evaluate
from .metrics import MetricId, _abs2, chordal, is_infinite

_BOUNDARY_GAP = 1e-6
# origin_identity_T certifies T(1) to 1e-12: the circle rule's tolerance
# on T is abs_tol / (4 pi)
_ORIGIN_CFG = QuadConfig(abs_tol=4e-12 * math.pi, rel_tol=1e-12)
# a block of powers is _ROWS points x _K coefficients, 64 KiB of complex:
# 256-point blocks raised peak memory by more than they saved time
_K = 64
_ROWS = 64


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
    the pairs that _cancelled removes, and the value f(0).

    Raises StructureError when f is not meromorphic somewhere on the
    closed disc, BoundarySingularityError when a listed zero or pole,
    cancelled or not, lies on or near the circle, NormalizationError when
    f(0) is 0 or infinity."""
    zeros, poles, essential = f.divisor()
    for p in essential:
        if not is_infinite(p) and abs(p) <= 1.0 + _BOUNDARY_GAP:
            raise StructureError(f"the map is not meromorphic at {p}")
    for p in zeros + poles:
        if abs(abs(p) - 1.0) < _BOUNDARY_GAP:
            raise BoundarySingularityError(
                f"zero or pole at {p} is too close to the unit circle"
            )
    origin = evaluate(f, 0.0)
    if origin.is_pole or origin.value == 0:
        raise NormalizationError("f(0) must be neither 0 nor infinity")
    zeros, poles = _cancelled(zeros, poles)
    return (
        [p for p in zeros if abs(p) < 1.0],
        [p for p in poles if abs(p) < 1.0],
        origin.value,
    )


@functools.cache
def _circle(m: int):
    """The m equispaced sample points exp(2 pi i j / m) of the unit circle,
    read-only and made once per m: the boundary sampling asks only for
    powers of two from 256 to 65536, so the cache stays small."""
    z = np.exp(2j * np.pi * np.arange(m) / m)
    z.setflags(write=False)
    return z


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
    and one series per leading index, shaped blocks.shape[:-2] + z.shape:
    one matrix product of blocks with the powers z^0..z^(K-1) gives the
    block sums q_j, and one row-wise reduction adds up q_j w^j with the
    powers of w = z^K (Paterson & Stockmeyer, SIAM J. Comput. 2, 1973)."""
    out = np.empty(blocks.shape[:-2] + z.shape, dtype=complex)
    for lo in range(0, len(z), _ROWS):
        zb = z[lo : lo + _ROWS]
        powers = np.repeat(zb[:, None], _K, axis=1)
        powers[:, 0] = 1.0
        q = blocks @ np.cumprod(powers, axis=1, out=powers).T
        w = np.vander(powers[:, -1] * zb, blocks.shape[-2], increasing=True)
        out[..., lo : lo + _ROWS] = np.einsum("...jr,rj->...r", q, w)
    return out


@dataclass(frozen=True)
class Decomposition:
    """Quotient representation f = f0/finf built from boundary data.

    u0_fourier and uinf_fourier hold the nonnegative-frequency Fourier
    coefficients (rfft / M) of the real boundary data log k(f, 0) and
    log k(f, infinity); negative frequencies are their conjugates.  The
    harmonic conjugates are normalised to vanish at 0, and quotient_phase
    is the rotation of f0 that makes f0/finf reproduce f exactly rather
    than up to a unimodular constant.
    """

    b0_zeros: tuple
    binf_poles: tuple
    u0_fourier: tuple
    uinf_fourier: tuple
    boundary_samples: int
    quotient_phase: float

    def __post_init__(self):
        # the sides f0 and finf are scale * B(z) * exp(g(z)), built once
        # (non-field attributes stay out of equality and repr): the scales,
        # the Blaschke products, whose constructor checks the points, and
        # the polynomials g(z) = c_0 + 2 sum_{n >= 1} c_n z^n in blocks of
        # _K coefficients, the shorter zero-padded, one (2, J, _K) array for
        # one power-series pass.  Re g is the harmonic extension of the
        # boundary data, Im g its conjugate with g(0) real
        sides = (self.u0_fourier, self.uinf_fourier)
        blocks = np.zeros((2, -(-max(map(len, sides)) // _K) * _K), dtype=complex)
        for row, coeffs in zip(blocks, sides):
            row[: len(coeffs)] = coeffs
        blocks[:, 1:] *= 2.0
        object.__setattr__(self, "_blocks", blocks.reshape(2, -1, _K))
        object.__setattr__(
            self, "_scales", np.array([0.5 * cmath.exp(1j * self.quotient_phase), 0.5])
        )
        object.__setattr__(
            self, "_blaschke", (BlaschkeDisc(self.b0_zeros), BlaschkeDisc(self.binf_poles))
        )

    def _at(self, z, sides):
        """Values at z of the sides that the slice sides picks from (f0, finf):
        a list of complex at a point, and at an array one array of its shape
        per side, stacked.  The Blaschke values come without derivatives,
        then one power-series call and one exp serve all the sides.  Points
        off the closed disc raise DomainError."""
        zs = np.asarray(z, dtype=complex)
        flat = zs.reshape(-1)
        _check_domain(MetricId.HYPERBOLIC_DISC, flat)
        column = flat[:, None]
        vals = np.empty((sides.stop - sides.start, len(flat)), dtype=complex)
        for out, scale, b in zip(vals, self._scales[sides], self._blaschke[sides]):
            factors, _ = b._factor_values(_as_batch(column, len(b.zeros)))
            np.multiply(scale, np.prod(factors, axis=1)[: len(flat)], out=out)
        # not in place: numpy rounds a product of one element in place
        # without the fused multiply-add of its array loops
        vals = vals * np.exp(_power_series(self._blocks[sides], flat))
        if zs.ndim:
            return vals.reshape(vals.shape[:1] + zs.shape)
        return [complex(v) for v in vals[:, 0]]

    def f0_at(self, z):
        """f0 at a point or, elementwise, at an array of points."""
        return self._at(z, slice(0, 1))[0]

    def finf_at(self, z):
        """finf at a point or, elementwise, at an array of points."""
        return self._at(z, slice(1, 2))[0]

    def quotient_at(self, z):
        """f0/finf at a point or, elementwise, at an array of points."""
        f0, finf = self._at(z, slice(0, 2))
        return f0 / finf

    def residuals(self, f: MapExpr):
        """(pythagoras, quotient, origin) residuals of this decomposition of
        f on the circle grid of boundary_samples points: the largest gap in
        |f0|^2 + |finf|^2 = 1, the largest |f0/finf - f| away from the poles
        of f, and the gap in the origin identity
        |f0(0)|^2 + |finf(0)|^2 = exp(-2 T(1))."""
        zeros, _, origin = _gate(f)
        circle = _circle(self.boundary_samples)
        w, _, pole = jets = evaluate(f, circle)
        v0, vinf = self._at(circle, slice(0, 2))
        pyth = np.max(np.abs(np.abs(v0) ** 2 + np.abs(vinf) ** 2 - 1.0), initial=0.0)
        keep = ~pole
        quot = np.max(np.abs(v0[keep] / vinf[keep] - w[keep]), initial=0.0)
        lhs = abs(self.f0_at(0j)) ** 2 + abs(self.finf_at(0j)) ** 2
        u0, _ = _log_chordal(jets)
        origin_gap = abs(math.exp(-2.0 * _origin_T(zeros, origin, u0)) - lhs)
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
        for name, coeffs in (
            ("u0_fourier", self.u0_fourier),
            ("uinf_fourier", self.uinf_fourier),
        ):
            lines.append(f"{name}: {m}")
            for n in range(-m // 2, m // 2):
                k = -n if n < 0 else n
                c = 0j if k >= len(coeffs) else coeffs[k]
                if n < 0:
                    c = c.conjugate()
                lines.append(f"{n} {c.real!r} {c.imag!r}")
        return "\n".join(lines) + "\n"


def _boundary_data(f: MapExpr, boundary_samples: int):
    """(m, c0, cinf): the rfft / m of log k(f, 0) and of log k(f, infinity)
    at m circle points, m doubling from boundary_samples until both
    Fourier tails resolve."""
    m = int(boundary_samples)
    if m < 256 or m & (m - 1):
        raise ValueError("boundary_samples must be a power of two, at least 256")
    while True:
        c0, cinf = (np.fft.rfft(u) / m for u in _log_chordal(evaluate(f, _circle(m))))
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

    # the Nyquist coefficient is below the tail gate; drop it for a clean
    # analytic completion
    c0 = c0[:-1]
    cinf = cinf[:-1]

    b0 = BlaschkeDisc(tuple(zeros))
    binf = BlaschkeDisc(tuple(poles))
    f0_raw = 0.5 * evaluate(b0, 0.0).value * cmath.exp(complex(c0[0]))
    finf_0 = 0.5 * evaluate(binf, 0.0).value * cmath.exp(complex(cinf[0]))
    phase = cmath.phase(origin * finf_0 / f0_raw)

    return Decomposition(
        b0_zeros=tuple(zeros),
        binf_poles=tuple(poles),
        u0_fourier=tuple(c0.tolist()),
        uinf_fourier=tuple(cinf.tolist()),
        boundary_samples=m,
        quotient_phase=phase,
    )


def origin_identity_T(f: MapExpr) -> float:
    """T(1) for a map analytic across the closed circle apart from zeros
    and poles: the Ahlfors-Shimizu T of geodesics._on_circles at r = 1,
    certified by the circle rule to 1e-12 or PrecisionError, with the
    Jensen peel for poles near the circle.  The gate in front raises for
    the maps fatou_decompose refuses."""
    _gate(f)
    return _on_circles(f, [1.0], MetricId.SPHERICAL, _ORIGIN_CFG, ("T",))[0][0][0]


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
        (a, _, a_pole), (b, _, b_pole) = (evaluate(g, pts) for g in f)
        if np.any(a_pole | b_pole):
            raise DataError("pair members must be analytic at the probes")
    return float(np.min(np.hypot(np.abs(a), np.abs(b))))
