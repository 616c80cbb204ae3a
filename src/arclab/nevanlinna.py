"""Ahlfors-Shimizu characteristic and the constructive quotient
decomposition of bounded-characteristic maps.

S(r) is the normalised spherical image area A_S/(4 pi) over |z| < r and

    T(r) = int_0^r S(t)/t dt.

T is computed by exchanging the order of the two integrals, which turns
the nested quadrature into a single radial one with an explicit kernel:
with r = tanh(rho/2),

    T(r) = (1/4pi) int_0^rho sinh v Q(v) log(r / tanh(v/2)) dv,

Q(v) the theta-integral of the squared spherical derivative norm.  The
exchange is exact, and tests cross-check it against the nested form.

The decomposition writes a map f, analytic across the closed disc apart
from interior zeros and poles, as f0/finf with |f0|^2 + |finf|^2 = 1 on
the circle: finite Blaschke parts on the zeros and poles, times
exponentials of the harmonic extensions of log of the chordal distances
from the boundary values to 0 and to infinity.
"""

from __future__ import annotations

import cmath
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
from .geodesics import (
    AREA_DEFAULT,
    QuadConfig,
    _as_disc_map,
    adaptive_integrate,
    area_with_bound,
    circle_energy,
)
from .maps import BlaschkeDisc, MapExpr, evaluate
from .metrics import MetricId, _abs2, chordal, is_infinite

_BOUNDARY_GAP = 1e-6


def rho_of_r(r: float) -> float:
    """Hyperbolic radius of the Euclidean circle |z| = r."""
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    return math.log1p(r) - math.log1p(-r)


def shimizu_S(f: MapExpr, r: float, config: QuadConfig = None) -> float:
    """Normalised spherical image area over |z| < r, counting multiplicity."""
    a, _ = area_with_bound(f, rho_of_r(r), MetricId.SPHERICAL, config)
    return a / (4.0 * math.pi)


def shimizu_T(f: MapExpr, r: float, config: QuadConfig = None) -> float:
    """Ahlfors-Shimizu characteristic int_0^r S(t)/t dt."""
    cfg = config or AREA_DEFAULT
    rho = rho_of_r(r)
    g = _as_disc_map(f)
    log_r = math.log(r)

    def integrand(vs):
        q = [
            circle_energy(g, v, MetricId.SPHERICAL, rel_tol=0.01 * cfg.rel_tol)
            for v in vs.tolist()
        ]
        return np.sinh(vs) * q * (log_r - np.log(np.tanh(vs / 2.0)))

    val, _ = adaptive_integrate(integrand, 0.0, rho, cfg)
    return val / (4.0 * math.pi)


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
    return CharacteristicCurve(
        rs,
        tuple(shimizu_S(f, r, config) for r in rs),
        tuple(shimizu_T(f, r, config) for r in rs),
    )


def _gate(f: MapExpr):
    """Zeros and poles of f inside the unit disc, with multiplicity, and
    the value f(0).

    Raises StructureError when f is not meromorphic somewhere on the
    closed disc, BoundarySingularityError when a zero or pole lies on or
    near the circle, NormalizationError when f(0) is 0 or infinity."""
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
    return (
        [p for p in zeros if abs(p) < 1.0],
        [p for p in poles if abs(p) < 1.0],
        origin.value,
    )


def _circle(m: int):
    """The m equispaced sample points exp(2 pi i j / m) of the unit circle."""
    return np.exp(2j * np.pi * np.arange(m) / m)


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
        # each side is scale * B(z) * exp(g(z)); its Blaschke node and
        # polynomial are built once (non-field attributes stay out of
        # equality and repr).  g(z) = c_0 + 2 sum_{n >= 1} c_n z^n: Re g is
        # the harmonic extension of the boundary data, Im g its conjugate
        # with g(0) real
        for name, points, coeffs, scale in (
            ("_f0", self.b0_zeros, self.u0_fourier,
             0.5 * cmath.exp(1j * self.quotient_phase)),
            ("_finf", self.binf_poles, self.uinf_fourier, 0.5),
        ):
            poly = np.array(coeffs, dtype=complex)
            poly[1:] *= 2.0
            object.__setattr__(self, name, (scale, BlaschkeDisc(points), poly))

    @staticmethod
    def _side(side, z):
        scale, b, poly = side
        zs = np.asarray(z, dtype=complex)
        bz = evaluate(b, zs.reshape(-1))[0].reshape(zs.shape)
        vals = scale * bz * np.exp(np.polynomial.polynomial.polyval(zs, poly))
        return vals if zs.ndim else complex(vals)

    def f0_at(self, z):
        """f0 at a point or, elementwise, at an array of points."""
        return self._side(self._f0, z)

    def finf_at(self, z):
        """finf at a point or, elementwise, at an array of points."""
        return self._side(self._finf, z)

    def quotient_at(self, z):
        """f0/finf at a point or, elementwise, at an array of points."""
        return self._side(self._f0, z) / self._side(self._finf, z)

    def residuals(self, f: MapExpr):
        """(pythagoras, quotient, origin) residuals of this decomposition of
        f on the circle grid of boundary_samples points: the largest gap in
        |f0|^2 + |finf|^2 = 1, the largest |f0/finf - f| away from the poles
        of f, and the gap in the origin identity
        |f0(0)|^2 + |finf(0)|^2 = exp(-2 T(1))."""
        zeros, _, origin = _gate(f)
        circle = _circle(self.boundary_samples)
        w, _, pole = jets = evaluate(f, circle)
        v0 = self._side(self._f0, circle)
        vinf = self._side(self._finf, circle)
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


def fatou_decompose(f: MapExpr, boundary_samples: int = 4096) -> Decomposition:
    """Decompose f = f0/finf per the boundary-data construction.

    f must be analytic across the closed disc apart from interior zeros
    and poles (rational / finite-Blaschke-quotient shapes), with none of
    them close to the circle and f(0) neither 0 nor infinity.
    """
    m = int(boundary_samples)
    if m < 256 or m & (m - 1):
        raise ValueError("boundary_samples must be a power of two, at least 256")
    zeros, poles, origin = _gate(f)

    while True:
        u0, uinf = _log_chordal(evaluate(f, _circle(m)))
        c0 = np.fft.rfft(u0) / m
        cinf = np.fft.rfft(uinf) / m
        if _tail_ok(c0, m) and _tail_ok(cinf, m):
            break
        m *= 2
        if m > 65536:
            raise ResolutionError(
                "boundary Fourier data has not resolved at 65536 samples"
            )

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
        u0_fourier=tuple(complex(c) for c in c0),
        uinf_fourier=tuple(complex(c) for c in cinf),
        boundary_samples=m,
        quotient_phase=phase,
    )


def origin_identity_T(f: MapExpr, boundary_samples: int = 4096) -> float:
    """T(1) for a map analytic across the closed circle, via the origin
    identity: minus the log moduli of the zeros, plus the boundary mean of
    log of the chordal ratio k(f(0), 0)/k(f(zeta), 0)."""
    m = int(boundary_samples)
    if m < 2:
        raise ValueError("need at least two boundary samples")
    zeros, _, origin = _gate(f)
    u0, _ = _log_chordal(evaluate(f, _circle(m)))
    return _origin_T(zeros, origin, u0)


def uniform_characteristic_delta(f, probe_points, boundary_samples: int = 4096):
    """Minimum over the probes of sqrt(|f0|^2 + |finf|^2).

    f is either a pair (f0, finf) of MapExpr, or a single decomposable
    MapExpr handed to fatou_decompose first.  A positive floor certifies
    uniformly bounded characteristic at the probed resolution.
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
