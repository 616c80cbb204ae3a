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
from .metrics import INFINITY, MetricId, chordal, is_infinite

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

    def integrand(v):
        q = circle_energy(g, v, MetricId.SPHERICAL, rel_tol=0.01 * cfg.rel_tol)
        return math.sinh(v) * q * (log_r - math.log(math.tanh(v / 2.0)))

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


def _gated_zeros_poles(f: MapExpr):
    """Zeros and poles of f inside the unit disc, with multiplicity.

    Raises StructureError when f is not meromorphic somewhere on the
    closed disc, BoundarySingularityError when a zero or pole lies on or
    near the circle."""
    zeros, poles, essential = f.divisor()
    for p in essential:
        if not is_infinite(p) and abs(p) <= 1.0 + _BOUNDARY_GAP:
            raise StructureError(f"the map is not meromorphic at {p}")
    for p in zeros + poles:
        if abs(abs(p) - 1.0) < _BOUNDARY_GAP:
            raise BoundarySingularityError(
                f"zero or pole at {p} is too close to the unit circle"
            )
    return [p for p in zeros if abs(p) < 1.0], [p for p in poles if abs(p) < 1.0]


def _boundary_values(f: MapExpr, m: int):
    vals = []
    for j in range(m):
        jet = evaluate(f, cmath.exp(2j * cmath.pi * j / m))
        vals.append(INFINITY if jet.is_pole else jet.value)
    return vals


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

    def _blaschke(self, zeros):
        b = BlaschkeDisc(tuple(zeros))

        def at(z):
            zs = np.atleast_1d(np.asarray(z, dtype=complex))
            out = np.array([evaluate(b, w).value for w in zs])
            return out if np.ndim(z) else complex(out[0])

        return at

    def _analytic(self, coeffs):
        # g(z) = c_0 + 2 sum_{n >= 1} c_n z^n; Re g is the harmonic
        # extension of the boundary data, Im g its conjugate with g(0) real
        poly = np.asarray(coeffs, dtype=complex).copy()
        poly[1:] *= 2.0

        def at(z):
            zs = np.asarray(z, dtype=complex)
            return np.polynomial.polynomial.polyval(zs, poly)

        return at

    def f0_at(self, z):
        rot = cmath.exp(1j * self.quotient_phase)
        vals = (
            0.5
            * rot
            * self._blaschke(self.b0_zeros)(z)
            * np.exp(self._analytic(self.u0_fourier)(z))
        )
        return vals if np.ndim(z) else complex(vals)

    def finf_at(self, z):
        vals = (
            0.5
            * self._blaschke(self.binf_poles)(z)
            * np.exp(self._analytic(self.uinf_fourier)(z))
        )
        return vals if np.ndim(z) else complex(vals)

    def quotient_at(self, z):
        return self.f0_at(z) / self.finf_at(z)

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
    zeros, poles = _gated_zeros_poles(f)
    origin = evaluate(f, 0.0)
    if origin.is_pole or origin.value == 0:
        raise NormalizationError("f(0) must be neither 0 nor infinity")

    while True:
        w = _boundary_values(f, m)
        u0 = np.array([math.log(chordal(v, 0.0)) for v in w])
        uinf = np.array([math.log(chordal(v, INFINITY)) for v in w])
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
    phase = cmath.phase(origin.value * finf_0 / f0_raw)

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
    zeros, _ = _gated_zeros_poles(f)
    origin = evaluate(f, 0.0)
    if origin.is_pole or origin.value == 0:
        raise NormalizationError("f(0) must be neither 0 nor infinity")
    counting = -math.fsum(math.log(abs(a)) for a in zeros)
    base = math.log(chordal(origin.value, 0.0))
    boundary = math.fsum(
        math.log(chordal(v, 0.0)) for v in _boundary_values(f, m)
    )
    return counting + base - boundary / m


def uniform_characteristic_delta(f, probe_points, boundary_samples: int = 4096):
    """Minimum over the probes of sqrt(|f0|^2 + |finf|^2).

    f is either a pair (f0, finf) of MapExpr, or a single decomposable
    MapExpr handed to fatou_decompose first.  A positive floor certifies
    uniformly bounded characteristic at the probed resolution.
    """
    pts = [complex(p) for p in probe_points]
    if not pts:
        raise ValueError("need at least one probe point")
    if isinstance(f, MapExpr):
        dec = fatou_decompose(f, boundary_samples)
        f0 = dec.f0_at
        finf = dec.finf_at
    else:
        g0, ginf = f

        def _finite_value(g, z):
            jet = evaluate(g, z)
            if jet.is_pole:
                raise DataError("pair members must be analytic at the probes")
            return jet.value

        def f0(z):
            return _finite_value(g0, z)

        def finf(z):
            return _finite_value(ginf, z)

    best = math.inf
    for z in pts:
        a = abs(f0(z))
        b = abs(finf(z))
        best = min(best, math.hypot(a, b))
    return best
