import cmath
import math

import numpy as np
import pytest
from circle_oracle import ExpMobius, Rational, mpmath

from arclab import geodesics, nevanlinna
from arclab.errors import (
    BoundarySingularityError,
    DataError,
    DomainError,
    NormalizationError,
    ResolutionError,
    StructureError,
)
from arclab.geodesics import (
    AREA_DEFAULT,
    QuadConfig,
    _on_circles,
    adaptive_integrate,
    area_with_bound,
)
from arclab.maps import (
    BlaschkeDisc,
    Compose,
    ConstMap,
    ExpMap,
    Identity,
    Koebe,
    MobiusMap,
    PowerSeries,
    Product,
    Quotient,
    Scale,
    Shift,
    evaluate,
    inv_cayley_map,
)
from arclab.metrics import INFINITY, MetricId, MobiusTransform, chordal
from arclab.nevanlinna import (
    CharacteristicCurve,
    Decomposition,
    _circle,
    _log_chordal,
    _power_series,
    characteristic_curve,
    fatou_decompose,
    origin_identity_T,
    rho_of_r,
    shimizu_S,
    shimizu_T,
    uniform_characteristic_delta,
)

CFG = QuadConfig(abs_tol=1e-10, rel_tol=1e-10, max_depth=40, max_segments=20000)
SPHERICAL = MetricId.SPHERICAL
EPS = np.finfo(float).eps


def _spy_nested(monkeypatch):
    """The (r, quantity) of every call of the nested route from here on."""
    calls = []
    nested = geodesics._nested

    def spy(f, r, target, cfg, quantity):
        calls.append((r, quantity))
        return nested(f, r, target, cfg, quantity)

    monkeypatch.setattr(geodesics, "_nested", spy)
    return calls


def _blaschke(points, z):
    """prod (|a|/a) (a - z) / (1 - conj(a) z) at the points z, from the zeros."""
    out = np.ones_like(z)
    for a in points:
        out = out * (abs(a) / a) * (a - z) / (1 - a.conjugate() * z)
    return out


def _criterion_10(n_zeros, n_poles):
    """A criterion-10 quotient: n_zeros zeros over n_poles poles, moduli in
    [0.15, 0.8], as (f, zeros, poles)."""
    rng = np.random.default_rng(10 * n_zeros + n_poles)
    points = rng.uniform(0.15, 0.8, n_zeros + n_poles) * np.exp(
        2j * np.pi * rng.random(n_zeros + n_poles)
    )
    zeros, poles = tuple(points[:n_zeros].tolist()), tuple(points[n_zeros:].tolist())
    return Quotient(BlaschkeDisc(zeros), BlaschkeDisc(poles)), zeros, poles


def _certified_T1(f, oracle):
    """origin_identity_T(f) is the T(1) of _on_circles, within its bound
    and 1e-12 of the oracle."""
    value, bound = _on_circles(f, [1.0], SPHERICAL, nevanlinna._ORIGIN_CFG, ("T",))[0][0]
    assert origin_identity_T(f) == value
    assert abs(value - oracle.T(1)) <= min(bound, 1e-12)


class TestRhoOfR:
    def test_matches_definition(self):
        for r in (0.1, 0.5, 0.9, 0.999):
            assert rho_of_r(r) == pytest.approx(math.log((1 + r) / (1 - r)), rel=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rho_of_r(1.0)
        with pytest.raises(ValueError):
            rho_of_r(-0.1)


class TestShimizuS:
    def test_identity_covering_fraction(self):
        # S(r) = spherical area of image over full sphere area
        r = 0.5
        got = shimizu_S(Identity(), r, CFG)
        expect = (r * r / (1 + r * r)) / 1.0  # A_S(rD)/4pi = pi... closed form below
        # A_S(|w|<r) = 4 pi r^2/(1+r^2), normalised by 4 pi
        assert got == pytest.approx(r * r / (1 + r * r), rel=1e-9)

    def test_frozen_identity_value(self):
        assert shimizu_S(Identity(), 0.5, CFG) == pytest.approx(0.2, rel=1e-9)


class TestShimizuT:
    def test_identity_frozen_value(self):
        got = shimizu_T(Identity(), 0.5, CFG)
        assert got == pytest.approx(0.11157177565710485, rel=1e-8)

    def test_matches_nested_quadrature(self):
        # T(r) = int_0^r S(t)/t dt computed the slow way, outer grid coarse
        f = Compose(Koebe(), Scale(0.5))
        r = 0.6
        fast = shimizu_T(f, r, CFG)
        coarse = QuadConfig(abs_tol=1e-7, rel_tol=1e-7, max_depth=30, max_segments=4000)
        slow, _ = adaptive_integrate(
            lambda ts: np.array([shimizu_S(f, t, coarse) / t for t in ts]), 1e-6, r, coarse
        )
        assert fast == pytest.approx(slow, abs=1e-5)

    def test_growth_bounded_by_total_area_fraction(self):
        # T(r) - T(r/2) <= (A_S/4pi) log 2 for any f, sharp when the image
        # covers the sphere fully on the annulus
        f = Compose(Koebe(), Scale(0.7))
        r = 0.8
        t_hi = shimizu_T(f, r, CFG)
        t_lo = shimizu_T(f, r / 2, CFG)
        cap = shimizu_S(f, 1.0 - 1e-12, CFG)
        assert t_hi - t_lo <= cap * math.log(2) + 1e-8

    def test_monotone_in_r(self):
        f = BlaschkeDisc((0.4 + 0.1j,))
        vals = [shimizu_T(f, r, CFG) for r in (0.2, 0.4, 0.6, 0.8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


KOEBE_HALF = Compose(Koebe(), Scale(0.5))
KOEBE_HALF_ORACLE = Rational.koebe_scaled(0.5)
C11 = QuadConfig(abs_tol=1e-11, rel_tol=1e-11, max_depth=40, max_segments=20000)


class TestBoundaryCharacteristic:
    """S and T from one circle integral per radius against the 30-digit
    circle oracle, within the bounds the circle rule returns."""

    @staticmethod
    def _covered(f, radii, oracle, cfg, oracle_T=None):
        S, T = _on_circles(f, radii, SPHERICAL, cfg, ("A", "T"))
        for r, s, t in zip(radii, S, T):
            assert s[1] >= abs(s[0] - oracle.S(r))
            assert t[1] >= abs(t[0] - (oracle_T or oracle).T(r))
            # shimizu_S and shimizu_T certify only the quantity they return
            s = _on_circles(f, [r], SPHERICAL, cfg)[0][0]
            t = _on_circles(f, [r], SPHERICAL, cfg, ("T",))[0][0]
            assert s[1] >= abs(s[0] - oracle.S(r))
            assert t[1] >= abs(t[0] - (oracle_T or oracle).T(r))
            assert shimizu_S(f, r, cfg) == s[0] and shimizu_T(f, r, cfg) == t[0]

    def test_criterion_11_grid(self):
        radii = [round(0.1 * k, 1) for k in range(1, 10)]
        self._covered(KOEBE_HALF, radii, KOEBE_HALF_ORACLE, C11)

    def test_pooled_reference_radii(self):
        # perfbench's pooled T and curve radii, at the library defaults
        radii = [round(0.1 * k, 1) for k in range(1, 10)] + [0.25, 0.55, 0.85]
        self._covered(KOEBE_HALF, sorted(radii), KOEBE_HALF_ORACLE, AREA_DEFAULT)

    def test_poles_inside(self):
        num, den = (0.3 + 0.2j, -0.5j), (0.6 - 0.1j,)
        top, bottom = Rational.blaschke(num), Rational.blaschke(den)
        oracle = Rational(top.zeros + bottom.poles, top.poles + bottom.zeros,
                          top.scale / bottom.scale)
        f = Quotient(BlaschkeDisc(num), BlaschkeDisc(den))
        self._covered(f, [0.2, 0.65, 0.99], oracle, CFG)

    def test_pole_at_the_origin_uses_the_reciprocal(self):
        # f = (z + 0.5)/z: T(f) = T(1/f), and 1/f(0) = 0
        f = MobiusMap(MobiusTransform(1, 0.5, 1, 0))
        self._covered(f, [0.2, 0.7], Rational([-0.5], [0]), CFG, Rational([0], [-0.5]))

    def test_pole_on_a_circle_takes_the_reciprocal_for_S_alone(self, monkeypatch):
        # z/(z - 0.5) has its pole on |z| = 0.5, a zero of the reciprocal,
        # which stays on the route there; T needs a chart finite at 0, and
        # the reciprocal has a pole at 0, so T at 0.5 takes the nested
        # route.  The image of |z| < 0.5 is the half-plane Re w < 1/2,
        # which covers (1 + 1/sqrt 5)/2 of the sphere
        f, radii = MobiusMap(MobiusTransform(1, 0, 1, -0.5)), [0.3, 0.5]
        oracle = Rational([0], [0.5])
        exact = [oracle.S(0.3), (1 + 1 / math.sqrt(5)) / 2]
        for (value, bound), s in zip(_on_circles(f, radii, SPHERICAL, CFG)[0], exact):
            assert bound >= abs(value - s)
        calls = _spy_nested(monkeypatch)
        S, T = _on_circles(f, radii, SPHERICAL, CFG, ("A", "T"))
        assert calls == [(0.5, "T")]
        # S at 0.5 is the reciprocal's, as for S alone
        assert S[1] == _on_circles(f, [0.5], SPHERICAL, CFG)[0][0]
        assert shimizu_T(f, 0.5, CFG) == pytest.approx(oracle.T(0.5), abs=1e-8)
        assert characteristic_curve(f, radii, CFG).S_values[1] == shimizu_S(f, 0.5, CFG)

    def test_radii_on_and_off_the_route_in_one_call(self, monkeypatch):
        # (z - 0.5i)/(z - 0.5) has a zero and a pole on |z| = 0.5, so both
        # charts leave that circle off the route; the image of |z| < 0.5 is
        # a half-plane whose edge runs through 0, half the sphere
        f, radii = MobiusMap(MobiusTransform(1, -0.5j, 1, -0.5)), [0.3, 0.5, 0.7]
        calls = _spy_nested(monkeypatch)
        S, T = _on_circles(f, radii, SPHERICAL, CFG, ("A", "T"))
        assert sorted(calls) == [(0.5, "A"), (0.5, "T")]
        for i, r in enumerate(radii):
            assert (S[i], T[i]) == tuple(
                column[0] for column in _on_circles(f, [r], SPHERICAL, CFG, ("A", "T"))
            )
        assert S[1][1] >= abs(S[1][0] - 0.5)
        oracle = Rational([0.5j], [0.5])
        for i in (0, 2):
            assert S[i][1] >= abs(S[i][0] - oracle.S(radii[i]))
            assert T[i][1] >= abs(T[i][0] - oracle.T(radii[i]))

    @pytest.mark.parametrize(
        "f, rho",
        [
            (KOEBE_HALF, 2.0),
            # the pole on |z| = 0.5 puts both on the chart 1/f
            (MobiusMap(MobiusTransform(1, 0, 1, -0.5)), rho_of_r(0.5)),
            (Quotient(BlaschkeDisc((0.3 + 0.2j, -0.5j)), BlaschkeDisc((0.6 - 0.1j,))), 2.0),
        ],
        ids=["own-chart", "reciprocal-chart", "interior-pole"],
    )
    def test_spherical_area_is_4pi_S(self, f, rho):
        # one circle integral serves both, so they agree to the last bit
        assert area_with_bound(f, rho, SPHERICAL)[0] == 4.0 * math.pi * shimizu_S(
            f, math.tanh(rho / 2.0)
        )

    def test_small_radii_off_the_origin(self):
        f = Compose(Shift(0.3 + 0.2j), Scale(0.7))
        self._covered(f, [1e-5, 1e-3, 0.5], Rational([-(0.3 + 0.2j) / 0.7], [], 0.7), CFG)

    def test_exponential_maps_with_large_modulus(self):
        # |f| reaches e^9.5 and e^18 on the circle, where the affine part
        # of the log ratio at f(0) would dwarf the integrand
        self._covered(Compose(ExpMap(), inv_cayley_map()), [0.9],
                      ExpMobius(1j, 1j, -1, 1), AREA_DEFAULT)
        self._covered(Compose(ExpMap(), Scale(20.0)), [0.9], ExpMobius(20.0, 0, 0, 1),
                      AREA_DEFAULT)

    def test_scale_closed_form(self):
        # T(r) of c z is log(1 + c^2 r^2)/2
        for c in (0.5, 1.0, 2.0, 7.0):
            for r in (0.01, 0.2, 0.6, 0.9):
                exact = 0.5 * math.log1p(c * c * r * r)
                assert shimizu_T(Scale(c), r) == pytest.approx(exact, rel=1e-14, abs=1e-17)

    def test_nested_route_where_the_divisor_is_unknown(self, monkeypatch):
        # divisor() raises StructureError through an inner product of two
        # zeros, which is not Moebius; the composition is the Blaschke
        # product whose zeros solve B(z) = 0.5, B the inner product
        a, b, w = 0.3, -0.4, 0.5
        f = Compose(BlaschkeDisc((w,)), BlaschkeDisc((a, b)))
        calls = _spy_nested(monkeypatch)
        curve = characteristic_curve(f, (0.3, 0.6), CFG)
        assert sorted(calls) == [(0.3, "A"), (0.3, "T"), (0.6, "A"), (0.6, "T")]
        with mpmath.workdps(30):
            # B(z) = -(a - z)(b - z)/((1 - a z)(1 - b z)) for a > 0 > b
            a, b, w = (mpmath.mpf(x) for x in (a, b, w))
            zeros = mpmath.polyroots([-1 - w * a * b, (a + b) * (1 + w), -a * b - w])
        oracle = Rational.blaschke(zeros)
        for r, s, t in zip(curve.radii, curve.S_values, curve.T_values):
            assert s == pytest.approx(oracle.S(r), abs=1e-10)
            assert t == pytest.approx(oracle.T(r), abs=1e-10)


class TestCancelledPole:
    """B([0.5, 0.3])/B([0.5]) lists the zero and the pole 0.5 both; they
    cancel, and every quantity is that of B([0.3])."""

    F = Quotient(BlaschkeDisc((0.5, 0.3)), BlaschkeDisc((0.5,)))
    ORACLE = Rational.blaschke([0.3])

    def test_spherical_area_of_the_disc(self):
        # a one-zero factor maps the disc onto itself, half the sphere
        value, bound = area_with_bound(self.F, math.inf, SPHERICAL)
        assert bound >= abs(value - 2 * math.pi)

    def test_characteristic_curve(self):
        curve = characteristic_curve(self.F, (0.3, 0.76))
        for r, s, t in zip(curve.radii, curve.S_values, curve.T_values):
            assert s == pytest.approx(self.ORACLE.S(r), abs=1e-12)
            assert t == pytest.approx(self.ORACLE.T(r), abs=1e-12)

    def test_a_circle_through_the_cancelled_pair(self):
        # the pair on |z| = 0.5 keeps that circle off the route, whose
        # samples would hit the removable point
        assert shimizu_S(self.F, 0.5) == pytest.approx(self.ORACLE.S(0.5), abs=1e-12)

    def test_decomposition_and_origin_identity(self):
        dec = fatou_decompose(self.F)
        assert dec.b0_zeros == (0.3,) and dec.binf_poles == ()
        # the gate reads the listed points: a cancelled pair near the circle
        # still sits on it
        near = Quotient(BlaschkeDisc((0.9999999, 0.3)), BlaschkeDisc((0.9999999,)))
        with pytest.raises(BoundarySingularityError):
            fatou_decompose(near)
        # T(1) = -log 0.3 + log k(-0.3, 0) - log k(1, 0), k(w, 0) = 2|w|/sqrt(1 + |w|^2)
        assert origin_identity_T(self.F) == pytest.approx(0.5 * math.log(2 / 1.09), abs=1e-14)


class TestCharacteristicCurve:
    def test_curve_matches_pointwise(self):
        f = Compose(Koebe(), Scale(0.5))
        radii = (0.2, 0.5, 0.8)
        curve = characteristic_curve(f, radii, CFG)
        assert isinstance(curve, CharacteristicCurve)
        assert curve.radii == radii
        for r, t_val in zip(curve.radii, curve.T_values):
            assert t_val == pytest.approx(shimizu_T(f, r, CFG), rel=1e-8)
        for r, s_val in zip(curve.radii, curve.S_values):
            assert s_val == pytest.approx(shimizu_S(f, r, CFG), rel=1e-8)

    def test_radii_validation(self):
        with pytest.raises(DataError):
            characteristic_curve(Identity(), (), CFG)
        with pytest.raises(DataError):
            characteristic_curve(Identity(), (0.5, 0.2), CFG)
        with pytest.raises(DataError):
            characteristic_curve(Identity(), (0.5, 1.5), CFG)


class TestDecomposition:
    def test_single_blaschke_factor(self):
        a = 0.5 + 0j
        f = BlaschkeDisc((a,))
        dec = fatou_decompose(f)
        assert len(dec.b0_zeros) == 1
        assert dec.b0_zeros[0] == pytest.approx(a)
        assert dec.binf_poles == ()
        # |f0(0)|^2 + |finf(0)|^2 = exp(-2 T(1)) = (1+|a|^2)/2 exactly here
        lhs = abs(dec.f0_at(0j)) ** 2 + abs(dec.finf_at(0j)) ** 2
        assert lhs == pytest.approx((1 + abs(a) ** 2) / 2, abs=1e-12)

    def test_power_series_zero_found(self):
        f = PowerSeries((0.3, 0.5))  # zero at -0.6
        dec = fatou_decompose(f)
        assert len(dec.b0_zeros) == 1
        assert dec.b0_zeros[0] == pytest.approx(-0.6 + 0j, abs=1e-10)

    def test_quotient_zero_and_pole_captured(self):
        f = Quotient(Shift(0.7), Shift(0.5))  # zero at -0.7, pole at -0.5
        dec = fatou_decompose(f)
        assert len(dec.b0_zeros) == 1
        assert dec.b0_zeros[0] == pytest.approx(-0.7 + 0j, abs=1e-10)
        assert len(dec.binf_poles) == 1
        assert dec.binf_poles[0] == pytest.approx(-0.5 + 0j, abs=1e-10)

    def test_outside_zero_dropped(self):
        f = Quotient(Shift(2.0), Shift(0.5))  # zero at -2 is outside the disc
        dec = fatou_decompose(f)
        assert dec.b0_zeros == ()
        assert len(dec.binf_poles) == 1

    def test_mobius_pole(self):
        f = MobiusMap(MobiusTransform(1, 0.2, 1, 0.5))
        dec = fatou_decompose(f)
        assert len(dec.binf_poles) == 1
        assert dec.binf_poles[0] == pytest.approx(-0.5 + 0j, abs=1e-12)

    def test_boundary_identity_pythagoras(self):
        f = Quotient(BlaschkeDisc((0.3 + 0.2j,)), BlaschkeDisc((-0.4j,)))
        dec = fatou_decompose(f)
        worst = 0.0
        for k in range(64):
            zeta = cmath.exp(2j * math.pi * (k + 0.3) / 64)
            gap = abs(abs(dec.f0_at(zeta)) ** 2 + abs(dec.finf_at(zeta)) ** 2 - 1.0)
            worst = max(worst, gap)
        assert worst < 1e-10

    def test_quotient_reproduces_map(self):
        f = Quotient(Shift(0.7), Shift(0.5))
        dec = fatou_decompose(f)
        for z in (0j, 0.3 + 0.2j, -0.1 - 0.6j):
            got = dec.quotient_at(z)
            expect = evaluate(f, z).value
            assert got == pytest.approx(expect, rel=1e-10)

    def test_origin_identity_matches_characteristic(self):
        f = Quotient(BlaschkeDisc((0.3 + 0.2j,)), BlaschkeDisc((-0.4j,)))
        dec = fatou_decompose(f)
        lhs = abs(dec.f0_at(0j)) ** 2 + abs(dec.finf_at(0j)) ** 2
        assert lhs == pytest.approx(math.exp(-2 * origin_identity_T(f)), rel=1e-9)

    def test_origin_identity_closed_form(self):
        # for a single factor with zero a, exp(-2 T(1)) = (1+|a|^2)/2,
        # so T(1) = -log((1+|a|^2)/2) / 2
        for a in (0.5 + 0j, 0.3 - 0.4j, 0.1j):
            f = BlaschkeDisc((a,))
            expect = -0.5 * math.log((1 + abs(a) ** 2) / 2)
            assert origin_identity_T(f) == pytest.approx(expect, abs=1e-12)

    def test_origin_identity_resolves_near_the_circle(self):
        # f = z - a, with its zero at a, has
        # T(1) = log((2 + a^2 + sqrt(4 + a^4))/2)/2 - log(1 + a^2)/2; the
        # zero side is smooth on the circle, so no a needs many samples
        for a in (0.5, 0.99, 0.999, 0.9995, 0.9999, 0.99999):
            expect = 0.5 * math.log((2 + a * a + math.sqrt(4 + a**4)) / 2)
            expect -= 0.5 * math.log(1 + a * a)
            assert origin_identity_T(Shift(-a)) == pytest.approx(expect, abs=1e-10)

    def test_origin_identity_reads_only_the_zero_side(self):
        # f = 1/(z - p) with its pole just outside the circle: T's
        # integrand log(1 + |f|^2) peaks at p, and the Jensen peel makes it
        # smooth; log k(f, inf) has a log singularity at p and does not
        # resolve by 65 536, and T(1, f) = T(1, z - p) has the closed form above
        for p in (1.001, 1.0001):
            f = MobiusMap(MobiusTransform(0, 1, 1, -p))
            expect = 0.5 * math.log((2 + p * p + math.sqrt(4 + p**4)) / 2)
            expect -= 0.5 * math.log(1 + p * p)
            assert origin_identity_T(f) == pytest.approx(expect, abs=1e-14)
        with pytest.raises(ResolutionError, match="65536"):
            fatou_decompose(f)

    @pytest.mark.parametrize(
        "n_zeros,n_poles", [(z, p) for z in range(5) for p in range(5) if z or p]
    )
    def test_origin_identity_on_criterion_10_maps(self, n_zeros, n_poles):
        # |f| = 1 on the circle: T's integrand is constant there, and none of
        # the poles 1/conj(b) is close enough to it to be peeled
        f, zeros, poles = _criterion_10(n_zeros, n_poles)
        top, bottom = Rational.blaschke(zeros), Rational.blaschke(poles)
        oracle = Rational(top.zeros + bottom.poles, top.poles + bottom.zeros,
                          top.scale / bottom.scale)
        _certified_T1(f, oracle)

    def test_origin_identity_with_a_pole_near_the_circle(self):
        # (z - 0.999)/(z + 1.001): the unpeeled integrand peaks at -1.001
        f = MobiusMap(MobiusTransform(1, -0.999, 1, 1.001))
        _certified_T1(f, Rational([0.999], [-1.001]))

    @pytest.mark.parametrize("p", [1.001, 1.0001, 1.003, 1.01, 1.05, 1.2, 2.0])
    def test_origin_identity_with_a_pole_outside(self, p):
        # the poles closer than the band are peeled, the others are not
        _certified_T1(MobiusMap(MobiusTransform(0, 1, 1, -p)), Rational([], [p]))

    @pytest.mark.parametrize("r", [0.899, 0.8995, 0.9005])
    def test_T_beside_a_pole_takes_the_peel(self, r):
        # z/(z - 0.9) on circles a relative 1e-3 or less from its pole,
        # inside and outside it
        f = MobiusMap(MobiusTransform(1, 0, 1, -0.9))
        value, bound = _on_circles(f, [r], SPHERICAL, AREA_DEFAULT, ("T",))[0][0]
        assert bound >= abs(value - Rational([0], [0.9]).T(r))
        assert shimizu_T(f, r) == value

    @pytest.mark.parametrize("a", [1e-3, 1e-6])
    def test_T_with_a_large_value_at_the_origin_keeps_its_precision(self, a):
        # f = 1/B with B's zero at a has |f(0)| = 1/a and |f| = 1 on the
        # unit circle: log1p of T's log ratio, near -1 there, would swell
        # its rounding by up to 1 + 1/a^2 (2e-5 at a = 1e-6)
        f = Quotient(ConstMap(1.0), BlaschkeDisc((a,)))
        top = Rational.blaschke([a])
        oracle = Rational(top.poles, top.zeros, 1 / top.scale)
        _certified_T1(f, oracle)
        value, bound = _on_circles(f, [0.9], SPHERICAL, AREA_DEFAULT, ("T",))[0][0]
        assert abs(value - oracle.T(0.9)) <= min(bound, AREA_DEFAULT.abs_tol / (4 * math.pi))

    def test_T_with_no_pole_near_reads_the_divisor_once(self, monkeypatch):
        # Koebe . scale(0.5) has its pole at 2, outside the peel's band of
        # every circle: polar_divisor's read is the only one, as for areas
        calls = []
        divisor = Compose.divisor
        monkeypatch.setattr(Compose, "divisor", lambda self: calls.append(1) or divisor(self))
        for r in (0.5, 0.95):
            shimizu_T(KOEBE_HALF, r)
        assert len(calls) == 2

    def test_T_beside_a_pole_keeps_the_plain_form(self):
        # the pole at a, a relative 8e-4 outside |z| = 0.9, is peeled; the
        # linear part at g(0) keeps its peak, so the form less that part
        # would not certify, although its first samples are the smaller
        a, inner = 0.043381 - 0.899667j, (-0.312071 - 0.042939j, 0.475351 - 0.467783j)
        f = Quotient(BlaschkeDisc(inner), BlaschkeDisc((a,)))
        top, bottom = Rational.blaschke(inner), Rational.blaschke([a])
        oracle = Rational(top.zeros + bottom.poles, top.poles + bottom.zeros,
                          top.scale / bottom.scale)
        value, bound = _on_circles(f, [0.9], SPHERICAL, AREA_DEFAULT, ("T",))[0][0]
        assert bound >= abs(value - oracle.T(0.9))

    def test_T_at_one_off_the_route_raises(self, monkeypatch):
        # the divisor of the composition raises, so |z| = 1 is off the
        # route; the nested route's r = 1 branch is the area window loop,
        # which T must never reach, S with it or not
        f = Compose(BlaschkeDisc((0.5,)), BlaschkeDisc((0.3, -0.4)))
        calls = _spy_nested(monkeypatch)
        for want in (("T",), ("A", "T")):
            with pytest.raises(StructureError, match="r = 1"):
                _on_circles(f, [1.0], SPHERICAL, CFG, want)
        assert calls == []

    def test_vanishing_at_origin_rejected(self):
        with pytest.raises(NormalizationError):
            fatou_decompose(Identity())

    def test_pole_at_origin_rejected(self):
        with pytest.raises(NormalizationError):
            fatou_decompose(Quotient(ConstMap(1.0), Identity()))

    def test_boundary_zero_rejected(self):
        with pytest.raises(BoundarySingularityError):
            fatou_decompose(Koebe())

    def test_near_boundary_zero_rejected(self):
        with pytest.raises(BoundarySingularityError):
            fatou_decompose(BlaschkeDisc((0.999999999 + 0j,)))

    def test_compose_pullback_finds_zero(self):
        # f = B(z/2) has its zero where z/2 = 0.3, i.e. at 0.6
        f = Compose(BlaschkeDisc((0.3 + 0j,)), Scale(0.5))
        dec = fatou_decompose(f)
        assert len(dec.b0_zeros) == 1
        assert dec.b0_zeros[0] == pytest.approx(0.6 + 0j, abs=1e-9)

    def test_exp_has_no_zeros_or_poles(self):
        # exp(z/(z-3)) is essential only at 3, outside the disc
        for f in (
            Compose(ExpMap(), Scale(0.5)),
            Compose(ExpMap(), MobiusMap(MobiusTransform(1, 0, 1, -3))),
        ):
            dec = fatou_decompose(f)
            assert dec.b0_zeros == () and dec.binf_poles == ()

    @pytest.mark.parametrize(
        "f, zeros, poles",
        [
            # 4z - 2: the outer zero at 2 pulls back to 1/2
            (Compose(Shift(-2.0), Scale(4.0)), [0.5], []),
            # Koebe's double pole at 1 pulls back to 3/4, twice
            (Compose(Koebe(), Shift(0.25)), [-0.25], [0.75, 0.75]),
            # the Blaschke factor's pole at 2 pulls back to 2/3
            (Compose(BlaschkeDisc((0.5 + 0j,)), Scale(3.0)), [1 / 6], [2 / 3]),
            # (0.2 z + 1)/(z - 0.5) sends 1/2 to infinity, Koebe's simple
            # zero; its zero at 0 pulls back to -5 and its pole to 1.875
            (Compose(Koebe(), MobiusMap(MobiusTransform(0.2, 1, 1, -0.5))), [0.5], []),
        ],
        ids=["linear", "koebe", "blaschke", "koebe-moebius-pole"],
    )
    def test_pullback_finds_points_from_outside_the_disc(self, f, zeros, poles):
        dec = fatou_decompose(f)
        assert dec.b0_zeros == pytest.approx(zeros, abs=1e-12)
        assert dec.binf_poles == pytest.approx(poles, abs=1e-12)
        worst = 0.0
        for k in range(64):
            zeta = cmath.exp(2j * math.pi * (k + 0.3) / 64)
            worst = max(worst, abs(dec.quotient_at(zeta) - evaluate(f, zeta).value))
        assert worst <= 1e-10
        assert origin_identity_T(f) >= 0.0

    @pytest.mark.parametrize(
        "f",
        [
            # exp(z/(z-1/2)) is essential at 1/2, inside the disc
            Compose(ExpMap(), MobiusMap(MobiusTransform(1, 0, 1, -0.5))),
            ConstMap(0.0),
            PowerSeries((0.0,)),
            Scale(0.0),
        ],
        ids=["exp-essential-inside", "const-zero", "powerseries-zero", "scale-zero"],
    )
    def test_map_without_divisor_rejected(self, f):
        with pytest.raises(StructureError):
            fatou_decompose(f)

    def test_array_evaluation_keeps_shape(self):
        f = Quotient(BlaschkeDisc((0.3 + 0.2j, -0.5j)), BlaschkeDisc((0.6 - 0.1j,)))
        dec = fatou_decompose(f, 512)
        radii = np.array([1.0, 0.9, 0.5, 0.1])[:, None]
        zs = radii * np.exp(2j * np.pi * (np.arange(16) + 0.3) / 16)
        for at in (dec.f0_at, dec.finf_at, dec.quotient_at):
            got = at(zs)
            assert got.shape == (4, 16)
            for z, v in zip(zs.flat, got.flat):
                assert abs(v - at(z)) <= 1e-15 * abs(at(z))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 2048])
    def test_side_matches_mpmath_power_series(self, n):
        # f0 = exp(c_0 + 2 sum_{k >= 1} c_k z^k) / 2 when there are no zeros
        # and no phase; the reference sums the series at 40 digits.  The 41
        # distinct points (0, circle, r <= 0.99) are tiled to 328, so the batch
        # spans several of the kernel's row blocks and ends inside one
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(n)
        coeffs = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / (2.0 + np.arange(n))
        dec = Decomposition((), (), tuple(complex(c) for c in coeffs), (0j,), 256, 0.0)
        angles = 2.0 * np.pi * rng.random(40)
        radii = np.concatenate([np.ones(20), 0.99 * np.sqrt(rng.random(20))])
        distinct = np.concatenate([[0j], radii * np.exp(1j * angles)])
        with mpmath.workdps(40):
            cs = [mpmath.mpc(c.real, c.imag) for c in coeffs]
            ref = []
            for z in distinct:
                w, acc = mpmath.mpc(z.real, z.imag), mpmath.mpc(0)
                for c in reversed(cs[1:]):
                    acc = (acc + c) * w
                ref.append(complex(mpmath.exp(cs[0] + 2 * acc) / 2))
        batch = np.tile(distinct, 8)
        want = np.tile(ref, 8)
        grid = dec.f0_at(batch[:64].reshape(4, 16))
        assert grid.shape == (4, 16)
        scalars = [dec.f0_at(complex(z)) for z in distinct]
        assert all(isinstance(v, complex) for v in scalars)
        for got, expect in (
            (dec.f0_at(batch), want),
            (grid, want[:64].reshape(4, 16)),
            (np.array(scalars), np.array(ref)),
        ):
            assert np.max(np.abs(got - expect) / np.abs(expect)) <= 1e-14

    @pytest.mark.parametrize(
        "f",
        [
            BlaschkeDisc((0.5 + 0j,)),
            Compose(Shift(-2.0), Scale(4.0)),
            Compose(Koebe(), Shift(0.25)),
            Compose(BlaschkeDisc((0.5 + 0j,)), Scale(3.0)),
        ],
        ids=["blaschke", "linear", "koebe", "blaschke-scaled"],
    )
    def test_residuals_at_default_samples(self, f):
        dec = fatou_decompose(f)
        assert dec.boundary_samples == 4096
        assert all(r <= 1e-10 for r in dec.residuals(f))

    def test_product_of_blaschke_factors(self):
        f = Product(BlaschkeDisc((0.5 + 0j,)), BlaschkeDisc((-0.3 + 0.2j,)))
        dec = fatou_decompose(f, 256)
        assert dec.b0_zeros == pytest.approx((0.5, -0.3 + 0.2j), abs=1e-15)
        assert dec.binf_poles == ()
        assert all(r <= 1e-14 for r in dec.residuals(f))

    def test_samples_double_until_the_boundary_data_resolves(self):
        # log k(z - 0.99, 0) on the circle has Fourier coefficients that
        # decay as 0.99^n, which the tail gate accepts at 2 048 samples
        f = Shift(-0.99)
        dec = fatou_decompose(f, 256)
        assert dec.boundary_samples == 2048
        assert all(r < 1e-6 for r in dec.residuals(f))
        with pytest.raises(ResolutionError, match="65536"):
            fatou_decompose(Shift(-0.99999), 256)

    def test_manifest_lists_zeros_and_fourier_data(self):
        f = BlaschkeDisc((0.5 + 0j,))
        dec = fatou_decompose(f)
        text = dec.to_manifest()
        lines = text.splitlines()
        assert lines[0] == f"boundary_samples: {dec.boundary_samples}"
        zi = lines.index("zeros: 1")
        assert lines[zi + 1].split() == ["0.5", "0.0"]
        assert "poles: 0" in lines
        assert any(line.startswith("u0_fourier:") for line in lines)
        assert any(line.startswith("uinf_fourier:") for line in lines)

    @pytest.mark.parametrize(
        "f",
        [
            Quotient(BlaschkeDisc((0.3 + 0.2j, -0.5j)), BlaschkeDisc((0.6 - 0.1j,))),
            Compose(Koebe(), Shift(0.25)),
        ],
        ids=["blaschke-quotient", "koebe-shifted"],
    )
    def test_fourier_data_is_the_rfft_bit_for_bit(self, f):
        # the manifest prints these tuples with repr, so they must be Python
        # complex values equal in every bit to rfft(u)/m without the Nyquist term
        dec = fatou_decompose(f, 256)
        m = dec.boundary_samples
        u0, uinf = _log_chordal(evaluate(f, _circle(m)))
        for got, u in ((dec.u0_fourier, u0), (dec.uinf_fourier, uinf)):
            want = (np.fft.rfft(u) / m)[:-1]
            assert len(got) == len(want) == m // 2
            assert all(type(c) is complex for c in got)
            assert [(c.real.hex(), c.imag.hex()) for c in got] == [
                (float(c.real).hex(), float(c.imag).hex()) for c in want
            ]


class TestOnePassEvaluator:
    """f0_at, finf_at and quotient_at share one values-only pass: the
    Blaschke values without derivatives, one power-series call over both
    sides' stacked blocks and one exp."""

    @pytest.mark.parametrize(
        "n_zeros,n_poles", [(z, p) for z in range(5) for p in range(5) if z or p]
    )
    def test_quotient_reproduces_criterion_10_maps(self, n_zeros, n_poles):
        f, zeros, poles = _criterion_10(n_zeros, n_poles)
        dec = fatou_decompose(f)
        rng = np.random.default_rng(n_zeros + 10 * n_poles)
        circle = np.exp(2j * np.pi * (np.arange(16) + rng.random()) / 16)
        inside = []
        while len(inside) < 16:
            z = 0.95 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            # away from the zeros and poles, where relative error is not defined
            if all(abs(z - p) > 0.05 for p in zeros + poles):
                inside.append(z)
        pts = np.concatenate([circle, inside])
        want = _blaschke(zeros, pts) / _blaschke(poles, pts)
        got = dec.quotient_at(pts)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10
        split = dec.f0_at(pts) / dec.finf_at(pts)
        assert np.all(np.abs(split - got) <= 4 * EPS * np.abs(got))
        for z in pts.tolist():
            q = dec.quotient_at(z)
            assert abs(dec.f0_at(z) / dec.finf_at(z) - q) <= 4 * EPS * abs(q)

    def test_points_off_the_closed_disc_raise(self):
        f, _, _ = _criterion_10(2, 1)
        dec = fatou_decompose(f, 256)
        mixed = np.array([[0.2 + 0.1j, 0.5j], [1.5 + 0j, -0.3 + 0j]])
        for at in (dec.f0_at, dec.finf_at, dec.quotient_at):
            for z in (1.5, mixed):
                with pytest.raises(DomainError, match=r"\(1\.5\+0j\) is outside the closed unit disc"):
                    at(z)

    @pytest.mark.parametrize("n_zeros,n_poles", [(0, 1), (1, 0), (1, 1), (2, 3), (4, 2)])
    def test_a_lone_point_agrees_with_the_batch(self, n_zeros, n_poles):
        # not bit for bit: BLAS block sizes and numpy's one-element loops
        # round apart in the last bit at many points
        f, _, _ = _criterion_10(n_zeros, n_poles)
        dec = fatou_decompose(f)
        rng = np.random.default_rng(7)
        pts = np.concatenate([
            np.exp(2j * np.pi * rng.random(50)),
            0.99 * np.sqrt(rng.random(250)) * np.exp(2j * np.pi * rng.random(250)),
        ])
        for at in (dec.f0_at, dec.finf_at, dec.quotient_at):
            batch = at(pts)
            lone = np.array([at(z) for z in pts.tolist()])
            assert np.all(np.abs(lone - batch) <= 4 * EPS * np.abs(batch))


class TestPowerSeriesKernel:
    @pytest.mark.parametrize("count", [1, 64, 65, 130])
    @pytest.mark.parametrize("nblocks", [1, 2, 32, 33])
    def test_matches_polyval(self, nblocks, count):
        # the last block is partly zero padding, as Decomposition pads it; the
        # points hold 0, circle points and interior points, and the batches of
        # 65 and 130 cross the kernel's row blocks
        rng = np.random.default_rng(100 * nblocks + count)
        n = 64 * nblocks - 5
        coeffs = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / (1.0 + np.arange(n))
        blocks = np.pad(coeffs, (0, 5)).reshape(nblocks, 64)
        angles = 2.0 * np.pi * rng.random(count)
        radii = np.where(np.arange(count) % 2 == 0, 1.0, rng.random(count))
        zs = radii * np.exp(1j * angles)
        batches = [zs, np.array([0j])] if count == 1 else [np.concatenate([[0j], zs[1:]])]
        for z in batches:
            want = np.polynomial.polynomial.polyval(z, coeffs)
            # relative to the sum of the moduli of the terms, the scale of
            # the rounding error of any summation order
            scale = np.polynomial.polynomial.polyval(np.abs(z), np.abs(coeffs))
            got = _power_series(blocks, z)
            assert got.shape == z.shape
            assert np.all(np.abs(got - want) <= 1e-14 * scale)

    @pytest.mark.parametrize("count", [1, 65])
    @pytest.mark.parametrize("lengths", [(64, 64), (2048, 1), (59, 130), (1, 2048)])
    def test_stacked_sides_match_each_side_alone(self, lengths, count):
        # Decomposition stacks its two sides into one (2, J, 64) array, the
        # shorter one zero-padded; each row of the stacked sum is its side's
        # series within the same bound
        rng = np.random.default_rng(sum(lengths) + count)
        nblocks = -(-max(lengths) // 64)
        blocks = np.zeros((2, nblocks * 64), dtype=complex)
        series = []
        for row, n in zip(blocks, lengths):
            coeffs = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / (1.0 + np.arange(n))
            row[:n] = coeffs
            series.append(coeffs)
        blocks = blocks.reshape(2, nblocks, 64)
        radii = np.where(np.arange(count) % 2 == 0, 1.0, rng.random(count))
        z = radii * np.exp(2j * np.pi * rng.random(count))
        got = _power_series(blocks, z)
        assert got.shape == (2, count)
        for side, coeffs, row in zip(got, series, blocks):
            scale = np.polynomial.polynomial.polyval(np.abs(z), np.abs(coeffs))
            alone = _power_series(row[: -(-len(coeffs) // 64)], z)
            assert np.all(np.abs(side - np.polynomial.polynomial.polyval(z, coeffs)) <= 1e-14 * scale)
            assert np.all(np.abs(side - alone) <= 1e-14 * scale)


class TestUniformDelta:
    def test_matches_decomposition_route(self):
        f = Quotient(BlaschkeDisc((0.3 + 0.2j,)), BlaschkeDisc((-0.4j,)))
        probes = (0.1 + 0.1j, -0.2 + 0.4j, 0.5 - 0.3j)
        delta = uniform_characteristic_delta(f, probes)
        dec = fatou_decompose(f)
        direct = min(
            math.sqrt(abs(dec.f0_at(z)) ** 2 + abs(dec.finf_at(z)) ** 2)
            for z in probes
        )
        assert delta == pytest.approx(direct, rel=1e-9)

    def test_positive_for_nonvanishing_pair(self):
        f = Quotient(Shift(0.7), Shift(0.5))
        delta = uniform_characteristic_delta(f, (0j, 0.2 + 0.1j))
        assert delta > 0

    def test_empty_probe_list_rejected(self):
        f = BlaschkeDisc((0.5 + 0j,))
        with pytest.raises(ValueError):
            uniform_characteristic_delta(f, ())

    def test_pair_input_accepted(self):
        pair = (
            Product(ConstMap(0.5), BlaschkeDisc((0.5 + 0j,))),
            ConstMap(0.5),
        )
        delta = uniform_characteristic_delta(pair, (0j, 0.2 + 0.1j))
        assert 0 < delta <= 1
