import cmath
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from arclab.errors import (
    ConstructionError,
    DomainError,
    EvaluationError,
    IndeterminateFormError,
    RangeError,
    StructureError,
    TagMismatchError,
)
from arclab.maps import (
    BlaschkeDisc,
    BlaschkeHalfPlane,
    Compose,
    ConstMap,
    ExpMap,
    Identity,
    Jet,
    Koebe,
    LogMap,
    MapExpr,
    MobiusMap,
    PowerSeries,
    Product,
    Quotient,
    Scale,
    Shift,
    cayley_map,
    evaluate,
    inv_cayley_map,
    symmetry_check,
    _jet_div,
    _jet_mul,
)
import arclab.maps as maps
from arclab.funcspec import parse
from arclab.metrics import INFINITY, MetricId, MobiusTransform, norm_from_jet

H = MetricId.HYPERBOLIC_DISC
HP = MetricId.HYPERBOLIC_HALF_PLANE
E = MetricId.EUCLIDEAN


def fd_derivative(f: MapExpr, z: complex, h: float = 1e-6) -> complex:
    hi = h * 1j
    return (
        evaluate(f, z + h).value
        - evaluate(f, z - h).value
        - 1j * (evaluate(f, z + hi).value - evaluate(f, z - hi).value)
    ) / (4 * h)


def batch(*jets):
    """(value, derivative, pole) arrays holding the given scalar jets."""
    return (
        np.array([0j if j.is_pole else j.value for j in jets]),
        np.array([complex(j.derivative) for j in jets]),
        np.array([j.is_pole for j in jets]),
    )


def unbatch(arrays):
    """The scalar jets held in (value, derivative, pole) arrays."""
    value, derivative, pole = arrays
    return [Jet(INFINITY if p else v, d) for v, d, p in zip(value, derivative, pole)]


def mul(p, q):
    return unbatch(_jet_mul(batch(p), batch(q)))[0]


def div(p, q):
    return unbatch(_jet_div(batch(p), batch(q)))[0]


class TestJetArithmetic:
    def test_mul_finite(self):
        got = mul(Jet(2 + 0j, 3 + 0j), Jet(5 + 0j, 7 + 0j))
        assert got.value == 10 and got.derivative == 2 * 7 + 3 * 5

    def test_mul_pole_times_finite(self):
        got = mul(Jet(INFINITY, 0.5 + 0j), Jet(4 + 0j, 1 + 0j))
        assert got.is_pole
        assert got.derivative == pytest.approx(0.5 / 4)

    def test_mul_pole_times_pole(self):
        got = mul(Jet(INFINITY, 2 + 0j), Jet(INFINITY, 3 + 0j))
        assert got.is_pole and got.derivative == 0

    def test_mul_pole_times_zero_indeterminate(self):
        with pytest.raises(IndeterminateFormError):
            mul(Jet(INFINITY, 1 + 0j), Jet(0j, 1 + 0j))

    def test_div_finite(self):
        got = div(Jet(6 + 0j, 1 + 0j), Jet(2 + 0j, 0j))
        assert got.value == 3 and got.derivative == pytest.approx(0.5)

    def test_div_by_zero_gives_pole(self):
        got = div(Jet(1 + 0j, 0j), Jet(0j, 2 + 0j))
        assert got.is_pole
        # chart derivative of 1/f: (q/p)' = q' / p at the zero
        assert got.derivative == pytest.approx(2.0)

    def test_div_zero_over_zero_indeterminate(self):
        with pytest.raises(IndeterminateFormError):
            div(Jet(0j, 1 + 0j), Jet(0j, 1 + 0j))

    def test_div_pole_over_pole_indeterminate(self):
        with pytest.raises(IndeterminateFormError):
            div(Jet(INFINITY, 1 + 0j), Jet(INFINITY, 1 + 0j))

    def test_div_finite_over_pole_is_zero(self):
        got = div(Jet(3 + 0j, 1 + 0j), Jet(INFINITY, 2 + 0j))
        assert got.value == 0
        assert got.derivative == pytest.approx(6.0)


class TestLeaves:
    def test_identity(self):
        jet = evaluate(Identity(), 0.2 + 0.1j)
        assert jet.value == 0.2 + 0.1j and jet.derivative == 1.0

    def test_const(self):
        jet = evaluate(ConstMap(3 - 1j), 0.5j)
        assert jet.value == 3 - 1j and jet.derivative == 0.0

    def test_power_series_horner(self):
        f = PowerSeries((1, 2, 3))  # 1 + 2z + 3z^2
        jet = evaluate(f, 0.5 + 0j)
        assert jet.value == pytest.approx(1 + 1 + 0.75)
        assert jet.derivative == pytest.approx(2 + 3)

    def test_power_series_needs_coefficients(self):
        with pytest.raises(ConstructionError):
            PowerSeries(())

    def test_koebe_frozen_jet(self):
        jet = evaluate(Koebe(), 0.3 + 0j)
        assert jet.value.real == pytest.approx(0.6122448979591837, abs=1e-15)
        assert jet.derivative.real == pytest.approx(3.7900874635568516, rel=1e-14)

    def test_exp_overflow(self):
        # past log(max float) e^z overflows: the jet is the 1/f chart,
        # e^{-z} with derivative -e^{-z}, which the spherical norm accepts
        f = ExpMap()
        assert evaluate(f, 709 + 0j).value == pytest.approx(math.exp(709), rel=1e-15)
        jet = evaluate(f, 710 + 1j)
        assert jet.is_pole
        assert jet.derivative == pytest.approx(-cmath.exp(-710 - 1j), rel=1e-15)
        far = evaluate(f, 1e9 + 0j)
        assert far.is_pole and far.derivative == 0
        assert norm_from_jet(jet, 0j, H, MetricId.SPHERICAL) == pytest.approx(
            abs(jet.derivative)
        )
        with pytest.raises(RangeError):
            norm_from_jet(jet, 0j, H, E)

    def test_exp_chain_overflow_goes_to_chart(self):
        # koebe(z) = 705: e^705 is finite but e^705 koebe'(z) is not
        c = 705.0
        z = ((2 * c + 1) - math.sqrt(4 * c + 1)) / (2 * c)
        jet = evaluate(Compose(ExpMap(), Koebe()), z + 0j)
        assert jet.is_pole
        koebe_derivative = (1 + z) / (1 - z) ** 3
        assert jet.derivative == pytest.approx(-math.exp(-c) * koebe_derivative, rel=1e-9)

    def test_log_principal_branch(self):
        jet = evaluate(LogMap(), -1 + 0j)
        assert jet.value == pytest.approx(1j * math.pi)
        assert jet.derivative == pytest.approx(-1.0)
        with pytest.raises(EvaluationError):
            evaluate(LogMap(), 0j)

    def test_mobius_pole_jet(self):
        f = MobiusMap(MobiusTransform(0, 1, 1, -0.5))  # 1/(z - 1/2)
        jet = evaluate(f, 0.5 + 0j)
        assert jet.is_pole
        # chart 1/f = z - 0.5 has derivative 1
        assert jet.derivative == pytest.approx(1.0)

    def test_finite_difference_agreement(self):
        maps = [
            Koebe(),
            PowerSeries((0.1, 0.5, -0.2, 0.05j)),
            BlaschkeDisc((0.3 + 0.2j, -0.4j)),
            MobiusMap(MobiusTransform(1, 0.2, 1, 0.5)),
            Compose(ExpMap(), Scale(0.7)),
            Product(Identity(), Shift(0.3)),
            Quotient(Shift(0.7), Shift(-2)),
        ]
        z = 0.23 - 0.17j
        for f in maps:
            jet = evaluate(f, z)
            assert jet.derivative == pytest.approx(fd_derivative(f, z), rel=2e-8)


class TestClosureSlack:
    def test_disc_boundary_point_allowed(self):
        evaluate(BlaschkeDisc((0.5 + 0j,)), cmath.exp(0.7j))

    def test_point_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            evaluate(BlaschkeDisc((0.5 + 0j,)), 1.1 + 0j)

    def test_half_plane_real_axis_allowed(self):
        evaluate(BlaschkeHalfPlane((1.0,)), 5.0 + 0j)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            evaluate(BlaschkeHalfPlane((1.0,)), -1j)


class TestComposeTags:
    def test_mismatch_rejected(self):
        with pytest.raises(TagMismatchError):
            Compose(cayley_map(), cayley_map())

    def test_inferred_domain_from_inner(self):
        f = Compose(Scale(2.0), cayley_map())
        assert f.domain is HP
        assert f.codomain is None

    def test_inferred_domain_from_outer_when_inner_untagged(self):
        f = Compose(BlaschkeHalfPlane((1.0,)), Shift(1.0))
        assert f.domain is HP

    def test_cayley_roundtrip_is_identity(self):
        f = Compose(cayley_map(), inv_cayley_map())
        assert f.domain is H and f.codomain is H
        for z in (0j, 0.3 + 0.4j, -0.5j):
            jet = evaluate(f, z)
            assert jet.value == pytest.approx(z, abs=1e-14)
            assert jet.derivative == pytest.approx(1.0, abs=1e-14)

    def test_compose_through_pole_needs_mobius_outer(self):
        inner = MobiusMap(MobiusTransform(0, 1, 1, -0.5))  # pole at 0.5
        bad = Compose(ExpMap(), inner)
        with pytest.raises(EvaluationError):
            evaluate(bad, 0.5 + 0j)

    def test_compose_through_pole_with_mobius_outer(self):
        inner = MobiusMap(MobiusTransform(0, 1, 1, -0.5))  # 1/(z-0.5)
        outer = MobiusMap(MobiusTransform(0, 1, 1, 0))  # 1/w
        f = Compose(outer, inner)
        jet = evaluate(f, 0.5 + 0j)
        assert jet.value == pytest.approx(0j)
        assert jet.derivative == pytest.approx(1.0)

    def test_compose_through_pole_under_any_transform(self):
        # a scale keeps Koebe's pole, whose chart (1 - z)^2/z has a double
        # zero at 1; a one-zero Blaschke factor, a Moebius map, sends the
        # pole of 1/(z - 0.5) to 1/conj(a) = 2; a scale by 0 has no
        # transform and still raises
        jet = evaluate(Compose(Scale(2.0), Koebe()), 1.0 + 0j)
        assert jet.is_pole and jet.derivative == 0
        inner = MobiusMap(MobiusTransform(0, 1, 1, -0.5))
        jet = evaluate(Compose(BlaschkeDisc((0.5,)), inner), 0.5 + 0j)
        assert jet.value == pytest.approx(2.0)
        with pytest.raises(EvaluationError, match="needs a Moebius outer map"):
            evaluate(Compose(Scale(0.0), Koebe()), 1.0 + 0j)

    def test_power_series_outer_through_an_inner_pole(self):
        # g = 1/(z - 1/2), whose 1/g chart has derivative 1 at z = 1/2: a
        # constant outer gives its constant, degree 1 a pole whose 1/f chart
        # has derivative 1/c_1, degree 2 and past a pole of 1/f with a
        # double zero; trailing zero coefficients do not count
        inner = MobiusMap(MobiusTransform(0, 1, 1, -0.5))
        cases = [
            ((3.0 + 1j, 0.0), False, 3.0 + 1j, 0.0),
            ((5.0, 2.0 - 1j), True, 0.0, 1.0 / (2.0 - 1j)),
            ((5.0, 2.0, -1j, 0.0), True, 0.0, 0.0),
        ]
        z = np.array([0.1j, 0.5 + 0j, -0.3 + 0.2j])
        for coeffs, is_pole, value, derivative in cases:
            f = Compose(PowerSeries(coeffs), inner)
            jet = evaluate(f, 0.5 + 0j)
            assert jet.is_pole == is_pole
            assert jet.derivative == derivative
            assert is_pole or jet.value == value
            # the other points of a batch by the chain rule
            got = evaluate(f, z)
            iv, idr, _ = evaluate(inner, z)
            ov, od, _ = evaluate(PowerSeries(coeffs), iv)
            assert _bits([got[0][::2], got[1][::2]]) == _bits([ov[::2], (od * idr)[::2]])
            assert got[2].tolist() == [False, is_pole, False]

    def test_mobius_outer_sending_pole_to_pole(self):
        inner = MobiusMap(MobiusTransform(0, 1, 1, -0.5))
        outer = MobiusMap(MobiusTransform(2, 1, 0, 1))  # 2w + 1, fixes infinity
        f = Compose(outer, inner)
        jet = evaluate(f, 0.5 + 0j)
        assert jet.is_pole
        assert jet.derivative == pytest.approx(0.5)


class TestDivisor:
    def test_pullback_through_a_moebius_pole(self):
        # t(z) = (z - 0.3)/(1 - 0.3 z) sends 10/3 to infinity, where Koebe
        # has a simple zero; Koebe's zero at 0 and double pole at 1 pull
        # back to 0.3 and 1
        f = parse("koebe() . mobius(1+0i,-0.3+0i,-0.3+0i,1+0i)")
        zeros, poles, essential = f.divisor()
        assert sorted(zeros, key=abs) == pytest.approx([0.3, 10 / 3], abs=1e-15)
        assert poles == pytest.approx([1.0, 1.0], abs=1e-15)
        assert essential == []

    @pytest.mark.parametrize(
        "text",
        [
            "powerseries([0+0i,1+0i,0.5+0.5i,0+0i])",
            "powerseries([2+0i])",
            "koebe() . mobius(1+0i,-0.3+0i,-0.3+0i,1+0i)",
            "blaschke_disc([0.3+0.2i,-0.5+0i]) * powerseries([1+0i,0+0i,0.2+0i])",
            "exp() . inv_cayley()",
            "blaschke_hp([1,2,4])",
            "scale(10+0i) . koebe()",
        ],
    )
    def test_polar_divisor_agrees_with_divisor(self, text):
        f = parse(text)
        zeros, poles, essential = f.divisor()
        assert f.polar_divisor() == (poles, essential, len(zeros) + len(poles))

    def test_outer_scale_keeps_the_inner_divisor(self):
        # Koebe's divisor, though the inner map is not Moebius
        assert Compose(Scale(10.0), Koebe()).divisor() == Koebe().divisor()
        assert Compose(Scale(10.0), BlaschkeDisc((0.3, -0.4))).divisor() == (
            BlaschkeDisc((0.3, -0.4)).divisor()
        )

    def test_half_plane_product_divisor(self):
        # zeros i y, poles -i y; carried to the disc, the zeros (y - 1)/(y + 1)
        f = BlaschkeHalfPlane((1.0, 2.0, 4.0))
        assert f.divisor() == ([1j, 2j, 4j], [-1j, -2j, -4j], [])
        zeros, poles, essential = Compose(f, inv_cayley_map()).divisor()
        assert zeros == pytest.approx([0.0, 1 / 3, 0.6], abs=1e-15)
        assert poles == pytest.approx([3.0, 5 / 3], abs=1e-15) and essential == []

    @pytest.mark.parametrize("a", [0j, 0.3 + 0j, -0.5 + 0.6j])
    def test_one_zero_blaschke_factor_is_moebius(self, a):
        z = np.array([0.1 + 0.2j, -0.7j, 0.99, a])
        b = BlaschkeDisc((a,))
        for got, want in zip(evaluate(MobiusMap(b.transform), z), evaluate(b, z)):
            assert got == pytest.approx(want, abs=1e-15)

    def test_pullback_through_one_blaschke_factor(self):
        # B_a(B_0.3(z)) = 0 where B_0.3(z) = a, at (0.3 - a)/(1 - 0.3 a)
        f = parse("blaschke_disc([0.5+0i]) . blaschke_disc([0.3+0i])")
        zeros, poles, essential = f.divisor()
        assert zeros == pytest.approx([-0.2 / 0.85], abs=1e-15)
        assert poles == pytest.approx([(0.3 - 2.0) / (1 - 0.6)], abs=1e-15)
        assert essential == []
        # two zeros are no Moebius map
        assert BlaschkeDisc((0.5, 0.3)).transform is None
        with pytest.raises(StructureError):
            Compose(Koebe(), BlaschkeDisc((0.5, 0.3))).divisor()

    def test_zero_power_series_has_no_polar_divisor(self):
        with pytest.raises(StructureError):
            PowerSeries((0, 0)).polar_divisor()


# Blaschke products with zeros to pass close by: single zeros, and double
# ones at 0.5 and at 5i and 60i; the half-plane zeros 3i and 5i lie at
# far-field levels, 50i and 60i past the top level
NEAR_ZERO_PRODUCTS = {
    "disc": (BlaschkeDisc((0.5 + 0j, 0.3j, -0.2 + 0.1j)), (0.5 + 0j, 0.3j)),
    "disc-double": (BlaschkeDisc((0.5 + 0j, 0.5 + 0j, 0.3j)), (0.5 + 0j,)),
    "half-plane": (
        BlaschkeHalfPlane(tuple(float(k) for k in range(1, 81)) + (5.0, 60.0)),
        (3j, 5j, 50j, 60j),
    ),
}


class TestProductsAndQuotients:
    def test_product_tags(self):
        p = Product(BlaschkeDisc((0.5 + 0j,)), BlaschkeDisc((0.2j,)))
        assert p.domain is H and p.codomain is H
        q = Product(BlaschkeDisc((0.5 + 0j,)), Koebe())
        assert q.codomain is None

    def test_product_domain_conflict(self):
        with pytest.raises(TagMismatchError):
            Product(BlaschkeDisc((0.5 + 0j,)), BlaschkeHalfPlane((1.0,)))

    def test_quotient_codomain_spherical(self):
        q = Quotient(Identity(), Shift(-0.5))
        assert q.codomain is MetricId.SPHERICAL

    def test_quotient_pole_jet(self):
        q = Quotient(ConstMap(1.0), Identity())  # 1/z
        jet = evaluate(q, 0j)
        assert jet.is_pole
        assert jet.derivative == pytest.approx(1.0)

    def test_product_near_zero_split_accuracy(self):
        # one factor passes within 1e-9 of zero: the derivative must stay
        # tame
        b = BlaschkeDisc((0.5 + 0j, 0.3j, -0.2 + 0.1j))
        z = 0.5 + 1e-9 + 0j
        jet = evaluate(b, z)
        assert jet.derivative == pytest.approx(fd_derivative(b, z, 1e-5), rel=1e-6)

    @pytest.mark.parametrize("f, zeros", NEAR_ZERO_PRODUCTS.values(), ids=NEAR_ZERO_PRODUCTS)
    def test_product_near_zero_matches_mpmath(self, f, zeros):
        # 1e-12 to 1e-6 from a zero, single or double, and at it: value and
        # derivative against the 40-digit product rule, exactly 0 where the
        # reference is
        mpmath = pytest.importorskip("mpmath")
        for a in zeros:
            for d in (0.0, 1e-12, 1e-10, 1e-8, 1e-6):
                z = a + d * cmath.exp(0.7j)
                jet = evaluate(f, z)
                with mpmath.workdps(40):
                    refs = _mp_product_jet(mpmath, f, z)
                for got, ref in zip((jet.value, jet.derivative), refs):
                    assert abs(mpmath.mpc(got) - ref) <= 1e-13 * abs(ref), (a, d, got)

    def test_product_exact_double_zero(self):
        b = BlaschkeDisc((0.5 + 0j, 0.5 + 0j))
        jet = evaluate(b, 0.5 + 0j)
        assert jet.value == 0 and jet.derivative == 0


def _mp_product_jet(mpmath, f, z):
    """Value and derivative of the Blaschke product f at z in mpmath: the
    factors and their derivatives, multiplied by the product rule through
    prefix and suffix products, so that an exact zero needs no care."""
    w = mpmath.mpc(z.real, z.imag)
    if isinstance(f, BlaschkeDisc):
        factors = []
        for a in f.zeros:
            a = mpmath.mpc(a.real, a.imag)
            unit = abs(a) / a if a else 1
            den = 1 - mpmath.conj(a) * w
            factors.append((unit * (a - w) / den, unit * (abs(a) ** 2 - 1) / den**2))
    else:
        factors = [
            (s * (1j * y - w) / (1j * y + w), -2j * s * y / (1j * y + w) ** 2)
            for y, s in zip(map(mpmath.mpf, f.heights), f.signs)
        ]
    prefix = [mpmath.mpc(1)]
    for v, _ in factors:
        prefix.append(prefix[-1] * v)
    derivative, suffix = mpmath.mpc(0), mpmath.mpc(1)
    for k in range(len(factors) - 1, -1, -1):
        derivative += prefix[k] * factors[k][1] * suffix
        suffix *= factors[k][0]
    return prefix[-1], derivative


def inv(center):
    """1/(z - center): a Moebius map with its pole at center."""
    return MobiusMap(MobiusTransform(0, 1, 1, -center))


def _signed_powers(n_levels):
    """The symmetric scenario's heights 2^n, |n| <= n_levels, and signs."""
    ns = range(-n_levels, n_levels + 1)
    return tuple(2.0**n for n in ns), tuple(-1.0 if n < 0 else 1.0 for n in ns)


def _level_boundaries(heights, levels=None):
    """Points just inside and just outside |z| = 2^(l-1) for the dyadic
    levels l = floor(log2 y) of the heights (or the given levels), on the
    imaginary axis and on a ray off it."""
    levels = sorted({math.frexp(y)[1] - 1 for y in heights}) if levels is None else levels
    return [
        r * (1.0 + side) * u
        for r in (math.ldexp(1.0, l - 1) for l in levels)
        for side in (-1e-9, 1e-9)
        for u in (1j, -0.6 + 0.8j)
    ]


LONG_HALF_PLANE = BlaschkeHalfPlane(tuple(float(k * k) for k in range(1, 5001)))
SQUARES_1000 = BlaschkeHalfPlane(tuple(float(k * k) for k in range(1, 1001)))

# each batch mixes poles, exact zeros, points within 1e-8 of a Blaschke
# zero and ordinary points
BATCH_CASES = {
    "product": (
        Product(BlaschkeDisc((0.5 + 0j, -0.3j)), inv(0.2)),
        [0.2 + 0j, 0.5 + 0j, 0.5 + 5e-9 + 0j, 0.1 + 0.3j, -0.3j, -0.4 + 0.2j],
    ),
    "product-two-poles": (
        Product(inv(0.2), inv(0.2)),
        [0.1 + 0.3j, 0.2 + 0j, -0.5j],
    ),
    "quotient-pole-over": (
        Quotient(inv(0.2), BlaschkeDisc((0.5 + 0j, -0.3j))),
        [0.2 + 0j, 0.5 + 0j, 0.5 + 5e-9 + 0j, 0.1 + 0.3j, -0.3j, -0.4 + 0.2j],
    ),
    "quotient-over-pole": (
        Quotient(BlaschkeDisc((0.5 + 0j, -0.3j)), inv(0.2)),
        [0.2 + 0j, 0.5 + 0j, -0.3j + 1e-9j, 0.1 + 0.3j, -0.4 + 0.2j],
    ),
    "compose-through-pole": (
        Compose(MobiusMap(MobiusTransform(2, 1, 1, 3)), inv(0.2)),
        [0.1 + 0.3j, 0.2 + 0j, -0.4 + 0.2j, 0.2 + 1e-9j],
    ),
    "compose-pole-to-pole": (
        Compose(MobiusMap(MobiusTransform(2, 1, 0, 1)), Koebe()),
        [1.0 + 0j, 0.3 + 0.1j, 0j, 0.99 + 0j],
    ),
    "compose-blaschke-zero": (
        Compose(inv(0.0), BlaschkeDisc((0.5 + 0j, -0.3j))),
        [0.5 + 0j, 0.5 + 5e-9 + 0j, 0.1 + 0.3j, -0.3j],
    ),
    "blaschke-disc": (
        BlaschkeDisc((0.5 + 0j, 0.5 + 0j, -0.3j, 0j)),
        [0.5 + 0j, -0.3j, -0.3j + 1e-9, 0j, 3e-9j, 0.2 + 0.6j, cmath.exp(0.4j)],
    ),
    "blaschke-half-plane": (
        BlaschkeHalfPlane((1.0, 4.0, 4.0), (1.0, -1.0, 1.0)),
        [1j, 4j, 1j + 1e-9j, 4j + 2e-9, 0.5 + 2j, 3.0 + 0j, -2.0 + 0.1j],
    ),
    # 5 000 factors: the points past every height take the direct product,
    # whose broadcast splits their rows into several blocks
    "blaschke-half-plane-long": (
        LONG_HALF_PLANE,
        [1j, 4j + 3e-9j, 3e7j, 5e7 + 1j, -4e7 + 2e7j]
        + [complex(x, 1.0 + abs(x)) for x in np.linspace(-30, 30, 17)],
    ),
    # points on both sides of dyadic level boundaries, an exact zero, z = 0
    # and the real axis: one batch over several far-field levels
    "blaschke-half-plane-levels": (
        LONG_HALF_PLANE,
        [0j, 0.3 + 0j, -7.0 + 0j, 0.5j, 1.0 + 1.5j, 64j, 8j, 8j * (1 + 2**-52), 0.6 + 0.8j,
         4096j, 4096.000001j, 3000 + 1e4j, 2.0**22 * (0.6 + 0.8j), 1e6 + 0j],
    ),
    # the symmetric scenario's product: both sides of nine table levels
    # from 2^-41 to 2^-17, its top table's reach, in one batch with points
    # past it, up to |z| >= 2^12, which take the direct product
    "blaschke-half-plane-signed-powers": (
        BlaschkeHalfPlane(*_signed_powers(41)),
        [0j, 1e-13j, 3e-9 + 1e-9j]
        + _level_boundaries((), range(-41, -15, 3))
        + [1e-3 + 1e-3j, 0.5 + 2j, 4096j, 2.0**12 * (0.6 + 0.8j) * (1 + 1e-9), 3e13j],
    ),
    # heights 2^-1023 to 2^1023: tables whose first factors lie below
    # 2^-53 |z| next to tables with none, in one batch with points past the
    # top table's level, 962
    "blaschke-half-plane-mirrored": (
        BlaschkeHalfPlane(*_signed_powers(1023)),
        [1e-300j, 2.0**-1000 * (1 + 1j), 1.3 + 20j, 2.0**100 * (0.6 + 0.8j), 2.0**600 + 0j,
         1e308j]
        + _level_boundaries((), [-950, -900, 0, 500, 962]),
    ),
}


class TestBatchMasks:
    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_each_element_matches_one_point(self, case):
        f, points = BATCH_CASES[case]
        got = unbatch(evaluate(f, np.array(points)))
        for z, jet in zip(points, got):
            assert jet == evaluate(f, z), z

    @pytest.mark.parametrize("f, scale", [
        (BlaschkeDisc((0.3 + 0.7j,)), 0.25),
        (BlaschkeHalfPlane((1.0,)), 1.0),
        (Compose(SQUARES_1000, Shift(1.0)), 1.0),
    ], ids=["disc-one-zero", "half-plane-one-height", "half-plane-one-near-height"])
    def test_one_factor_rounds_alike_alone_and_in_a_batch(self, f, scale):
        # numpy rounds a complex product of one element in place or broadcast
        # without the fused multiply-add of its array loops
        rng = np.random.default_rng(2)
        z = scale * (rng.uniform(-3.0, 3.0, 200) + 1j * rng.uniform(0.1, 3.0, 200))
        value, derivative, _ = evaluate(f, z)
        for i, point in enumerate(z):
            one = evaluate(f, point)
            assert (one.value, one.derivative) == (value[i], derivative[i]), point

    @pytest.mark.parametrize("f, bad", [
        (Product(inv(0.5), BlaschkeDisc((0.5 + 0j,))), 0.5 + 0j),
        (Quotient(BlaschkeDisc((0.5 + 0j,)), BlaschkeDisc((0.5 + 0j, 0.1j))), 0.5 + 0j),
        (Quotient(inv(0.2), inv(0.2)), 0.2 + 0j),
    ], ids=["pole-times-zero", "zero-over-zero", "pole-over-pole"])
    def test_any_indeterminate_element_raises(self, f, bad):
        for points in ([bad, 0.1 + 0.3j, -0.4j], [0.1 + 0.3j, -0.4j, bad]):
            with pytest.raises(IndeterminateFormError):
                evaluate(f, np.array(points))

    def test_shape_is_kept(self):
        z = np.array([[0.1, 0.2j], [0.5, -0.3 + 0.1j]])
        value, derivative, pole = evaluate(BlaschkeDisc((0.5 + 0j,)), z)
        assert value.shape == derivative.shape == pole.shape == (2, 2)
        assert value[1, 0] == 0 and value[0, 1] == evaluate(BlaschkeDisc((0.5 + 0j,)), 0.2j).value


def _bits(jet):
    return [a.tobytes() for a in jet]


def _axis_quotient(product):
    return Quotient(Compose(product, Shift(1.0)), Compose(product, Shift(-1.0)))


# with BATCH_CASES, every node kind at points that reach its branches:
# poles and the 1/f charts, both paths of BlaschkeHalfPlane, a product
# split into point blocks, a quotient at a pole, at zeros of either side
# and through a shared outer map, compositions through an inner pole
ORDER_CASES = {
    **BATCH_CASES,
    "identity": (Identity(), [0j, 0.3 - 0.2j]),
    "const": (ConstMap(2.0 - 1j), [0j, 0.3 - 0.2j]),
    "scale": (Scale(0.5j), [0j, 0.3 - 0.2j]),
    "shift": (Shift(-0.25), [0j, 0.3 - 0.2j]),
    "power-series": (PowerSeries((0.1, 0.5, -0.2, 0.05j)), [0j, 0.3 - 0.2j, 4.0 + 1j]),
    "mobius": (MobiusMap(MobiusTransform(1, 0.2, 1, 0.5)), [-0.5 + 0j, 0.23 - 0.17j]),
    "koebe": (Koebe(), [1.0 + 0j, 0.3 + 0.1j, -0.99 + 0j]),
    "exp": (ExpMap(), [709 + 0j, 710 + 1j, 1e9 + 0j, 0.3 - 2j]),
    "log": (LogMap(), [-1 + 0j, 0.5j, 3.0 + 0j]),
    "blaschke-disc-blocks": (
        BlaschkeDisc(tuple(0.9 * cmath.exp(0.01j * k) for k in range(1000))),
        [0.9 + 0j, 0.1 + 0.2j] + list(0.95 * np.exp(1j * np.linspace(0.0, 6.0, 9))),
    ),
    "quotient-at-zeros": (
        Quotient(BlaschkeDisc((0.5 + 0j,)), BlaschkeDisc((0.3 + 0j, 0.1j))),
        [0.5 + 0j, 0.3 + 0j, 0.1j, 0.2 - 0.4j],
    ),
    "quotient-shared-outer": (
        _axis_quotient(SQUARES_1000),
        [0.5j, 1.0 + 3j, -30 + 2j, 4e6 + 1j, 81j - 1.0],
    ),
    "compose-power-series-through-pole": (
        Compose(PowerSeries((5.0, 2.0 - 1j)), inv(0.5)),
        [0.5 + 0j, 0.1j, -0.3 + 0.2j],
    ),
    "product-power-series-through-poles": (
        Product(Compose(PowerSeries((1.0, 0.0, 1j)), inv(0.5)), inv(0.3)),
        [0.5 + 0j, 0.3 + 0j, -0.3 + 0.2j],
    ),
}


class TestOrderZero:
    """evaluate(f, z, order=0) forms no derivative; its values and pole
    masks are bitwise those of order 1, and so are its errors."""

    @pytest.mark.parametrize("case", ORDER_CASES)
    def test_values_and_poles_are_those_of_order_one(self, case):
        f, points = ORDER_CASES[case]
        z = np.array(points)
        for batch in (z, *z[:, None]):
            value, derivative, pole = evaluate(f, batch, order=0)
            want = evaluate(f, batch)
            assert derivative is None
            assert _bits([value, pole]) == _bits([want[0], want[2]]), batch
        for point in points:
            jet = evaluate(f, point, order=0)
            assert jet.derivative is None and jet.value == evaluate(f, point).value

    def test_half_plane_paths(self):
        # the long product's batch cases hold points below its top table and
        # past it; each path is taken here on its own too
        f = LONG_HALF_PLANE
        far, direct = np.array([1j, 4j + 3e-9j, 7.0 + 0.5j]), np.array([3e7j, 5e7 + 1j])
        for z in (far, direct):
            value, _, pole = evaluate(f, z, order=0)
            assert _bits([value, pole]) == _bits(evaluate(f, z)[::2])
        reach = f._tables[0]
        assert np.all(np.searchsorted(reach, np.abs(far)) < len(reach))
        assert np.all(np.searchsorted(reach, np.abs(direct)) == len(reach))

    @pytest.mark.parametrize("f, bad", [
        (Product(inv(0.5), BlaschkeDisc((0.5 + 0j,))), 0.5 + 0j),
        (Quotient(BlaschkeDisc((0.5 + 0j,)), BlaschkeDisc((0.5 + 0j, 0.1j))), 0.5 + 0j),
        (Quotient(inv(0.2), inv(0.2)), 0.2 + 0j),
        (Compose(BlaschkeDisc((0.5 + 0j,)), inv(0.0)), 0.5 + 0j),
        (Compose(ExpMap(), inv(0.2)), 0.2 + 0j),
        (Compose(Scale(0.0), Koebe()), 1.0 + 0j),
        (LogMap(), 0j),
        (BlaschkeDisc((0.5 + 0j,)), 1.5 + 0j),
    ], ids=["pole-times-zero", "zero-over-zero", "pole-over-pole", "factor-singular",
            "exp-through-pole", "zero-scale-through-pole", "log-at-zero", "domain"])
    def test_errors_are_those_of_order_one(self, f, bad):
        for points in ([bad, 0.1 + 0.3j], [0.1 + 0.3j, -0.4j, bad]):
            with pytest.raises(Exception) as one:
                evaluate(f, np.array(points))
            with pytest.raises(type(one.value), match=re.escape(str(one.value))):
                evaluate(f, np.array(points), order=0)

    def test_chained_overflow_keeps_the_finite_value(self):
        # the one place the orders part: e^705 koebe'(z) overflows, so
        # order 1 takes the point to the 1/f chart, while order 0 forms no
        # derivative and keeps e^705 in the finite chart
        c = 705.0
        z = np.array([((2 * c + 1) - math.sqrt(4 * c + 1)) / (2 * c) + 0j, 0.3 + 0.1j])
        f = Compose(ExpMap(), Koebe())
        value, _, pole = evaluate(f, z)
        assert pole.tolist() == [True, False] and value[0] == 0
        value0, derivative0, pole0 = evaluate(f, z, order=0)
        assert derivative0 is None and not pole0.any()
        inner = evaluate(Koebe(), z)[0]
        assert value0[0] == evaluate(ExpMap(), inner, order=0)[0][0] == cmath.exp(inner[0])
        assert value0[1] == value[1]


class TestSharedOuter:
    """A product or quotient of compositions with one outer map evaluates
    it once, with the jets and errors of two separate evaluations."""

    def test_jets_equal_two_evaluations_bitwise(self):
        # 301 points, more than _BLOCK // 1000 = 4 rows, from the far-field
        # tables near the axis to the direct product past every table
        z = np.geomspace(0.5, 1e6, 301) * (-1.0) ** np.arange(301) + 1j * np.linspace(40, 0.5, 301)
        f = _axis_quotient(SQUARES_1000)
        g = Product(f.numerator, f.denominator)
        assert f._shared_outer and g._shared_outer
        # and lone points, in the table with one near factor, 1: a numpy
        # product of one element rounds apart from a batch
        lone = np.linspace(-0.9, 0.9, 7)[:, None] + 1j * np.linspace(0.6, 1.7, 3)
        for points in (z, *lone.reshape(-1, 1)):
            want = _jet_div(f.numerator._jet(points), f.denominator._jet(points))
            assert _bits(f._jet(points)) == _bits(want)
            want = _jet_mul(g.left._jet(points), g.right._jet(points))
            assert _bits(g._jet(points)) == _bits(want)
        # the points lie in several far-field groups and past all of them
        levels = np.searchsorted(SQUARES_1000._tables[0], np.abs(z + 1.0))
        assert len(set(levels)) > 2 and levels.max() == len(SQUARES_1000._tables[0])

    def test_pole_through_a_mobius_outer(self):
        outer = MobiusMap(MobiusTransform(2, 1, 1, 3))
        f = Quotient(Compose(outer, inv(0.2)), Compose(outer, inv(-0.3)))
        # poles of the inner maps, a pole of the outer map, ordinary points
        z = np.array([0.2 + 0j, -0.3 + 0j, 0.2 - 1 / 3 + 0j, 0.1 + 0.3j, -0.4 + 0.2j])
        assert f._shared_outer
        got = f._jet(z)
        assert got[2].any() and _bits(got) == _bits(
            _jet_div(f.numerator._jet(z), f.denominator._jet(z))
        )

    @pytest.mark.parametrize("make", [
        lambda: _axis_quotient(BlaschkeHalfPlane((1.0, 4.0, 9.0, 16.0))),
        lambda: parse(
            "blaschke_hp([1, 4, 9, 16]) . shift(1+0i) / blaschke_hp([1, 4, 9, 16]) . shift(-1+0i)"
        ),
    ], ids=["one-object", "parsed"])
    def test_outer_jet_runs_once(self, make, monkeypatch):
        f = make()
        calls = []
        jet = BlaschkeHalfPlane._jet
        monkeypatch.setattr(
            BlaschkeHalfPlane,
            "_jet",
            lambda self, z, order=1: calls.append(len(z)) or jet(self, z, order),
        )
        evaluate(f, np.array([1j, 2j, 0.5 + 3j]))
        evaluate(f, 2j)
        assert calls == [6, 2]

    def test_zeros_of_either_sign_are_not_shared(self):
        # equal fields, whose zeros differ in sign: the jets keep it
        plus, minus = Compose(Shift(0j), Scale(-1.0)), Compose(Shift(-0j), Scale(-1.0))
        z = np.array([0j, 1.0 + 0j])
        assert Shift(0j) == Shift(-0j)
        assert _bits(plus._jet(z)) != _bits(minus._jet(z))
        f = Product(plus, minus)
        assert not f._shared_outer
        assert _bits(f._jet(z)) == _bits(_jet_mul(plus._jet(z), minus._jet(z)))
        assert Product(plus, Compose(Shift(0j), Scale(-1.0)))._shared_outer

    def test_non_mobius_outer_through_infinity_raises(self):
        f = Quotient(Compose(ExpMap(), inv(0.2)), Compose(ExpMap(), inv(-0.3)))
        assert f._shared_outer
        message = "composition through infinity needs a Moebius outer map"
        for z in (0.2 + 0j, -0.3 + 0j):
            with pytest.raises(EvaluationError, match=message):
                evaluate(f, np.array([0.1j, z]))

    def test_error_names_the_point_of_two_evaluations(self):
        # the numerator meets the zero at 81i and the denominator the one at
        # 4i at the same point; two evaluations name the numerator's
        product = BlaschkeHalfPlane(tuple(float(k * k) for k in range(1, 401)))
        num, den = Compose(product, Shift(-81j)), Compose(product, Shift(-4j))
        f = Quotient(num, den)
        assert f._shared_outer
        z = np.array([1j, 0j])
        with pytest.raises(EvaluationError) as alone:
            evaluate(num, z)
        with pytest.raises(EvaluationError) as shared:
            evaluate(f, z)
        assert str(shared.value) == str(alone.value)
        assert str(complex(0.0, -81.0)) in str(shared.value)


class TestBlaschke:
    def test_disc_zero_on_circle_rejected(self):
        with pytest.raises(ConstructionError):
            BlaschkeDisc((1 + 0j,))

    def test_disc_zeros_hit(self):
        b = BlaschkeDisc((0.5 + 0j, -0.3j))
        assert evaluate(b, 0.5 + 0j).value == 0
        assert evaluate(b, -0.3j).value == 0

    def test_disc_modulus_on_circle(self):
        b = BlaschkeDisc((0.5 + 0j, 0.1 + 0.7j))
        value, _, pole = evaluate(b, np.exp(2j * np.pi * np.arange(128) / 128))
        assert not pole.any()
        assert np.max(np.abs(np.abs(value) - 1.0)) < 1e-12

    def test_half_plane_validation(self):
        with pytest.raises(ConstructionError):
            BlaschkeHalfPlane(())
        with pytest.raises(ConstructionError):
            BlaschkeHalfPlane((-1.0,))
        for bad in (math.inf, math.nan):
            with pytest.raises(ConstructionError, match="positive reals"):
                BlaschkeHalfPlane((1.0, bad))
        with pytest.raises(ConstructionError):
            BlaschkeHalfPlane((1.0, 2.0), (1.0,))
        with pytest.raises(ConstructionError):
            BlaschkeHalfPlane((1.0,), (0.5,))

    def test_half_plane_zeros_and_axis_modulus(self):
        b = BlaschkeHalfPlane((1.0, 4.0))
        assert evaluate(b, 1j).value == 0
        for x in (-3.0, 0.5, 10.0):
            assert abs(evaluate(b, x + 0j).value) == pytest.approx(1.0, abs=1e-14)

    def test_symmetry_check_detects_symmetric_product(self):
        b = BlaschkeHalfPlane((1.0, 4.0, 9.0))
        assert symmetry_check(b, 32) < 1e-12

    def test_symmetry_check_flags_asymmetric(self):
        f = Compose(BlaschkeHalfPlane((1.0,)), Shift(0.5 + 0j))
        assert symmetry_check(f, 32) > 1e-3

    @pytest.mark.parametrize("n", [1000, 2600, 5334])
    def test_symmetry_check_is_one_evaluation(self, n, monkeypatch):
        b = BlaschkeHalfPlane(
            tuple(float(k * k) for k in range(1, n + 1)),
            tuple(1.0 if k % 3 else -1.0 for k in range(1, n + 1)),
        )
        # the grid of symmetry_check(b, 32)
        z = np.array([complex(x, y) for y in np.geomspace(0.05, 20.0, 4)
                      for x in np.linspace(-3.0, 3.0, 8)])
        left, _, left_pole = evaluate(b, -z.conj())
        right, _, right_pole = evaluate(b, z)
        assert not (left_pole.any() or right_pole.any())
        two_calls = float(np.max(np.abs(left - right.conj())))
        calls = []
        one = maps.evaluate
        monkeypatch.setattr(
            maps, "evaluate", lambda f, w, order=1: calls.append((len(w), order)) or one(f, w, order)
        )
        assert symmetry_check(b, 32) == two_calls
        assert symmetry_check(b, list(z)) == two_calls
        # values alone, which are bitwise those of order 1
        assert calls == [(64, 0), (64, 0)]


def _half_plane_points(heights, rng, n):
    """n random points of the closed upper half-plane whose moduli spread
    evenly in log from below the lowest height's level to past the top
    one, where no factor is far."""
    lo, hi = math.log2(min(heights)) - 3, math.log2(max(heights)) + 6
    return np.exp2(rng.uniform(lo, hi, n)) * np.exp(1j * math.pi * rng.random(n))


SQUARES = tuple(float(k * k) for k in range(1, 151))
# each family with its points: z = 0, the real axis, both sides of level
# boundaries (the far-field tables' reaches among them) and points past
# every height, where no factor is far
FAR_FIELD_CASES = {
    "squares-150": (
        SQUARES,
        None,
        [0j, 0.3 + 0j, -7.0 + 0j, 1000.0 + 0j, -2.0**8 + 0j, 3.0 + 5e-4j, 7e4j, 4.5e4 + 1.0j]
        + _level_boundaries(SQUARES),
    ),
    "squares-150-random": (
        SQUARES,
        None,
        list(_half_plane_points(SQUARES, np.random.default_rng(150), 120)),
    ),
    "signed-powers-41": (
        *_signed_powers(41),
        [0j, 1e-9j, 3e-7 + 1e-6j, 2.0**-30 * (1 + 1j), 0.4 + 0.05j, 5.0 + 0j, 1j * math.exp(9),
         3e13j]
        + _level_boundaries(_signed_powers(41)[0], [-41, -30, -18, -17, -16, 0, 41]),
    ),
    # the scenario's largest family, heights 2^-1023 to 2^1023: the direct
    # product just past the top table's level, 962, and points where iy + z
    # or its reciprocal would pass the largest double
    "signed-powers-1023": (
        *_signed_powers(1023),
        [1e-300j, 1.3 + 20j, 1j * math.exp(9), 2.0**600 + 0j, 1.7e308 + 1j, 1e308j,
         1.7e308 + 1e308j]
        + _level_boundaries((), [962]),
    ),
}


# zeros of the batch tests: two; four with one double and one at 0; seven
BATCH_ZEROS = {
    "two-zeros": (0.3 + 0.2j, -0.5 + 0.1j),
    "four-zeros-double-and-origin": (0.5 + 0j, 0.5 + 0j, -0.3j, 0j),
    "seven-zeros": (
        0.3 + 0.2j, -0.5 + 0.1j, 0.7j, -0.2 - 0.6j, 0.85 + 0j, 0.05 - 0.1j, -0.4 - 0.4j,
    ),
}


def _disc_points(rng, n):
    """n random points of the closed unit disc, a quarter on the circle."""
    z = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    z[: n // 4] /= np.abs(z[: n // 4])
    return z


def _near_zeros(zeros, rng, turn=2.0, ordinary=_disc_points):
    """Each zero itself and points 1e-12 to 9e-9 from it, at angles up to
    turn pi, in a shuffled batch with 60 ordinary points."""
    near = [
        a + d * cmath.exp(1j * turn * math.pi * rng.random())
        for a in zeros
        for d in (0.0, 1e-12, 3e-9, 9e-9)
    ]
    z = np.concatenate([near, ordinary(rng, 60)])
    rng.shuffle(z)
    return z


def _batch_points(f, batch):
    """The points of a batch on the Blaschke product f, seeded by its
    number of zeros: random ones across its domain, or its zeros with
    points near them."""
    if isinstance(f, BlaschkeDisc):
        zeros, ordinary, turn = f.zeros, _disc_points, 2.0
    else:
        zeros, turn = [1j * y for y in f.heights], 1.0
        ordinary = lambda rng, n: _half_plane_points(f.heights, rng, n)
    rng = np.random.default_rng(len(zeros) + len(batch))
    return _near_zeros(zeros, rng, turn, ordinary) if batch == "near-zeros" else ordinary(
        rng, int(batch)
    )


# the disc's products, and two half-plane ones whose batches span every
# far-field level, the direct product past the top and, near the zeros,
# blocks that pad the near sets with unit factors
BATCH_PRODUCTS = {
    **{name: BlaschkeDisc(zeros) for name, zeros in BATCH_ZEROS.items()},
    "half-plane-squares-1000": SQUARES_1000,
    "half-plane-signed-powers-41": BlaschkeHalfPlane(*_signed_powers(41)),
}


def _words(values):
    """The bits of complex values, as unsigned integers."""
    return np.asarray(values, dtype=complex).view(np.uint64)


class TestFactorMajorBlaschke:
    """Both Blaschke products evaluate factor-major and reduce over the
    factors by an elementwise tree: every point rounds alike alone and in a
    batch."""

    @pytest.mark.parametrize("batch", ["1001", "4096", "near-zeros"])
    @pytest.mark.parametrize("name", BATCH_PRODUCTS)
    def test_a_point_rounds_alike_alone_and_in_a_batch(self, name, batch):
        f = BATCH_PRODUCTS[name]
        z = _batch_points(f, batch)
        value, derivative, _ = evaluate(f, z)
        alone = [evaluate(f, complex(p)) for p in z]
        assert np.array_equal(_words([j.value for j in alone]), _words(value))
        assert np.array_equal(_words([j.derivative for j in alone]), _words(derivative))

    def test_double_zero_and_empty_batch(self):
        f = BlaschkeDisc(BATCH_ZEROS["four-zeros-double-and-origin"])
        value, derivative, _ = evaluate(f, np.array([0.5 + 0j, 0.1 + 0.2j, 0j]))
        assert value[0] == derivative[0] == 0 and value[2] == 0 and derivative[2] != 0
        value, derivative, pole = evaluate(f, np.array([], dtype=complex))
        assert value.shape == derivative.shape == pole.shape == (0,)

    def test_seven_zeros_match_mpmath_product(self):
        # the reference multiplies the factors and sums the log-derivatives
        # -1/(a - z) + conj(a)/(1 - conj(a) z) at 40 digits
        mpmath = pytest.importorskip("mpmath")
        zeros = BATCH_ZEROS["seven-zeros"]
        rng = np.random.default_rng(7)
        z = np.concatenate([
            np.exp(2j * np.pi * (np.arange(200) + rng.random()) / 200),
            0.99 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200)),
        ])
        value, derivative, _ = evaluate(BlaschkeDisc(zeros), z)
        worst = 0.0
        with mpmath.workdps(40):
            zs = [mpmath.mpc(a.real, a.imag) for a in zeros]
            for p, v, d in zip(z, value, derivative):
                w = mpmath.mpc(p.real, p.imag)
                ref, log_der = mpmath.mpc(1), mpmath.mpc(0)
                for a in zs:
                    ref *= (a - w) / (1 - mpmath.conj(a) * w) * (abs(a) / a if a else 1)
                    log_der += -1 / (a - w) + mpmath.conj(a) / (1 - mpmath.conj(a) * w)
                ref_der = ref * log_der
                worst = max(
                    worst,
                    abs(mpmath.mpc(v) - ref) / abs(ref),
                    abs(mpmath.mpc(d) - ref_der) / abs(ref_der),
                )
        assert worst <= 1e-14


class TestHalfPlaneFarField:
    """BlaschkeHalfPlane against a 40-digit product, factor by factor."""

    @pytest.mark.parametrize("case", FAR_FIELD_CASES)
    def test_matches_mpmath_product(self, case):
        mpmath = pytest.importorskip("mpmath")
        heights, signs, points = FAR_FIELD_CASES[case]
        f = BlaschkeHalfPlane(heights, signs)
        value, derivative, _ = evaluate(f, np.array(points))
        signs = signs or (1.0,) * len(heights)
        with mpmath.workdps(40):
            ys = [mpmath.mpf(y) for y in heights]
            for z, v, d in zip(points, value, derivative):
                w = mpmath.mpc(z.real, z.imag)
                ref, log_der = mpmath.mpf(1), mpmath.mpc(0)
                for y, s in zip(ys, signs):
                    iy = mpmath.mpc(0, y)
                    ref *= s * (iy - w) / (iy + w)
                    log_der += 2 * iy / (y * y + w * w)
                ref_der = ref * log_der
                assert abs(mpmath.mpc(v) - ref) <= 1e-13 * abs(ref), z
                assert abs(mpmath.mpc(d) - ref_der) <= 1e-13 * abs(ref_der), z

    @pytest.mark.parametrize("n", [20, 400])
    def test_zero_has_value_0_and_exact_derivative(self, n):
        # |z| = y_n is never below y_n / 2, so factor n stays explicit
        product = BlaschkeHalfPlane(tuple(float(k * k) for k in range(1, 401)))
        y = n * n
        rest = Fraction(1)
        for k in range(1, 401):
            if k != n:
                rest *= Fraction(k * k - y, k * k + y)
        # B'(iy_n) = i / (2 y_n) * prod_{m != n} (y_m - y_n) / (y_m + y_n)
        exact = 1j * float(rest) / (2 * y)
        for points in ([y * 1j], [0.5j, y * 1j, 3e5 + 1j]):
            value, derivative, _ = evaluate(product, np.array(points))
            i = points.index(y * 1j)
            assert value[i] == 0
            assert derivative[i] == pytest.approx(exact, rel=1e-13, abs=0)

    def test_derivative_past_the_largest_double_raises(self):
        # B'(0) = B(0) sum 2 / (i y_n) holds 2 / 2^-1023 = 2^1024: a typed
        # error, where the jet would otherwise hold a nan derivative
        f = BlaschkeHalfPlane(*_signed_powers(1023))
        for points in ([0j], [1j, 0j, 1.7e308 + 1j]):
            with pytest.raises(EvaluationError, match=r"derivative overflows at 0j"):
                evaluate(f, np.array(points))
        with pytest.raises(EvaluationError, match=r"overflows at 0j"):
            evaluate(f, 0j)
        # order 0 forms no derivative: B(0) is the product of the signs
        assert evaluate(f, 0j, order=0).value == -1.0
        # one height away from overflow the derivative 2i/y is exact
        assert evaluate(BlaschkeHalfPlane((2.0**-1022,)), 0j).derivative == 2j * 2.0**1022

    @pytest.mark.parametrize("n", [20, 400])
    def test_point_below_a_zero_raises_naming_it(self, n):
        product = BlaschkeHalfPlane(tuple(float(k * k) for k in range(1, 401)))
        # the shift takes z = 0 of the closed half-plane to -i y_n
        f = Compose(product, Shift(complex(0.0, -n * n)))
        bad = str(complex(0.0, -n * n))
        for points in ([0j], [1j, 0j, 2.0 + 3j]):
            with pytest.raises(EvaluationError, match=f"singular at {re.escape(bad)}"):
                evaluate(f, np.array(points))


class TestStructuralEquality:
    def test_trees_compare_by_structure(self):
        a = Compose(Koebe(), Scale(0.9))
        b = Compose(Koebe(), Scale(0.9))
        assert a == b
        assert a != Compose(Koebe(), Scale(0.8))

    def test_jets_are_frozen(self):
        jet = Jet(1 + 0j, 2 + 0j)
        with pytest.raises(AttributeError):
            jet.value = 3
