import cmath
import math
import random

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

    def test_mobius_outer_sending_pole_to_pole(self):
        inner = MobiusMap(MobiusTransform(0, 1, 1, -0.5))
        outer = MobiusMap(MobiusTransform(2, 1, 0, 1))  # 2w + 1, fixes infinity
        f = Compose(outer, inner)
        jet = evaluate(f, 0.5 + 0j)
        assert jet.is_pole
        assert jet.derivative == pytest.approx(0.5)


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
        # one factor passes within 1e-9 of zero: the log-derivative sum
        # must not blow up
        b = BlaschkeDisc((0.5 + 0j, 0.3j, -0.2 + 0.1j))
        z = 0.5 + 1e-9 + 0j
        jet = evaluate(b, z)
        assert jet.derivative == pytest.approx(fd_derivative(b, z, 1e-5), rel=1e-6)

    def test_product_exact_double_zero(self):
        b = BlaschkeDisc((0.5 + 0j, 0.5 + 0j))
        jet = evaluate(b, 0.5 + 0j)
        assert jet.value == 0 and jet.derivative == 0


def inv(center):
    """1/(z - center): a Moebius map with its pole at center."""
    return MobiusMap(MobiusTransform(0, 1, 1, -center))


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
    # 5 000 factors: the batch crosses several blocks of the broadcast
    "blaschke-half-plane-long": (
        BlaschkeHalfPlane(tuple(float(k * k) for k in range(1, 5001))),
        [1j, 4j + 3e-9j] + [complex(x, 1.0 + abs(x)) for x in np.linspace(-30, 30, 17)],
    ),
}


class TestBatchMasks:
    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_each_element_matches_one_point(self, case):
        # the masks and exact zeros agree exactly; numpy may round a batch
        # and a single point differently in the last bit
        f, points = BATCH_CASES[case]
        got = unbatch(evaluate(f, np.array(points)))
        for z, jet in zip(points, got):
            one = evaluate(f, z)
            assert jet.is_pole == one.is_pole, z
            if not one.is_pole:
                assert jet.value == pytest.approx(one.value, rel=1e-15, abs=0), z
            assert jet.derivative == pytest.approx(one.derivative, rel=1e-15, abs=0), z

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
