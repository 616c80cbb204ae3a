import cmath
import math
import random

import pytest

from arclab.errors import ConstructionError, DomainError, RangeError
from arclab.maps import BlaschkeDisc, Identity, Jet, Koebe, Scale, evaluate
from arclab.metrics import (
    INFINITY,
    MetricId,
    MobiusTransform,
    cayley,
    chordal,
    density,
    deriv_norm,
    disc_automorphism,
    distance,
    is_infinite,
    mobius_apply,
    mobius_inverse,
    norm_from_jet,
)

H = MetricId.HYPERBOLIC_DISC
HP = MetricId.HYPERBOLIC_HALF_PLANE
E = MetricId.EUCLIDEAN
S = MetricId.SPHERICAL


class TestDensity:
    def test_euclidean_is_one_everywhere(self):
        assert density(E, 3 + 4j) == 1.0

    def test_disc_density_center_and_mid(self):
        assert density(H, 0j) == 2.0
        assert density(H, 0.5 + 0j) == pytest.approx(2.0 / 0.75)

    def test_half_plane_density(self):
        assert density(HP, 1 + 2j) == 0.5

    def test_spherical_density(self):
        assert density(S, 0j) == 2.0
        assert density(S, 1j) == 1.0
        assert density(S, INFINITY) == 0.0

    def test_domain_violations(self):
        with pytest.raises(DomainError):
            density(H, 1.5 + 0j)
        with pytest.raises(DomainError):
            density(HP, 1 - 1j)


class TestDistance:
    def test_disc_radial_inverse_of_tanh(self):
        # hyperbolic distance 0 -> tanh(1/2) is exactly 1
        assert distance(H, 0j, math.tanh(0.5) + 0j) == pytest.approx(1.0, abs=1e-14)

    def test_disc_known_log(self):
        # distance 0 -> 0.6: log((1+.6)/(1-.6)) = log 4
        assert distance(H, 0j, 0.6 + 0j) == pytest.approx(
            1.3862943611198906, abs=1e-15
        )

    def test_half_plane_vertical(self):
        assert distance(HP, 1j, 1j * math.e) == pytest.approx(1.0, abs=1e-14)

    def test_spherical_antipodes(self):
        assert distance(S, 0j, INFINITY) == pytest.approx(math.pi)

    def test_spherical_zero_to_one(self):
        # 2 * asin(k/2) with k = 2/sqrt(2)
        assert distance(S, 0j, 1 + 0j) == pytest.approx(math.pi / 2)

    def test_euclidean(self):
        assert distance(E, 1 + 1j, 4 + 5j) == 5.0

    def test_symmetry(self):
        rng = random.Random(11)
        for _ in range(25):
            a = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            b = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            assert distance(H, a, b) == pytest.approx(distance(H, b, a), rel=1e-12)


class TestChordal:
    def test_diameter_two(self):
        assert chordal(0j, INFINITY) == 2.0

    def test_simple_value(self):
        assert chordal(0j, 1 + 0j) == pytest.approx(2.0 / math.sqrt(2.0))

    def test_huge_arguments_stable(self):
        # naive formula overflows |w|^2 near 1e200
        v = chordal(1e200 + 0j, INFINITY)
        assert v == pytest.approx(2e-200, rel=1e-12)

    def test_symmetric(self):
        assert chordal(3 + 4j, -1j) == pytest.approx(chordal(-1j, 3 + 4j), rel=1e-15)

    def test_infinity_detection(self):
        assert is_infinite(INFINITY)
        assert not is_infinite(2.0 + 0j)


class TestNormFromJet:
    def test_identity_disc_to_euclidean(self):
        jet = Jet(0.3 + 0j, 1.0)
        # lambda_E / lambda_H = (1 - r^2)/2
        assert norm_from_jet(jet, 0.3 + 0j, H, E) == pytest.approx((1 - 0.09) / 2)

    def test_pole_spherical_via_chart(self):
        # chart derivative e at a pole: norm = 2|e| / lambda_source
        jet = Jet(INFINITY, 0.5 + 0j)
        got = norm_from_jet(jet, 0j, H, S)
        assert got == pytest.approx(2 * 0.5 / 2.0)

    def test_pole_non_spherical_target_rejected(self):
        jet = Jet(INFINITY, 1.0)
        with pytest.raises(RangeError):
            norm_from_jet(jet, 0j, H, E)

    def test_large_value_spherical_stable(self):
        # f(z) = 1/z near 0: value 1e150, derivative -1e300; the naive
        # lambda product overflows, the rearranged branch must survive
        v = 1e150
        jet = Jet(v + 0j, -(v * v))
        got = norm_from_jet(jet, 1e-150 + 0j, E, S)
        assert math.isfinite(got)
        assert got == pytest.approx(2.0, rel=1e-9)

    def test_target_range_violation(self):
        jet = Jet(1.5 + 0j, 1.0)
        with pytest.raises(RangeError):
            norm_from_jet(jet, 0j, H, H)


class TestDerivNorm:
    def test_identity_spherical_at_origin(self):
        assert deriv_norm(Identity(), 0j, S) == pytest.approx(1.0)

    def test_koebe_euclidean_origin(self):
        assert deriv_norm(Koebe(), 0j, E) == pytest.approx(0.5)

    def test_scale_hyperbolic_schwarz_pick(self):
        rng = random.Random(5)
        b = BlaschkeDisc((0.3 + 0.2j, -0.5j))
        for _ in range(50):
            r = math.sqrt(rng.random()) * 0.95
            t = rng.uniform(0, 2 * math.pi)
            z = r * cmath.exp(1j * t)
            assert deriv_norm(b, z, H) <= 1.0 + 1e-10


class TestMobius:
    def test_degenerate_rejected(self):
        with pytest.raises(ConstructionError):
            MobiusTransform(1, 2, 2, 4)

    def test_apply_and_inverse_roundtrip(self):
        t = MobiusTransform(2, 1j, 1, 1)
        inv = mobius_inverse(t)
        for z in (0j, 0.5 + 0.25j, -1j):
            assert mobius_apply(inv, mobius_apply(t, z)) == pytest.approx(z)

    def test_apply_pole_and_infinity(self):
        t = MobiusTransform(1, 0, 1, -2)  # z/(z-2)
        assert is_infinite(mobius_apply(t, 2 + 0j))
        assert mobius_apply(t, INFINITY) == pytest.approx(1 + 0j)

    def test_cayley_maps_half_plane_to_disc(self):
        c = cayley()
        assert mobius_apply(c, 1j) == 0j
        assert abs(mobius_apply(c, 3.7 + 0j)) == pytest.approx(1.0)
        assert abs(mobius_apply(c, 2j)) < 1.0

    def test_disc_automorphism_centers_ball(self):
        # radius < 1 squeezes the disc onto the hyperbolic ball about center
        t = disc_automorphism(0.4 + 0.1j, 0.3)
        assert mobius_apply(t, 0j) == pytest.approx(0.4 + 0.1j)
        ball_radius = 2.0 * math.atanh(0.3)
        for k in range(8):
            z = cmath.exp(2j * cmath.pi * k / 8)
            d = distance(H, 0.4 + 0.1j, mobius_apply(t, z))
            assert d == pytest.approx(ball_radius, rel=1e-12)

    def test_unit_radius_gives_automorphism(self):
        t = disc_automorphism(0.4 + 0.1j, 1.0)
        for k in range(8):
            z = cmath.exp(2j * cmath.pi * k / 8)
            assert abs(mobius_apply(t, z)) == pytest.approx(1.0, abs=1e-12)

    def test_isometry_invariance_of_distance(self):
        t = disc_automorphism(0.2 - 0.3j, 1.0)
        a, b = 0.1 + 0.1j, -0.4j
        assert distance(H, mobius_apply(t, a), mobius_apply(t, b)) == pytest.approx(
            distance(H, a, b), rel=1e-12
        )


class TestNormChainConsistency:
    def test_scale_norm_matches_definition(self):
        f = Scale(0.7 + 0.1j)
        z = 0.3 - 0.2j
        jet = evaluate(f, z)
        expected = (
            abs(jet.derivative) * density(H, jet.value) / density(H, z)
        )
        assert deriv_norm(f, z, H) == pytest.approx(expected, rel=1e-14)


# property-style invariants; kept small so the suite stays fast
from hypothesis import given, settings
from hypothesis import strategies as st


def disc_points(radius=0.95):
    return st.tuples(
        st.floats(0.0, radius, allow_nan=False),
        st.floats(0.0, 2 * math.pi, exclude_max=True, allow_nan=False),
    ).map(lambda ra: ra[0] * cmath.exp(1j * ra[1]))


class TestMetricProperties:
    @settings(max_examples=60, deadline=None)
    @given(disc_points(), disc_points())
    def test_hyperbolic_distance_symmetric(self, a, b):
        assert distance(H, a, b) == pytest.approx(distance(H, b, a), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(disc_points(), disc_points(), disc_points(0.6))
    def test_automorphisms_are_isometries(self, a, b, center):
        t = disc_automorphism(center, 1.0)
        d0 = distance(H, a, b)
        d1 = distance(H, mobius_apply(t, a), mobius_apply(t, b))
        assert d1 == pytest.approx(d0, rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(disc_points(), disc_points(), disc_points())
    def test_chordal_triangle_inequality(self, a, b, c):
        assert chordal(a, c) <= chordal(a, b) + chordal(b, c) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(disc_points(0.9), disc_points(0.6))
    def test_blaschke_norm_never_expands(self, z, zero):
        f = BlaschkeDisc((zero,))
        assert deriv_norm(f, z, H) <= 1.0 + 1e-10

    @settings(max_examples=40, deadline=None)
    @given(disc_points(0.9))
    def test_chordal_matches_spherical_distance(self, z):
        # k = 2 sin(d_S / 2) links the two sphere gauges
        w = 0.3 + 0.4j
        assert chordal(z, w) == pytest.approx(
            2 * math.sin(distance(S, z, w) / 2), abs=1e-12
        )
