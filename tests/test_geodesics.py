import math

import numpy as np
import pytest

from arclab.errors import (
    ConstructionError,
    DivergenceError,
    EvaluationError,
    PrecisionError,
)
from arclab.geodesics import (
    AREA_DEFAULT,
    QuadConfig,
    RadialArc,
    adaptive_integrate,
    arc_length,
    arc_length_profile,
    area,
    area_from_coefficients,
    area_with_bound,
    circle_energy,
    disc_arc,
    halfplane_arc,
)
from arclab.maps import (
    BlaschkeDisc,
    Compose,
    Identity,
    Koebe,
    PowerSeries,
    Scale,
    cayley_map,
)
from arclab.metrics import MetricId

H = MetricId.HYPERBOLIC_DISC
HP = MetricId.HYPERBOLIC_HALF_PLANE
E = MetricId.EUCLIDEAN
S = MetricId.SPHERICAL

CFG = QuadConfig(abs_tol=1e-11, rel_tol=1e-11, max_depth=40, max_segments=20000)


class TestArcs:
    def test_disc_arc_points(self):
        arc = disc_arc(2.0, math.pi / 2)
        z = arc.point(2.0)
        assert z == pytest.approx(1j * math.tanh(1.0))

    def test_halfplane_arc_climbs_from_i(self):
        arc = halfplane_arc(4.0)
        assert arc.point(0.0) == pytest.approx(1j)
        assert arc.point(2.0) == pytest.approx(1j * math.e**2)

    def test_halfplane_offset_shifts_real_part(self):
        arc = halfplane_arc(4.0, 0.5 + 0j)
        assert arc.point(0.0) == pytest.approx(0.5 + 1j)

    def test_rho_caps(self):
        with pytest.raises(ConstructionError):
            disc_arc(36.0)
        with pytest.raises(ConstructionError):
            disc_arc(math.inf)
        with pytest.raises(ConstructionError):
            halfplane_arc(701.0)
        with pytest.raises(ConstructionError):
            RadialArc(E, 1.0)

    def test_negative_rho_rejected(self):
        with pytest.raises(ConstructionError):
            disc_arc(-1.0)
        with pytest.raises(ValueError):
            disc_arc(2.0).point(-0.1)
        with pytest.raises(ValueError):
            disc_arc(2.0).point(2.5)


class TestAdaptiveIntegrate:
    def test_polynomial_exact(self):
        val, err = adaptive_integrate(lambda t: 3 * t**2, 0.0, 2.0, CFG)
        assert val == pytest.approx(8.0, abs=1e-13)
        assert err < 1e-10

    def test_endpoint_singularity(self):
        # integrand blows up at t=0 but the integral converges;
        # endpoints are never sampled, so deep bisection resolves it
        deep = QuadConfig(abs_tol=1e-9, rel_tol=1e-9, max_depth=60, max_segments=40000)
        val, _ = adaptive_integrate(lambda t: 1.0 / math.sqrt(t), 0.0, 1.0, deep)
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_split_points_isolate_kink(self):
        f = lambda t: abs(t - 0.5)
        val, err = adaptive_integrate(f, 0.0, 1.0, CFG, split_points=(0.5,))
        assert val == pytest.approx(0.25, abs=1e-13)

    def test_precision_error_carries_estimate(self):
        tight = QuadConfig(abs_tol=1e-15, rel_tol=1e-15, max_depth=3, max_segments=8)
        with pytest.raises(PrecisionError) as exc_info:
            adaptive_integrate(lambda t: 1.0 / math.sqrt(abs(t - 0.3) + 1e-9), 0.0, 1.0, tight)
        err = exc_info.value
        # exact value is 2(sqrt(0.7) + sqrt(0.3)) up to the 1e-9 shift
        assert err.estimate == pytest.approx(2 * (math.sqrt(0.7) + math.sqrt(0.3)), rel=0.2)
        assert err.error_bound > 0

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(EvaluationError):
            adaptive_integrate(lambda t: math.nan, 0.0, 1.0, CFG)


class TestArcLength:
    def test_identity_hyperbolic_length_is_rho(self):
        for rho in (0.5, 2.0, 10.0):
            val = arc_length(Identity(), disc_arc(rho), H, CFG)
            assert val == pytest.approx(rho, rel=1e-10)

    def test_identity_spherical_length(self):
        rho = 3.0
        val = arc_length(Identity(), disc_arc(rho), S, CFG)
        assert val == pytest.approx(2 * math.atan(math.tanh(rho / 2)), rel=1e-10)

    def test_identity_euclidean_length(self):
        rho = 2.0
        val = arc_length(Identity(), disc_arc(rho), E, CFG)
        assert val == pytest.approx(math.tanh(rho / 2), rel=1e-10)

    def test_halfplane_identity_length(self):
        val = arc_length(Identity(), halfplane_arc(5.0), HP, CFG)
        assert val == pytest.approx(5.0, rel=1e-10)

    def test_profile_matches_single_calls(self):
        f = Compose(Koebe(), Scale(0.9))
        rhos = (1.0, 2.0, 4.0)
        samples = arc_length_profile(f, disc_arc(4.0), rhos, E, CFG)
        assert [s.rho for s in samples] == list(rhos)
        for s in samples:
            direct = arc_length(f, disc_arc(s.rho), E, CFG)
            assert s.length == pytest.approx(direct, rel=1e-9)

    def test_profile_requires_increasing_rhos(self):
        with pytest.raises(ValueError):
            arc_length_profile(Identity(), disc_arc(4.0), (2.0, 1.0), E, CFG)

    def test_koebe_negative_radius_oracle(self):
        # along theta = pi the image of the radius is a real segment and
        # the map is injective there, so the arc length is |f(-r)|
        rho = 5.0
        r = math.tanh(rho / 2)
        val = arc_length(Koebe(), disc_arc(rho, math.pi), E, CFG)
        assert val == pytest.approx(r / (1 + r) ** 2, rel=1e-9)


class TestCircleEnergy:
    def test_identity_energy(self):
        # |f'| lambda_E / lambda_H = (1-r^2)/2 on |z|=r, constant
        t = 1.3
        r = math.tanh(t / 2)
        expect = 2 * math.pi * ((1 - r * r) / 2) ** 2
        got = circle_energy(Identity(), t, E)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_scale_energy(self):
        t = 0.9
        r = math.tanh(t / 2)
        eps = 0.5
        expect = 2 * math.pi * (eps * (1 - r * r) / 2) ** 2
        got = circle_energy(Scale(eps), t, E)
        assert got == pytest.approx(expect, rel=1e-12)


class TestArea:
    def test_identity_euclidean_disc_area(self):
        rho = 2.0
        got = area(Identity(), rho, E, AREA_DEFAULT)
        assert got == pytest.approx(math.pi * math.tanh(rho / 2) ** 2, rel=1e-8)

    def test_scale_hyperbolic_area_closed_form(self):
        eps = 0.5
        got = area(Scale(eps), math.inf, H, AREA_DEFAULT)
        assert got == pytest.approx(4 * math.pi * eps * eps / (1 - eps * eps), rel=1e-6)

    def test_identity_spherical_total(self):
        got = area(Identity(), math.inf, S, AREA_DEFAULT)
        assert got == pytest.approx(2 * math.pi, rel=1e-6)

    def test_koebe_spherical_total(self):
        got = area(Koebe(), math.inf, S, AREA_DEFAULT)
        assert got == pytest.approx(4 * math.pi, rel=1e-4)

    def test_identity_hyperbolic_ball(self):
        rho = 2.0
        got = area(Identity(), rho, H, AREA_DEFAULT)
        assert got == pytest.approx(4 * math.pi * math.sinh(rho / 2) ** 2, rel=1e-8)

    def test_halfplane_map_transported(self):
        # identity on the half-plane covers the same ball after transport
        f = Compose(cayley_map(), Identity())
        rho = 2.0
        got = area(f, rho, H, AREA_DEFAULT)
        assert got == pytest.approx(4 * math.pi * math.sinh(rho / 2) ** 2, rel=1e-7)

    def test_divergent_hyperbolic_area(self):
        # the image is the whole disc, so the hyperbolic area is infinite;
        # window increments keep rising and the tail test reports that
        with pytest.raises(DivergenceError) as exc_info:
            area(Identity(), math.inf, H, AREA_DEFAULT)
        sums = exc_info.value.partial_sums
        assert len(sums) >= 2 and sums[-1] > sums[0]

    def test_unresolvable_euclidean_area_is_precision_error(self):
        # the integrand near the boundary outruns the angular panel budget
        # before the window comparison can settle; the stall is reported
        # as a precision failure carrying the best estimate, not a value
        with pytest.raises(PrecisionError) as exc_info:
            area(Koebe(), math.inf, E, AREA_DEFAULT)
        assert exc_info.value.estimate > 0

    def test_area_with_bound_reports_error(self):
        val, bound = area_with_bound(Identity(), 1.0, E, AREA_DEFAULT)
        assert abs(val - math.pi * math.tanh(0.5) ** 2) <= max(bound, 1e-9)

    def test_rotation_invariance(self):
        f = PowerSeries((0.1, 0.4, 0.2j, -0.3))
        rot = Compose(f, Scale(complex(math.cos(0.9), math.sin(0.9))))
        a = area(f, 2.0, E, AREA_DEFAULT)
        b = area(rot, 2.0, E, AREA_DEFAULT)
        assert a == pytest.approx(b, abs=1e-8)

    def test_monotone_in_rho(self):
        f = Compose(Koebe(), Scale(0.8))
        vals = [area(f, rho, E, AREA_DEFAULT) for rho in (1.0, 2.0, 3.0, 4.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestAreaFromCoefficients:
    def test_identity_disc(self):
        r = 0.7
        got = area_from_coefficients((0.0, 1.0), r)
        assert got == pytest.approx(math.pi * r * r, rel=1e-12)

    def test_polynomial_formula(self):
        coeffs = (0.3, 0.5, -0.2, 0.1)
        r = 0.6
        expect = math.pi * sum(
            n * abs(c) ** 2 * r ** (2 * n) for n, c in enumerate(coeffs)
        )
        assert area_from_coefficients(coeffs, r) == pytest.approx(expect, rel=1e-12)

    def test_matches_quadrature(self):
        coeffs = (0.1, 0.4, 0.2j, -0.3, 0.05)
        r = 0.55
        rho = 2 * math.atanh(r)
        quad = area(PowerSeries(coeffs), rho, E, AREA_DEFAULT)
        assert area_from_coefficients(coeffs, r) == pytest.approx(quad, rel=1e-7)

    def test_square_map_at_full_radius(self):
        assert area_from_coefficients((0.0, 0.0, 1.0), 1.0) == pytest.approx(2 * math.pi)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            area_from_coefficients((1.0,), 1.5)
        with pytest.raises(ValueError):
            area_from_coefficients((1.0,), -0.1)


class TestBlaschkeLengthCeiling:
    def test_disc_to_disc_never_exceeds_rho(self):
        b = BlaschkeDisc((0.4 + 0.1j, -0.2j))
        for rho in (1.0, 4.0, 8.0):
            val = arc_length(b, disc_arc(rho, 0.3), H, CFG)
            assert val <= rho + 1e-9
