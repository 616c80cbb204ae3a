import math

import pytest

from arclab import verifier
from arclab.errors import DataError, DivergenceError, PrecisionError, ResolutionError
from arclab.geodesics import GrowthSample, QuadConfig
from arclab.maps import (
    BlaschkeDisc,
    Compose,
    ConstMap,
    Identity,
    Koebe,
    Product,
    Scale,
)
from arclab.metrics import MetricId
from arclab.verifier import (
    GrowthFit,
    GrowthModel,
    VerdictReport,
    alpha_growth_check,
    annulus_report,
    check_area_derivative_bound,
    check_localized_bound,
    check_spherical_bound,
    check_sqrt_trend,
    check_uniform_char_length_bound,
    default_probe_grid,
    growth_fit,
    scenario_annulus,
    scenario_blaschke_quotient,
    scenario_symmetric_blaschke,
)

E = MetricId.EUCLIDEAN
H = MetricId.HYPERBOLIC_DISC
S = MetricId.SPHERICAL


class TestVerdictReport:
    def test_line_format(self):
        r = VerdictReport("some_check", "PASS", 0.25, 1 + 2j)
        assert r.to_line() == "some_check | PASS | 0.250000 | (1+2j)"
        assert r.passed

    def test_status_validated(self):
        with pytest.raises(ValueError):
            VerdictReport("x", "MAYBE", 0.0)

    def test_inapplicable_not_passed(self):
        r = VerdictReport("x", "INAPPLICABLE", math.nan)
        assert not r.passed


class TestGrowthFit:
    def test_power_law_exact_recovery(self):
        samples = [(rho, 3.0 * rho**1.7) for rho in (1.0, 2.0, 4.0, 8.0, 16.0)]
        fit = growth_fit(samples, GrowthModel.POWER_LAW)
        assert fit.exponent == pytest.approx(1.7, abs=1e-12)
        assert fit.constant == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.residual < 1e-12

    def test_exponential_exact_recovery(self):
        samples = [(rho, 0.5 * math.exp(0.48 * rho)) for rho in (2.0, 4.0, 6.0, 8.0)]
        fit = growth_fit(samples, GrowthModel.EXPONENTIAL)
        assert fit.exponent == pytest.approx(0.48, abs=1e-12)
        assert fit.residual < 1e-12

    def test_sqrt_rho_ratios_attached(self):
        samples = [GrowthSample(float(r), 2.0 * math.sqrt(r)) for r in (1, 4, 9, 16)]
        fit = growth_fit(samples, GrowthModel.POWER_LAW)
        assert all(v == pytest.approx(2.0) for v in fit.sqrt_rho_ratios)

    def test_data_validation(self):
        with pytest.raises(DataError):
            growth_fit([(1.0, 1.0), (2.0, 2.0)], GrowthModel.POWER_LAW)
        with pytest.raises(DataError):
            growth_fit(
                [(1.0, 1.0), (3.0, 2.0), (2.0, 3.0), (4.0, 4.0)],
                GrowthModel.POWER_LAW,
            )
        with pytest.raises(DataError):
            growth_fit(
                [(1.0, 1.0), (2.0, 0.0), (3.0, 2.0), (4.0, 3.0)],
                GrowthModel.POWER_LAW,
            )


class TestProbeGrid:
    def test_counts_and_containment(self):
        pts = default_probe_grid(4, 8, rho_max=6.0)
        assert len(pts) == 1 + 4 * 8
        assert all(abs(z) < 1 for z in pts)
        assert max(abs(z) for z in pts) == pytest.approx(math.tanh(3.0))

    def test_origin_optional(self):
        assert 0j not in default_probe_grid(2, 4, include_origin=False)


class TestAreaDerivativeBound:
    def test_identity_is_sharp(self):
        report = check_area_derivative_bound(Identity(), E)
        assert report.status == "PASS"
        # the bound saturates at the origin for the identity
        assert report.worst_ratio == pytest.approx(1.0, abs=1e-6)

    def test_contraction_passes_hyperbolic(self):
        report = check_area_derivative_bound(Scale(0.5), H)
        assert report.status == "PASS"
        assert report.worst_ratio <= 1.0 + 1e-9

    def test_divergent_area_inapplicable(self):
        report = check_area_derivative_bound(Identity(), H)
        assert report.status == "INAPPLICABLE"
        assert dict(report.details)["reason"] == "image area diverges"

    def test_unresolved_area_inapplicable(self):
        report = check_area_derivative_bound(Koebe(), E)
        assert report.status == "INAPPLICABLE"
        assert "did not resolve" in dict(report.details)["reason"]

    def test_spherical_target_rejected(self):
        with pytest.raises(ValueError):
            check_area_derivative_bound(Identity(), S)


@pytest.mark.parametrize(
    "check, name, label",
    [
        (lambda: check_area_derivative_bound(Identity(), E),
         "area_derivative_bound[euclidean]", "image area"),
        (lambda: check_area_derivative_bound(Identity(), H),
         "area_derivative_bound[hyperbolic_disc]", "image area"),
        (lambda: check_spherical_bound(Identity()), "small_spherical_area_bound", "A_S"),
    ],
    ids=("prop21", "prop22", "prop23"),
)
def test_whole_disc_area_failures_are_inapplicable(monkeypatch, check, name, label):
    def diverges(*args):
        raise DivergenceError("diverges")

    def stalls(*args):
        raise PrecisionError("stalls", 1.25, 0.5)

    monkeypatch.setattr(verifier, "area_with_bound", diverges)
    report = check()
    assert (report.name, report.status, report.witness) == (name, "INAPPLICABLE", None)
    assert math.isnan(report.worst_ratio)
    assert report.details == (("reason", f"{label} diverges"),)
    monkeypatch.setattr(verifier, "area_with_bound", stalls)
    assert check().details == (
        ("reason", f"{label} did not resolve"),
        ("estimate", 1.25),
    )


class TestLocalizedBound:
    def test_scale_map_obeys_bound(self):
        report = check_localized_bound(Scale(0.5), 0.2 + 0.1j, 1.5)
        assert report.status == "PASS"
        assert report.worst_ratio <= 1.0 + 1e-9
        assert dict(report.details)["delta"] == 1.5

    def test_identity_sharp_at_origin(self):
        report = check_localized_bound(Identity(), 0j, 2.0)
        assert report.status == "PASS"
        assert report.worst_ratio == pytest.approx(1.0, abs=1e-6)

    def test_identity_off_center_ratio(self):
        # the image ball is a round disc of radius r_o(1-|c|^2)/(1-r_o^2|c|^2),
        # so the ratio comes out at exactly 1 - r_o^2 |c|^2
        c = 0.3 - 0.2j
        r_o = math.tanh(1.0)
        report = check_localized_bound(Identity(), c, 2.0)
        assert report.status == "PASS"
        assert report.worst_ratio == pytest.approx(1 - r_o**2 * abs(c) ** 2, abs=1e-6)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            check_localized_bound(Identity(), 0j, 0.0)


class TestSphericalBound:
    def test_small_image_passes(self):
        report = check_spherical_bound(Scale(0.25))
        assert report.status == "PASS"
        details = dict(report.details)
        assert details["A_S"] < 2 * math.pi
        assert math.isfinite(report.worst_ratio)

    def test_large_image_inapplicable(self):
        report = check_spherical_bound(Koebe())
        assert report.status == "INAPPLICABLE"
        assert report.worst_ratio == pytest.approx(2.0, rel=1e-3)  # A_S/2pi = 4pi/2pi

    def test_constant_map_trivial(self):
        report = check_spherical_bound(ConstMap(0.3))
        assert report.status == "PASS"
        assert report.worst_ratio == 0.0


class TestSqrtTrend:
    def test_identity_euclidean_decreasing(self):
        # L_E = tanh(rho/2) saturates, so L/sqrt(rho) decreases
        report = check_sqrt_trend(Identity(), E)
        assert report.status == "PASS"
        assert report.worst_ratio < 1.0

    def test_identity_hyperbolic_decreasing(self):
        # L_H = rho exactly, so L/sqrt(rho) = sqrt(rho) increases
        report = check_sqrt_trend(Identity(), H)
        assert report.status == "FAIL"

    def test_halving_requirement(self):
        lax = check_sqrt_trend(Scale(0.9), E, require_halving=False)
        strict = check_sqrt_trend(Scale(0.9), E, require_halving=True)
        assert lax.status == "PASS"
        halved = dict(strict.details)["halved"]
        assert strict.passed == (halved and lax.passed)


class TestAlphaGrowth:
    def test_synthetic_divergent_profile(self):
        alpha = 2.0
        report = alpha_growth_check(lambda t: t**alpha, alpha, 1.0)
        assert report.status == "INAPPLICABLE"
        assert dict(report.details)["classification"] == "divergent"

    def test_synthetic_convergent_profile(self):
        report = alpha_growth_check(lambda t: 3.0, 2.0, 1.0)
        assert report.status == "PASS"
        assert dict(report.details)["classification"] == "convergent"

    def test_bounded_map_converges_and_trends(self):
        report = alpha_growth_check(Compose(Koebe(), Scale(0.9)), 2.0, 1.0)
        assert report.status == "PASS"
        details = dict(report.details)
        assert details["classification"] == "convergent"
        powers = details["power_ratios"]
        assert powers[-1] < powers[-2]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            alpha_growth_check(lambda t: 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            alpha_growth_check(lambda t: 1.0, 2.0, 0.0)

    def test_negative_profile_rejected(self):
        with pytest.raises(DataError):
            alpha_growth_check(lambda t: -1.0, 2.0, 1.0)


class TestScenarios:
    def test_annulus_linear_in_rho(self):
        samples = scenario_annulus(math.e, 25.0)
        assert len(samples) >= 5
        # constant spherical speed: length exactly proportional to rho
        slope = samples[0].length / samples[0].rho
        for s in samples:
            assert s.length == pytest.approx(slope * s.rho, rel=1e-9)

    def test_annulus_report_judges_fit_and_periodicity(self):
        samples = scenario_annulus(math.e, 25.0)
        report = annulus_report(samples, math.e)
        assert report.status == "PASS"
        assert report.name == "annulus_linear_growth"
        assert report.witness == math.e
        assert report.fit == growth_fit(samples, GrowthModel.POWER_LAW)
        assert report.worst_ratio == report.fit.exponent
        assert dict(report.details)["periodicity_residual"] < 1e-8
        # one length off by 1e-6 breaks the exact periodicity
        shifted = list(samples)
        shifted[3] = GrowthSample(shifted[3].rho, shifted[3].length + 1e-6)
        broken = annulus_report(shifted, math.e)
        assert broken.status == "FAIL"
        assert dict(broken.details)["periodicity_residual"] == pytest.approx(1e-6, abs=1e-12)

    def test_annulus_validation(self):
        with pytest.raises(ValueError):
            scenario_annulus(0.9)
        with pytest.raises(ValueError):
            scenario_annulus(math.e, 2.0)

    def test_symmetric_blaschke_fast_variant(self):
        samples, report = scenario_symmetric_blaschke(24, 8.0)
        assert report.status == "PASS"
        assert report.name == "symmetric_blaschke_linear_growth"
        details = dict(report.details)
        assert details["symmetry_deviation"] < 1e-10
        assert details["imag_axis_realness_deviation"] < 1e-10
        assert 0.85 <= report.worst_ratio <= 1.15  # fitted exponent
        assert report.fit == growth_fit(samples, GrowthModel.POWER_LAW)
        assert report.worst_ratio == report.fit.exponent
        assert all(b.length > a.length for a, b in zip(samples, samples[1:]))

    def test_symmetric_blaschke_levels_beyond_double_range(self):
        # 2.0**1024 overflows a double
        with pytest.raises(ValueError):
            scenario_symmetric_blaschke(1024)

    def test_symmetric_blaschke_tail_not_certified(self):
        with pytest.raises(ResolutionError):
            scenario_symmetric_blaschke(12, 12.0)

    def test_blaschke_quotient_structure(self):
        # small n_max keeps the runtime down; asymptotic gates only settle
        # for the large run, so assert structure rather than the verdict
        samples, report = scenario_blaschke_quotient(12)
        details = dict(report.details)
        assert details["axis_modulus_deviation"] <= 1e-8
        assert details["kept_factors"] >= 5334
        assert report.name == "blaschke_quotient_exponential_growth"
        assert all(b.length > a.length for a, b in zip(samples, samples[1:]))
        # fewer than four samples at rho >= 2 log 10, so all of them are fitted
        assert report.fit == growth_fit(samples, GrowthModel.EXPONENTIAL)
        assert details["fit_rate"] == report.fit.exponent

    def test_blaschke_quotient_inapplicable_below_the_ratio_window(self):
        # the ratios to 2 pi n are judged at n >= 30 only; at n_max = 12 none
        # is, and the fit of all samples is not the settled rate either
        _, report = scenario_blaschke_quotient(12)
        assert report.status == "INAPPLICABLE"
        assert "below 30" in dict(report.details)["reason"]

    def test_blaschke_quotient_validation(self):
        with pytest.raises(ValueError):
            scenario_blaschke_quotient(9)


class TestUniformCharLengthBound:
    def test_half_blaschke_pair_passes(self):
        f0 = Product(ConstMap(0.5), BlaschkeDisc((0.5 + 0j,)))
        finf = ConstMap(0.5)
        report = check_uniform_char_length_bound(f0, finf, 0.35)
        assert report.status == "PASS"
        details = dict(report.details)
        assert details["derivative_route_gap"] <= 1e-10
        assert details["arc_ratio"] <= 1.0

    def test_floor_above_modulus_inapplicable(self):
        f0 = Product(ConstMap(0.5), BlaschkeDisc((0.5 + 0j,)))
        finf = ConstMap(0.5)
        report = check_uniform_char_length_bound(f0, finf, 0.9)
        assert report.status == "INAPPLICABLE"

    def test_modulus_above_one_inapplicable(self):
        report = check_uniform_char_length_bound(
            ConstMap(0.9), ConstMap(0.9), 0.5
        )
        assert report.status == "INAPPLICABLE"

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            check_uniform_char_length_bound(ConstMap(0.5), ConstMap(0.5), 0.0)
