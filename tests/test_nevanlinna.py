import cmath
import math

import numpy as np
import pytest

from arclab.errors import (
    BoundarySingularityError,
    DataError,
    NormalizationError,
    StructureError,
)
from arclab.geodesics import QuadConfig, adaptive_integrate
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
)
from arclab.metrics import INFINITY, MobiusTransform, chordal
from arclab.nevanlinna import (
    CharacteristicCurve,
    Decomposition,
    characteristic_curve,
    fatou_decompose,
    origin_identity_T,
    rho_of_r,
    shimizu_S,
    shimizu_T,
    uniform_characteristic_delta,
)

CFG = QuadConfig(abs_tol=1e-10, rel_tol=1e-10, max_depth=40, max_segments=20000)


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
        ],
        ids=["linear", "koebe", "blaschke"],
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
