import cmath
import math
import random

import numpy as np
import pytest
from circle_oracle import ExpMobius, Rational, blaschke_one_zero_area, mpmath

import arclab.geodesics as geodesics
from arclab.errors import (
    ConstructionError,
    DivergenceError,
    EvaluationError,
    PrecisionError,
    RangeError,
)
from arclab.geodesics import (
    _CHUNK,
    _MAX_PANELS,
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
    BlaschkeHalfPlane,
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
    cayley_map,
    inv_cayley_map,
)
from arclab.metrics import MetricId, MobiusTransform

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_or_offset_rejected(self, bad):
        with pytest.raises(ConstructionError, match="finite"):
            disc_arc(2.0, bad)
        with pytest.raises(ConstructionError, match="finite"):
            halfplane_arc(2.0, complex(bad, 0.0))
        with pytest.raises(ConstructionError, match="finite"):
            halfplane_arc(2.0, complex(0.5, bad))

    def test_negative_rho_rejected(self):
        with pytest.raises(ConstructionError):
            disc_arc(-1.0)
        with pytest.raises(ValueError):
            disc_arc(2.0).point(-0.1)
        with pytest.raises(ValueError):
            disc_arc(2.0).point(2.5)


class TestQuadConfig:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-9])
    def test_tolerances_must_be_positive_and_finite(self, bad):
        # a NaN tolerance makes every tolerance test false, so the
        # quadrature would return after its first panels
        for kwargs in ({"abs_tol": bad}, {"rel_tol": bad}, {"abs_tol": bad, "rel_tol": bad}):
            with pytest.raises(ConstructionError, match="positive and finite"):
                QuadConfig(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, 40.0, 0, -3, True, "40", None])
    @pytest.mark.parametrize("name", ["max_depth", "max_segments"])
    def test_budgets_must_be_integers_at_least_one(self, name, bad):
        # depth >= nan is never true, so a NaN budget would bound nothing
        with pytest.raises(ConstructionError, match=f"{name} must be an integer at least 1"):
            QuadConfig(**{name: bad})

    def test_budgets_accept_integers_at_least_one(self):
        cfg = QuadConfig(max_depth=1, max_segments=np.int64(4))
        assert (cfg.max_depth, cfg.max_segments) == (1, 4)


class TestAdaptiveIntegrate:
    def test_polynomial_exact(self):
        val, err = adaptive_integrate(lambda t: 3 * t**2, 0.0, 2.0, CFG)
        assert val == pytest.approx(8.0, abs=1e-13)
        assert err < 1e-10

    def test_endpoint_singularity(self):
        # integrand blows up at t=0 but the integral converges;
        # endpoints are never sampled, so deep bisection resolves it
        deep = QuadConfig(abs_tol=1e-9, rel_tol=1e-9, max_depth=60, max_segments=40000)
        val, _ = adaptive_integrate(lambda t: 1.0 / np.sqrt(t), 0.0, 1.0, deep)
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_split_points_isolate_kink(self):
        f = lambda t: np.abs(t - 0.5)
        val, err = adaptive_integrate(f, 0.0, 1.0, CFG, split_points=(0.5,))
        assert val == pytest.approx(0.25, abs=1e-13)

    def test_precision_error_carries_estimate(self):
        tight = QuadConfig(abs_tol=1e-15, rel_tol=1e-15, max_depth=3, max_segments=8)
        with pytest.raises(PrecisionError) as exc_info:
            adaptive_integrate(lambda t: 1.0 / np.sqrt(np.abs(t - 0.3) + 1e-9), 0.0, 1.0, tight)
        err = exc_info.value
        # exact value is 2(sqrt(0.7) + sqrt(0.3)) up to the 1e-9 shift
        assert err.estimate == pytest.approx(2 * (math.sqrt(0.7) + math.sqrt(0.3)), rel=0.2)
        assert err.error_bound > 0

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(EvaluationError):
            adaptive_integrate(lambda t: np.full_like(t, np.nan), 0.0, 1.0, CFG)

    @pytest.mark.parametrize(
        "a, b", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 0.0), (math.nan, 1.0)]
    )
    def test_non_finite_bounds_rejected_before_any_call(self, a, b):
        g, calls = _recording(lambda t: t)
        with pytest.raises(ValueError, match="finite"):
            adaptive_integrate(g, a, b, CFG)
        assert calls == []


def _recording(g):
    """g, and the list of the point arrays it is called with."""
    calls = []

    def recorded(t):
        calls.append(np.array(t))
        return g(t)

    return recorded, calls


def _kink(c):
    return lambda t: 1.0 / np.sqrt(np.abs(t - c) + 1e-9)


class TestLockstepKernel:
    """geodesics._integrate refines several pieces in lockstep."""

    @pytest.mark.parametrize(
        "g",
        [lambda t: np.exp(3 * t) * np.cos(7 * t), lambda t: np.sqrt(t), _kink(0.8)],
        ids=["oscillating", "sqrt-endpoint", "kink"],
    )
    def test_pieces_match_sequential_integration(self, g):
        pieces = [[0.0, 0.25], [0.25, 1.0], [1.0, 1.1], [1.1, 3.0]]
        lockstep = geodesics._integrate(g, pieces, CFG)
        points = []
        for (lo, hi), (value, bound) in zip(pieces, lockstep):
            recorded, calls = _recording(g)
            want, _ = adaptive_integrate(recorded, lo, hi, CFG)
            assert value == pytest.approx(want, rel=1e-14, abs=0)
            assert bound <= max(CFG.abs_tol, CFG.rel_tol * abs(value))
            points.append(sum(len(t) for t in calls))
        # the pieces need different numbers of bisections
        assert len(set(points)) > 1

    def test_profile_pieces_match_sequential_integration(self):
        f = Compose(Koebe(), Scale(0.9))
        arc = disc_arc(6.0)
        rhos = (0.5, 1.0, 3.0, 3.1, 6.0)
        samples = arc_length_profile(f, arc, rhos, E, CFG)
        speed = geodesics._speed(f, arc, E)
        total, lo = 0.0, 0.0
        for s in samples:
            total += adaptive_integrate(speed, lo, s.rho, CFG)[0]
            assert s.length == pytest.approx(total, rel=1e-14, abs=0)
            lo = s.rho

    def _speed_calls(self, monkeypatch):
        calls = []
        speed = geodesics._speed

        def recording_speed(f, arc, target):
            g, record = _recording(speed(f, arc, target))
            calls.append(record)
            return g

        monkeypatch.setattr(geodesics, "_speed", recording_speed)
        return calls

    def test_settled_pieces_share_one_call(self, monkeypatch):
        # the identity has hyperbolic speed 1: every piece settles at once
        calls = self._speed_calls(monkeypatch)
        rhos = (0.5, 1.0, 2.5, 4.0)
        samples = arc_length_profile(Identity(), disc_arc(4.0), rhos, H, CFG)
        assert [s.length for s in samples] == pytest.approx(rhos, rel=1e-12)
        [record] = calls
        assert [len(t) for t in record] == [15 * len(rhos)]

    def test_no_call_passes_the_chunk(self, monkeypatch):
        calls = self._speed_calls(monkeypatch)
        rhos = [4.0 * k / 400 for k in range(1, 401)]
        samples = arc_length_profile(Compose(Koebe(), Scale(0.9)), disc_arc(4.0), rhos, S, CFG)
        sizes = [len(t) for t in calls[0]]
        assert max(sizes) <= _CHUNK
        # the first panels of the 400 pieces alone take three calls
        assert sum(sizes[:3]) == 15 * 400
        assert samples[-1].length == pytest.approx(
            arc_length(Compose(Koebe(), Scale(0.9)), disc_arc(4.0), S, CFG), rel=1e-12
        )

    def test_first_stalled_piece_in_order_is_raised(self):
        tight = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_depth=4, max_segments=1000)
        g = lambda t: _kink(0.3)(t) + _kink(2.7)(t)
        pieces = [[0.0, 0.2], [0.2, 1.0], [1.0, 2.0], [2.0, 3.0]]
        with pytest.raises(PrecisionError) as alone:
            adaptive_integrate(g, 0.2, 1.0, tight)
        recorded, calls = _recording(g)
        with pytest.raises(PrecisionError) as lockstep:
            geodesics._integrate(recorded, pieces, tight)
        exc = lockstep.value
        assert str(exc) == str(alone.value)
        assert type(exc.estimate) is float and type(exc.error_bound) is float
        assert exc.estimate == pytest.approx(alone.value.estimate, rel=1e-14)
        # the last piece stalls too, and was refined to its own stall
        last, last_calls = _recording(g)
        with pytest.raises(PrecisionError):
            adaptive_integrate(last, 2.0, 3.0, tight)
        on_last = sum(int(((2.0 < t) & (t < 3.0)).sum()) for t in calls)
        assert on_last == sum(len(t) for t in last_calls)

    def test_evaluation_error_on_a_later_piece_wins_over_a_stall(self):
        # the first piece stalls on its first pop, as it would alone; the
        # second bisects in that round and meets a nan
        budget = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_depth=40, max_segments=4)
        nan_late = lambda t: np.where((1.3 < t) & (t < 1.35), np.nan, np.abs(t - 1.5))
        first = [0.0, 0.25, 0.5, 0.75, 1.0]
        with pytest.raises(PrecisionError):
            adaptive_integrate(_kink(0.3), 0.0, 1.0, budget, split_points=first[1:-1])
        g = lambda t: np.where(t < 1.0, _kink(0.3)(t), nan_late(t))
        with pytest.raises(EvaluationError, match="not finite"):
            geodesics._integrate(g, [first, [1.0, 2.0]], budget)

    def test_rounds_bisect_the_worst_panels_together(self):
        # a round pops panels until what is left in the heap is at most
        # half the tolerance: here it bisects every panel, in 4 calls where
        # one bisection per round took 7
        g, calls = _recording(lambda t: np.exp(3 * t) * np.cos(7 * t))
        value, bound = adaptive_integrate(g, 0.0, 3.0, CFG)
        exact = (math.exp(9.0) * (3.0 * math.cos(21.0) + 7.0 * math.sin(21.0)) - 3.0) / 58.0
        assert value == pytest.approx(exact, rel=1e-12, abs=0)
        assert bound <= CFG.rel_tol * abs(value)
        assert [len(t) // 15 for t in calls] == [1, 2, 4, 8]

    def test_max_segments_bounds_the_panels_made(self):
        g, calls = _recording(_kink(0.5))
        adaptive_integrate(g, 0.0, 1.0, CFG)
        panels = sum(len(t) for t in calls) // 15
        exact = QuadConfig(abs_tol=1e-11, rel_tol=1e-11, max_segments=panels)
        assert adaptive_integrate(_kink(0.5), 0.0, 1.0, exact) == adaptive_integrate(
            _kink(0.5), 0.0, 1.0, CFG
        )
        short = QuadConfig(abs_tol=1e-11, rel_tol=1e-11, max_segments=panels - 1)
        g, calls = _recording(_kink(0.5))
        with pytest.raises(PrecisionError):
            adaptive_integrate(g, 0.0, 1.0, short)
        assert sum(len(t) for t in calls) // 15 <= panels - 1

    def test_max_segments_counts_per_piece(self):
        g = _kink(0.5)
        recorded, calls = _recording(g)
        adaptive_integrate(recorded, 0.0, 1.0, CFG)
        panels = sum(len(t) for t in calls) // 15
        pieces = [[k, k + 1.0] for k in (0.0, 1.0, 2.0)]
        shifted = lambda t: g(t - np.floor(t))
        budget = QuadConfig(abs_tol=1e-11, rel_tol=1e-11, max_segments=panels + 1)
        results = geodesics._integrate(shifted, pieces, budget)
        assert 3 * panels > budget.max_segments
        for value, _ in results:
            assert value == pytest.approx(results[0][0], rel=1e-12)
        short = QuadConfig(abs_tol=1e-11, rel_tol=1e-11, max_segments=panels - 2)
        with pytest.raises(PrecisionError):
            geodesics._integrate(shifted, pieces, short)


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

    @pytest.mark.parametrize("f, rho", [
        (Compose(Koebe(), Scale(0.9)), 0.7),
        (Compose(Koebe(), Scale(0.9)), 0.4),
        (Compose(ExpMap(), Scale(0.7)), 1.3),
        (Compose(ExpMap(), Scale(0.7)), 0.4),
        (PowerSeries((0.1, 1.0, 0.3 + 0.1j)), 1.3),
        (PowerSeries((0.1, 1.0, 0.3 + 0.1j)), 2.1),
    ])
    def test_first_profile_sample_is_the_lone_length_bitwise(self, f, rho):
        # the profile's first piece shares its G7K15 calls with the second,
        # the lone length does not: a panel's sums must not depend on how
        # many panels go through the rule together (each case differed in
        # its last bit when the sums were one matrix product)
        arc = disc_arc(rho + 1.0, 0.3)
        first = arc_length_profile(f, arc, [rho, rho + 1.0], E)[0].length
        assert first == arc_length(f, disc_arc(rho, 0.3), E)

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


def _counting_evaluate(monkeypatch):
    """Wrap the evaluate that circle energies call; returns the list of
    point counts, one per call."""
    sizes = []
    inner = geodesics.evaluate

    def evaluate(f, z, order=1):
        sizes.append(np.size(z))
        return inner(f, z, order)

    monkeypatch.setattr(geodesics, "evaluate", evaluate)
    return sizes


def _energy(oracle, t):
    """The circle energy of the rational map oracle in E at radius t: the
    integral of |f'|^2 (1 - r^2)^2 / 4 over |z| = r = tanh(t/2), at 20
    digits by the circle oracle's quadrature."""
    with mpmath.workdps(20):
        r = mpmath.tanh(mpmath.mpf(t) / 2)
        energy = oracle._circle_integral(lambda z: abs(oracle.jet(z)[1]) ** 2, r)
        return float(energy * (1 - r * r) ** 2 / 4)


RADII = np.array([0.05, 0.3, 1.0, 2.0, 3.5, 5.0, 7.0, 9.0, 12.0])
ZEROS_3 = (0.9 + 0j, -0.5 + 0.6j, 0.3j)


class TestCircleEnergiesKernel:
    """The batched kernel behind circle_energy, area_with_bound and shimizu_T."""

    @pytest.mark.parametrize(
        "f, oracle",
        [
            (Identity(), Rational([0])),
            (Compose(Koebe(), Scale(0.5)), Rational.koebe_scaled(0.5)),
            (BlaschkeDisc(ZEROS_3), Rational.blaschke(ZEROS_3)),
        ],
        ids=["identity", "koebe-half", "blaschke-3"],
    )
    def test_rows_match_one_row_calls(self, f, oracle, monkeypatch):
        sizes = _counting_evaluate(monkeypatch)
        batch = geodesics._circle_energies(f, RADII, E, 1e-10, _MAX_PANELS)
        one_row = []
        for t in RADII.tolist():
            start = sum(sizes)
            one_row.append((circle_energy(f, t, E), sum(sizes) - start))
        for t, got, (want, _) in zip(RADII.tolist(), batch, one_row):
            assert got == want
            # the rule's tolerance: 1e-10 relative, 1e-13 on the mean
            exact = _energy(oracle, t)
            assert abs(got - exact) <= max(2 * math.pi * 1e-13, 1e-10 * exact)
        if not isinstance(f, Identity):
            # the rows settle at different doublings
            assert len({points for _, points in one_row}) > 1

    def test_identity_and_scale_closed_forms(self):
        # |f'| lambda_E / lambda_H = eps (1 - r^2)/2 on |z| = r, constant
        r = np.tanh(RADII / 2)
        for f, eps in ((Identity(), 1.0), (Scale(0.5), 0.5)):
            expect = 2 * np.pi * (eps * (1 - r * r) / 2) ** 2
            got = geodesics._circle_energies(f, RADII, E, 1e-10, _MAX_PANELS)
            assert got == pytest.approx(expect, rel=1e-12, abs=0)

    def test_no_evaluate_call_passes_the_chunk(self, monkeypatch):
        sizes = _counting_evaluate(monkeypatch)
        # the Koebe energy in E does not certify within 8 192 points from
        # t = 5 on: every row doubles to four times the chunk
        with pytest.raises(PrecisionError):
            geodesics._circle_energies(Koebe(), np.linspace(5.0, 9.0, 15), E, 1e-10, 8192)
        assert max(sizes) == _CHUNK
        assert sizes[0] == 15 * 64
        # a lone radius splits its angles by the same cap
        sizes.clear()
        with pytest.raises(PrecisionError):
            circle_energy(Koebe(), 7.0, E, max_panels=8192)
        assert max(sizes) == _CHUNK

    def test_unsettled_rows_name_the_first_in_order(self):
        ts = np.array([1.0, 7.0, 2.0, 8.0])
        r = np.tanh(ts / 2.0)
        with pytest.raises(PrecisionError, match=f"at r = {r[1]} within") as batch:
            geodesics._circle_energies(Koebe(), ts, E, 1e-10, _MAX_PANELS)
        with pytest.raises(PrecisionError) as one_row:
            circle_energy(Koebe(), 7.0, E)
        for exc in (batch.value, one_row.value):
            assert type(exc.estimate) is float and type(exc.error_bound) is float
            assert "np.float64" not in str(exc)
        assert batch.value.estimate == pytest.approx(one_row.value.estimate, rel=1e-14)
        assert batch.value.error_bound > 0

    def test_a_pole_on_one_circle_wins_over_a_stall_on_another(self):
        # 1/(z - p) has its pole on the first point of the circle t = 1;
        # the circle t = 7 stalls, but only after every doubling, so the
        # pole's RangeError comes first whatever the order of the radii
        p = float(np.tanh(0.5))
        f = Product(Koebe(), MobiusMap(MobiusTransform(0, 1, 1, -p)))
        for ts in ([7.0, 1.0], [1.0, 7.0]):
            with pytest.raises(RangeError, match="pole"):
                geodesics._circle_energies(f, np.array(ts), E, 1e-10, _MAX_PANELS)

    def test_spectral_tail_in_blocks_matches_one_transform(self):
        # rows of more than _MAX_PANELS samples in all go through the
        # transform in blocks; the arithmetic per row is the same
        h = np.random.default_rng(1).standard_normal((2, 9, 4096))
        mean, tail = geodesics._spectral_tail(h)
        whole = np.abs(np.fft.rfft(h, axis=-1)[..., 1024:]).sum(axis=-1)
        assert (mean == h.mean(axis=-1)).all() and (tail == 2.0 * whole / 4096).all()

    def test_negative_radius(self):
        # nan is rejected before any evaluation, which would warn on it
        for t in (-0.1, math.nan):
            with pytest.raises(ValueError, match="non-negative"):
                circle_energy(Identity(), t, E)
        with pytest.raises(ValueError, match="non-negative"):
            geodesics._circle_energies(
                Identity(), np.array([0.5, -1e-9]), E, 1e-10, _MAX_PANELS
            )
        with pytest.raises(ValueError, match="non-negative"):
            geodesics._circle_energies(
                Identity(), np.array([0.5, math.nan]), E, 1e-10, _MAX_PANELS
            )


class TestCircleRuleForms:
    def test_a_rounding_tie_keeps_the_plain_form(self, monkeypatch):
        # a 4-zero Blaschke product has |f| = 1 on the unit circle: T's
        # integrand is constant there, and its part linear at f(0) is 0 to
        # rounding, so the two forms' first sums differ by 5.9e-15 relative.
        # The reduced form's rounding noise took 256 points; the plain form
        # certifies at 64
        zeros = (-0.148288 - 0.579564j, -0.382265 + 0.386104j,
                 -0.056479 + 0.588513j, 0.532401 - 0.306799j)
        f = Quotient(BlaschkeDisc(zeros), ConstMap(1 + 0j))
        points = []
        samples = geodesics._circle_samples

        def spy(sample, r, live, unit):
            points.append(len(live) * len(unit))
            return samples(sample, r, live, unit)

        monkeypatch.setattr(geodesics, "_circle_samples", spy)
        # origin_identity_T's tolerances, 1e-12 on T
        cfg = QuadConfig(abs_tol=4e-12 * math.pi, rel_tol=1e-12)
        value, bound = geodesics._on_circles(f, [1.0], S, cfg, ("T",))[0][0]
        assert points == [64]
        # the origin identity: T(1) = sum log(1/|a|) + log k(f(0), 0) - log(2)/2,
        # |f(0)| = prod |a| and k(w, 0) = 2|w| / sqrt(1 + |w|^2)
        w0 = math.prod(abs(a) for a in zeros)
        expect = -math.fsum(math.log(abs(a)) for a in zeros) + math.log(
            2 * w0 / math.sqrt(1 + w0 * w0)
        ) - 0.5 * math.log(2)
        assert abs(value - expect) <= bound


class TestCircleRule:
    def test_roots_are_read_only_and_the_exponentials_bit_for_bit(self):
        # the rule takes 64 to _MAX_PANELS points and a doubling's new
        # points are the odd ones; the boundary sampling 256 to 65536
        for n in (1 << j for j in range(17)):
            z = geodesics._roots(n)
            assert z is geodesics._roots(n) and not z.flags.writeable
            with pytest.raises(ValueError):
                z[0] = 0j
            assert z.tobytes() == np.exp(2j * np.pi * np.arange(n) / n).tobytes()
            odd = np.exp(2j * np.pi * np.arange(1, n, 2) / n)
            assert z[1::2].tobytes() == odd.tobytes()

    def test_roots_hold_only_powers_of_two(self):
        held = geodesics._roots.cache_info().currsize
        for n in (0, 3, 96, 1000, -64):
            with pytest.raises(ValueError, match="power of two"):
                geodesics._roots(n)
        assert geodesics._roots.cache_info().currsize == held

    @pytest.mark.parametrize(
        "f,radii,target,want",
        [
            (BlaschkeDisc((0.3 + 0.2j, -0.5j)), [0.3, 0.7, 0.95, 1.0], E, "A"),
            (Compose(Koebe(), Scale(0.5)), [0.2, 0.5, 0.8, 1.0], S, "A"),
            (BlaschkeDisc((0.3 + 0.2j,)), [0.3, 0.7, 0.95], H, "A"),
            # the pole at 0.5 - 0.1i is inside the two outer circles
            (Quotient(BlaschkeDisc((0.3 + 0.2j,)), BlaschkeDisc((0.5 - 0.1j,))),
             [0.2, 0.5, 0.8, 0.95], S, "T"),
            # the pole at 0.9 is peeled on the two middle circles
            (MobiusMap(MobiusTransform(1, 0, 1, -0.9)), [0.5, 0.899, 0.9005, 0.95], S, "T"),
        ],
        ids=["E", "S", "D", "T-pole-inside", "T-peeled"],
    )
    def test_a_radius_alone_is_its_entry_in_a_batch(self, f, radii, target, want):
        batch = geodesics._on_circles(f, radii, target, AREA_DEFAULT, (want,))[0]
        for r, entry in zip(radii, batch):
            alone = geodesics._on_circles(f, [r], target, AREA_DEFAULT, (want,))[0][0]
            assert [x.hex() for x in alone] == [x.hex() for x in entry]

    def test_a_floor_over_the_tolerance_raises(self):
        # z + c in E: the samples are terms of size |c| r that cancel to an
        # area of order r^2, so the rounding floor grows with c, and
        # doubling does not lower it
        r = math.tanh(1.0)
        value, bound = area_with_bound(Shift(1e6), 2.0, E)
        assert bound <= AREA_DEFAULT.abs_tol
        assert abs(value - math.pi * r * r) <= bound
        for c in (1e7, 1e8):
            with pytest.raises(PrecisionError, match="rounding floor") as exc_info:
                area_with_bound(Shift(c), 2.0, E)
            exc = exc_info.value
            assert exc.error_bound > AREA_DEFAULT.abs_tol
            assert abs(exc.estimate - math.pi * r * r) <= exc.error_bound


def _koebe_area(x):
    """Euclidean area of k(|z| < sqrt(x)), k(z) = z/(1 - z)^2, counting
    multiplicity: pi sum n^3 x^n."""
    return math.pi * x * (1 + 4 * x + x * x) / (1 - x) ** 4


def _polynomial_area(coeffs, r):
    return math.pi * math.fsum(n * abs(c) ** 2 * r ** (2 * n) for n, c in enumerate(coeffs))


def _angles():
    """pi/64, 3 pi/64 and pi/128, where the doubling gap of a circle rule
    aliases, and three seeded random angles."""
    rng = random.Random(7)
    return [math.pi / 64, 3 * math.pi / 64, math.pi / 128] + [
        rng.uniform(0.0, 2 * math.pi) for _ in range(3)
    ]


class TestAreaBoundOracles:
    """area_with_bound's returned bound covers the error against a closed
    form or the 30-digit circle oracle, or the call raises a typed error."""

    @staticmethod
    def _covers(f, rho, target, exact):
        value, bound = area_with_bound(f, rho, target)
        assert bound + 8 * math.ulp(exact) >= abs(value - exact)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_blaschke_euclidean_area_is_n_pi(self, n):
        zeros = (0.4 + 0.1j, -0.3 + 0.2j, 0.1 - 0.45j, -0.35 - 0.3j)[:n]
        self._covers(BlaschkeDisc(zeros), math.inf, E, n * math.pi)

    @pytest.mark.parametrize("turn", [0.0, 1.0, 2.5])
    def test_rotated_koebe_spherical_area_is_4_pi(self, turn):
        self._covers(Compose(Koebe(), Scale(complex(math.cos(turn), math.sin(turn)))),
                     math.inf, S, 4 * math.pi)

    @pytest.mark.parametrize("s, rho", [(0.3, 1.0), (0.5, 2.5), (0.8, 4.0)])
    def test_scaled_koebe_euclidean_area(self, s, rho):
        x = s * s * math.tanh(rho / 2) ** 2
        self._covers(Compose(Koebe(), Scale(s)), rho, E, _koebe_area(x))

    @pytest.mark.parametrize(
        "coeffs, rho",
        [((0.0, 0.8, 0.2 + 0.1j, 0.05j), 2.0), ((0.1, 0.6, -0.25j, 0.1, 0.05 + 0.05j), math.inf)],
    )
    def test_polynomial_area(self, coeffs, rho):
        r = 1.0 if math.isinf(rho) else math.tanh(rho / 2)
        exact = _polynomial_area(coeffs, r)
        assert area_from_coefficients(coeffs, r) == pytest.approx(exact, rel=1e-15)
        self._covers(PowerSeries(coeffs), rho, E, exact)


    @pytest.mark.parametrize("rho", [2.0, 5.5, math.inf])
    @pytest.mark.parametrize("angle", _angles())
    @pytest.mark.parametrize("modulus", [0.5, 0.9, 0.98888, 0.99, 0.999])
    def test_one_zero_blaschke_near_the_circle(self, modulus, angle, rho):
        a = modulus * cmath.exp(1j * angle)
        r = 1.0 if math.isinf(rho) else math.tanh(rho / 2)
        try:
            value, bound = area_with_bound(BlaschkeDisc((a,)), rho, E)
        except PrecisionError as exc:
            assert modulus == 0.999 and math.isinf(rho)
            # the estimate is an area, as the returned value is, not S = area/4pi
            assert exc.estimate == pytest.approx(math.pi, rel=0.1)
            return
        assert bound >= abs(value - blaschke_one_zero_area(a, r))
        assert bound <= AREA_DEFAULT.abs_tol

    def test_zero_at_an_aliasing_angle(self):
        # |a| = 0.98888 at angle pi/64, where a doubling gap vanishes
        a = 0.9888075016431207 + 0.048576997584143834j
        for rho, exact in ((5.5, 0.95541876120354810), (math.inf, math.pi)):
            value, bound = area_with_bound(BlaschkeDisc((a,)), rho, E)
            assert bound >= abs(value - exact)
        for modulus in (0.999, 0.9999):
            with pytest.raises(PrecisionError):
                area_with_bound(BlaschkeDisc((modulus * cmath.exp(1j * math.pi / 64),)), math.inf, E)

    @pytest.mark.parametrize("rho", [3.0, math.inf])
    def test_rotationally_symmetric_power_series(self, rho):
        # z + z^65/2 repeats under z -> e^{2 pi i/64} z: its integrand has
        # Fourier content at the multiples of 64 only, which 64 points alias
        # into the mean with an empty tail
        r = 1.0 if math.isinf(rho) else math.tanh(rho / 2)
        exact = _polynomial_area((0.0, 1.0) + (0.0,) * 63 + (0.5,), r)
        try:
            self._covers(PowerSeries((0, 1) + (0,) * 63 + (0.5,)), rho, E, exact)
        except PrecisionError:
            pass

    def test_rotationally_symmetric_composition(self):
        # the same polynomial after z -> -z: the divisor pulls back through
        # the one-zero factor, so the circle starts past the symmetry order
        coeffs = (0.0, 1.0) + (0.0,) * 63 + (0.5,)
        f = Compose(PowerSeries(coeffs), BlaschkeDisc((0j,)))
        self._covers(f, math.inf, E, _polynomial_area(coeffs, 1.0))

    @pytest.mark.parametrize("modulus", [0.5, 0.8, 0.95])
    def test_rotationally_symmetric_blaschke_product(self, modulus):
        zeros = tuple(modulus * cmath.exp(2j * math.pi * k / 64) for k in range(64))
        self._covers(BlaschkeDisc(zeros), math.inf, E, 64 * math.pi)

    def test_sweep_of_zeros_near_the_circle(self):
        rng = random.Random(7)
        for _ in range(60):
            a = rng.uniform(0.8, 0.99) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            value, bound = area_with_bound(BlaschkeDisc((a,)), math.inf, E)
            assert bound >= abs(value - math.pi)

    @pytest.mark.parametrize(
        "zeros, rho",
        [
            ((0.3 + 0.1j, -0.2 + 0.45j), 1.5),
            ((0.5 - 0.2j,), 2.5),
            ((0.1 + 0.6j, -0.4 - 0.3j, 0.35), 2.5),
            ((0.95j, -0.7 + 0.1j), 3.0),
        ],
    )
    def test_blaschke_areas_in_the_disc_and_the_sphere(self, zeros, rho):
        oracle, r = Rational.blaschke(zeros), math.tanh(rho / 2)
        for target, letter in ((H, "D"), (S, "S"), (E, "E")):
            value, bound = area_with_bound(BlaschkeDisc(zeros), rho, target)
            assert bound >= abs(value - oracle.area(r, letter))

    @pytest.mark.parametrize("rho", [1.0, 3.0, math.inf])
    def test_spherical_area_with_poles_inside(self, rho):
        # poles at 0.6 - 0.1i and, for |z| < 1, none else: 4 pi n(r, inf)
        num, den = (0.3 + 0.2j, -0.5j), (0.6 - 0.1j,)
        f = Quotient(BlaschkeDisc(num), BlaschkeDisc(den))
        top, bottom = Rational.blaschke(num), Rational.blaschke(den)
        oracle = Rational(top.zeros + bottom.poles, top.poles + bottom.zeros,
                          top.scale / bottom.scale)
        r = 1.0 if math.isinf(rho) else math.tanh(rho / 2)
        value, bound = area_with_bound(f, rho, S)
        assert bound >= abs(value - oracle.area(r, "S"))

    @pytest.mark.parametrize("c", [0.3 + 0.2j, 2.0, -5 + 1j])
    @pytest.mark.parametrize("rho", [1e-5, 1e-3, 2.0])
    def test_small_circles_off_the_origin(self, c, rho):
        # f(0) = c: the integrand is of order r, its mean of order r^2, and
        # the bound must carry the rounding of the order-r terms
        f, oracle = Compose(Shift(c), Scale(0.7)), Rational([-c / 0.7], [], 0.7)
        for target, letter in ((E, "E"), (S, "S")):
            value, bound = area_with_bound(f, rho, target)
            assert bound >= abs(value - oracle.area(math.tanh(rho / 2), letter))

    @pytest.mark.parametrize("c", [0.5, 0.3 + 0.8j, 0.7j])
    @pytest.mark.parametrize("rho", [0.5, 2.0, math.inf])
    def test_scaled_disc_closed_forms(self, c, rho):
        # the image of |z| < r is the disc of radius |c| r, and the samples
        # differ only by rounding, so the rounding floor carries the bound
        with mpmath.workdps(30):
            r = mpmath.mpf(1) if math.isinf(rho) else mpmath.tanh(mpmath.mpf(rho) / 2)
            x = abs(mpmath.mpc(c)) ** 2 * r * r
            exact = {E: mpmath.pi * x, S: 4 * mpmath.pi * x / (1 + x), H: 4 * mpmath.pi * x / (1 - x)}
        for target, area in exact.items():
            if math.isinf(rho) and target is H:
                continue
            value, bound = area_with_bound(Scale(c), rho, target)
            assert bound >= abs(value - float(area))

    def test_hyperbolic_half_plane_target(self):
        # the disc -> half-plane isometry covers a hyperbolic ball once
        rho = 2.0
        value, bound = area_with_bound(inv_cayley_map(), rho, HP)
        assert bound >= abs(value - 4 * math.pi * math.sinh(rho / 2) ** 2)

    def test_oracle_matches_closed_forms(self):
        for a in (0.5, 0.999 * cmath.exp(1j * math.pi / 64)):
            for r in (0.5, math.tanh(2.75), 1.0):
                exact = blaschke_one_zero_area(a, r)
                assert Rational.blaschke([a]).area(r, "E") == pytest.approx(exact, rel=1e-14, abs=0)
        for c in (0.5, 2.0, 7.0):
            for r in (0.01, 0.6, 0.9):
                oracle = Rational([0], [], c)
                assert oracle.T(r) == pytest.approx(math.log1p(c * c * r * r) / 2, rel=1e-14)
                assert oracle.S(r) == pytest.approx(c * c * r * r / (1 + c * c * r * r), rel=1e-14)


    def test_oracle_raises_on_a_circle_through_a_pole_or_essential_point(self):
        # z/(z - 0.5) on |z| = 0.5: a principal value would give S = 0.2236,
        # where the image Re w < 1/2 covers (1 + 1/sqrt 5)/2 of the sphere
        pole, essential = Rational([0], [0.5]), ExpMobius(1j, 1j, -1, 1)
        calls = [lambda: pole.area(0.5, "E"), lambda: pole.S(0.5),
                 lambda: essential.area(1.0, "S"), lambda: essential.T(1.0)]
        for call in calls:
            with pytest.raises(ValueError, match=r"lies on the circle"):
                call()
        assert math.isfinite(pole.T(0.5)) and math.isfinite(essential.T(0.9))


class TestAreaRoutes:
    """Maps on either route: each value lies within its bound of a closed
    form or the circle oracle, or the call raises a typed error."""

    def test_koebe_improper_euclidean_area_still_raises(self):
        # the pole z = 1 lies on the circle r = 1, and the area is infinite
        with pytest.raises(PrecisionError, match="did not certify") as exc_info:
            area_with_bound(Koebe(), math.inf, E)
        assert math.isfinite(exc_info.value.estimate) and exc_info.value.error_bound > 0

    def test_rotated_koebe_spherical_area(self):
        # the pole of f on |z| = 1 is a zero of 1/f, whose boundary route holds
        value, bound = area_with_bound(Compose(Koebe(), Scale(cmath.exp(1j))), math.inf, S)
        assert bound >= abs(value - 4 * math.pi)

    def test_half_plane_maps(self):
        value, bound = area_with_bound(Compose(cayley_map(), Identity()), 2.0, H)
        assert bound >= abs(value - 4 * math.pi * math.sinh(1.0) ** 2)
        # carried to the disc, the factor with zero i y is the disc factor
        # with zero (y - 1)/(y + 1), up to a unimodular constant
        oracle = Rational.blaschke([(y - 1) / (y + 1) for y in (1.0, 2.0, 4.0)])
        value, bound = area_with_bound(BlaschkeHalfPlane((1.0, 2.0, 4.0)), 2.0, S)
        assert bound >= abs(value - oracle.area(math.tanh(1.0), "S"))
        # over the whole disc, whose circle r = 1 the transport's pole
        # e^{-i} never meets: the image is the disc once or three times
        maps = ((Compose(cayley_map(), Identity()), 1), (BlaschkeHalfPlane((1.0, 2.0, 4.0)), 3))
        for f, sheets in maps:
            for target, exact in ((E, sheets * math.pi), (S, 2 * sheets * math.pi)):
                value, bound = area_with_bound(f, math.inf, target)
                assert bound >= abs(value - exact)

    def test_power_series_outer_through_an_inner_pole(self):
        # 1 + z/(1 - z) = 1/(1 - z) sends the disc onto Re w > 1/2, which
        # covers (1 - 1/sqrt 5)/2 of the sphere; the circle r = 1 meets the
        # inner pole at its sample z = 1, a simple pole of the sum
        f = Compose(PowerSeries((1.0, 1.0)), MobiusMap(MobiusTransform(1, 0, -1, 1)))
        value, bound = area_with_bound(f, math.inf, S)
        assert bound >= abs(value - 2 * math.pi * (1 - 1 / math.sqrt(5)))

    @pytest.mark.parametrize("rho", [7.0, 12.0, 15.0])
    def test_half_plane_identity_covers_a_ball(self, rho):
        # the half-plane identity carried to the disc is a rotation, whose
        # image of the ball of radius rho is that ball, 4 pi sinh^2(rho/2)
        with mpmath.workdps(30):
            exact = float(4 * mpmath.pi * mpmath.sinh(mpmath.mpf(rho) / 2) ** 2)
        value, bound = area_with_bound(Compose(cayley_map(), Identity()), rho, H)
        assert bound >= abs(value - exact)

    def test_composed_one_zero_factors(self):
        # a one-zero factor is Moebius, so the composition's divisor pulls
        # back: a disc automorphism with its zero at -0.2/0.85
        f = Compose(BlaschkeDisc((0.5,)), BlaschkeDisc((0.3,)))
        for rho in (2.0, math.inf):
            r = 1.0 if math.isinf(rho) else math.tanh(rho / 2)
            value, bound = area_with_bound(f, rho, E)
            assert bound >= abs(value - blaschke_one_zero_area(-0.2 / 0.85, r))

    @pytest.mark.parametrize("rho", [2.0, math.inf])
    def test_pole_inside_in_the_plane(self, rho, monkeypatch):
        # the area is infinite: the divisor shows the pole 0.5 inside, so
        # it raises before any quadrature, naming the pole
        f = Quotient(BlaschkeDisc((0.3,)), BlaschkeDisc((0.5,)))
        monkeypatch.setattr(geodesics, "_nested", None)
        monkeypatch.setattr(geodesics, "_circle_rule", None)
        with pytest.raises(PrecisionError, match=r"pole at \(0\.5\+0j\)") as exc_info:
            area_with_bound(f, rho, E)
        assert exc_info.value.estimate == exc_info.value.error_bound == math.inf

    def test_cancelled_pole_inside_in_the_plane(self):
        # the divisor lists the zero and the pole 0.5 of an unreduced
        # quotient both; they cancel, and the area is that of the reduced map
        r = math.tanh(1.0)
        for f, exact in (
            (Quotient(BlaschkeDisc((0.5, 0.3)), BlaschkeDisc((0.5,))), blaschke_one_zero_area(0.3, r)),
            (Quotient(PowerSeries((-0.25, 0.0, 1.0)), PowerSeries((-0.5, 1.0))), math.pi * r * r),
        ):
            value, bound = area_with_bound(f, 2.0, E)
            assert bound >= abs(value - exact)
        # one zero cancels only one of two poles at 0.5
        with pytest.raises(PrecisionError, match=r"pole at \(0\.5\+0j\)"):
            area_with_bound(Quotient(BlaschkeDisc((0.5,)), BlaschkeDisc((0.5, 0.5))), 2.0, E)

    @pytest.mark.parametrize("rho", [2.0, math.inf])
    def test_a_zero_near_a_pole_does_not_cancel_it(self, rho):
        # (z - 0.500000001)/(z - 0.5) has a pole at 0.5 that no zero
        # cancels: its Euclidean area is infinite
        f = Quotient(Shift(-0.500000001), Shift(-0.5))
        with pytest.raises(PrecisionError, match=r"pole at \(0\.5-0j\)") as exc_info:
            area_with_bound(f, rho, E)
        assert exc_info.value.estimate == exc_info.value.error_bound == math.inf
        # on the sphere the image covers all but a speck of it
        value, bound = area_with_bound(f, rho, S)
        r = 1.0 if math.isinf(rho) else math.tanh(rho / 2)
        assert bound >= abs(value - Rational([0.500000001], [0.5]).area(r, "S"))
        assert value == 12.566370614359172

    @staticmethod
    def _raises_from_the_divisor(f, rho, monkeypatch):
        """The PrecisionError of f's Euclidean area at rho, a pole on the
        circle: bound inf, the estimate the area over half the radius, as
        _on_circles certifies it, and no nested work; returns that area's
        (value, bound)."""
        r = 1.0 if math.isinf(rho) else math.tanh(rho / 2)
        half = [4 * math.pi * v for v in geodesics._on_circles(f, [0.5 * r], E, AREA_DEFAULT)[0][0]]
        monkeypatch.setattr(geodesics, "_nested", None)
        monkeypatch.setattr(geodesics, "_circle_energies", None)
        with pytest.raises(PrecisionError, match="did not certify") as exc_info:
            area_with_bound(f, rho, E)
        assert math.isinf(exc_info.value.error_bound)
        assert exc_info.value.estimate == half[0]
        return half

    @pytest.mark.parametrize("turn", [0.0, 1.0])
    def test_koebe_pole_on_the_circle_raises_from_the_divisor(self, turn, monkeypatch):
        # |f'|^2 grows as |z - p|^-6 at the double pole p = e^{-i turn}, so
        # the area is infinite; the estimate, the area over |z| < 1/2, is
        # pi x (1 + 4x + x^2)/(1 - x)^4 at x = 1/4 in closed form
        f = Compose(Koebe(), Scale(cmath.exp(1j * turn))) if turn else Koebe()
        value, bound = self._raises_from_the_divisor(f, math.inf, monkeypatch)
        assert _koebe_area(0.25) == pytest.approx(5.1196324725167, abs=1e-12)
        assert abs(value - _koebe_area(0.25)) <= bound

    def test_pole_just_inside_the_circle_raises_from_the_divisor(self, monkeypatch):
        # 1/(z - 1/2) at rho = ln 3, whose circle passes a rounding outside
        # the pole: -2 sum (2z)^n has area 4 pi y/(1 - y)^2 over |z| < s,
        # y = 4 s^2, which is r^2 at s = r/2
        rho = math.log(3.0)
        assert math.tanh(rho / 2) == 0.5000000000000001
        f = Quotient(ConstMap(1.0), Shift(-0.5))
        value, bound = self._raises_from_the_divisor(f, rho, monkeypatch)
        y = math.tanh(rho / 2) ** 2
        assert abs(value - 4 * math.pi * y / (1 - y) ** 2) <= bound

    @pytest.mark.parametrize("rho", [math.log(3.0), math.inf])
    def test_a_cancelled_pair_on_the_circle_keeps_its_route(self, rho):
        # (z - p)(z - 0.3)/(z - p) with p on the circle is z - 0.3: the
        # pair cancels, so nothing raises, and the nested route gives pi r^2
        r = 1.0 if math.isinf(rho) else math.tanh(rho / 2)
        p = 1.0 if math.isinf(rho) else 0.5
        f = Quotient(Product(Shift(-p), Shift(-0.3)), Shift(-p))
        value, bound = area_with_bound(f, rho, E)
        assert bound >= abs(value - math.pi * r * r)

    def test_a_pole_past_the_band_keeps_its_value(self):
        # koebe() . scale(1/1.01) has its double pole at 1.01: finite area
        s = 1 / 1.01
        value, bound = area_with_bound(Compose(Koebe(), Scale(s)), math.inf, E)
        assert abs(value - _koebe_area(s * s)) <= bound


class TestNestedRoute:
    """A map with no known divisor takes the nested route at every radius:
    B([0.5]) . B([a, -0.4]), whose inner product of two zeros is not
    Moebius."""

    @staticmethod
    def _composed(a):
        return Compose(BlaschkeDisc((0.5,)), BlaschkeDisc((a, -0.4)))

    @pytest.mark.parametrize("rho", [20.0, math.inf])
    @pytest.mark.parametrize(
        "turn", [math.pi / 64, 3 * math.pi / 64, math.pi / 128], ids=["pi/64", "3pi/64", "pi/128"]
    )
    def test_zeros_near_the_circle(self, turn, rho):
        # each circle's absolute floor shrinks as 1/sinh t, the outer
        # weight, and what the circles may miss enters the bound
        a = 0.99 * cmath.exp(1j * turn)
        value, bound = area_with_bound(self._composed(a), rho, E)
        if math.isinf(rho):
            exact = 2 * math.pi
        else:
            exact = Rational.blaschke_level(a, -0.4, 0.5).area(math.tanh(rho / 2), "E")
        assert bound >= abs(value - exact)

    def test_a_stall_near_a_zero_estimates_an_area(self):
        # a circle stalls past t = 5: the estimate is the area over
        # |z| < tanh(5/2), not the energy of the circle that stalled
        a = 0.9988075016431207 + 0.048576997584143834j
        with pytest.raises(PrecisionError) as exc_info:
            area_with_bound(self._composed(a), 12.0, E)
        assert exc_info.value.error_bound == math.inf
        exact = Rational.blaschke_level(a, -0.4, 0.5).area(math.tanh(2.5), "E")
        assert exc_info.value.estimate == pytest.approx(exact, rel=1e-12, abs=0)


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
        # the pole z = 1 on the circle makes the area infinite; the divisor
        # shows it, and the failure carries a lower estimate, not a value
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
