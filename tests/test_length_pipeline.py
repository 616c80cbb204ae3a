"""The length pipeline pinned without timing: the work each kind of length
request does, the bytes the CLI prints for lengths and evaluations, and
the scalar slope at f(0) of the boundary route against the array path.

The counts and the CLI bytes were recorded with the pipeline as it was
before its per-call work was trimmed: a speed-up must not come from doing
less quadrature, and a change of work or of a printed digit shows here
without a timer.  The lengths are checked against their closed forms.
"""

import cmath
import math

import numpy as np
import pytest

from arclab import geodesics, maps, verifier
from arclab.cli import main
from arclab.errors import RangeError
from arclab.funcspec import parse
from arclab.geodesics import _slope, _slope_at
from arclab.metrics import MetricId

E, D, H, S = (
    MetricId.EUCLIDEAN,
    MetricId.HYPERBOLIC_DISC,
    MetricId.HYPERBOLIC_HALF_PLANE,
    MetricId.SPHERICAL,
)


@pytest.fixture
def integrand_calls(monkeypatch):
    """The number of points of each integrand call of arc_length_profile."""
    calls = []
    speed = geodesics._speed

    def counting(f, arc, target):
        g = speed(f, arc, target)

        def counted(t):
            calls.append(len(t))
            return g(t)

        return counted

    monkeypatch.setattr(geodesics, "_speed", counting)
    return calls


def work(calls):
    """(integrand calls, G7K15 panels, points)."""
    return len(calls), sum(calls) // 15, sum(calls)


def koebe(x):
    return x / ((1.0 - x) * (1.0 - x))


def koebe_along(s, theta):
    """koebe() . scale(s e^{-i theta}), which maps the theta radius onto [0, s)."""
    return maps.Compose(maps.Koebe(), maps.Scale(s * cmath.exp(-1j * theta)))


# one request of each kind of the benchmark's lengths workload, four grid
# points as it asks for: the map, the target, the arc as (kind, rho_max,
# theta or offset), the closed form of the length from 0 to rho and the
# work done, (integrand calls, panels, points), which the rounding of the
# FMA and the baseline loops of numpy leaves alike
PROFILES = [
    (koebe_along(0.53, 1.0), E, ("disc", 5.2, 1.0),
     lambda x: koebe(0.53 * math.tanh(x / 2)), (1, 4, 60)),
    (koebe_along(0.8, 0.0), E, ("disc", 6.0, 0.0),
     lambda x: koebe(0.8 * math.tanh(x / 2)), (1, 4, 60)),
    (parse("scale(0.9+0i)"), D, ("disc", 9.0, 2.0),
     lambda x: 2 * math.atanh(0.9 * math.tanh(x / 2)), (1, 4, 60)),
    (parse("scale(2.5+0i)"), S, ("disc", 8.0, 4.0),
     lambda x: 2 * math.atan(2.5 * math.tanh(x / 2)), (2, 6, 90)),
    (parse("scale(3+0i)"), S, ("disc", 10.0, 0.3),
     lambda x: 2 * math.atan(3 * math.tanh(x / 2)), (3, 8, 120)),
    (parse("inv_cayley() . scale(0.85+0i)"), H, ("disc", 7.5, 5.5),
     lambda x: 2 * math.atanh(0.85 * math.tanh(x / 2)), (1, 4, 60)),
    (parse("scale(1.6+0i)"), E, ("half", 3.5, -1.2), lambda x: 1.6 * math.expm1(x), (1, 4, 60)),
    (parse("scale(0.3+0i)"), H, ("half", 7.0, 1.5), lambda x: x, (1, 4, 60)),
    (parse("scale(1.3+0i)"), S, ("half", 5.5, 0.0),
     lambda x: 2 * (math.atan(1.3 * math.exp(x)) - math.atan(1.3)), (1, 4, 60)),
    (parse("cayley()"), D, ("half", 6.5, 0.0), lambda x: x, (1, 4, 60)),
]


def within(length, exact, pieces):
    """Cumulative lengths over pieces each asked for max(1e-9, 1e-9 |piece|),
    with a few ulps of the closed form for its own rounding."""
    return abs(length - exact) <= pieces * 1e-9 + 1e-9 * abs(exact) + 8 * 2.0**-52 * abs(exact)


class TestWork:
    @pytest.mark.parametrize("f, target, arc, exact, counts", PROFILES)
    def test_profile_work_and_lengths(self, integrand_calls, f, target, arc, exact, counts):
        kind, rho, where = arc
        arc = geodesics.disc_arc(rho, where) if kind == "disc" else geodesics.halfplane_arc(rho, where)
        grid = [rho * k / 4 for k in range(1, 5)]
        samples = geodesics.arc_length_profile(f, arc, grid, target)
        assert work(integrand_calls) == counts
        for k, s in enumerate(samples, start=1):
            assert within(s.length, exact(s.rho), k)

    @pytest.mark.parametrize(
        "s, target, form, counts",
        [(0.9, D, math.atanh, (2, 7, 105)), (2.0, S, math.atan, (4, 11, 165))],
    )
    def test_sqrt_trend_work_and_ratios(self, integrand_calls, s, target, form, counts):
        rhos = (4.0, 6.0, 8.0, 10.0, 12.0)
        report = verifier.check_sqrt_trend(parse(f"scale({s}+0i)"), target, rhos, 1.3)
        assert work(integrand_calls) == counts
        assert report.status == "PASS"
        for k, (ratio, x) in enumerate(zip(dict(report.details)["ratios"], rhos), start=1):
            assert within(ratio * math.sqrt(x), 2 * form(s * math.tanh(x / 2)), k)


# CLI commands with the bytes they printed when recorded, on numpy's loops
# with fused multiply-add (X86_V3 and up) and, where they round otherwise,
# on its baseline loops, whose complex products are not fused; each length
# command's closed form along its arc, the CLI's H being the disc metric:
# koebe maps [0, a) onto [0, koebe(a)); i (1 + x)/(1 - x) runs up the
# imaginary axis from i; z -> s z is a hyperbolic contraction of the
# radius for s < 1 and a spherical segment from 0; cayley() and a positive
# scale before it are isometries of the half-plane arc
LENGTHS = [
    (["length", "--func", "koebe() . scale(0.6+0i)", "--rho-max", "3", "--samples", "4",
      "--target", "E"],
     ("rho,length\n0.75,0.34893480307804203\n1.5,0.99488058256857193\n"
      "2.25,1.8349606658098589\n3,2.6014030790374263\n",
      "rho,length\n0.75,0.34893480307804203\n1.5,0.99488058256857215\n"
      "2.25,1.8349606658098594\n3,2.6014030790374267\n"),
     lambda rho: koebe(0.6 * math.tanh(rho / 2))),
    (["length", "--func", "inv_cayley() . scale(0.55+0i)", "--rho-max", "4", "--samples", "2",
      "--target", "E"],
     ("rho,length\n2,1.4416109201033325\n4,2.2572681538487673\n",),
     lambda rho: 2 * (0.55 * math.tanh(rho / 2)) / (1 - 0.55 * math.tanh(rho / 2))),
    (["length", "--func", "scale(0.8+0i)", "--theta", "1.1", "--rho-max", "6", "--samples", "3",
      "--target", "H"],
     ("rho,length\n2,1.4155360912639723\n4,2.0466731979781905\n6,2.1754363872863847\n",),
     lambda rho: 2 * math.atanh(0.8 * math.tanh(rho / 2))),
    (["length", "--func", "scale(1.7+0i)", "--theta", "0.4", "--rho-max", "5", "--samples", "3",
      "--target", "S"],
     ("rho,length\n1.6666666666666667,1.7185422666481771\n3.3333333333333335,2.0147051571772492\n"
      "5,2.0663275545082382\n",),
     lambda rho: 2 * math.atan(1.7 * math.tanh(rho / 2))),
    (["length", "--func", "cayley()", "--rho-max", "7", "--samples", "3", "--target", "H"],
     ("rho,length\n2.3333333333333335,2.3333333333333339\n4.666666666666667,4.6666666666666696\n"
      "7,7.0000000000000089\n",),
     lambda rho: rho),
    (["length", "--func", "cayley() . scale(0.7+0i)", "--theta", "-0.5", "--rho-max", "4",
      "--samples", "2", "--target", "H"],
     ("rho,length\n2,2\n4,4\n",),
     lambda rho: rho),
]

EVALS = [
    (["eval", "--func", "koebe() . scale(0.5+0i)", "--at=0.3+0.2i"],
     ("value 0.16750340714510362 0.18031660240655109\n"
      "derivative 0.83371243508474702 0.39052615480065261\n"
      "norm_euclidean 0.4004805480614913\nnorm_hyperbolic_disc 0.85260460936976201\n"
      "norm_hyperbolic_half_plane 2.2209854373728009\nnorm_spherical 0.75521652232382486\n",
      "value 0.16750340714510362 0.18031660240655109\n"
      "derivative 0.83371243508474713 0.39052615480065278\n"
      "norm_euclidean 0.40048054806149136\nnorm_hyperbolic_disc 0.85260460936976212\n"
      "norm_hyperbolic_half_plane 2.2209854373728013\nnorm_spherical 0.75521652232382486\n")),
    (["eval", "--func", "inv_cayley() . scale(0.6+0i)", "--at=-0.1+0.45i"],
     ("value -0.45131633932302551 0.77183451734224828\n"
      "derivative -0.47979472095184966 0.88071333561165022\n"
      "norm_euclidean 0.39490179690764715\nnorm_hyperbolic_disc 3.9375000000000031\n"
      "norm_hyperbolic_half_plane 0.51164049810503498\nnorm_spherical 0.43892243381328361\n",)),
    (["eval", "--func", "cayley()", "--at=0.5+1.5i"],
     ("value 0.23076923076923073 -0.15384615384615385\n"
      "derivative 0.1183431952662722 -0.28402366863905326\n"
      "norm_euclidean 0.46153846153846151\nnorm_hyperbolic_disc 0.99999999999999978\n"
      "norm_hyperbolic_half_plane nan\nnorm_spherical 0.85714285714285721\n",)),
    (["eval", "--func", "blaschke_disc([0.3+0.2i])", "--at=-0.4+0.1i"],
     ("value 0.60163252605886675 -0.21718684550672787\n"
      "derivative -0.65879358178008363 0.26977303942329833\n"
      "norm_euclidean 0.29543408886343175\nnorm_hyperbolic_disc 0.99999999999999922\n"
      "norm_hyperbolic_half_plane nan\nnorm_spherical 0.41931362870913419\n",
      "value 0.60163252605886686 -0.21718684550672793\n"
      "derivative -0.65879358178008351 0.26977303942329833\n"
      "norm_euclidean 0.2954340888634317\nnorm_hyperbolic_disc 0.99999999999999967\n"
      "norm_hyperbolic_half_plane nan\nnorm_spherical 0.41931362870913402\n")),
    (["eval", "--func", "mobius(0i, 1+0i, 1+0i, -0.5+0i)", "--at=0.5+0i"],
     ("value INFINITY\nchart_derivative 1 -0\nnorm_euclidean nan\nnorm_hyperbolic_disc nan\n"
      "norm_hyperbolic_half_plane nan\nnorm_spherical 0.75\n",)),
]


class TestGolden:
    @pytest.mark.parametrize("argv, texts, exact", LENGTHS)
    def test_length_bytes_and_closed_form(self, capsys, argv, texts, exact):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out in texts
        rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
        for k, (rho, length) in enumerate(rows, start=1):
            assert within(length, exact(rho), k)

    @pytest.mark.parametrize("argv, texts", EVALS)
    def test_eval_bytes(self, capsys, argv, texts):
        assert main(argv) == 0
        assert capsys.readouterr().out in texts


def same_bits(a, b):
    pairs = ((a.real, b.real), (a.imag, b.imag))
    return all(
        (x == y or (math.isnan(x) and math.isnan(y))) and math.copysign(1, x) == math.copysign(1, y)
        for x, y in pairs
    )


class TestSlopeAt:
    """_on_circles passes f(0) as a numpy complex, as evaluate returns it,
    so each point goes in as one."""

    @pytest.mark.parametrize("target", [E, D, H, S])
    def test_scalar_slope_is_the_array_slope_bit_for_bit(self, target):
        rng = np.random.default_rng(7)
        big = 10.0 ** rng.uniform(-300, 300, 4000) * np.exp(2j * np.pi * rng.uniform(size=4000))
        inside = rng.uniform(0, 1, 4000) ** 0.1 * np.exp(2j * np.pi * rng.uniform(size=4000))
        # |w| within a few ulps of 1, where the sphere's two forms meet: the
        # scalar path must take the branch the array path takes
        unit = (1.0 + rng.normal(0, 1e-15, 4000)) * np.exp(2j * np.pi * rng.uniform(size=4000))
        edges = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1 + 0j,
                 -1j, complex(3, -0.0), complex(-0.0, 5), 0.6 + 0.8j, 1e-320 + 2j, 1e300 - 1e300j]
        points = [complex(w) for w in (*big, *inside, *unit, *edges)]
        if target is D:
            points = [w for w in points if w.real * w.real + w.imag * w.imag < 1.0]
        if target is H:
            points = [w for w in points if w.imag > 0.0]
        with np.errstate(over="ignore"):
            for w in points:
                scalar = _slope_at(target, np.complex128(w))
                assert same_bits(scalar, _slope(target, np.array([w]))[0]), w

    @pytest.mark.parametrize("target, w", [(D, 0.6 + 0.8j), (D, 2j), (H, 1 + 0j), (H, -2j)])
    def test_a_value_outside_the_target_raises_as_the_array_path(self, target, w):
        with pytest.raises(RangeError) as scalar:
            _slope_at(target, np.complex128(w))
        with pytest.raises(RangeError) as array:
            _slope(target, np.array([w]))
        assert str(scalar.value) == str(array.value)
