"""The four workloads: seeded request lists with an oracle per request.

A workload is built from a seed during set-up.  Library inputs are text
parsed with ``funcspec.parse``, or objects made with the public
constructors where the text grammar cannot hold them (it caps sources at
64 KiB).  Requests call the package through module attributes at call
time, so wrappers installed by the tracer see every call.

Cases without a closed form draw from fixed pools whose values were
recorded in ``reference.json`` with the package as it was when the
benchmark was added.
"""

from __future__ import annotations

import ast
import cmath
import importlib
import json
import math
import os
from dataclasses import dataclass, field

from oracles import (
    at_most,
    disc_area_hyperbolic,
    disc_area_spherical,
    first_failure,
    koebe,
    koebe_scale_area,
    polynomial_area,
    quad_tol,
    quotient_axis_length,
    scale_S,
    scale_T,
    within_bound,
    within_tol,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# the package's LENGTH_DEFAULT and AREA_DEFAULT, which the requests use, and
# the configuration scenario_blaschke_quotient picks for itself
LENGTH_TOL = (1e-9, 1e-9)
AREA_TOL = (1e-7, 1e-9)
SCENARIO_QUOTIENT_TOL = (1e-8, 1e-8)
# S and T are areas divided by 4 pi
T_TOL = quad_tol(*AREA_TOL, 1.0) / (4 * math.pi)

ARCLAB_MODULES = (
    "errors",
    "metrics",
    "maps",
    "geodesics",
    "nevanlinna",
    "verifier",
    "funcspec",
    "cli",
)


@dataclass
class Request:
    """One closed-loop request: ``run`` does the work that is timed and
    ``check`` judges its outcome (None when right, else a reason)."""

    kind: str
    spec: str  # the generated inputs, for failure listings and tests
    run: object
    check: object
    expect: type = None  # a documented typed error that is the right outcome
    output: str = None  # CLI --output path whose bytes are hashed
    map_id: int = None  # identity of the map object, for the reuse share


@dataclass
class Workload:
    requests: list
    warm: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)


@dataclass
class Lib:
    """The package and its modules, as imported for one set-up."""

    package: object
    modules: dict

    def __getattr__(self, name):
        try:
            return self.modules[name]
        except KeyError:
            raise AttributeError(name) from None


def load_arclab():
    """The package and its modules."""
    package = importlib.import_module("arclab")
    modules = {s: importlib.import_module(f"arclab.{s}") for s in ARCLAB_MODULES}
    return Lib(package, modules)


def complex_text(z):
    z = complex(z)
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _uniform(rng):
    return lambda a, b: round(rng.uniform(a, b), 6)


def _metric(lib, letter):
    m = lib.metrics.MetricId
    return {
        "E": m.EUCLIDEAN,
        "D": m.HYPERBOLIC_DISC,
        "H": m.HYPERBOLIC_HALF_PLANE,
        "S": m.SPHERICAL,
    }[letter]


def _cli(kind, lib, argv, out_dir, tag, check_text, exit_code=0):
    path = os.path.join(out_dir, f"{tag}.txt")

    def run():
        return lib.cli.main(list(argv) + ["--output", path])

    def check(code):
        if code != exit_code:
            return f"exit code {code}, expected {exit_code}"
        with open(path) as fh:
            return check_text(fh.read())

    return Request(kind, "arclab " + " ".join(argv), run, check, output=path)


def _csv_rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"missing header {header!r}")
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def _reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _ref_check(ref, key, compare):
    if key not in ref:
        return lambda out: f"no reference value recorded for {key}"
    return lambda out: compare(out, ref[key])


def _profile_check(exact_of, points, tol):
    """Cumulative lengths: the k-th sample sums k adaptive integrals."""

    def check(samples):
        if len(samples) != points:
            return f"{len(samples)} samples for {points} grid points"
        return first_failure(
            *(
                within_tol(
                    s.length,
                    exact_of(s.rho),
                    quad_tol(*tol, exact_of(s.rho), pieces=k + 1),
                    f"length at rho={s.rho!r}",
                )
                for k, s in enumerate(samples)
            )
        )

    return check


# -- pools: cases without a closed form, recorded in reference.json -----------

BLASCHKE_D_POOL = tuple(
    (text, rho)
    for text in (
        "blaschke_disc([0.3+0.1i,-0.2+0.45i])",
        "blaschke_disc([0.5-0.2i])",
        "blaschke_disc([0.1+0.6i,-0.4-0.3i,0.35+0i])",
    )
    for rho in (1.5, 2.5)
)
MOBIUS_S_POOL = (
    "mobius(1+0i,0.2+0.1i,0.3-0.2i,1+0i)",
    "mobius(2+0i,-0.5+0i,0.4+0.4i,1.5+0i)",
    "mobius(0.5+0.5i,1+0i,-0.3+0i,2+0i)",
)
# criterion-11 reuses koebe() . scale(0.5) over the radii 0.1 .. 0.9
KOEBE_HALF = "koebe() . scale(0.5+0i)"
REUSE_RADII = tuple(round(0.1 * k, 1) for k in range(1, 10))
CURVE_GRIDS = ((0.2, 0.5, 0.8), (0.3, 0.6, 0.9), (0.25, 0.55, 0.85))
SYMMETRIC_POOL = ((41, 14.0), (41, 16.0), (41, 18.0))  # 83 factors


def _area_key(text, rho, letter):
    return f"area|{text}|{'inf' if math.isinf(rho) else repr(rho)}|{letter}"


def _curve_key(grid):
    return f"characteristic_curve|{KOEBE_HALF}|{','.join(map(repr, grid))}"


def pool_cases(lib):
    """Reference key -> thunk computing the recorded value."""
    geo, nev, ver = lib.geodesics, lib.nevanlinna, lib.verifier
    parse = lib.funcspec.parse
    cases = {}
    pooled_areas = [(t, r, "D") for t, r in BLASCHKE_D_POOL] + [
        (t, math.inf, "S") for t in MOBIUS_S_POOL
    ]
    for text, rho, letter in pooled_areas:
        cases[_area_key(text, rho, letter)] = lambda t=text, r=rho, c=letter: list(
            geo.area_with_bound(parse(t), r, _metric(lib, c))
        )
    for r in REUSE_RADII:
        cases[f"shimizu_T|{KOEBE_HALF}|{r!r}"] = lambda r=r: nev.shimizu_T(
            parse(KOEBE_HALF), r
        )
    for grid in CURVE_GRIDS:

        def curve(g=grid):
            c = nev.characteristic_curve(parse(KOEBE_HALF), g)
            return list(c.S_values) + list(c.T_values)

        cases[_curve_key(grid)] = curve
    for n, rho in SYMMETRIC_POOL:

        def symmetric(n=n, rho=rho):
            samples, report = ver.scenario_symmetric_blaschke(n, rho)
            return [s.length for s in samples] + [report.worst_ratio]

        cases[f"scenario_symmetric_blaschke|{n}|{rho!r}"] = symmetric
    return cases


# -- areas ------------------------------------------------------------------


def build_areas(rng, lib, out_dir):
    u = _uniform(rng)
    parse = lib.funcspec.parse
    geo, nev = lib.geodesics, lib.nevanlinna
    ref = _reference()
    reqs = []

    def area(kind, text, rho, letter, exact=None):
        """area_with_bound at rho; against a closed form, or the pool."""
        f = parse(text)
        if exact is not None:

            def check(out):
                return within_bound(out[0], out[1], exact, "area")

        else:

            def compare(out, recorded):
                # at least the tolerance asked for: a correct change may
                # round differently from the recording, whose bound can be 0
                tol = max(out[1] + recorded[1], quad_tol(*AREA_TOL, recorded[0]))
                return within_tol(out[0], recorded[0], tol, "area")

            check = _ref_check(ref, _area_key(text, rho, letter), compare)
        target = _metric(lib, letter)
        reqs.append(
            Request(
                kind,
                f"area_with_bound({text}, rho={rho!r}, {letter})",
                lambda: geo.area_with_bound(f, rho, target),
                check,
                map_id=id(f),
            )
        )

    # parameters that set a request's cost are drawn stratified, so that the
    # cost of a pass varies little between seeds
    for lo in (0.3, 0.4, 0.5):
        s = u(lo, lo + 0.1)
        area("area_koebe_scale_E_inf", f"koebe() . scale({s!r}+0i)", math.inf, "E",
             koebe_scale_area(s))
    for degree in range(1, 5):
        zeros = [u(0.3, 0.5) * cmath.exp(1j * u(0.0, 2 * math.pi)) for _ in range(degree)]
        text = f"blaschke_disc([{','.join(complex_text(a) for a in zeros)}])"
        area("area_blaschke_E_inf", text, math.inf, "E", degree * math.pi)
    turn = complex_text(cmath.exp(1j * u(0.0, 2 * math.pi)))
    area("area_koebe_S_inf", f"koebe() . scale({turn})", math.inf, "S", 4 * math.pi)

    coeffs = [0.0, u(0.5, 1.0)] + [
        u(0.0, 0.3) * cmath.exp(1j * u(0.0, 2 * math.pi)) for _ in range(2)
    ]
    poly = f"powerseries([{','.join(complex_text(c) for c in coeffs)}])"
    rho = u(1.0, 3.0)
    area("area_powerseries_E", poly, rho, "E", polynomial_area(coeffs, math.tanh(rho / 2)))
    area("area_powerseries_E_inf", poly, math.inf, "E", polynomial_area(coeffs, 1.0))
    r = math.tanh(u(1.0, 3.0) / 2)
    reqs.append(
        Request(
            "area_from_coefficients",
            f"area_from_coefficients({coeffs!r}, {r!r})",
            lambda: geo.area_from_coefficients(coeffs, r),
            lambda v: within_tol(v, polynomial_area(coeffs, r), 1e-13 * abs(v), "area"),
        )
    )
    s, rho = u(0.3, 0.9), u(1.0, 4.0)
    area("area_scale_D", f"scale({s!r}+0i)", rho, "D",
         disc_area_hyperbolic(s * math.tanh(rho / 2)))
    s, rho = u(0.5, 3.0), u(1.0, 4.0)
    area("area_scale_S", f"scale({s!r}+0i)", rho, "S",
         disc_area_spherical(s * math.tanh(rho / 2)))
    text, rho = rng.choice(BLASCHKE_D_POOL)
    area("area_blaschke_D", text, rho, "D")
    area("area_mobius_S_inf", rng.choice(MOBIUS_S_POOL), math.inf, "S")

    # one map reused across radii, as criterion-11 does; one radius per third
    shared = parse(KOEBE_HALF)
    for third in range(3):
        r = rng.choice(REUSE_RADII[3 * third : 3 * third + 3])

        def compare(value, recorded):
            return within_tol(value, recorded, T_TOL + AREA_TOL[1] * abs(recorded), "T")

        reqs.append(
            Request(
                "shimizu_T_reused",
                f"shimizu_T({KOEBE_HALF}, {r!r}) on a shared map",
                lambda r=r: nev.shimizu_T(shared, r),
                _ref_check(ref, f"shimizu_T|{KOEBE_HALF}|{r!r}", compare),
                map_id=id(shared),
            )
        )

    reqs.append(_shimizu_scale(lib, u(0.5, 3.0), u(0.2, 0.9)))
    reqs.append(_curve_scale(lib, u(0.5, 3.0), tuple(sorted(u(0.1, 0.95) for _ in range(3)))))

    grid = rng.choice(CURVE_GRIDS)

    def curve_compare(c, recorded):
        got = list(c.S_values) + list(c.T_values)
        return first_failure(*(within_tol(v, w, T_TOL, "S/T") for v, w in zip(got, recorded)))

    f = parse(KOEBE_HALF)
    reqs.append(
        Request(
            "characteristic_curve_koebe",
            f"characteristic_curve({KOEBE_HALF}, {grid!r})",
            lambda: nev.characteristic_curve(f, grid),
            _ref_check(ref, _curve_key(grid), curve_compare),
            map_id=id(f),
        )
    )

    # documented outcome: the Euclidean area of the Koebe image is infinite and
    # the circle energy cannot settle, so a PrecisionError carries an estimate
    koebe_map = parse("koebe()")
    reqs.append(
        Request(
            "area_koebe_E_inf_precision_error",
            "area_with_bound(koebe(), rho=inf, E)",
            lambda: geo.area_with_bound(koebe_map, math.inf, _metric(lib, "E")),
            lambda exc: None
            if math.isfinite(exc.estimate) and exc.error_bound > 0
            else "PrecisionError without a finite estimate",
            expect=lib.errors.PrecisionError,
            map_id=id(koebe_map),
        )
    )

    s = u(0.3, 0.6)

    def cli_area(text):
        value, bound = _csv_rows(text, "area,error_bound")[0]
        return within_bound(value, bound, koebe_scale_area(s), "area")

    reqs.append(
        _cli(
            "cli_area",
            lib,
            ["area", "--func", f"koebe() . scale({s!r}+0i)", "--rho", "inf", "--target", "E"],
            out_dir,
            "areas-cli-area",
            cli_area,
        )
    )
    s_cli = u(0.5, 3.0)
    radii_cli = tuple(sorted(u(0.1, 0.95) for _ in range(3)))

    def cli_nevanlinna(text):
        rows = _csv_rows(text, "r,S,T")
        return first_failure(
            *(within_tol(S_, scale_S(s_cli, r_), T_TOL, "S") for r_, S_, _ in rows),
            *(within_tol(T_, scale_T(s_cli, r_), T_TOL, "T") for r_, _, T_ in rows),
        )

    reqs.append(
        _cli(
            "cli_nevanlinna",
            lib,
            [
                "nevanlinna",
                "--func",
                f"scale({s_cli!r}+0i)",
                "--radii",
                ",".join(map(repr, radii_cli)),
                "--abs-tol",
                "1e-7",
            ],
            out_dir,
            "areas-cli-nevanlinna",
            cli_nevanlinna,
        )
    )

    rng.shuffle(reqs)
    ids = [q.map_id for q in reqs if q.map_id is not None]
    reused = sum(1 for i in ids if ids.count(i) > 1)
    return Workload(
        reqs,
        facts={"map_reuse_share": reused / len(reqs), "requests_reusing_a_map": reused},
    )


def _shimizu_scale(lib, s, r):
    """T(r) of z -> s z, whose closed form is log(1 + s^2 r^2) / 2."""
    f = lib.funcspec.parse(f"scale({s!r}+0i)")
    return Request(
        "shimizu_T_scale",
        f"shimizu_T(scale({s!r}+0i), {r!r})",
        lambda: lib.nevanlinna.shimizu_T(f, r),
        lambda v: within_tol(v, scale_T(s, r), T_TOL, "T"),
        map_id=id(f),
    )


def _curve_scale(lib, s, radii):
    f = lib.funcspec.parse(f"scale({s!r}+0i)")

    def check(c):
        return first_failure(
            *(within_tol(v, scale_S(s, x), T_TOL, "S") for v, x in zip(c.S_values, radii)),
            *(within_tol(v, scale_T(s, x), T_TOL, "T") for v, x in zip(c.T_values, radii)),
        )

    return Request(
        "characteristic_curve_scale",
        f"characteristic_curve(scale({s!r}+0i), {radii!r})",
        lambda: lib.nevanlinna.characteristic_curve(f, radii),
        check,
        map_id=id(f),
    )


# -- lengths ----------------------------------------------------------------

LENGTH_GROUPS = 40
SQRT_RHOS = (4.0, 6.0, 8.0, 10.0, 12.0)


def _sqrt_ratios(s, letter):
    """L(rho)/sqrt(rho) for z -> s z along a radius, in D or S, and the
    verdict of the strictly-decreasing test on them."""
    if letter == "D":
        lengths = [2 * math.atanh(s * math.tanh(x / 2)) for x in SQRT_RHOS]
    else:
        lengths = [2 * math.atan(s * math.tanh(x / 2)) for x in SQRT_RHOS]
    ratios = [L / math.sqrt(x) for L, x in zip(lengths, SQRT_RHOS)]
    verdict = "PASS" if all(b < a for a, b in zip(ratios, ratios[1:])) else "FAIL"
    return ratios, verdict


def _ratios_check(got, ratios):
    return first_failure(
        *(
            within_tol(g, w, quad_tol(*LENGTH_TOL, w * math.sqrt(x), k + 1) / math.sqrt(x))
            for k, (g, w, x) in enumerate(zip(got, ratios, SQRT_RHOS))
        )
    )


def build_lengths(rng, lib, out_dir):
    u = _uniform(rng)
    parse = lib.funcspec.parse
    geo, ver = lib.geodesics, lib.verifier
    ref = _reference()
    reqs = []
    two_pi = 2 * math.pi

    def profile(kind, text, rho, letter, exact_of, theta=None, offset=None):
        """arc_length_profile on four grid points of a disc arc (theta) or a
        half-plane arc (offset)."""
        f = parse(text)
        grid = [rho * k / 4 for k in range(1, 5)]
        target = _metric(lib, letter)
        if theta is not None:
            where = f"disc_arc({rho!r}, {theta!r})"

            def run():
                return geo.arc_length_profile(f, geo.disc_arc(rho, theta), grid, target)

        else:
            where = f"halfplane_arc({rho!r}, {offset!r})"

            def run():
                return geo.arc_length_profile(f, geo.halfplane_arc(rho, offset), grid, target)

        reqs.append(
            Request(
                kind,
                f"arc_length_profile({text}, {where}, {letter})",
                run,
                _profile_check(exact_of, 4, LENGTH_TOL),
            )
        )

    def sqrt_trend(kind, s, letter):
        theta = u(0.0, two_pi)
        f = parse(f"scale({s!r}+0i)")
        ratios, verdict = _sqrt_ratios(s, letter)

        def check(report):
            return first_failure(
                None if report.status == verdict else f"verdict {report.status}, not {verdict}",
                _ratios_check(dict(report.details)["ratios"], ratios),
            )

        target = _metric(lib, letter)
        reqs.append(
            Request(
                kind,
                f"check_sqrt_trend(scale({s!r}+0i), {letter}, theta={theta!r})",
                lambda: ver.check_sqrt_trend(f, target, SQRT_RHOS, theta),
                check,
            )
        )

    for g in range(LENGTH_GROUPS):
        # koebe() . scale(s e^{-i theta}) maps the theta radius onto [0, s)
        s, theta = u(0.3, 0.8), u(0.0, two_pi)
        text = f"koebe() . scale({complex_text(s * cmath.exp(-1j * theta))})"
        c = abs(parse(text).inner.factor)
        profile("length_koebe_E", text, u(2.0, 6.0), "E",
                lambda x, c=c: koebe(c * math.tanh(x / 2)), theta=theta)
        s = u(0.3, 0.95)
        profile("length_scale_D", f"scale({s!r}+0i)", u(2.0, 10.0), "D",
                lambda x, s=s: 2 * math.atanh(s * math.tanh(x / 2)), theta=u(0.0, two_pi))
        s = u(0.3, 3.0)
        profile("length_scale_S", f"scale({s!r}+0i)", u(2.0, 10.0), "S",
                lambda x, s=s: 2 * math.atan(s * math.tanh(x / 2)), theta=u(0.0, two_pi))
        s = u(0.3, 0.95)
        profile("length_inv_cayley_H", f"inv_cayley() . scale({s!r}+0i)", u(2.0, 10.0), "H",
                lambda x, s=s: 2 * math.atanh(s * math.tanh(x / 2)), theta=u(0.0, two_pi))
        a = u(0.2, 2.0)
        profile("length_halfplane_E", f"scale({a!r}+0i)", u(1.0, 4.0), "E",
                lambda x, a=a: a * math.expm1(x), offset=u(-2.0, 2.0))
        profile("length_halfplane_H", f"scale({u(0.2, 2.0)!r}+0i)", u(1.0, 8.0), "H",
                lambda x: x, offset=u(-2.0, 2.0))
        a = u(0.2, 2.0)
        profile("length_halfplane_S", f"scale({a!r}+0i)", u(1.0, 6.0), "S",
                lambda x, a=a: 2 * (math.atan(a * math.exp(x)) - math.atan(a)), offset=0.0)
        profile("length_cayley_D", "cayley()", u(1.0, 8.0), "D", lambda x: x, offset=0.0)
        if g % 2:
            sqrt_trend("sqrt_trend_D", u(0.5, 0.95), "D")
        else:
            sqrt_trend("sqrt_trend_S", u(0.5, 3.0), "S")
        reqs.append(_cli_length(lib, out_dir, g, u(0.3, 0.6), u(2.0, 5.0)))
        z = u(0.0, 0.8) * cmath.exp(1j * u(0.0, two_pi))
        reqs.append(_cli_eval(lib, out_dir, g, u(0.3, 0.9), complex(round(z.real, 6), round(z.imag, 6))))

    reqs.append(_annulus(lib, u(2.0, 4.0), u(0.2, 1.8)))

    def symmetric_compare(out, recorded):
        samples, report = out
        details = dict(report.details)
        lengths = [s.length for s in samples]
        if len(lengths) + 1 != len(recorded):
            return f"{len(lengths)} samples, expected {len(recorded) - 1}"
        return first_failure(
            None if report.status == "PASS" else f"verdict {report.status}",
            at_most(details["symmetry_deviation"], 1e-10, "symmetry deviation"),
            at_most(details["imag_axis_realness_deviation"], 1e-10, "realness deviation"),
            *(
                within_tol(L, w, quad_tol(*LENGTH_TOL, w, k + 1), "length")
                for k, (L, w) in enumerate(zip(lengths, recorded))
            ),
        )

    for n_levels, sym_rho in SYMMETRIC_POOL:
        reqs.append(
            Request(
                "scenario_symmetric_blaschke",
                f"scenario_symmetric_blaschke({n_levels}, {sym_rho!r})",
                lambda n=n_levels, r=sym_rho: ver.scenario_symmetric_blaschke(n, r),
                _ref_check(
                    ref, f"scenario_symmetric_blaschke|{n_levels}|{sym_rho!r}", symmetric_compare
                ),
            )
        )

    s = u(0.5, 0.95)
    ratios, verdict = _sqrt_ratios(s, "D")

    def cli_verify(text):
        lines = text.splitlines()
        status = lines[0].split(" | ")[1]
        return first_failure(
            None if status == verdict else f"verdict {status}, expected {verdict}",
            _ratios_check(ast.literal_eval(lines[1].split(" = ", 1)[1]), ratios),
        )

    reqs.append(
        _cli(
            "cli_verify_thm32",
            lib,
            ["verify", "thm32", "--func", f"scale({s!r}+0i)"],
            out_dir,
            "lengths-cli-verify",
            cli_verify,
            exit_code=0 if verdict == "PASS" else 1,
        )
    )

    rng.shuffle(reqs)
    return Workload(reqs)


def _cli_length(lib, out_dir, g, s, rho_max):
    def check(text):
        rows = _csv_rows(text, "rho,length")
        if len(rows) != 4:
            return f"{len(rows)} rows, expected 4"
        return first_failure(
            *(
                within_tol(L, koebe(s * math.tanh(x / 2)),
                           quad_tol(*LENGTH_TOL, L, pieces=k + 1), "length")
                for k, (x, L) in enumerate(rows)
            )
        )

    argv = ["length", "--func", f"koebe() . scale({s!r}+0i)", "--rho-max", repr(rho_max),
            "--samples", "4"]
    return _cli("cli_length", lib, argv, out_dir, f"lengths-cli-length-{g}", check)


def _cli_eval(lib, out_dir, g, s, z):
    """Value, derivative and Euclidean norm of koebe() . scale(s) at z."""

    def check(text):
        fields = {}
        for line in text.splitlines():
            name, *nums = line.split()
            fields[name] = [float(x) for x in nums]
        w = 1 - s * z
        value = s * z / (w * w)
        deriv = s * (1 + s * z) / (w * w * w)
        norm_e = abs(deriv) * (1 - abs(z) ** 2) / 2
        return first_failure(
            within_tol(abs(complex(*fields["value"]) - value), 0.0, 1e-13 * abs(value), "value"),
            within_tol(abs(complex(*fields["derivative"]) - deriv), 0.0, 1e-13 * abs(deriv),
                       "derivative"),
            within_tol(fields["norm_euclidean"][0], norm_e, 1e-13 * norm_e, "norm"),
        )

    # --at=... so that a leading minus sign is not read as an option
    argv = ["eval", "--func", f"koebe() . scale({s!r}+0i)", f"--at={complex_text(z)}"]
    return _cli("cli_eval", lib, argv, out_dir, f"lengths-cli-eval-{g}", check)


def _annulus(lib, big_r, extra):
    """Spherical lengths of the annulus cover grow by exactly pi per half
    period; rho_max covers 4 to 5 half periods."""
    half_period = math.pi**2 / (2 * math.log(big_r))
    rho_max = half_period * (4 + extra)
    n_half = int(rho_max / half_period)

    def check(samples):
        lengths = [s.length for s in samples]
        if len(lengths) != n_half:
            return f"{len(lengths)} samples, expected {n_half}"
        gap = max(abs(lengths[k + 2] - lengths[k] - lengths[1]) for k in range(n_half - 2))
        return first_failure(
            at_most(gap, 1e-8, "period gap"),
            *(
                within_tol(L, (k + 1) * math.pi, quad_tol(*LENGTH_TOL, L, k + 1), "length")
                for k, L in enumerate(lengths)
            ),
        )

    return Request(
        "scenario_annulus",
        f"scenario_annulus({big_r!r}, {rho_max!r})",
        lambda: lib.verifier.scenario_annulus(big_r, rho_max),
        check,
    )


# -- large-product ------------------------------------------------------------


def build_large_product(rng, lib, out_dir):
    u = _uniform(rng)
    maps, geo = lib.maps, lib.geodesics
    reqs = []
    warm = []
    counts = [rng.randint(1000, 1200), rng.randint(2500, 2700), 5334]
    for n in counts:
        product = maps.BlaschkeHalfPlane(tuple(float(k * k) for k in range(1, n + 1)))
        f = maps.Quotient(
            maps.Compose(product, maps.Shift(1.0)), maps.Compose(product, maps.Shift(-1.0))
        )
        name = f"B(z+1)/B(z-1), B with zeros i k^2, k <= {n}"
        warm.append(lambda f=f: lib.maps.evaluate(f, 2j))
        # one arc per length stratum; the seed picks the target of each
        for letter, rho in zip("SSEE", rng.sample((2.0, 2.6, 3.2, 3.8), 4)):
            exact = quotient_axis_length(n, math.exp(rho))
            target = _metric(lib, letter)
            reqs.append(
                Request(
                    f"length_quotient_{letter}",
                    f"arc_length({name}, halfplane_arc({rho!r}), {letter})",
                    lambda f=f, rho=rho, target=target: geo.arc_length(
                        f, geo.halfplane_arc(rho), target
                    ),
                    lambda v, exact=exact: within_tol(
                        v, exact, quad_tol(*LENGTH_TOL, exact) + 1e-11, "length"
                    ),
                )
            )
        ys = sorted(math.exp(u(0.0, math.log(1e4))) for _ in range(16))

        def modulus(jets):
            if any(j.is_pole for j in jets):
                return "pole on the imaginary axis"
            worst = max(abs(abs(j.value) - 1.0) for j in jets)
            return at_most(worst, 1e-8, "axis modulus deviation")

        reqs.append(
            Request(
                "axis_modulus_probe",
                f"evaluate({name}) at i*y for y in {ys!r}",
                lambda f=f, ys=ys: [lib.maps.evaluate(f, 1j * y) for y in ys],
                modulus,
            )
        )
        reqs.append(
            Request(
                "symmetry_check",
                f"symmetry_check(B with {n} zeros, 32)",
                lambda p=product: maps.symmetry_check(p, 32),
                lambda dev: at_most(dev, 1e-10, "symmetry deviation"),
            )
        )

    n_max = 10

    def scenario_check(out):
        samples, report = out
        details = dict(report.details)
        kept = details["kept_factors"]
        return first_failure(
            at_most(details["axis_modulus_deviation"], 1e-8, "axis modulus deviation"),
            *(
                within_tol(
                    s.length,
                    quotient_axis_length(kept, math.exp(s.rho)),
                    quad_tol(*SCENARIO_QUOTIENT_TOL, s.length, k + 1) + 1e-11,
                    f"length at rho={s.rho!r}",
                )
                for k, s in enumerate(samples)
            ),
        )

    reqs.append(
        Request(
            "scenario_blaschke_quotient",
            f"scenario_blaschke_quotient({n_max})",
            lambda: lib.verifier.scenario_blaschke_quotient(n_max),
            scenario_check,
        )
    )
    rng.shuffle(reqs)
    return Workload(reqs, warm=warm, facts={"factor_counts": counts, "n_max": n_max})


# -- decompose ----------------------------------------------------------------

def blaschke_value(zeros, z):
    """prod (|a|/a) (a - z) / (1 - conj(a) z), computed here from the zeros."""
    out = 1.0 + 0j
    for a in zeros:
        out *= (abs(a) / a) * (a - z) / (1 - a.conjugate() * z)
    return out


def finite_quotient(rng, n_zeros=None, n_poles=None):
    """The criterion-10 family: 0..4 zeros over 0..4 poles, never both empty.
    Returns (text, zeros, poles)."""

    def inner(k):
        return [
            complex(*(round(v, 6) for v in (p.real, p.imag)))
            for p in (
                rng.uniform(0.15, 0.8) * cmath.exp(2j * math.pi * rng.random())
                for _ in range(k)
            )
        ]

    if n_zeros is None:
        n_zeros, n_poles = rng.randint(0, 4), rng.randint(0, 4)
    zeros, poles = inner(n_zeros), inner(n_poles)
    if not zeros and not poles:
        zeros = inner(1)

    def side(points):
        if not points:
            return "const(1+0i)"
        return f"blaschke_disc([{','.join(complex_text(p) for p in points)}])"

    return f"{side(zeros)} / {side(poles)}", zeros, poles


def build_decompose(rng, lib, out_dir):
    parse = lib.funcspec.parse
    nev = lib.nevanlinna
    reqs = []
    # each zero count and each pole count 0..4 once per pass, paired at random:
    # the family's marginal counts, and about the same boundary work per seed
    for n_zeros, n_poles in zip(rng.sample(range(5), 5), rng.sample(range(5), 5)):
        text, zeros, poles = finite_quotient(rng, n_zeros, n_poles)
        f = parse(text)
        held = {}

        def decompose(f=f, held=held):
            held["dec"] = nev.fatou_decompose(f)
            return held["dec"]

        def structure(dec, nz=len(zeros), npol=len(poles)):
            if dec.boundary_samples < 4096:
                return f"boundary_samples {dec.boundary_samples} < 4096"
            if (len(dec.b0_zeros), len(dec.binf_poles)) != (nz, npol):
                return f"found {len(dec.b0_zeros)} zeros / {len(dec.binf_poles)} poles"
            return None

        reqs.append(
            Request("fatou_decompose", f"fatou_decompose({text})", decompose, structure)
        )

        phase = rng.random()
        circle = [cmath.exp(2j * math.pi * (k + phase) / 16) for k in range(16)]

        def on_circle(held=held, pts=circle):
            dec = held["dec"]
            return [(dec.f0_at(z), dec.finf_at(z)) for z in pts]

        def pythagoras(pairs):
            worst = max(abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) for a, b in pairs)
            return at_most(worst, 1e-6, "pythagoras residual")

        reqs.append(
            Request("decomposition_circle_probe",
                    f"f0_at, finf_at of {text} at 16 circle points, phase {phase!r}",
                    on_circle, pythagoras)
        )

        phase = rng.random()
        boundary = [
            (z, blaschke_value(zeros, z) / blaschke_value(poles, z))
            for z in (cmath.exp(2j * math.pi * (k + phase) / 16) for k in range(16))
        ]

        def on_circle_quotient(held=held, pts=boundary):
            dec = held["dec"]
            return [dec.quotient_at(z) for z, _ in pts]

        def circle_quotient(values, pts=boundary):
            worst = max(abs(v - w) / abs(w) for v, (_, w) in zip(values, pts))
            return at_most(worst, 1e-8, "quotient residual on the circle")

        reqs.append(
            Request("decomposition_circle_quotient_probe",
                    f"quotient_at of {text} at 16 circle points, phase {phase!r}",
                    on_circle_quotient, circle_quotient)
        )

        inside = []
        while len(inside) < 16:
            z = 0.95 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            den = blaschke_value(poles, z)
            if den != 0 and abs(blaschke_value(zeros, z) / den) <= 1e6:
                inside.append((z, blaschke_value(zeros, z) / den))

        def in_disc(held=held, pts=inside):
            dec = held["dec"]
            return [dec.quotient_at(z) for z, _ in pts]

        def quotient(values, pts=inside):
            worst = max(abs(v - w) / max(abs(w), 1e-12) for v, (_, w) in zip(values, pts))
            return at_most(worst, 1e-8, "quotient residual")

        reqs.append(
            Request("decomposition_interior_probe",
                    f"quotient_at of {text} at {[z for z, _ in inside]!r}",
                    in_disc, quotient)
        )

        def origin_check(t_one, held=held):
            dec = held["dec"]
            lhs = abs(dec.f0_at(0j)) ** 2 + abs(dec.finf_at(0j)) ** 2
            return at_most(abs(lhs - math.exp(-2.0 * t_one)), 1e-6, "origin identity residual")

        reqs.append(
            Request("origin_identity_T", f"origin_identity_T({text})",
                    lambda f=f: nev.origin_identity_T(f), origin_check)
        )

    text, zeros, poles = finite_quotient(rng)

    def manifest(out):
        lines = out.splitlines()
        fields = {}
        for line in lines:
            if line.startswith("# "):
                name, value = line[2:].split()
                fields[name] = float(value)
        return first_failure(
            None if lines[0] == "boundary_samples: 256" else f"header {lines[0]!r}",
            None if f"zeros: {len(zeros)}" in lines else "zero count missing",
            None if f"poles: {len(poles)}" in lines else "pole count missing",
            at_most(fields["pythagoras_residual"], 1e-6, "pythagoras residual"),
            at_most(fields["quotient_residual"], 1e-8, "quotient residual"),
            at_most(fields["origin_identity_residual"], 1e-6, "origin identity residual"),
        )

    reqs.append(
        _cli("cli_decompose_256", lib, ["decompose", "--func", text, "--boundary-samples", "256"],
             out_dir, "decompose-cli", manifest)
    )

    # documented outcome: f(0) = 0 has no normalised decomposition
    a = complex_text(rng.uniform(0.2, 0.7) * cmath.exp(2j * math.pi * rng.random()))
    text = f"blaschke_disc([0+0i,{a}])"
    f = parse(text)
    reqs.append(
        Request(
            "fatou_decompose_normalization_error",
            f"fatou_decompose({text})",
            lambda: nev.fatou_decompose(f),
            lambda exc: None,
            expect=lib.errors.NormalizationError,
        )
    )
    # not shuffled: the probes of a map read the decomposition made by the
    # request before them
    return Workload(reqs)


WORKLOADS = {
    "areas": build_areas,
    "lengths": build_lengths,
    "large-product": build_large_product,
    "decompose": build_decompose,
}

# Percentile reported as latency_tail_ms: the highest percentile with at least
# ten requests beyond it in a run of the length BENCHMARK.json sets.
TAIL_PERCENTILE = {"areas": 85.0, "lengths": 99.8, "large-product": 90.0, "decompose": 85.0}
