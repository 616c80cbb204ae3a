"""Command-line front end.

Data rows go to stdout (or to --output PATH); diagnostics go to stderr.
All numbers are printed with 17 significant digits so identical flags give
byte-identical output.  Exit codes: 0 success/PASS, 1 FAIL or numerical
failure, 2 hypothesis-violated/INAPPLICABLE, 3 usage or parse error.  Usage
errors include parameters no map or arc can be built from, such as a rho
beyond the arc cap, and a half-plane map given to a verify check (every
check probes disc points); both are reported before any quadrature.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (
    ArclabError,
    ConstructionError,
    ParseError,
    PrecisionError,
    TagMismatchError,
)
from .funcspec import parse, parse_complex, unparse
from .geodesics import (
    QuadConfig,
    arc_length_profile,
    area_with_bound,
    disc_arc,
    halfplane_arc,
)
from .maps import evaluate
from .metrics import MetricId, deriv_norm
from .nevanlinna import characteristic_curve, fatou_decompose
from .verifier import (
    GrowthModel,
    VerdictReport,
    alpha_growth_check,
    check_area_derivative_bound,
    check_spherical_bound,
    check_sqrt_trend,
    check_uniform_char_length_bound,
    growth_fit,
    scenario_annulus,
    scenario_blaschke_quotient,
    scenario_symmetric_blaschke,
)

_GRAMMAR = """\
map expression grammar:

  expr    := term { ('*' | '/') term }
  term    := atom { '.' atom }          -- '.' is composition: f . g is f o g
  atom    := call | '(' expr ')'
  call    := NAME '(' [args] ')'
  args    := value {',' value}
  value   := complex | list | expr
  complex := REAL [('+'|'-') REAL 'i'] | REAL 'i'
  list    := '[' [value {',' value}] ']'

composition binds tighter than '*' and '/'; REAL is an optionally signed
decimal with optional exponent.  NAMEs: z (identity), const, scale, shift,
mobius, koebe, exp, powerseries, blaschke_disc, blaschke_hp (heights list,
optional signs list), cayley, inv_cayley.

examples:
  koebe()
  scale(0.5+0i) . koebe()
  blaschke_hp([1,4,9,16]) . shift(1+0i) / blaschke_hp([1,4,9,16]) . shift(-1+0i)
"""

_TARGETS = {
    "E": MetricId.EUCLIDEAN,
    "H": MetricId.HYPERBOLIC_DISC,
    "S": MetricId.SPHERICAL,
}


class _Cli(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _positive_float(text):
    v = float(text)
    if v <= 0 or not math.isfinite(v):
        raise argparse.ArgumentTypeError("must be a positive finite number")
    return v


def _rho_value(text):
    v = float(text)  # accepts "inf"
    if v <= 0:
        raise argparse.ArgumentTypeError("rho must be positive")
    return v


def _samples_value(text):
    v = int(text)
    if v < 2:
        raise argparse.ArgumentTypeError("need at least 2 samples")
    return v


def _radii_value(text):
    try:
        radii = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("radii must be comma-separated numbers")
    if any(not 0.0 < r < 1.0 for r in radii):
        raise argparse.ArgumentTypeError("radii must lie in (0, 1)")
    if any(n <= p for p, n in zip(radii, radii[1:])):
        raise argparse.ArgumentTypeError("radii must be strictly increasing")
    return radii


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class _Output:
    """Data sink: stdout by default, a file when --output is given."""

    def __init__(self, path):
        self.path = path
        self.fh = None

    def __enter__(self):
        self.fh = open(self.path, "w") if self.path else sys.stdout
        return self

    def __exit__(self, *exc):
        if self.path and self.fh is not None:
            self.fh.close()
        return False

    def line(self, text=""):
        self.fh.write(text + "\n")


def _quad(ns) -> QuadConfig:
    return QuadConfig(abs_tol=ns.abs_tol, rel_tol=ns.rel_tol)


def _norm_or_nan(f, z, target) -> float:
    try:
        return deriv_norm(f, z, target)
    except ArclabError:
        return math.nan


def _parse_func(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        exc.source_text = text
        raise


def _parse_at(text: str) -> complex:
    try:
        return parse_complex(text)
    except ParseError as exc:
        exc.source_text = text
        raise


def _cmd_eval(ns) -> int:
    f = _parse_func(ns.func)
    z = _parse_at(ns.at)
    jet = evaluate(f, z)
    with _Output(ns.output) as out:
        if jet.is_pole:
            out.line("value INFINITY")
            out.line(
                f"chart_derivative {_fmt(jet.derivative.real)} {_fmt(jet.derivative.imag)}"
            )
        else:
            out.line(f"value {_fmt(jet.value.real)} {_fmt(jet.value.imag)}")
            out.line(
                f"derivative {_fmt(jet.derivative.real)} {_fmt(jet.derivative.imag)}"
            )
        out.line(f"norm_euclidean {_fmt(_norm_or_nan(f, z, MetricId.EUCLIDEAN))}")
        out.line(
            f"norm_hyperbolic_disc {_fmt(_norm_or_nan(f, z, MetricId.HYPERBOLIC_DISC))}"
        )
        out.line(
            "norm_hyperbolic_half_plane "
            f"{_fmt(_norm_or_nan(f, z, MetricId.HYPERBOLIC_HALF_PLANE))}"
        )
        out.line(f"norm_spherical {_fmt(_norm_or_nan(f, z, MetricId.SPHERICAL))}")
    return 0


def _arc_for(f, rho_max: float, theta: float):
    if f.domain is MetricId.HYPERBOLIC_HALF_PLANE:
        # theta doubles as the real offset of the vertical ray
        return halfplane_arc(rho_max, complex(theta, 0.0))
    return disc_arc(rho_max, theta)


def _cmd_length(ns) -> int:
    f = _parse_func(ns.func)
    arc = _arc_for(f, ns.rho_max, ns.theta)
    grid = [ns.rho_max * k / ns.samples for k in range(1, ns.samples + 1)]
    samples = arc_length_profile(f, arc, grid, _TARGETS[ns.target], _quad(ns))
    with _Output(ns.output) as out:
        _emit_samples(out, ns, samples)
    return 0


def _cmd_area(ns) -> int:
    f = _parse_func(ns.func)
    value, bound = area_with_bound(f, ns.rho, _TARGETS[ns.target], _quad(ns))
    with _Output(ns.output) as out:
        if ns.header == "on":
            out.line("area,error_bound")
        out.line(f"{_fmt(value)},{_fmt(bound)}")
    return 0


def _cmd_nevanlinna(ns) -> int:
    f = _parse_func(ns.func)
    curve = characteristic_curve(f, ns.radii, _quad(ns))
    with _Output(ns.output) as out:
        if ns.header == "on":
            out.line("r,S,T")
        for r, s, t in zip(curve.radii, curve.S_values, curve.T_values):
            out.line(f"{_fmt(r)},{_fmt(s)},{_fmt(t)}")
    return 0


def _cmd_decompose(ns) -> int:
    f = _parse_func(ns.func)
    d = fatou_decompose(f, ns.boundary_samples)
    pyth, quot, origin_gap = d.residuals(f)
    with _Output(ns.output) as out:
        for line in d.to_manifest().splitlines():
            out.line(line)
        out.line(f"# pythagoras_residual {_fmt(pyth)}")
        out.line(f"# quotient_residual {_fmt(quot)}")
        out.line(f"# origin_identity_residual {_fmt(origin_gap)}")
    return 0


_STATUS_EXIT = {"PASS": 0, "FAIL": 1, "INAPPLICABLE": 2}


def _emit_report(out, report: VerdictReport) -> int:
    out.line(report.to_line())
    for key, value in report.details:
        out.line(f"# {key} = {value}")
    return _STATUS_EXIT[report.status]


def _disc_map(ns, text: str):
    f = _parse_func(text)
    if f.domain is MetricId.HYPERBOLIC_HALF_PLANE:
        # every check probes points of the disc
        raise ValueError(f"verify {ns.which} needs a map of the disc, not {text!r}")
    return f


def _cmd_verify(ns) -> int:
    q = _quad(ns)
    which = ns.which
    f = _disc_map(ns, ns.f0 if which == "thm43" else ns.func or ns.default_func)
    if which == "prop21":
        report = check_area_derivative_bound(f, MetricId.EUCLIDEAN, config=q)
    elif which == "prop22":
        report = check_area_derivative_bound(f, MetricId.HYPERBOLIC_DISC, config=q)
    elif which == "prop23":
        report = check_spherical_bound(f, config=q)
    elif which == "keogh":
        report = check_sqrt_trend(f, MetricId.EUCLIDEAN, require_halving=True, config=q)
    elif which == "thm32":
        report = check_sqrt_trend(f, MetricId.HYPERBOLIC_DISC, config=q)
    elif which == "thm33":
        report = check_sqrt_trend(f, MetricId.SPHERICAL, config=q)
    elif which == "thm43":
        finf = _disc_map(ns, ns.finf)
        report = check_uniform_char_length_bound(f, finf, ns.delta, config=q)
    else:  # alpha
        report = alpha_growth_check(f, ns.alpha, ns.delta)
    with _Output(ns.output) as out:
        return _emit_report(out, report)


def _emit_samples(out, ns, samples):
    if ns.header == "on":
        out.line("rho,length")
    for s in samples:
        out.line(f"{_fmt(s.rho)},{_fmt(s.length)}")


def _cmd_scenario(ns) -> int:
    which = ns.which
    if which == "annulus":
        samples = scenario_annulus(ns.R, ns.rho_max, _quad(ns))
        fit = growth_fit(samples, GrowthModel.POWER_LAW)
        lengths = [s.length for s in samples]
        period_gap = max(
            abs(lengths[k + 2] - lengths[k] - lengths[1])
            for k in range(len(lengths) - 2)
        )
        ok = 0.95 <= fit.exponent <= 1.05 and period_gap < 1e-8
        report = VerdictReport(
            "annulus_linear_growth",
            "PASS" if ok else "FAIL",
            fit.exponent,
            ns.R,
            (("periodicity_residual", period_gap), ("fit_residual", fit.residual)),
        )
    elif which == "symmetric-blaschke":
        samples, report = scenario_symmetric_blaschke(ns.N, ns.rho_max, _quad(ns))
        fit = growth_fit(samples, GrowthModel.POWER_LAW)
    else:  # blaschke-quotient
        samples, report = scenario_blaschke_quotient(ns.n_max, _quad(ns))
        settled = [s for s in samples if s.rho >= 2.0 * math.log(10.0) - 1e-12]
        if len(settled) < 4:
            settled = samples
        fit = growth_fit(settled, GrowthModel.EXPONENTIAL)
    with _Output(ns.output) as out:
        _emit_samples(out, ns, samples)
        out.line(
            f"# fit model={fit.model.value} exponent={_fmt(fit.exponent)} "
            f"constant={_fmt(fit.constant)} residual={_fmt(fit.residual)}"
        )
        return _emit_report(out, report)


def build_parser() -> _Cli:
    parser = _Cli(
        prog="arclab",
        description="Lengths, areas, and growth checks for analytic maps "
        "between the disc, half-plane, plane, and sphere.",
        epilog=_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--abs-tol", type=_positive_float, default=1e-9)
        p.add_argument("--rel-tol", type=_positive_float, default=1e-9)
        p.add_argument("--output", default=None, metavar="PATH")
        p.add_argument("--header", choices=("on", "off"), default="on")

    p = sub.add_parser("eval", help="value, derivative, and derivative norms at a point")
    p.add_argument("--func", required=True)
    p.add_argument("--at", required=True, metavar="Z")
    common(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("length", help="image arc length profile along a radial arc")
    p.add_argument("--func", required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--rho-max", type=_positive_float, default=10.0)
    p.add_argument("--target", choices=sorted(_TARGETS), default="E")
    p.add_argument("--samples", type=_samples_value, default=20)
    common(p)
    p.set_defaults(handler=_cmd_length)

    p = sub.add_parser("area", help="image area (with multiplicity) up to radius rho")
    p.add_argument("--func", required=True)
    p.add_argument("--rho", type=_rho_value, required=True, help="positive real or inf")
    p.add_argument("--target", choices=sorted(_TARGETS), default="E")
    common(p)
    p.set_defaults(handler=_cmd_area)

    p = sub.add_parser("nevanlinna", help="area characteristic curve S and T")
    p.add_argument("--func", required=True)
    p.add_argument("--radii", type=_radii_value, required=True)
    common(p)
    p.set_defaults(handler=_cmd_nevanlinna)

    p = sub.add_parser(
        "decompose",
        help="bounded quotient decomposition manifest plus identity residuals",
    )
    p.add_argument("--func", required=True)
    p.add_argument("--boundary-samples", type=int, default=4096)
    common(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("verify", help="run one named inequality/trend check")
    vsub = p.add_subparsers(dest="which", required=True)

    def vcmd(name, default_func, description, **extra):
        vp = vsub.add_parser(name, description=description)
        vp.add_argument("--func", default=None)
        for flag, kwargs in extra.items():
            vp.add_argument(flag, **kwargs)
        common(vp)
        vp.set_defaults(handler=_cmd_verify, default_func=default_func)

    vcmd(
        "prop21",
        "z()",
        "Euclidean area-derivative bound: 4 pi ||f'(z)||^2 at most the area of f(D) "
        "on a disc grid. INAPPLICABLE when the area diverges or does not resolve.",
    )
    vcmd(
        "prop22",
        "scale(0.5+0i)",
        "Hyperbolic area-derivative bound for a self-map of the disc, on a disc grid. "
        "INAPPLICABLE when the hyperbolic area diverges or does not resolve.",
    )
    vcmd(
        "prop23",
        "scale(0.25+0i)",
        "Spherical derivative norm over sqrt(A_S), stable under grid refinement, "
        "for a spherical image area A_S below 2 pi. INAPPLICABLE otherwise.",
    )
    vcmd(
        "keogh",
        "koebe() . scale(0.9+0i)",
        "Euclidean L(rho)/sqrt(rho) strictly decreasing on rho = "
        "4, 6, 8, 10, 12 and below half its first value at the end. L never "
        "decreases, so halving needs a grid spanning a factor above 4; on this "
        "grid the check reports FAIL for every map.",
    )
    vcmd(
        "thm32",
        "scale(0.9+0i)",
        "Hyperbolic L(rho)/sqrt(rho) strictly decreasing on rho = 4, 6, 8, 10, 12, "
        "for a self-map of the disc.",
    )
    vcmd(
        "thm33",
        "scale(0.9+0i)",
        "Spherical L(rho)/sqrt(rho) strictly decreasing on rho = 4, 6, 8, 10, 12.",
    )
    vp = vsub.add_parser(
        "thm43",
        description="Spherical derivative and length bounds 2/m and (2/delta) rho for "
        "f0/finf where m = sqrt(|f0|^2 + |finf|^2) lies in [delta, 1]. "
        "INAPPLICABLE when m leaves [delta, 1] on the disc grid.",
    )
    vp.add_argument("--f0", default="const(0.5+0i) * blaschke_disc([0.5+0i])")
    vp.add_argument("--finf", default="const(0.5+0i)")
    vp.add_argument("--delta", type=_positive_float, default=0.35)
    common(vp)
    vp.set_defaults(handler=_cmd_verify)
    vcmd(
        "alpha",
        "koebe() . scale(0.9+0i)",
        "Tail of the area integral weighted by 1/(t - delta)^alpha converging, then "
        "L(rho)/rho^(alpha/2) decreasing on rho = 8, 10, 12. INAPPLICABLE otherwise.",
        **{
            "--alpha": dict(type=_positive_float, required=True),
            "--delta": dict(type=_positive_float, default=1.0),
        },
    )

    p = sub.add_parser("scenario", help="run one named growth scenario")
    ssub = p.add_subparsers(dest="which", required=True)
    sp = ssub.add_parser("annulus")
    sp.add_argument("--R", type=_positive_float, default=math.e)
    sp.add_argument("--rho-max", type=_positive_float, default=40.0)
    common(sp)
    sp.set_defaults(handler=_cmd_scenario)
    sp = ssub.add_parser("symmetric-blaschke")
    sp.add_argument("--N", type=int, default=40)
    sp.add_argument("--rho-max", type=_positive_float, default=18.0)
    common(sp)
    sp.set_defaults(handler=_cmd_scenario)
    sp = ssub.add_parser("blaschke-quotient")
    sp.add_argument("--n-max", type=int, default=40)
    common(sp)
    sp.set_defaults(handler=_cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    try:
        return ns.handler(ns)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        source = getattr(exc, "source_text", None)
        if source is not None and exc.position <= len(source):
            sys.stderr.write(source + "\n" + " " * exc.position + "^\n")
        return 3
    except TagMismatchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except PrecisionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write(f"best estimate: {exc.estimate!r}\n")
        return 1
    except (ValueError, ConstructionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except ArclabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
