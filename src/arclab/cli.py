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
import contextlib
import math
import sys

from .errors import (
    ArclabError,
    ConstructionError,
    DataError,
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
from .metrics import MetricId, norm_from_jet
from .nevanlinna import _check_radii, characteristic_curve, fatou_decompose
from .verifier import (
    VerdictReport,
    alpha_growth_check,
    annulus_report,
    check_area_derivative_bound,
    check_spherical_bound,
    check_sqrt_trend,
    check_uniform_char_length_bound,
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
mobius, koebe, exp, log, powerseries, blaschke_disc, blaschke_hp (heights
list, optional signs list), cayley, inv_cayley.

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
        _check_radii(radii)
    except ValueError:
        raise argparse.ArgumentTypeError("radii must be comma-separated numbers")
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return radii


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _output(path):
    """The data sink as a context manager: the file at --output PATH, or
    stdout, which it leaves open.  A file that cannot be opened is a usage
    error."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValueError(f"cannot open --output {path!r}: {exc.strerror}") from exc


def _quad(ns) -> QuadConfig:
    return QuadConfig(abs_tol=ns.abs_tol, rel_tol=ns.rel_tol)


def _norm_or_nan(jet, z, source, target) -> float:
    try:
        return norm_from_jet(jet, z, source, target)
    except ArclabError:
        return math.nan


def _parsed(text: str, parser=parse):
    """parser(text); a ParseError carries the text for the caret display."""
    try:
        return parser(text)
    except ParseError as exc:
        exc.source_text = text
        raise


def _cmd_eval(ns) -> int:
    f = _parsed(ns.func)
    z = _parsed(ns.at, parse_complex)
    jet = evaluate(f, z)
    with _output(ns.output) as out:
        if jet.is_pole:
            print("value INFINITY", file=out)
            print(
                f"chart_derivative {_fmt(jet.derivative.real)} {_fmt(jet.derivative.imag)}",
                file=out,
            )
        else:
            print(f"value {_fmt(jet.value.real)} {_fmt(jet.value.imag)}", file=out)
            print(
                f"derivative {_fmt(jet.derivative.real)} {_fmt(jet.derivative.imag)}", file=out
            )
        # the source metric as deriv_norm takes it
        source = f.domain or MetricId.HYPERBOLIC_DISC
        for m in MetricId:
            print(f"norm_{m.value} {_fmt(_norm_or_nan(jet, z, source, m))}", file=out)
    return 0


def _arc_for(f, rho_max: float, theta: float):
    if f.domain is MetricId.HYPERBOLIC_HALF_PLANE:
        # theta doubles as the real offset of the vertical ray
        return halfplane_arc(rho_max, complex(theta, 0.0))
    return disc_arc(rho_max, theta)


def _cmd_length(ns) -> int:
    f = _parsed(ns.func)
    arc = _arc_for(f, ns.rho_max, ns.theta)
    # the last point is rho_max itself: rho_max * n / n can round above it
    grid = [ns.rho_max * k / ns.samples for k in range(1, ns.samples)] + [ns.rho_max]
    samples = arc_length_profile(f, arc, grid, _TARGETS[ns.target], _quad(ns))
    with _output(ns.output) as out:
        _emit_samples(out, ns, samples)
    return 0


def _cmd_area(ns) -> int:
    f = _parsed(ns.func)
    value, bound = area_with_bound(f, ns.rho, _TARGETS[ns.target], _quad(ns))
    with _output(ns.output) as out:
        if ns.header == "on":
            print("area,error_bound", file=out)
        print(f"{_fmt(value)},{_fmt(bound)}", file=out)
    return 0


def _cmd_nevanlinna(ns) -> int:
    f = _parsed(ns.func)
    curve = characteristic_curve(f, ns.radii, _quad(ns))
    with _output(ns.output) as out:
        if ns.header == "on":
            print("r,S,T", file=out)
        for r, s, t in zip(curve.radii, curve.S_values, curve.T_values):
            print(f"{_fmt(r)},{_fmt(s)},{_fmt(t)}", file=out)
    return 0


def _cmd_decompose(ns) -> int:
    f = _disc_map(ns, ns.func)
    d = fatou_decompose(f, ns.boundary_samples)
    pyth, quot, origin_gap = d.residuals(f)
    with _output(ns.output) as out:
        out.write(d.to_manifest())
        print(f"# pythagoras_residual {_fmt(pyth)}", file=out)
        print(f"# quotient_residual {_fmt(quot)}", file=out)
        print(f"# origin_identity_residual {_fmt(origin_gap)}", file=out)
    return 0


_STATUS_EXIT = {"PASS": 0, "FAIL": 1, "INAPPLICABLE": 2}


def _emit_report(out, report: VerdictReport) -> int:
    print(report.to_line(), file=out)
    for key, value in report.details:
        print(f"# {key} = {value}", file=out)
    return _STATUS_EXIT[report.status]


def _disc_map(ns, text: str):
    f = _parsed(text)
    if f.domain is MetricId.HYPERBOLIC_HALF_PLANE:
        # every check and the decomposition probe points of the disc
        raise ValueError(f"{getattr(ns, 'which', ns.command)} needs a map of the disc, not {text!r}")
    return f


def _cmd_verify(ns) -> int:
    report = ns.check(_disc_map(ns, ns.func), ns)
    with _output(ns.output) as out:
        return _emit_report(out, report)


def _emit_samples(out, ns, samples):
    if ns.header == "on":
        print("rho,length", file=out)
    for s in samples:
        print(f"{_fmt(s.rho)},{_fmt(s.length)}", file=out)


def _cmd_scenario(ns) -> int:
    if ns.which == "annulus":
        samples = scenario_annulus(ns.R, ns.rho_max, _quad(ns))
        report = annulus_report(samples, ns.R)
    elif ns.which == "symmetric-blaschke":
        samples, report = scenario_symmetric_blaschke(ns.N, ns.rho_max, _quad(ns))
    else:  # blaschke-quotient
        samples, report = scenario_blaschke_quotient(ns.n_max, _quad(ns))
    fit = report.fit
    with _output(ns.output) as out:
        _emit_samples(out, ns, samples)
        print(
            f"# fit model={fit.model.value} exponent={_fmt(fit.exponent)} "
            f"constant={_fmt(fit.constant)} residual={_fmt(fit.residual)}",
            file=out,
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

    def common(p, tolerances=True, header=True):
        # only the flags the subcommand's handler reads
        if tolerances:
            p.add_argument("--abs-tol", type=_positive_float, default=1e-9)
            p.add_argument("--rel-tol", type=_positive_float, default=1e-9)
        p.add_argument("--output", default=None, metavar="PATH")
        if header:
            p.add_argument("--header", choices=("on", "off"), default="on")

    p = sub.add_parser("eval", help="value, derivative, and derivative norms at a point")
    p.add_argument("--func", required=True)
    p.add_argument("--at", required=True, metavar="Z")
    common(p, tolerances=False, header=False)
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
    common(p, tolerances=False, header=False)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("verify", help="run one named inequality/trend check")
    vsub = p.add_subparsers(dest="which", required=True)

    def vcmd(
        name, check, default_func, description, map_flag="--func", tolerances=True,
        **extra,
    ):
        """Declare one check: check(f, ns) -> VerdictReport runs it on the
        disc map given by map_flag (default_func when omitted)."""
        vp = vsub.add_parser(name, description=description)
        vp.add_argument(
            map_flag, dest="func", default=default_func, metavar=map_flag[2:].upper()
        )
        for flag, kwargs in extra.items():
            vp.add_argument(flag, **kwargs)
        common(vp, tolerances=tolerances, header=False)
        vp.set_defaults(handler=_cmd_verify, check=check)

    vcmd(
        "prop21",
        lambda f, ns: check_area_derivative_bound(f, MetricId.EUCLIDEAN, config=_quad(ns)),
        "z()",
        "Euclidean area-derivative bound: 4 pi ||f'(z)||^2 at most the area of f(D) "
        "on a disc grid. INAPPLICABLE when the area diverges or does not resolve.",
    )
    vcmd(
        "prop22",
        lambda f, ns: check_area_derivative_bound(
            f, MetricId.HYPERBOLIC_DISC, config=_quad(ns)
        ),
        "scale(0.5+0i)",
        "Hyperbolic area-derivative bound for a self-map of the disc, on a disc grid. "
        "INAPPLICABLE when the hyperbolic area diverges or does not resolve.",
    )
    vcmd(
        "prop23",
        lambda f, ns: check_spherical_bound(f, config=_quad(ns)),
        "scale(0.25+0i)",
        "Spherical derivative norm over sqrt(A_S), stable under grid refinement, "
        "for a spherical image area A_S below 2 pi. INAPPLICABLE otherwise.",
    )
    vcmd(
        "keogh",
        lambda f, ns: check_sqrt_trend(
            f, MetricId.EUCLIDEAN, (7.0, 14.0, 21.0, 28.0, 35.0),
            require_halving=True, config=_quad(ns),
        ),
        "koebe() . scale(0.9+0i)",
        "Euclidean L(rho)/sqrt(rho) strictly decreasing on rho = "
        "7, 14, 21, 28, 35 and below half its first value at the end. L never "
        "decreases, so halving needs a last rho above 4 times the first.",
    )
    vcmd(
        "thm32",
        lambda f, ns: check_sqrt_trend(f, MetricId.HYPERBOLIC_DISC, config=_quad(ns)),
        "scale(0.9+0i)",
        "Hyperbolic L(rho)/sqrt(rho) strictly decreasing on rho = 4, 6, 8, 10, 12, "
        "for a self-map of the disc.",
    )
    vcmd(
        "thm33",
        lambda f, ns: check_sqrt_trend(f, MetricId.SPHERICAL, config=_quad(ns)),
        "scale(0.9+0i)",
        "Spherical L(rho)/sqrt(rho) strictly decreasing on rho = 4, 6, 8, 10, 12.",
    )
    vcmd(
        "thm43",
        lambda f0, ns: check_uniform_char_length_bound(
            f0, _disc_map(ns, ns.finf), ns.delta, config=_quad(ns)
        ),
        "const(0.5+0i) * blaschke_disc([0.5+0i])",
        "Spherical derivative and length bounds 2/m and (2/delta) rho for "
        "f0/finf where m = sqrt(|f0|^2 + |finf|^2) lies in [delta, 1]. "
        "INAPPLICABLE when m leaves [delta, 1] on the disc grid.",
        map_flag="--f0",
        **{
            "--finf": dict(default="const(0.5+0i)"),
            "--delta": dict(type=_positive_float, default=0.35),
        },
    )
    vcmd(
        "alpha",
        # alpha_growth_check picks its own area tolerances
        lambda f, ns: alpha_growth_check(f, ns.alpha, ns.delta),
        "koebe() . scale(0.9+0i)",
        "Tail of the area integral weighted by 1/(t - delta)^alpha: convergent, in "
        "closed form, when the whole-disc image area is finite; then L(rho)/rho^(alpha/2) "
        "decreasing on rho = 8, 10, 12. INAPPLICABLE when that area diverges or does "
        "not resolve.",
        tolerances=False,
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
