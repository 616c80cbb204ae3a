import math

import pytest

from arclab import cli, geodesics
from arclab.cli import _fmt, main
from arclab.funcspec import parse
from arclab.nevanlinna import fatou_decompose


CHECKS = ("prop21", "prop22", "prop23", "keogh", "thm32", "thm33", "thm43", "alpha")

# settable values that no handler reads are not accepted
REMOVED_FLAGS = (
    *(
        (command, "--func", "z()", *extra, flag, value)
        for command, extra in (("eval", ("--at", "0")), ("decompose", ()))
        for flag, value in (("--header", "off"), ("--abs-tol", "1e-3"), ("--rel-tol", "1e-3"))
    ),
    *(("verify", verb, "--header", "off") for verb in CHECKS if verb != "alpha"),
    *(
        ("verify", "alpha", "--alpha", "2", flag, value)
        for flag, value in (("--header", "off"), ("--abs-tol", "1e-3"), ("--rel-tol", "1e-3"))
    ),
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_koebe_at_origin(self, capsys):
        code, out, _ = run(capsys, "eval", "--func", "koebe()", "--at", "0+0i")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value 0 0"
        assert lines[1] == "derivative 1 0"
        norms = dict(l.split() for l in lines[2:])
        assert float(norms["norm_euclidean"]) == pytest.approx(0.5)
        assert float(norms["norm_spherical"]) == pytest.approx(1.0)

    def test_pole_reports_chart_derivative(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--func",
            "mobius(0i, 1+0i, 1+0i, -0.5+0i)",
            "--at",
            "0.5+0i",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value INFINITY"
        assert lines[1].startswith("chart_derivative ")
        norms = dict(l.split() for l in lines[2:])
        assert float(norms["norm_spherical"]) > 0

    def test_seventeen_digit_format(self, capsys):
        _, out, _ = run(
            capsys, "eval", "--func", "scale(0.1+0i)", "--at", "0.3+0i"
        )
        # 0.3 * 0.1 is not exactly 0.03; all 17 significant digits must show
        assert f"value {0.1 * 0.3:.17g} 0" in out
        assert f"derivative {0.1:.17g} 0" in out


class TestLength:
    def test_csv_shape_and_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "length",
            "--func",
            "z()",
            "--target",
            "H",
            "--rho-max",
            "2",
            "--samples",
            "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rho,length"
        assert len(lines) == 5
        rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
        assert [r[0] for r in rows] == [0.5, 1.0, 1.5, 2.0]
        for rho, length in rows:
            assert length == pytest.approx(rho, rel=1e-9)

    def test_header_off(self, capsys):
        _, out, _ = run(
            capsys,
            "length",
            "--func",
            "z()",
            "--target",
            "E",
            "--rho-max",
            "1",
            "--samples",
            "2",
            "--header",
            "off",
        )
        assert not out.startswith("rho,length")
        assert len(out.splitlines()) == 2

    def test_byte_determinism(self, capsys):
        args = (
            "length",
            "--func",
            "koebe() . scale(0.7+0i)",
            "--target",
            "S",
            "--rho-max",
            "3",
            "--samples",
            "5",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "lengths.csv"
        code, out, _ = run(
            capsys,
            "length",
            "--func",
            "z()",
            "--target",
            "E",
            "--rho-max",
            "1",
            "--samples",
            "2",
            "--output",
            str(path),
        )
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith("rho,length\n")

    def test_half_plane_domain_uses_vertical_arc(self, capsys):
        code, out, _ = run(
            capsys,
            "length",
            "--func",
            "blaschke_hp([1])",
            "--target",
            "S",
            "--rho-max",
            "2",
            "--samples",
            "3",
        )
        assert code == 0
        assert len(out.splitlines()) == 4


def exp_koebe_length(rho):
    """Spherical length of exp(koebe(.)) along [0, rho] of the positive
    radius: the image runs along the real axis from 1 to e^k, k = k(tanh(rho/2))."""
    w = math.tanh(rho / 2)
    return math.pi / 2 - 2 * math.atan(math.exp(-w / (1 - w) ** 2))


@pytest.mark.parametrize("rho_max", ["5", "6"])
def test_exp_past_overflow_has_spherical_length(capsys, rho_max):
    code, out, err = run(
        capsys, "length", "--func", "exp() . koebe()", "--target", "S",
        "--rho-max", rho_max,
    )
    assert (code, err) == (0, "")
    rows = [tuple(map(float, l.split(","))) for l in out.splitlines()[1:]]
    for pieces, (rho, length) in enumerate(rows, start=1):
        exact = exp_koebe_length(rho)
        assert abs(length - exact) <= pieces * 1e-9 * (1 + exact)


def test_exp_past_overflow_rejects_euclidean_target(capsys):
    code, _, err = run(
        capsys, "length", "--func", "exp() . koebe()", "--target", "E",
        "--rho-max", "5",
    )
    assert code == 1
    assert "map has a pole" in err and "target euclidean excludes it" in err


class TestArea:
    def test_identity_euclidean(self, capsys):
        code, out, _ = run(
            capsys, "area", "--func", "z()", "--target", "E", "--rho", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "area,error_bound"
        value, bound = map(float, lines[1].split(","))
        assert value == pytest.approx(math.pi * math.tanh(1.0) ** 2, rel=1e-8)
        assert bound >= 0

    def test_improper_spherical(self, capsys):
        code, out, _ = run(
            capsys, "area", "--func", "koebe()", "--target", "S", "--rho", "inf"
        )
        assert code == 0
        value = float(out.splitlines()[1].split(",")[0])
        assert value == pytest.approx(4 * math.pi, rel=1e-4)

    def test_divergent_improper_exits_one(self, capsys):
        code, out, err = run(
            capsys, "area", "--func", "z()", "--target", "H", "--rho", "inf"
        )
        assert code == 1
        assert "error:" in err


class TestNevanlinna:
    def test_curve_csv(self, capsys):
        code, out, _ = run(
            capsys, "nevanlinna", "--func", "z()", "--radii", "0.25,0.5,0.75"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,S,T"
        assert len(lines) == 4
        r, s, t = map(float, lines[2].split(","))
        assert r == 0.5
        assert s == pytest.approx(0.2, rel=1e-8)
        assert t == pytest.approx(0.11157177565710485, rel=1e-6)

    def test_bad_radii_exit_three(self, capsys):
        code, _, err = run(
            capsys, "nevanlinna", "--func", "z()", "--radii", "0.5,0.2"
        )
        assert code == 3
        assert "error:" in err


class TestDecompose:
    def test_manifest_and_residuals(self, capsys):
        for func, zeros, poles in (
            ("blaschke_disc([0.5+0i])", 1, 0),
            # zeros and poles that lie outside the disc before the pull-back
            ("shift(-2+0i) . scale(4+0i)", 1, 0),
            ("koebe() . shift(0.25+0i)", 1, 2),
            ("blaschke_disc([0.5+0i]) . scale(3+0i)", 1, 1),
        ):
            code, out, _ = run(
                capsys,
                "decompose",
                "--func",
                func,
                "--boundary-samples",
                "512",
            )
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == "boundary_samples: 512"
            assert f"zeros: {zeros}" in lines, func
            assert f"poles: {poles}" in lines, func
            tail = [l for l in lines if l.startswith("#")]
            assert len(tail) == 3
            residuals = {
                l.split()[1]: float(l.split()[2]) for l in tail
            }
            assert residuals["pythagoras_residual"] < 1e-10
            assert residuals["quotient_residual"] < 1e-10, func
            assert residuals["origin_identity_residual"] < 1e-10
            f = parse(func)
            expect = fatou_decompose(f, 512).residuals(f)
            assert [l.split()[2] for l in tail] == [_fmt(r) for r in expect]


class TestVerify:
    def test_sharp_identity_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "prop21", "--func", "z()")
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("area_derivative_bound[euclidean] | PASS | 1.000000")

    def test_default_functions(self, capsys):
        for verb in ("prop21", "prop22", "prop23", "thm32", "thm33"):
            code, out, _ = run(capsys, "verify", verb)
            assert code == 0, (verb, out)

    def test_keogh_half_power_fails_honestly(self, capsys):
        code, out, _ = run(capsys, "verify", "keogh")
        assert code == 1
        assert "| FAIL |" in out.splitlines()[0]

    def test_spherical_hypothesis_violation_exits_two(self, capsys):
        code, out, _ = run(capsys, "verify", "prop23", "--func", "koebe()")
        assert code == 2
        assert "| INAPPLICABLE |" in out.splitlines()[0]

    def test_pair_bound_defaults(self, capsys):
        code, out, _ = run(capsys, "verify", "thm43")
        assert code == 0
        assert out.startswith("quotient_pair_length_bound | PASS |")

    def test_alpha_requires_value(self, capsys):
        code, _, _ = run(capsys, "verify", "alpha")
        assert code == 3

    def test_alpha_convergent_map(self, capsys):
        code, out, _ = run(capsys, "verify", "alpha", "--alpha", "2")
        assert code == 0
        assert "# classification = convergent" in out

    def test_every_check_has_a_description(self, capsys):
        for verb in CHECKS:
            code, out, _ = run(capsys, "verify", verb, "--help")
            assert code == 0
            # argparse puts the description between the usage and the options
            assert not out.split("\n\n")[1].startswith("options:"), verb


class TestScenario:
    @pytest.mark.parametrize(
        "argv, library_call",
        [
            (("annulus", "--rho-max", "25"), "annulus_report"),
            (("symmetric-blaschke", "--N", "24", "--rho-max", "8"),
             "scenario_symmetric_blaschke"),
            (("blaschke-quotient", "--n-max", "12"), "scenario_blaschke_quotient"),
        ],
        ids=("annulus", "symmetric-blaschke", "blaschke-quotient"),
    )
    def test_fit_line_is_the_verdicts_fit(self, capsys, monkeypatch, argv, library_call):
        seen = []
        call = getattr(cli, library_call)

        def record(*args, **kwargs):
            seen.append(call(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(cli, library_call, record)
        _, out, _ = run(capsys, "scenario", *argv)
        (result,) = seen
        fit = (result if library_call == "annulus_report" else result[1]).fit
        fit_lines = [l for l in out.splitlines() if l.startswith("# fit ")]
        assert fit_lines == [
            f"# fit model={fit.model.value} exponent={_fmt(fit.exponent)} "
            f"constant={_fmt(fit.constant)} residual={_fmt(fit.residual)}"
        ]

    def test_annulus_fit_line(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "annulus", "--R", "2.718281828459045",
            "--rho-max", "25",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rho,length"
        fit_lines = [l for l in lines if l.startswith("# fit ")]
        assert len(fit_lines) == 1
        assert "model=PowerLaw" in fit_lines[0]
        verdicts = [l for l in lines if "annulus_linear_growth" in l]
        assert len(verdicts) == 1 and "| PASS |" in verdicts[0]

    def test_symmetric_blaschke_fast(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "symmetric-blaschke", "--N", "24",
            "--rho-max", "8",
        )
        assert code == 0
        assert "symmetric_blaschke_linear_growth | PASS |" in out

    @pytest.mark.parametrize("levels", ["512", "600", "1023"])
    def test_symmetric_blaschke_top_levels(self, capsys, levels):
        # heights up to 2^1023: no factor derivative may overflow
        code, out, err = run(
            capsys, "scenario", "symmetric-blaschke", "--N", levels,
            "--rho-max", "8",
        )
        assert (code, err) == (0, "")
        assert "symmetric_blaschke_linear_growth | PASS |" in out


class TestErrors:
    def test_parse_error_caret(self, capsys):
        code, _, err = run(capsys, "eval", "--func", "koebe() @", "--at", "0+0i")
        assert code == 3
        lines = err.splitlines()
        assert lines[0] == "error: at byte 8: expected a token, found '@'"
        assert lines[1] == "koebe() @"
        assert lines[2] == " " * 8 + "^"

    def test_at_parse_error_caret_against_at_text(self, capsys):
        code, _, err = run(capsys, "eval", "--func", "z()", "--at", "0+0i junk")
        assert code == 3
        lines = err.splitlines()
        assert lines[1] == "0+0i junk"
        assert lines[2].index("^") == 5

    def test_tag_mismatch_exit_three(self, capsys):
        code, _, err = run(
            capsys, "eval", "--func", "cayley() . cayley()", "--at", "0+0i"
        )
        assert code == 3
        assert "cannot compose" in err

    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == 3

    def test_unknown_verb(self, capsys):
        assert run(capsys, "verify", "prop99")[0] == 3

    def test_bad_tolerance_rejected(self, capsys):
        code, _, _ = run(
            capsys, "area", "--func", "z()", "--target", "E", "--rho", "1",
            "--abs-tol", "-1",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            # beyond the disc arc's rho cap of 35
            ("length", "--func", "koebe()", "--rho-max", "100"),
            # beyond the half-plane arc's rho cap of 700
            ("scenario", "symmetric-blaschke", "--rho-max", "800"),
            # 2.0**2000 overflows a double
            pytest.param(
                ("scenario", "symmetric-blaschke", "--N", "2000"),
                id="scenario-symmetric-blaschke-N",
            ),
            # every check probes disc points
            *(
                ("verify", verb, "--func", "blaschke_hp([1,4])")
                for verb in CHECKS
                if verb not in ("thm43", "alpha")
            ),
            ("verify", "alpha", "--alpha", "2", "--func", "blaschke_hp([1,4])"),
            ("verify", "thm43", "--f0", "blaschke_hp([1,4])"),
        ],
        ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("--")),
    )
    def test_bad_input_exits_three_before_quadrature(self, capsys, monkeypatch, argv):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran on a usage error")

        monkeypatch.setattr(geodesics, "adaptive_integrate", no_quadrature)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        REMOVED_FLAGS,
        ids=lambda argv: "-".join([*argv[: 2 if argv[0] == "verify" else 1], argv[-2][2:]]),
    )
    def test_unread_flag_exits_three_before_quadrature(self, capsys, monkeypatch, argv):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran on a usage error")

        monkeypatch.setattr(geodesics, "adaptive_integrate", no_quadrature)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "unrecognized arguments" in err

    def test_bad_samples_rejected(self, capsys):
        code, _, _ = run(
            capsys,
            "length",
            "--func",
            "z()",
            "--target",
            "E",
            "--rho-max",
            "1",
            "--samples",
            "1",
        )
        assert code == 3
