import math
import random

import pytest

from arclab.errors import ParseError, StructureError, TagMismatchError
from arclab.funcspec import parse, parse_complex, unparse
from arclab.maps import (
    BlaschkeDisc,
    BlaschkeHalfPlane,
    Compose,
    ConstMap,
    ExpMap,
    Identity,
    Koebe,
    LogMap,
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


class TestParseExamples:
    def test_bare_koebe(self):
        f = parse("koebe()")
        assert f == Koebe()
        assert f.domain is MetricId.HYPERBOLIC_DISC

    def test_scaled_koebe(self):
        f = parse("scale(0.5+0i) . koebe()")
        assert f == Compose(Scale(0.5 + 0j), Koebe())

    def test_shifted_blaschke_quotient(self):
        src = (
            "blaschke_hp([1,4,9,16]) . shift(1+0i)"
            " / blaschke_hp([1,4,9,16]) . shift(-1+0i)"
        )
        f = parse(src)
        b = BlaschkeHalfPlane((1.0, 4.0, 9.0, 16.0))
        assert f == Quotient(
            Compose(b, Shift(1 + 0j)), Compose(b, Shift(-1 + 0j))
        )

    def test_all_leaf_names(self):
        assert parse("z()") == Identity()
        assert parse("const(2-1i)") == ConstMap(2 - 1j)
        assert parse("shift(0.25+0i)") == Shift(0.25 + 0j)
        assert parse("exp()") == ExpMap()
        assert parse("cayley()") == cayley_map()
        assert parse("inv_cayley()") == inv_cayley_map()
        assert parse("powerseries([0i, 1+0i, 2+0i])") == PowerSeries(
            (0j, 1 + 0j, 2 + 0j)
        )
        assert parse("blaschke_disc([0.5+0i])") == BlaschkeDisc((0.5 + 0j,))
        assert parse("mobius(1+0i, 0i, 0i, 1+0i)") == MobiusMap(
            MobiusTransform(1 + 0j, 0j, 0j, 1 + 0j)
        )

    def test_blaschke_hp_with_signs(self):
        f = parse("blaschke_hp([1, 2], [1, -1])")
        assert f == BlaschkeHalfPlane((1.0, 2.0), (1.0, -1.0))

    def test_parenthesised_grouping(self):
        f = parse("koebe() . (scale(0.5+0i) * z())")
        assert f == Compose(Koebe(), Product(Scale(0.5 + 0j), Identity()))

    def test_precedence_dot_binds_tighter(self):
        f = parse("koebe() . scale(0.5+0i) * z()")
        assert f == Product(Compose(Koebe(), Scale(0.5 + 0j)), Identity())

    def test_left_associative_mul_div(self):
        f = parse("z() * z() / koebe()")
        assert f == Quotient(Product(Identity(), Identity()), Koebe())


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2", 2 + 0j),
            ("-3.5", -3.5 + 0j),
            ("2+3i", 2 + 3j),
            ("3i", 3j),
            ("-2i", -2j),
            ("-1e-2-4i", -0.01 - 4j),
            ("1e-05", 1e-05 + 0j),
            ("0.5e2+0i", 50 + 0j),
            ("1e-400", 0j),
        ],
    )
    def test_forms(self, text, value):
        assert parse_complex(text) == value

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_complex("2+3i extra")

    def test_const_roundtrip_precision(self):
        v = -1.2345678901234567e-05 + 0.9876543210987654j
        f = parse(unparse(ConstMap(v)))
        assert f.value == v


class TestParseErrors:
    def test_unknown_name_at_token_start(self):
        with pytest.raises(ParseError) as e:
            parse("frobnicate()")
        assert e.value.position == 0
        assert "known map name" in str(e.value)

    def test_unknown_name_later_in_source(self):
        with pytest.raises(ParseError) as e:
            parse("koebe() . frobnicate()")
        assert e.value.position == 10

    def test_arity_error_points_at_call(self):
        with pytest.raises(ParseError) as e:
            parse("koebe() . scale()")
        assert e.value.position == 10
        assert "1 argument" in str(e.value)

    def test_too_many_arguments(self):
        with pytest.raises(ParseError) as e:
            parse("scale(0.5+0i, 1+0i)")
        assert e.value.position == 0

    def test_wrong_argument_type(self):
        with pytest.raises(ParseError) as e:
            parse("blaschke_hp(1)")
        assert e.value.position == 0
        assert "list" in str(e.value)

    def test_unfinished_call(self):
        with pytest.raises(ParseError) as e:
            parse("koebe(")
        assert e.value.position == 6
        assert "end of input" in str(e.value)

    def test_empty_input(self):
        with pytest.raises(ParseError) as e:
            parse("")
        assert e.value.position == 0

    def test_trailing_tokens(self):
        with pytest.raises(ParseError) as e:
            parse("koebe() koebe()")
        assert e.value.position == 8

    def test_message_format(self):
        with pytest.raises(ParseError) as e:
            parse("koebe() @")
        assert str(e.value) == "at byte 8: expected a token, found '@'"

    def test_non_ascii_rejected(self):
        with pytest.raises(ParseError):
            parse("köbe()")

    def test_source_size_limit(self):
        huge = "koebe()" + " " * (64 * 1024)
        with pytest.raises(ParseError):
            parse(huge)

    def test_construction_failure_becomes_parse_error(self):
        # a Blaschke zero on the unit circle is rejected at build time and
        # the report still points at the offending call
        with pytest.raises(ParseError) as e:
            parse("blaschke_disc([1+0i])")
        assert e.value.position == 0

    def test_tag_mismatch_names_both_sides(self):
        with pytest.raises(TagMismatchError) as e:
            parse("cayley() . cayley()")
        msg = str(e.value)
        assert "HYPERBOLIC_DISC" in msg and "HYPERBOLIC_HALF_PLANE" in msg


class TestMutationFuzz:
    CORPUS = [
        "koebe()",
        "scale(0.5+0i) . koebe()",
        "blaschke_hp([1,4,9]) . shift(1+0i) / blaschke_hp([1,4,9]) . shift(-1+0i)",
        "powerseries([0i, 1+0i]) * z()",
    ]

    def test_illegal_byte_positions(self):
        for src in self.CORPUS:
            for offset in range(len(src) + 1):
                for bad in "?@#;:&":
                    mutated = src[:offset] + bad + src[offset:]
                    with pytest.raises(ParseError) as e:
                        parse(mutated)
                    assert e.value.position == offset, mutated

    def test_letter_insertion_points_at_token(self):
        # inserting a letter inside a name yields an unknown name whose
        # error points at the start of that token
        src = "scale(0.5+0i) . koebe()"
        mutated = src[:2] + "q" + src[2:]  # "scqale(...)"
        with pytest.raises(ParseError) as e:
            parse(mutated)
        assert e.value.position == 0
        mutated = src[:18] + "q" + src[18:]  # koebe -> koqebe
        with pytest.raises(ParseError) as e:
            parse(mutated)
        assert e.value.position == 16


class TestUnparse:
    def test_leaf_examples(self):
        assert unparse(Koebe()) == "koebe()"
        assert unparse(Compose(Scale(2), Identity())) == "scale(2+0i) . z()"

    def test_cayley_nodes_render_by_name(self):
        assert unparse(cayley_map()) == "cayley()"
        assert unparse(inv_cayley_map()) == "inv_cayley()"

    def test_mixed_precedence_needs_no_parens(self):
        f = Quotient(Product(Koebe(), Identity()), Compose(Koebe(), Scale(0.5)))
        assert unparse(f) == "koebe() * z() / koebe() . scale(0.5+0i)"

    def test_right_nested_quotient_parenthesised(self):
        f = Quotient(Koebe(), Quotient(Identity(), Koebe()))
        text = unparse(f)
        assert parse(text) == f
        assert "(" in text.replace("()", "")

    def test_log_map_renders_by_name(self):
        assert unparse(LogMap()) == "log()"
        assert parse("log()") == LogMap()

    def test_tagged_custom_mobius_not_representable(self):
        f = MobiusMap(
            MobiusTransform(2, 0, 0, 1),
            domain=MetricId.HYPERBOLIC_HALF_PLANE,
            codomain=MetricId.HYPERBOLIC_HALF_PLANE,
        )
        with pytest.raises(StructureError):
            unparse(f)

    def test_non_finite_number_rejected(self):
        with pytest.raises(StructureError):
            unparse(ConstMap(complex(math.inf, 0)))


def random_tree(rng: random.Random, depth: int = 0):
    leaves = [
        lambda: Identity(),
        lambda: Koebe(),
        lambda: ExpMap(),
        lambda: LogMap(),
        lambda: ConstMap(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))),
        lambda: Scale(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) or 0.5 + 0j),
        lambda: Shift(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))),
        lambda: PowerSeries(
            tuple(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(rng.randint(1, 4))
            )
        ),
        lambda: BlaschkeDisc(
            tuple(
                rng.uniform(0.1, 0.8)
                * complex(math.cos(a), math.sin(a))
                for a in [rng.uniform(0, 2 * math.pi) for _ in range(rng.randint(1, 3))]
            )
        ),
        lambda: BlaschkeHalfPlane(
            tuple(sorted(rng.uniform(0.5, 20.0) for _ in range(rng.randint(1, 3))))
        ),
        lambda: cayley_map(),
        lambda: inv_cayley_map(),
        lambda: MobiusMap(
            MobiusTransform(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                1 + 0j,
            )
        ),
    ]
    if depth >= 3 or rng.random() < 0.4:
        return rng.choice(leaves)()
    kind = rng.choice(("compose", "product", "quotient"))
    for _ in range(20):
        a = random_tree(rng, depth + 1)
        b = random_tree(rng, depth + 1)
        try:
            if kind == "compose":
                return Compose(a, b)
            if kind == "product":
                return Product(a, b)
            return Quotient(a, b)
        except TagMismatchError:
            continue
    return Koebe()


class TestRoundTrip:
    def test_hundred_random_trees(self):
        rng = random.Random(20260821)
        for k in range(100):
            tree = random_tree(rng)
            text = unparse(tree)
            again = parse(text)
            assert again == tree, f"tree {k}: {text}"

    def test_double_round_trip_is_stable(self):
        rng = random.Random(7)
        for _ in range(20):
            tree = random_tree(rng)
            text = unparse(tree)
            assert unparse(parse(text)) == text
