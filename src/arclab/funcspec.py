"""Textual map expressions.

Grammar (documented verbatim in the CLI help):

    expr    := term { ('*' | '/') term }
    term    := atom { '.' atom }          -- '.' is composition: f . g is f o g
    atom    := call | '(' expr ')'
    call    := NAME '(' [args] ')'
    args    := value {',' value}
    value   := complex | list | expr
    complex := REAL [('+'|'-') REAL 'i'] | REAL 'i'
    list    := '[' [value {',' value}] ']'

Composition binds tighter than '*' and '/', both levels associate left.
REAL is an optionally signed decimal with optional exponent.  NAMEs:
z, const, scale, shift, mobius, koebe, exp, log, powerseries,
blaschke_disc, blaschke_hp, cayley, inv_cayley.

Every syntax problem raises ParseError carrying the byte offset of the
first offending byte (or of the start of its token); composing maps whose
inferred tags clash raises the same typed error as building the tree by
hand.  unparse renders a tree back to text such that parsing the result
reproduces the tree structurally.
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple, dataclass, fields

from .errors import ConstructionError, ParseError, StructureError
from .maps import (
    BlaschkeDisc,
    BlaschkeHalfPlane,
    Compose,
    ConstMap,
    ExpMap,
    Identity,
    Koebe,
    LogMap,
    MapExpr,
    MobiusMap,
    PowerSeries,
    Product,
    Quotient,
    Scale,
    Shift,
    cayley_map,
    inv_cayley_map,
)
from .metrics import MobiusTransform

MAX_SOURCE_BYTES = 64 * 1024

_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PUNCT = "()[],*/.+-"


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER, NAME, PUNCT, EOF
    text: str
    pos: int


def _describe(tok: Token) -> str:
    if tok.kind == "EOF":
        return "end of input"
    return f"'{tok.text}'"


def _tokenize(src: str):
    if len(src) > MAX_SOURCE_BYTES:
        raise ParseError(MAX_SOURCE_BYTES, "at most 65536 bytes", "a longer source")
    toks = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ord(ch) > 127:
            raise ParseError(i, "an ASCII character", repr(ch))
        if ch in " \t\r\n":
            i += 1
            continue
        m = _NUMBER.match(src, i)
        if m:
            toks.append(Token("NUMBER", m.group(), i))
            i = m.end()
            continue
        m = _NAME.match(src, i)
        if m:
            toks.append(Token("NAME", m.group(), i))
            i = m.end()
            continue
        if ch in _PUNCT:
            toks.append(Token("PUNCT", ch, i))
            i += 1
            continue
        raise ParseError(i, "a token", f"'{ch}'")
    toks.append(Token("EOF", "", n))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        raise ParseError(tok.pos, expected, _describe(tok))

    def at_punct(self, chars) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text in chars

    def expect_punct(self, ch) -> Token:
        if not self.at_punct(ch):
            self.fail(f"'{ch}'")
        return self.advance()

    # expr := term { ('*' | '/') term }
    def expr(self) -> MapExpr:
        node = self.term()
        while self.at_punct("*/"):
            op = self.advance().text
            rhs = self.term()
            node = Product(node, rhs) if op == "*" else Quotient(node, rhs)
        return node

    # term := atom { '.' atom }
    def term(self) -> MapExpr:
        node = self.atom()
        while self.at_punct("."):
            self.advance()
            # tag clashes surface here as the typed composition error
            node = Compose(node, self.atom())
        return node

    # atom := call | '(' expr ')'
    def atom(self) -> MapExpr:
        if self.at_punct("("):
            self.advance()
            node = self.expr()
            self.expect_punct(")")
            return node
        if self.peek().kind == "NAME":
            return self.call()
        self.fail("a map call or '('")

    def call(self) -> MapExpr:
        name_tok = self.advance()
        self.expect_punct("(")
        args = []
        if not self.at_punct(")"):
            args.append(self.value())
            while self.at_punct(","):
                self.advance()
                args.append(self.value())
        self.expect_punct(")")
        return _build(name_tok, args)

    # value := complex | list | expr, disjoint by first token
    def value(self):
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == "[":
            return self.list_value()
        if tok.kind == "NUMBER" or (tok.kind == "PUNCT" and tok.text in "+-"):
            return self.complex_value()
        if tok.kind == "NAME" or (tok.kind == "PUNCT" and tok.text == "("):
            return self.expr()
        self.fail("a value")

    def list_value(self):
        self.expect_punct("[")
        items = []
        if not self.at_punct("]"):
            items.append(self.value())
            while self.at_punct(","):
                self.advance()
                items.append(self.value())
        self.expect_punct("]")
        return items

    def real_value(self) -> float:
        """The NUMBER token here as a float, which must be finite."""
        if self.peek().kind != "NUMBER":
            self.fail("a number")
        x = float(self.peek().text)
        if not math.isfinite(x):
            self.fail("a finite number")
        self.advance()
        return x

    def complex_value(self) -> complex:
        sign = 1.0
        if self.at_punct("+-"):
            if self.advance().text == "-":
                sign = -1.0
        first = sign * self.real_value()
        tok = self.peek()
        if tok.kind == "NAME" and tok.text == "i":
            self.advance()
            return complex(0.0, first)
        if self.at_punct("+-"):
            imag_sign = 1.0 if self.advance().text == "+" else -1.0
            second = imag_sign * self.real_value()
            tok = self.peek()
            if not (tok.kind == "NAME" and tok.text == "i"):
                self.fail("'i'")
            self.advance()
            return complex(first, second)
        return complex(first, 0.0)


def _kind_of(value) -> str:
    if isinstance(value, complex):
        return "a number"
    if isinstance(value, list):
        return "a list"
    return "a map expression"


@dataclass(frozen=True)
class _Arg:
    """One constructor argument of a leaf: the ParseError phrases for it
    (item: for each entry of a list), a dataclass whose fields each take
    one call argument (pack), and a predicate on the values that unparse
    leaves out for the constructor default (optional).
    """

    what: str
    item: str = None
    real: bool = False
    pack: type = None
    optional: object = None

    @property
    def width(self) -> int:
        return len(fields(self.pack)) if self.pack else 1

    def read(self, values, pos):
        if self.pack:
            return self.pack(*(self._number(v, pos, self.what) for v in values))
        (value,) = values
        if self.item is None:
            return self._number(value, pos, self.what)
        if not isinstance(value, list):
            raise ParseError(pos, f"a list as {self.what}", _kind_of(value))
        return tuple(self._number(v, pos, self.item) for v in value)

    def _number(self, value, pos, what):
        if not isinstance(value, complex):
            raise ParseError(pos, f"a complex number as {what}", _kind_of(value))
        if self.real and value.imag != 0.0:
            raise ParseError(pos, f"a real number as {what}", "a complex one")
        return value.real if self.real else value

    def show(self, value) -> str:
        text = _real_text if self.real else _complex_text
        if self.pack:
            return ",".join(text(v) for v in astuple(value))
        if self.item is None:
            return text(value)
        return f"[{','.join(text(v) for v in value)}]"


def _unit_signs(signs) -> bool:
    return all(s == 1.0 for s in signs)


# The leaf calls of the grammar: name -> (node class, argument kinds).
# parse builds cls(*arguments) and unparse reads the arguments back from
# the node's leading dataclass fields; cayley and inv_cayley are named
# constants, built by a function.
_LEAVES = {
    "z": (Identity, ()),
    "const": (ConstMap, (_Arg("the constant"),)),
    "scale": (Scale, (_Arg("the factor"),)),
    "shift": (Shift, (_Arg("the offset"),)),
    "mobius": (MobiusMap, (_Arg("a coefficient", pack=MobiusTransform),)),
    "koebe": (Koebe, ()),
    "exp": (ExpMap, ()),
    "log": (LogMap, ()),
    "powerseries": (PowerSeries, (_Arg("the coefficient list", "a coefficient"),)),
    "blaschke_disc": (BlaschkeDisc, (_Arg("the zero list", "a zero"),)),
    "blaschke_hp": (BlaschkeHalfPlane, (
        _Arg("the height list", "a height", real=True),
        _Arg("the sign list", "a sign", real=True, optional=_unit_signs),
    )),
    "cayley": (cayley_map, ()),
    "inv_cayley": (inv_cayley_map, ()),
}
# unparse finds a leaf without arguments by equality, any other by class
_BARE = {name: make() for name, (make, kinds) in _LEAVES.items() if not kinds}
_NAMES = {cls: name for name, (cls, kinds) in _LEAVES.items() if kinds}


def _build(name_tok, args) -> MapExpr:
    name, pos = name_tok.text, name_tok.pos
    if name not in _LEAVES:
        raise ParseError(pos, "a known map name", f"'{name}'")
    make, kinds = _LEAVES[name]
    most = sum(k.width for k in kinds)
    least = most - sum(k.width for k in kinds if k.optional)
    if not least <= len(args) <= most:
        count = f"{least} or {most}" if least < most else f"{most}"
        raise ParseError(pos, f"{count} argument(s) for {name}", f"{len(args)}")
    values = []
    try:
        for kind in kinds:
            if not args:
                break  # optional arguments left out
            values.append(kind.read(args[: kind.width], pos))
            args = args[kind.width :]
        return make(*values)
    except ConstructionError as exc:
        raise ParseError(pos, f"valid arguments for {name}", str(exc)) from exc


def parse(src: str) -> MapExpr:
    """Parse a map expression; raises ParseError with the byte offset of
    the first problem (tag mismatches raise the typed composition error)."""
    parser = _Parser(_tokenize(src))
    node = parser.expr()
    if parser.peek().kind != "EOF":
        parser.fail("end of input")
    return node


def parse_complex(src: str) -> complex:
    """Parse a standalone complex literal, e.g. '0.5-2i'."""
    parser = _Parser(_tokenize(src))
    tok = parser.peek()
    if not (
        tok.kind == "NUMBER" or (tok.kind == "PUNCT" and tok.text in "+-")
    ):
        parser.fail("a complex literal")
    value = parser.complex_value()
    if parser.peek().kind != "EOF":
        parser.fail("end of input")
    return value


def _real_text(x: float) -> str:
    if not math.isfinite(x):
        raise StructureError("cannot render a non-finite number")
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _complex_text(v: complex) -> str:
    re_part = _real_text(v.real)
    im_sign = "-" if (v.imag < 0 or (v.imag == 0 and math.copysign(1, v.imag) < 0)) else "+"
    return f"{re_part}{im_sign}{_real_text(abs(v.imag))}i"


# operator node class -> (symbol, precedence, left field, right field);
# composition binds tighter than '*' and '/'
_OPERATORS = {
    Product: (" * ", 1, "left", "right"),
    Quotient: (" / ", 1, "numerator", "denominator"),
    Compose: (" . ", 2, "outer", "inner"),
}


def _render(f: MapExpr, parent_prec: int, right_side: bool) -> str:
    op = _OPERATORS.get(type(f))
    if op is None:
        return _render_leaf(f)
    symbol, prec, left, right = op
    text = (
        f"{_render(getattr(f, left), prec, False)}{symbol}"
        f"{_render(getattr(f, right), prec, True)}"
    )
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def _render_leaf(f: MapExpr) -> str:
    for name, node in _BARE.items():
        if f == node:
            return f"{name}()"
    name = _NAMES.get(type(f))
    if name is None:
        raise StructureError(f"no textual form for {type(f).__name__}")
    cls, kinds = _LEAVES[name]
    if (f.domain, f.codomain) != (cls.domain, cls.codomain):
        raise StructureError(f"a tagged {name}() node has no textual form")
    shown = []
    for kind, field in zip(kinds, fields(f)):
        value = getattr(f, field.name)
        if not (kind.optional and kind.optional(value)):
            shown.append(kind.show(value))
    return f"{name}({','.join(shown)})"


def unparse(f: MapExpr) -> str:
    """Render a tree so that parse(unparse(f)) is structurally f."""
    return _render(f, 0, False)
