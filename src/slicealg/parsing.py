"""Element and polynomial parsing, plus canonical formatting.

Element literals: `term (("+"|"-") term)*` with term = `[rational][*]basisname`
or a bare rational; rational = `int("/"int)?`, or a decimal in float mode.
Polynomial expressions add `x`, `^` powers, parentheses and `*` for the slice
product.  Since the stem variable is central, every `*` can be read as the
slice product; juxtaposition of a rational and a basis name also multiplies.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .algebra import EXACT, FLOAT, AlgebraSpec, Element
from .slicefn import SliceFunction, constant, poly, slice_product, x_poly


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = _re.compile(r"""
    (?P<num>\d+(\.\d*)?(/\d+)?)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<op>[-+*^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", _re.VERBOSE)


def _tokenize(text, float_mode):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        val = m.group()
        if kind == "num":
            if "." in val:
                if not float_mode:
                    raise ParseError("decimal literals need float mode", m.start())
                if "/" in val:
                    raise ParseError("a decimal literal takes no denominator", m.start())
                tokens.append(("num", float(val), m.start()))
            elif "/" in val:
                a, b = val.split("/")
                if int(b) == 0:
                    raise ParseError("zero denominator", m.start())
                tokens.append(("num", Fraction(int(a), int(b)), m.start()))
            else:
                tokens.append(("num", Fraction(int(val)), m.start()))
        elif kind == "name":
            tokens.append(("name", val, m.start()))
        else:
            tokens.append((val, val, m.start()))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over expr := term (('+'|'-') term)*,
    term := factor (('*' | juxtaposition) factor)*,
    factor := 'x' ('^' uint)? | '(' expr ')' | rational | basisname."""

    def __init__(self, tokens, spec, allow_x, mode):
        self.tokens = tokens
        self.pos = 0
        self.spec = spec
        self.allow_x = allow_x
        self.mode = mode

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        out = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return out

    def expr(self):
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = -acc
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            t = self.term()
            acc = acc - t if op == "-" else acc + t
        return acc

    def term(self):
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok[0] == "*":
                self.next()
                acc = slice_product(acc, self.factor())
            elif tok[0] in ("num", "name", "(") or (tok[0] == "name"):
                acc = slice_product(acc, self.factor())
            else:
                return acc

    def factor(self):
        tok = self.next()
        if tok[0] == "num":
            return poly(self.spec, [self.spec.from_scalar(tok[1], self.mode)], self.mode)
        if tok[0] == "name":
            if tok[1] == "x":
                if not self.allow_x:
                    raise ParseError("the variable x is not allowed in an "
                                     "element literal", tok[2])
                p = x_poly(self.spec, self.mode)
                if self.peek()[0] == "^":
                    self.next()
                    e = self.expect("num")
                    n = e[1]
                    if isinstance(n, Fraction) and n.denominator == 1 and n >= 0:
                        n = int(n)
                    else:
                        raise ParseError("exponent must be a non-negative integer", e[2])
                    out = poly(self.spec, [self.spec.one(self.mode)], self.mode)
                    for _ in range(n):
                        out = slice_product(out, p)
                    return out
                return p
            try:
                idx = self.spec.basis_index(tok[1])
            except Exception:
                raise ParseError(f"unknown basis name {tok[1]!r}", tok[2]) from None
            return constant(self.spec.basis_element(idx, self.mode))
        if tok[0] == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse_poly(text: str, spec: AlgebraSpec, mode=EXACT) -> SliceFunction:
    """Parse a polynomial expression into a fully expanded PolyStem."""
    tokens = _tokenize(text, mode == FLOAT)
    return _Parser(tokens, spec, allow_x=True, mode=mode).parse()


def parse_element(text: str, spec: AlgebraSpec, mode=EXACT) -> Element:
    """Parse an element literal."""
    f = _Parser(_tokenize(text, mode == FLOAT), spec, allow_x=False, mode=mode).parse()
    coeffs = f.stem.coeffs
    if len(coeffs) > 1:
        raise ParseError("element literal contains the variable x", 0)
    if not coeffs:
        return spec.zero(mode)
    return coeffs[0]


# -- formatting ----------------------------------------------------------------


def format_scalar(c) -> str:
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    if isinstance(c, int):
        return str(c)
    return repr(float(c))


def format_element(x: Element) -> str:
    parts = []
    for i, c in enumerate(x.coeffs):
        if c == 0:
            continue
        name = x.algebra.basis_names[i]
        if i == 0:
            parts.append(format_scalar(c))
            continue
        if c == 1:
            term = name
        elif c == -1:
            term = f"-{name}"
        else:
            term = f"{format_scalar(c)}*{name}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def format_poly(f: SliceFunction) -> str:
    coeffs = f.stem.coeffs
    if not coeffs:
        return "0"
    parts = []
    for m, a in enumerate(coeffs):
        if a.is_zero():
            continue
        astr = format_element(a)
        if m == 0:
            parts.append(astr)
            continue
        xs = "x" if m == 1 else f"x^{m}"
        if astr == "1":
            parts.append(xs)
        elif astr == "-1":
            parts.append(f"-{xs}")
        elif "+" in astr or (astr.count("-") - astr.startswith("-")) > 0:
            parts.append(f"{xs}*({astr})")
        else:
            parts.append(f"{xs}*{astr}" if not astr.startswith("-")
                         else f"-{xs}*{astr[1:]}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out
