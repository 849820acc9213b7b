"""Parser for the polynomial string grammar used by the CLI and tests.

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' posint)*
    atom   := coefficient | variable | '(' expr ')'
    coefficient := integer ['/' posint] | 'al'

Whitespace is insignificant.  Variables must match the declared names;
'al' denotes the adjoined square root in a quadratic extension and is
reserved.  Fractions over a prime field mean a * b^-1 mod p.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAUnit, ParseError
from .poly import Poly
from .rings import GroundScalar, PrimeField, QuadExt, Rationals, RingDescriptor

_OPS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: RingDescriptor, names: list[str]):
        self.ring = ring
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    # -- coefficient construction -------------------------------------------

    def _fraction_scalar(self, num: int, den: int, at: int) -> GroundScalar:
        ring = self.ring
        base = ring.base if isinstance(ring, QuadExt) else ring
        if isinstance(base, Rationals):
            val = Fraction(num, den)
        elif isinstance(base, PrimeField):
            try:
                val = base._mul(base._from_int(num), base._inv(base._from_int(den)))
            except NotAUnit:
                raise ParseError(f"denominator {den} is zero in F_{base.p}", at) from None
        else:  # pragma: no cover - descriptor kinds are closed
            raise ParseError("unsupported ring", at)
        if isinstance(ring, QuadExt):
            return ring.scalar((val, base._from_int(0)))
        return ring.scalar(val)

    def _al_scalar(self, at: int) -> GroundScalar:
        if not isinstance(self.ring, QuadExt):
            raise ParseError("'al' is only defined over a quadratic extension", at)
        base = self.ring.base
        return self.ring.scalar((base._from_int(0), base._from_int(1)))

    # -- grammar -------------------------------------------------------------

    def parse_expr(self) -> Poly:
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        acc = self.parse_term()
        if negate:
            acc = -acc
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_term(self) -> Poly:
        acc = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self) -> Poly:
        base = self.parse_atom()
        while self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            exp = int(tok[1])
            if exp < 1:
                raise ParseError("exponent must be positive", tok[2])
            base = base ** exp
        return base

    def parse_atom(self) -> Poly:
        kind, text, at = self.peek()
        nvars = len(self.names)
        if kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "int":
            self.advance()
            num = int(text)
            den = 1
            if self.peek()[0] == "/":
                self.advance()
                dtok = self.expect("int")
                den = int(dtok[1])
                if den < 1:
                    raise ParseError("denominator must be positive", dtok[2])
            return Poly.constant(self.ring, nvars, self._fraction_scalar(num, den, at))
        if kind == "name":
            self.advance()
            if text == "al":
                return Poly.constant(self.ring, nvars, self._al_scalar(at))
            if text in self.index:
                return Poly.variable(self.ring, nvars, self.index[text])
            raise ParseError(f"unknown variable {text!r}", at)
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", at)


def parse_poly(text: str, ring: RingDescriptor, names) -> Poly:
    """Parse a polynomial string over the given ring and variable names."""
    if not isinstance(text, str):
        raise ParseError(f"expected a polynomial string, got {type(text).__name__}")
    parser = _Parser(text, ring, list(names))
    poly = parser.parse_expr()
    end = parser.peek()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2])
    return poly


def parse_scalar(text: str, ring: RingDescriptor) -> GroundScalar:
    """Parse a constant over the given ring using the polynomial grammar."""
    poly = parse_poly(text, ring, [])
    return poly.constant_value()


def parse_vector(text: str, ring: RingDescriptor, names) -> list[Poly]:
    """Parse a comma-separated list of polynomial strings."""
    parts = text.split(",")
    return [parse_poly(part, ring, names) for part in parts]
