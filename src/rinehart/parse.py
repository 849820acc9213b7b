"""Parser for the polynomial string grammar used by the CLI and tests.

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-'* atom ('^' posint)*
    atom   := coefficient | variable | '(' expr ')'
    coefficient := integer ['/' posint] | 'al'

A minus sign may lead any factor (`x*-y`, `x - -y`); `-x^2` is -(x^2); `x^-1` is refused.
Whitespace is insignificant.  Variables must match the declared names;
'al' denotes the adjoined square root in a quadratic extension and is
reserved.  A quotient a/b over a prime field means a * b^-1 mod p.

Bounds, so that no string can stall the parser, each a ParseError past
it: parentheses nest at most MAX_NESTING deep, integers have at most
MAX_DIGITS digits, powers stay within the kernel's MAX_DEGREE, and no sum
has more than MAX_TERMS terms.  Products and powers are refused before they
are expanded when their term bound passes MAX_TERMS: a product by the
smaller of t_a * t_b and the count C(n + hi, n) - C(n + lo - 1, n) of the
monomials with degree from lo, the sum of the factors' lowest degrees, to
hi = d_a + d_b, and a power by the multinomial bound C(t + k - 1, k).  They are
also refused when a bound on their coefficients has more than MAX_DIGITS
digits: |c| <= min(t_a, t_b) * max|a| * max|b| for a product and
|c| <= (sum |c_i|)^k for a power, where |a + b*al| = |a| + |b|.  Over Q the
bound is taken on the numerators over the polynomial's denominator D (the
lcm of its coefficients' denominators), whose powers bound the
denominators; over F_p coefficients cannot grow.
"""

from __future__ import annotations

import re
from math import comb

from .errors import DegreeOverflow, NotAUnit, ParseError
from .poly import MAX_DEGREE, Poly, _degree
from .rings import GroundScalar, QuadExt, RingDescriptor

_TOKEN = r"(\d+)|([^\W\d]\w*)|[-+*/^()]"
MAX_NESTING = 100
MAX_DIGITS = 1000
MAX_TERMS = 500
_DIGITS_LIMIT = 10 ** MAX_DIGITS


def _too_long(base: int, k: int = 1) -> bool:
    """Whether base**k has more than MAX_DIGITS digits, with no large power formed."""
    return base > 1 and ((base.bit_length() - 1) * k >= _DIGITS_LIMIT.bit_length()
                         or base ** k >= _DIGITS_LIMIT)


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = re.compile(_TOKEN).match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.group(1) and len(m.group(1)) > MAX_DIGITS:
            raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", i)
        kind = "int" if m.group(1) else "name" if m.group(2) else m.group()
        tokens.append((kind, m.group(), i))
        i = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: RingDescriptor, names: list[str]):
        self.ring = ring
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

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
        try:
            return ring.from_int(num) * ring.from_int(den).inverse()
        except NotAUnit:  # den is positive, so only p | den is not a unit
            raise ParseError(f"denominator {den} is zero in F_{ring.characteristic()}",
                             at) from None

    def _al_scalar(self, at: int) -> GroundScalar:
        if not isinstance(self.ring, QuadExt):
            raise ParseError("'al' is only defined over a quadratic extension", at)
        return self.ring.make((0, 1))

    # -- grammar -------------------------------------------------------------

    def _sizes(self, poly: Poly):
        """(sum, max, D) of the coefficient sizes |c| * D, D the common denominator
        `poly.den`, whose numerators they are, or None over F_p."""
        ring = self.ring
        if ring.characteristic():
            return None
        nums = poly.numerators()
        if isinstance(ring, QuadExt):
            sizes = [abs(a) + abs(b) for a, b in nums]
        else:
            sizes = [abs(a) for a in nums]
        return sum(sizes), max(sizes, default=0), poly.den

    @staticmethod
    def _capped(poly: Poly, at: int) -> Poly:
        if len(poly.terms) > MAX_TERMS:
            raise ParseError(f"polynomial has more than {MAX_TERMS} terms", at)
        return poly

    def parse_expr(self) -> Poly:
        acc = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op, _, at = self.advance()
            rhs = self.parse_term()
            acc = self._capped(acc + rhs if op == "+" else acc - rhs, at)
        return acc

    def parse_term(self) -> Poly:
        acc = self.parse_factor()
        while self.peek()[0] == "*":
            at = self.advance()[2]
            rhs = self.parse_factor()
            # a product has at most t_a * t_b terms, and C(n + hi, n) - C(n + lo - 1, n)
            # monomials have a degree from lo, the sum of the lowest degrees (where grevlex
            # term lists end), to hi = d_a + d_b
            n, pairs = len(self.names), len(acc.terms) * len(rhs.terms)
            lo = pairs and _degree(acc.terms[-1][0], n) + _degree(rhs.terms[-1][0], n)
            hi = max(acc.total_degree() + rhs.total_degree(), 0)
            if min(pairs, comb(n + hi, n) - (comb(n + lo - 1, n) if lo else 0)) > MAX_TERMS:
                raise ParseError(f"product could have more than {MAX_TERMS} terms", at)
            sa, sb = self._sizes(acc), self._sizes(rhs)
            if sa and (_too_long(min(len(acc.terms), len(rhs.terms)) * sa[1] * sb[1])
                       or _too_long(sa[2] * sb[2])):
                raise ParseError(f"product could have coefficients of more than {MAX_DIGITS} "
                                 "digits", at)
            acc = acc * rhs
        return acc

    def parse_factor(self) -> Poly:
        negate = False
        while self.peek()[0] == "-":  # a loop, so no run of signs recurses
            self.advance()
            negate = not negate
        base = self.parse_atom()
        while self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            exp = int(tok[1])
            if exp < 1:
                raise ParseError("exponent must be positive", tok[2])
            if exp * max(base.total_degree(), 1) > MAX_DEGREE:
                raise ParseError(f"power exceeds total degree {MAX_DEGREE}", tok[2])
            # t terms raised to the k-th power give at most C(t + k - 1, k) monomials
            if comb(len(base.terms) + exp - 1, exp) > MAX_TERMS:
                raise ParseError(f"power could have more than {MAX_TERMS} terms", tok[2])
            size = self._sizes(base)
            if size and (_too_long(size[0], exp) or _too_long(size[2], exp)):
                raise ParseError(f"power could have coefficients of more than {MAX_DIGITS} "
                                 "digits", tok[2])
            base = base ** exp
        return -base if negate else base

    def parse_atom(self) -> Poly:
        kind, text, at = self.peek()
        nvars = len(self.names)
        if kind == "(":
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", at)
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
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
    try:
        poly = parser.parse_expr()
    except DegreeOverflow as exc:
        raise ParseError(str(exc)) from None
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
