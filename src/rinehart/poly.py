"""Exact multivariate polynomial arithmetic and principal-ideal quotients.

Monomials are dense exponent tuples ordered by graded reverse lexicographic
order with the first variable largest.  A polynomial is a tuple of
(monomial, coefficient) terms kept strictly descending with no zero
coefficients, which makes equality and hashing structural.

Normal forms modulo a principal ideal (f) are remainders of multivariate
division by f.  A single generator is a Groebner basis of the ideal it
generates, so the remainder is a canonical representative of the residue
class and ideal membership is "remainder is zero".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ArityMismatch, IdealMismatch, NotAUnit, RingMismatch
from .rings import GroundScalar, RingDescriptor

Mono = tuple  # dense exponent vector


# ---------------------------------------------------------------------------
# monomial helpers


def grevlex_key(mono: Mono):
    """Sort key realizing grevlex: compare by total degree, then by the
    rightmost difference being negative (encoded by negated reversal)."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_quo(b: Mono, a: Mono) -> Mono:
    return tuple(y - x for x, y in zip(a, b))


@dataclass(frozen=True)
class Poly:
    """A multivariate polynomial over a ground ring."""

    ring: RingDescriptor
    nvars: int
    terms: tuple  # ((mono, GroundScalar), ...) strictly descending in grevlex

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_dict(ring: RingDescriptor, nvars: int, coeffs: dict) -> "Poly":
        items = [(m, c) for m, c in coeffs.items() if not c.is_zero()]
        items.sort(key=lambda t: grevlex_key(t[0]), reverse=True)
        return Poly(ring, nvars, tuple(items))

    @staticmethod
    def zero(ring: RingDescriptor, nvars: int) -> "Poly":
        return Poly(ring, nvars, ())

    @staticmethod
    def constant(ring: RingDescriptor, nvars: int, c: GroundScalar) -> "Poly":
        if c.is_zero():
            return Poly.zero(ring, nvars)
        return Poly(ring, nvars, (((0,) * nvars, c),))

    @staticmethod
    def variable(ring: RingDescriptor, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for {nvars} variables")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(ring, nvars, ((mono, ring.one()),))

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and sum(self.terms[0][0]) == 0)

    def constant_value(self) -> GroundScalar:
        if self.is_zero():
            return self.ring.zero()
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[0][1]

    def total_degree(self) -> int:
        """Total degree, with -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        return max(sum(m) for m, _ in self.terms)

    def leading_term(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def variables(self) -> frozenset:
        """Indices of variables that actually occur."""
        used = set()
        for m, _ in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return frozenset(used)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.nvars != other.nvars:
            raise ArityMismatch(f"{self.nvars} vs {other.nvars} variables")

    def _coerce(self, other) -> Optional["Poly"]:
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, int):
            return Poly.constant(self.ring, self.nvars, self.ring.from_int(other))
        if isinstance(other, GroundScalar):
            if other.ring != self.ring:
                raise RingMismatch(f"{other.ring} vs {self.ring}")
            return Poly.constant(self.ring, self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        zero = self.ring.zero()
        for m, c in other.terms:
            acc[m] = acc.get(m, zero) + c
        return Poly.from_dict(self.ring, self.nvars, acc)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, self.nvars, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc: dict = {}
        zero = self.ring.zero()
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                acc[m] = acc.get(m, zero) + c1 * c2
        return Poly.from_dict(self.ring, self.nvars, acc)

    __rmul__ = __mul__

    def scale(self, c: GroundScalar) -> "Poly":
        if c.ring != self.ring:
            raise RingMismatch(f"{c.ring} vs {self.ring}")
        acc = {m: k * c for m, k in self.terms}
        return Poly.from_dict(self.ring, self.nvars, acc)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.constant(self.ring, self.nvars, self.ring.one())
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def diff(self, i: int) -> "Poly":
        """Formal partial derivative with respect to variable i (0-based)."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range for {self.nvars} variables")
        acc: dict = {}
        zero = self.ring.zero()
        for m, c in self.terms:
            e = m[i]
            if e == 0:
                continue
            dm = tuple(x - 1 if j == i else x for j, x in enumerate(m))
            acc[dm] = acc.get(dm, zero) + c * self.ring.from_int(e)
        return Poly.from_dict(self.ring, self.nvars, acc)


def divmod_poly(g: Poly, f: Poly) -> tuple[Poly, Poly]:
    """Divide g by a single f with invertible leading coefficient.

    Returns (q, r) with g = q*f + r and no term of r divisible by the
    leading monomial of f; r is the canonical normal form of g mod (f).
    """
    g._check(f)
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lm, lc = f.leading_term()
    lc_inv = lc.inverse()
    tail = f.terms[1:]
    work = dict(g.terms)
    quo: dict = {}
    rem: dict = {}
    zero = g.ring.zero()
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        if mono_divides(lm, m):
            t = mono_quo(m, lm)
            factor = c * lc_inv
            quo[t] = quo.get(t, zero) + factor
            for fm, fc in tail:
                mm = mono_mul(t, fm)
                nc = work.get(mm, zero) - factor * fc
                if nc.is_zero():
                    work.pop(mm, None)
                else:
                    work[mm] = nc
        else:
            rem[m] = c
    return (Poly.from_dict(g.ring, g.nvars, quo), Poly.from_dict(g.ring, g.nvars, rem))


def divide_exact(g: Poly, f: Poly) -> Optional[Poly]:
    """Return g / f when the division is exact, else None."""
    q, r = divmod_poly(g, f)
    return q if r.is_zero() else None


@dataclass(frozen=True)
class PrincipalIdeal:
    """The ideal (f) of a nonconstant generator with unit leading coefficient.

    The stored generator is made monic, so equal ideals given by associate
    generators compare equal and produce identical normal forms.
    """

    generator: Poly

    @staticmethod
    def of(f: Poly) -> "PrincipalIdeal":
        if f.is_zero() or f.is_constant():
            raise ValueError("ideal generator must be nonconstant")
        _, lc = f.leading_term()
        if not lc.is_unit():
            raise NotAUnit("ideal generator needs a unit leading coefficient")
        return PrincipalIdeal(f.scale(lc.inverse()))

    @property
    def ring(self) -> RingDescriptor:
        return self.generator.ring

    @property
    def nvars(self) -> int:
        return self.generator.nvars


def normal_form(g: Poly, ideal: Optional[PrincipalIdeal]) -> Poly:
    if ideal is None:
        return g
    _, r = divmod_poly(g, ideal.generator)
    return r


def ideal_member(g: Poly, ideal: PrincipalIdeal) -> bool:
    return normal_form(g, ideal).is_zero()


@dataclass(frozen=True)
class QuotientElem:
    """An element of K[x1..xn] or of its quotient by a principal ideal.

    The representative is always fully reduced, so equality of classes is
    equality of representatives.
    """

    rep: Poly
    ideal: Optional[PrincipalIdeal]

    def __post_init__(self):
        if self.ideal is None:
            return
        if self.rep.ring != self.ideal.ring or self.rep.nvars != self.ideal.nvars:
            raise IdealMismatch("polynomial and ideal live in different rings")
        lm = self.ideal.generator.leading_term()[0]
        # cheap scan keeps construction of already reduced reps division-free
        if any(mono_divides(lm, e) for e, _ in self.rep.terms):
            object.__setattr__(self, "rep", normal_form(self.rep, self.ideal))

    # -- inspection ---------------------------------------------------------

    @property
    def ring(self) -> RingDescriptor:
        return self.rep.ring

    @property
    def nvars(self) -> int:
        return self.rep.nvars

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def is_constant(self) -> bool:
        return self.rep.is_constant()

    def constant_value(self) -> GroundScalar:
        return self.rep.constant_value()

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuotientElem):
            if self.ideal != other.ideal:
                raise IdealMismatch("elements of different quotient rings")
            if self.ring != other.ring or self.nvars != other.nvars:
                raise IdealMismatch("elements of different polynomial rings")
            return other
        if isinstance(other, int):
            return QuotientElem(
                Poly.constant(self.ring, self.nvars, self.ring.from_int(other)), self.ideal)
        if isinstance(other, GroundScalar):
            if other.ring != self.ring:
                raise RingMismatch(f"{other.ring} vs {self.ring}")
            return QuotientElem(Poly.constant(self.ring, self.nvars, other), self.ideal)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # sums of reduced representatives are reduced: no new monomials appear
        return QuotientElem(self.rep + other.rep, self.ideal)

    __radd__ = __add__

    def __neg__(self):
        return QuotientElem(-self.rep, self.ideal)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return QuotientElem(self.rep * coerced.rep, self.ideal)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a quotient element")
        out = self._coerce(1)
        base = self
        for _ in range(k):
            out = out * base
        return out


class UnitStatus(enum.Enum):
    UNIT = "unit"
    NON_UNIT = "non-unit"
    UNKNOWN = "unknown"


def _euclid_inverse(a: Poly, f: Poly) -> tuple[UnitStatus, Optional[Poly]]:
    """Extended Euclid for univariate a modulo univariate f over a field."""
    r0, r1 = f, a
    s0 = Poly.zero(f.ring, f.nvars)
    s1 = Poly.constant(f.ring, f.nvars, f.ring.one())
    while not r1.is_zero():
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    # r0 = gcd(a, f) = s0*a + t*f for some t
    if r0.is_constant() and r0.constant_value().is_unit():
        inv = s0.scale(r0.constant_value().inverse())
        _, inv = divmod_poly(inv, f)
        return UnitStatus.UNIT, inv
    return UnitStatus.NON_UNIT, None


def unit_status(a: QuotientElem) -> tuple[UnitStatus, Optional[QuotientElem]]:
    """Decide invertibility of a, returning (status, inverse or None).

    Decided cases: zero and nonzero constants everywhere; nonconstant
    elements of the plain polynomial ring over a nilpotent-free coefficient
    ring (never units); and, modulo (f), elements sharing a single variable
    with a univariate f over a field, via the extended Euclidean algorithm.
    A univariate squarefree f over a field also settles nonconstant elements
    in disjoint variables.  Everything else is UNKNOWN.
    """
    rep = a.rep
    ring = a.ring
    if rep.is_zero():
        return UnitStatus.NON_UNIT, None
    if rep.is_constant():
        c = rep.constant_value()
        if c.is_unit():
            inv = QuotientElem(
                Poly.constant(ring, a.nvars, c.inverse()), a.ideal)
            return UnitStatus.UNIT, inv
        return UnitStatus.NON_UNIT, None
    if a.ideal is None:
        # units of K[x1..xn] are the units of K when K has no nilpotents
        if not ring.has_nilpotents():
            return UnitStatus.NON_UNIT, None
        return UnitStatus.UNKNOWN, None
    if not ring.is_field():
        return UnitStatus.UNKNOWN, None
    f = a.ideal.generator
    fvars = f.variables()
    avars = rep.variables()
    if len(fvars) == 1 and avars <= fvars:
        try:
            status, inv = _euclid_inverse(rep, f)
        except NotAUnit:
            return UnitStatus.UNKNOWN, None
        if status is UnitStatus.UNIT:
            return UnitStatus.UNIT, QuotientElem(inv, a.ideal)
        return UnitStatus.NON_UNIT, None
    if len(fvars) == 1 and not (avars & fvars):
        # K[x]/(f) is reduced for squarefree f, so nonconstant elements in
        # the remaining variables cannot be units
        v = next(iter(fvars))
        gcd_status, _ = _euclid_inverse(f.diff(v), f)
        if gcd_status is UnitStatus.UNIT:
            return UnitStatus.NON_UNIT, None
        return UnitStatus.UNKNOWN, None
    return UnitStatus.UNKNOWN, None


def quotient_is_unit(a: QuotientElem) -> UnitStatus:
    status, _ = unit_status(a)
    return status


def try_invert(a: QuotientElem) -> Optional[QuotientElem]:
    status, inv = unit_status(a)
    return inv if status is UnitStatus.UNIT else None


# ---------------------------------------------------------------------------
# formatting


def _fmt_coeff(c: GroundScalar) -> tuple[str, bool]:
    """Render a coefficient, reporting whether it needs parentheses."""
    s = str(c)
    return s, ("+" in s[1:] or "-" in s[1:])


def format_poly(p: Poly, names: Iterable[str] | None = None) -> str:
    """Canonical string form; re-parses to an equal polynomial."""
    if p.is_zero():
        return "0"
    if names is None:
        names = [f"x{i + 1}" for i in range(p.nvars)]
    else:
        names = list(names)
    parts: list[str] = []
    for m, c in p.terms:
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        cs, needs_paren = _fmt_coeff(c)
        sign = ""
        if not needs_paren and cs.startswith("-"):
            sign = "-"
            cs = cs[1:]
        if needs_paren:
            cs = f"({cs})"
        if factors and cs == "1":
            body = "*".join(factors)
        elif factors:
            body = cs + "*" + "*".join(factors)
        else:
            body = cs
        if not parts:
            parts.append(sign + body)
        elif sign == "-":
            parts.append(f" - {body}")
        else:
            parts.append(f" + {body}")
    return "".join(parts)
