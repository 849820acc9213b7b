"""Exact multivariate polynomial arithmetic and principal-ideal quotients.

A monomial with exponents e = (e_1, ..., e_n) and total degree deg(e) is
packed into one integer key, with field width W = 2**FIELD_BITS:

    key(e) = deg(e) * W**n - (e_1 + e_2 * W + ... + e_n * W**(n-1)).

Keys add under monomial multiplication, and their integer order is graded
reverse lexicographic order with the first variable largest.  The W-adic
digits of deg(e) * W**n - key(e) are the exponents; the top bit of each is
a guard kept clear, so lm divides m exactly when key(lm) - key(m) has no
guard bit set.  Exponents and total degrees thus stay at or below
MAX_DEGREE = W/2 - 1; going past it raises DegreeOverflow.

A polynomial is a tuple of (key, numerator) terms, strictly descending with
no zero numerators, over one positive denominator `den`.  Over Q the
numerators are ints, over Q(i) and Q(j) int pairs, and gcd(den, every
numerator) = 1: the content and primitive-part form of rational
polynomials (Geddes, Czapor and Labahn, Algorithms for Computer Algebra,
1992, ch. 2), so equality and hashing stay structural and every kernel
loop runs on ints.  Each sum weights its operands once to the lcm of their
denominators and divides the result once by gcd(den, numerators).  Over
F_p and its extensions `den` is 1 and the numerators are the residues.
A `GroundScalar` is the same form with no variables, one numerator over its
own denominator, so `constant`, `scale` and `items` move numerators across
unchanged.

Normal forms modulo a principal ideal (f) are remainders of division by f,
which takes each next divisible term from a heap (Johnson, SIGSAM Bull.
1974; Monagan and Pearce, JSC 46, 2011).  The dividend is a raw
{key: numerator} map: only keys divisible by the leading monomial of f
enter the heap, every other key waits in the map, and the map is made
canonical once at the end.  A sum of products reduced modulo (f) divides
its own product accumulator this way, so nothing is sorted or made
canonical before the division.  The divisor is made monic once, in its
record `Poly.division`, with its tail over an integer denominator d; when d
does not divide the next term, the map is multiplied through first
(pseudo-division, Knuth, TAOCP vol. 2, section 4.6.1).  A single generator
is a Groebner basis of its ideal, so the remainder is a canonical
representative of the residue class and ideal membership is "remainder is
zero".  Only a class built from an outside
representative scans it for divisible terms: `+`, `-` and unary `-` of classes
skip the scan, as sums and negations of remainders are remainders, and so do
the products of `quotient_sum`, which `sum_products` has divided already.
"""

from __future__ import annotations

import enum
from functools import cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Optional

from .errors import ArityMismatch, DegreeOverflow, IdealMismatch, NotAUnit, RingMismatch
from .rings import GroundScalar, RingDescriptor, Value, lazy, rsub_by_negation, slot_setters

FIELD_BITS = 8
W = 1 << FIELD_BITS
MAX_DEGREE = W // 2 - 1


def pack(exps: tuple) -> int:
    """The key of an exponent tuple."""
    deg = sum(exps)
    if deg > MAX_DEGREE or min(exps, default=0) < 0:
        raise DegreeOverflow(f"monomial {exps} is outside total degree 0..{MAX_DEGREE}")
    return (deg << FIELD_BITS * len(exps)) - sum(e << FIELD_BITS * i for i, e in enumerate(exps))


def unpack(key: int, nvars: int) -> tuple:
    """The exponent tuple of a key."""
    low = _digits(key, nvars)
    return tuple((low >> (FIELD_BITS * i)) & (W - 1) for i in range(nvars))


def _degree(key: int, nvars: int) -> int:
    return -(-key >> (FIELD_BITS * nvars))


def _digits(key: int, nvars: int) -> int:
    """deg * W**n - key, whose W-adic digits are the exponents."""
    return (_degree(key, nvars) << (FIELD_BITS * nvars)) - key


@cache
def _steps(nvars: int) -> tuple:
    """(exponent digit shift, key of x_i) per variable i: the one place x_i's key is made."""
    return tuple((FIELD_BITS * i, (1 << (FIELD_BITS * nvars)) - (1 << (FIELD_BITS * i)))
                 for i in range(nvars))


def _canonical(ring: RingDescriptor, nvars: int, items, den: int) -> "Poly":
    """A Poly from (key, unreduced numerator) pairs in descending key order over the
    denominator `den`, divided through by gcd(den, numerators)."""
    terms = tuple(ring.nonzero(items))
    if den != 1:
        if not terms:
            den = 1
        elif (g := ring.content(den, [c for _, c in terms])) != 1:
            exquo = ring.exquo
            terms = tuple([(k, exquo(c, g)) for k, c in terms])
            den //= g
    return Poly(ring, nvars, terms, den)


def _times(ring: RingDescriptor, terms, w: int):
    """The terms with every numerator multiplied by the int w."""
    if w == 1:
        return terms
    times = ring.times
    return [(k, times(c, w)) for k, c in terms]


def _checked(ring: RingDescriptor, c: GroundScalar) -> GroundScalar:
    """c, checked to be a scalar of `ring` where scalars enter the kernel."""
    if not isinstance(c, GroundScalar) or c.ring != ring:
        raise RingMismatch(f"{getattr(c, 'ring', type(c).__name__)} vs {ring}")
    return c


def over_common_den(ring: RingDescriptor, scalars) -> tuple:
    """(numerators, den): scalars of `ring` as numerators over the lcm of their
    denominators."""
    den = lcm(*[c.den for c in scalars])
    times = ring.times
    return [times(c.num, den // c.den) for c in scalars], den


class Poly(Value):
    """A multivariate polynomial over a ground ring: numerator terms over `den`."""

    _fields = ("ring", "nvars", "terms", "den")
    __slots__ = _fields + ("__dict__",)  # the dict holds `partials` and `division`

    def __init__(self, ring: RingDescriptor, nvars: int, terms: tuple, den: int = 1):
        _set_ring(self, ring)
        _set_nvars(self, nvars)
        _set_terms(self, terms)  # ((key, numerator), ...) strictly descending
        _set_den(self, den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_dict(ring: RingDescriptor, nvars: int, coeffs: dict) -> "Poly":
        """Build from {exponent tuple: GroundScalar}."""
        if any(len(m) != nvars for m in coeffs):
            raise ArityMismatch(f"exponent tuples must have {nvars} entries")
        nums, den = over_common_den(ring, [_checked(ring, c) for c in coeffs.values()])
        return _canonical(ring, nvars, sorted(zip(map(pack, coeffs), nums), reverse=True), den)

    @staticmethod
    def zero(ring: RingDescriptor, nvars: int) -> "Poly":
        return Poly(ring, nvars, ())

    @staticmethod
    def constant(ring: RingDescriptor, nvars: int, c: GroundScalar) -> "Poly":
        if _checked(ring, c).is_zero():
            return Poly.zero(ring, nvars)
        return Poly(ring, nvars, ((0, c.num),), c.den)

    @staticmethod
    def variable(ring: RingDescriptor, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for {nvars} variables")
        return Poly(ring, nvars, ((_steps(nvars)[i][1], ring._one),))

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 0)

    def is_one(self) -> bool:
        return self.den == 1 and self.terms == ((0, self.ring._one),)

    def numerators(self) -> list:
        """The numerators over `den`, in term order: ints over Q, int pairs over Q(al)."""
        return [c for _, c in self.terms]

    def constant_value(self) -> GroundScalar:
        if self.is_zero():
            return self.ring.zero()
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.ring.make(self.terms[0][1], self.den)

    def total_degree(self) -> int:
        """Total degree, with -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        return _degree(self.terms[0][0], self.nvars)

    def leading_term(self) -> tuple:
        """(exponent tuple, GroundScalar) of the grevlex-largest term."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        k, c = self.terms[0]
        return unpack(k, self.nvars), self.ring.make(c, self.den)

    def items(self):
        """(exponent tuple, GroundScalar) pairs in descending grevlex order."""
        make, nvars, den = self.ring.make, self.nvars, self.den
        return ((unpack(k, nvars), make(c, den)) for k, c in self.terms)

    def variables(self) -> frozenset:
        """Indices of variables that actually occur."""
        low = 0
        for k, _ in self.terms:
            low |= _digits(k, self.nvars)
        return frozenset(i for i in range(self.nvars) if (low >> (FIELD_BITS * i)) & (W - 1))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, *others: "Poly"):
        for other in others:
            if self.ring != other.ring:
                raise RingMismatch(f"{self.ring} vs {other.ring}")
            if self.nvars != other.nvars:
                raise ArityMismatch(f"{self.nvars} vs {other.nvars} variables")

    def _coerce(self, other) -> Optional["Poly"]:
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if isinstance(other, GroundScalar):
            return Poly.constant(self.ring, self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _merge(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _merge(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _merge(other, self, -1)

    def __neg__(self):
        # negation keeps every numerator nonzero and gcd(den, numerators) unchanged
        neg = self.ring.neg
        return Poly(self.ring, self.nvars,
                    tuple(self.ring.nonzero([(k, neg(c)) for k, c in self.terms])), self.den)

    def __mul__(self, other):
        if (other := self._coerce(other)) is None:
            return NotImplemented
        return sum_products(self.ring, self.nvars, ((self, other),))

    __rmul__ = __mul__

    def scale(self, c: GroundScalar) -> "Poly":
        num, mul = _checked(self.ring, c).num, self.ring.mul
        return _canonical(self.ring, self.nvars, [(k, mul(v, num)) for k, v in self.terms],
                          self.den * c.den)

    def __pow__(self, k: int):
        """Square and multiply; QuotientElem shares this loop and reduces each product."""
        if k < 0:
            raise ValueError("negative power")
        out = self._coerce(1)
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
        return self.partials[i]

    @lazy
    def partials(self) -> tuple:
        """All n first partials, taken once per polynomial in one pass: the one place
        derivatives are taken.  Absent variables share one zero Poly.  In characteristic 0
        over den 1 a part is canonical as built (keys keep their order, c * e != 0)."""
        n, ring, at = self.nvars, self.ring, FIELD_BITS * self.nvars
        times, steps, parts = ring.times, _steps(n), [[] for _ in range(n)]
        for k, c in self.terms:
            low = (-(-k >> at) << at) - k  # _digits(k, n); over x_i, a key drops by step
            for (shift, step), part in zip(steps, parts):
                if e := (low >> shift) & (W - 1):
                    part.append((k - step, times(c, e)))
        zero = None if all(parts) else Poly(ring, n, ())
        if self.den == 1 and not ring.characteristic():
            return tuple(Poly(ring, n, tuple(part)) if part else zero for part in parts)
        return tuple(_canonical(ring, n, part, self.den) if part else zero for part in parts)

    @lazy
    def division(self) -> tuple:
        """(leading key, tail, d, guard), the division record of this polynomial as a
        divisor, built once per polynomial: the tail of its monic associate is (key offset,
        -numerator) pairs over the positive int d, so a quotient term c at key m adds
        (c / d) * (-fc) at key m + (fk - lk); guard holds the top bit of each exponent
        digit (see the module docstring)."""
        ring, n = self.ring, self.nvars
        lk, lc = self.terms[0]
        u, d = ring.monic(lc)  # f / lc(f) = f * u / d, whatever den f has
        neg, mul, reduce = ring.neg, ring.mul, ring.reduce
        tail = [(fk - lk, reduce(neg(mul(fc, u)))) for fk, fc in self.terms[1:]]
        if d != 1 and (g := ring.content(d, [c for _, c in tail])) != 1:
            exquo = ring.exquo
            tail = [(k, exquo(c, g)) for k, c in tail]
            d //= g
        return lk, tail, d, (W // 2) * ((1 << (FIELD_BITS * n)) - 1) // (W - 1)


_set_ring, _set_nvars, _set_terms, _set_den = slot_setters(Poly)


def _merge(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign * b for sign = 1 or -1: one merge of the two term lists over the lcm of
    their denominators, the sign folded into the weight of b, made canonical once."""
    if not b.terms:
        return a
    if not a.terms:
        return b if sign == 1 else -b
    ring = a.ring
    den = a.den if a.den == b.den else lcm(a.den, b.den)
    tb = _times(ring, b.terms, sign * (den // b.den))
    acc = dict(_times(ring, a.terms, den // a.den))
    add, get = ring.add, acc.get
    for k, c in tb:
        v = get(k)
        acc[k] = c if v is None else add(v, c)
    return _canonical(ring, a.nvars, sorted(acc.items(), reverse=True), den)


def sum_products(ring: RingDescriptor, nvars: int, pairs: Iterable,
                 ideal: Optional["PrincipalIdeal"] = None) -> Poly:
    """sum a*b over Poly pairs (a, b): every product goes into one raw {key: numerator}
    map over the lcm of the pairs' denominators, each pair weighted once, and the map
    is made canonical once.  Given an ideal, that map is divided by its generator
    first, so the result is the normal form of the sum.  Operands are checked
    against (ring, nvars), by identity first, and the products against MAX_DEGREE once."""
    add, mul = ring.add, ring.mul
    acc: dict = {}
    get = acc.get
    den = 1
    for a, b in pairs:
        if not (a.ring is ring is b.ring and a.nvars == nvars == b.nvars):
            Poly(ring, nvars, ())._check(a, b)
        ta, tb = a.terms, b.terms
        if not ta or not tb:
            continue
        if (d := a.den * b.den) != den:
            if den % d:  # bring the map to lcm(den, d)
                s = d // gcd(den, d)
                _rescale(ring, acc, s)
                den *= s
            if len(ta) <= len(tb):
                ta = _times(ring, ta, den // d)
            else:
                tb = _times(ring, tb, den // d)
        for kb, cb in tb:
            for ka, ca in ta:
                k = ka + kb
                v = get(k)
                acc[k] = mul(ca, cb) if v is None else add(v, mul(ca, cb))
    # the digits of two exponent vectors add without carry, and cancelled keys stay in acc,
    # so a key past this bound is exactly a product past MAX_DEGREE; keys are never negative
    top = max(acc, default=0)
    if top > MAX_DEGREE << (FIELD_BITS * nvars):
        raise DegreeOverflow(f"product exceeds total degree {MAX_DEGREE}")
    if ideal is not None:
        gen = ideal.generator
        if (gen.ring is not ring and gen.ring != ring) or gen.nvars != nvars:
            raise IdealMismatch("sum and ideal live in different rings")
        division = gen.division
        # a multiple of the leading monomial has a key at least its key, so a map whose
        # keys all lie below it is already the remainder
        if top >= division[0]:
            den = _divide(ring, acc, division, den)[1]
    return _canonical(ring, nvars, sorted(acc.items(), reverse=True), den)


def _rescale(ring: RingDescriptor, work: dict, s: int):
    """Multiply every numerator of the raw map `work` by the int s, in place."""
    times = ring.times
    for k, v in work.items():
        work[k] = times(v, s)


def _divide(ring: RingDescriptor, work: dict, divisor: tuple, den: int) -> tuple:
    """Divide the raw {key: numerator} map `work` over `den` in place by `divisor`, a
    division record (see `Poly.division`), and return (quotient terms in descending key
    order, den), both the quotient and what `work` holds then over the returned den.

    Only keys divisible by the leading monomial enter the heap, largest first;
    each division adds only keys below the one it divides.  Every other key stays
    in `work` unreduced, so afterwards `work` holds exactly the remainder.  When the
    tail's denominator d does not divide a term's numerator c, the map, the quotient
    and den are multiplied by the least s with d | c * s first."""
    lk, tail, d, guard = divisor
    add, mul, reduce = ring.add, ring.mul, ring.reduce
    heap = [-k for k in work if k >= lk and not (lk - k) & guard]
    heapify(heap)
    quo = []
    while heap:
        m = -heappop(heap)
        c = reduce(work.pop(m))
        if c is None:
            continue
        q = c
        if d != 1:
            if (s := d // ring.content(d, (c,))) != 1:
                _rescale(ring, work, s)
                quo = _times(ring, quo, s)
                den *= s
                c = ring.times(c, s)
            q = ring.exquo(c, d)
        quo.append((m - lk, c))
        for offset, fc in tail:
            k = m + offset
            v = work.get(k)
            if v is None:
                work[k] = mul(q, fc)
                if k >= lk and not (lk - k) & guard:
                    heappush(heap, -k)
            else:
                work[k] = add(v, mul(q, fc))
    return quo, den


def divmod_poly(g: Poly, f: Poly) -> tuple[Poly, Poly]:
    """Divide g by a single f with invertible leading coefficient.

    Returns (q, r) with g = q*f + r and no term of r divisible by the
    leading monomial of f; r is the canonical normal form of g mod (f).
    """
    g._check(f)
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = g.ring
    work = dict(g.terms)
    quo, den = _divide(ring, work, f.division, g.den)
    rem = _canonical(ring, g.nvars, sorted(work.items(), reverse=True), den)
    # the quotient by the monic associate, times 1 / lc(f) = f.den * u / d
    u, d = ring.monic(f.terms[0][1])
    mul, times, fden = ring.mul, ring.times, f.den
    quo = _canonical(ring, g.nvars, [(k, times(mul(c, u), fden)) for k, c in quo], den * d)
    return quo, rem


def divide_exact(g: Poly, f: Poly) -> Optional[Poly]:
    """Return g / f when the division is exact, else None."""
    q, r = divmod_poly(g, f)
    return q if r.is_zero() else None


class PrincipalIdeal(Value):
    """The ideal (f) of a nonconstant generator with unit leading coefficient.

    The stored generator is made monic, so equal ideals given by associate
    generators compare equal and produce identical normal forms.
    """

    _fields = ("generator",)

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


class QuotientElem(Value):
    """An element of K[x1..xn] or of its quotient by a principal ideal.

    The representative is always fully reduced, so equality of classes is
    equality of representatives.  `+`, `-`, unary `-` and `*` skip the scan of
    `__post_init__`: their results are reduced already (see the module docstring).
    """

    _fields = ("rep", "ideal")
    __slots__ = _fields

    def __init__(self, rep: Poly, ideal: Optional[PrincipalIdeal]):
        _set_rep(self, rep)
        _set_ideal(self, ideal)
        self.__post_init__()

    def __post_init__(self):
        if self.ideal is None:
            return
        if self.rep.ring != self.ideal.ring or self.rep.nvars != self.ideal.nvars:
            raise IdealMismatch("polynomial and ideal live in different rings")
        lk, _, _, guard = self.ideal.generator.division
        # a cheap scan keeps reduced reps division-free; multiples of lm are >= lm
        for k, _ in self.rep.terms:
            if k < lk:
                break
            if not (lk - k) & guard:
                _set_rep(self, normal_form(self.rep, self.ideal))
                break

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

    def check_peers(self, others):
        """Raise IdealMismatch unless every other element lives in this quotient ring."""
        ideal, ring, nvars = self.ideal, self.rep.ring, self.rep.nvars
        for other in others:
            if other.ideal is not ideal and other.ideal != ideal:
                raise IdealMismatch("elements of different quotient rings")
            rep = other.rep
            if (rep.ring is not ring and rep.ring != ring) or rep.nvars != nvars:
                raise IdealMismatch("elements of different polynomial rings")

    def _coerce(self, other):
        if isinstance(other, QuotientElem):
            self.check_peers((other,))
            return other
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if isinstance(other, GroundScalar):
            if other.ring != self.ring:
                raise RingMismatch(f"{other.ring} vs {self.ring}")
            return QuotientElem(Poly.constant(self.ring, self.nvars, other), self.ideal)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _reduced(self.rep + other.rep, self.ideal)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _reduced(self.rep - other.rep, self.ideal)

    __rsub__ = rsub_by_negation

    def __neg__(self):
        return _reduced(-self.rep, self.ideal)

    def __mul__(self, other):
        if (other := self._coerce(other)) is None:
            return NotImplemented
        return quotient_sum(self.ring, self.nvars, ((self.rep, other.rep),), self.ideal)

    __rmul__ = __mul__
    __pow__ = Poly.__pow__


_set_rep, _set_ideal = slot_setters(QuotientElem)


def class_key(elems) -> tuple:
    """A hashable key of a tuple of QuotientElems of one quotient ring, equal for two
    tuples exactly when their classes are, since representatives are canonical."""
    return tuple([(e.rep.terms, e.rep.den) for e in elems])


def _reduced(rep: Poly, ideal: Optional[PrincipalIdeal]) -> QuotientElem:
    """The class of `rep`, reduced modulo `ideal` already: no scan of `__post_init__`."""
    elem = object.__new__(QuotientElem)
    _set_rep(elem, rep)
    _set_ideal(elem, ideal)
    return elem


def quotient_sum(ring: RingDescriptor, nvars: int, pairs: Iterable,
                 ideal: Optional[PrincipalIdeal]) -> QuotientElem:
    """The class of sum a*b over Poly pairs (a, b) modulo `ideal`, a normal form."""
    return _reduced(sum_products(ring, nvars, pairs, ideal), ideal)


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
        if not c.is_unit():
            return UnitStatus.NON_UNIT, None
        return UnitStatus.UNIT, QuotientElem(Poly.constant(ring, a.nvars, c.inverse()), a.ideal)
    if a.ideal is None:
        # units of K[x1..xn] are the units of K when K has no nilpotents
        return (UnitStatus.UNKNOWN if ring.has_nilpotents() else UnitStatus.NON_UNIT), None
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
        return status, (None if inv is None else QuotientElem(inv, a.ideal))
    if len(fvars) == 1 and not (avars & fvars):
        # K[x]/(f) is reduced for squarefree f, so nonconstant elements in
        # the remaining variables cannot be units
        gcd_status, _ = _euclid_inverse(f.diff(next(iter(fvars))), f)
        return (UnitStatus.NON_UNIT if gcd_status is UnitStatus.UNIT else UnitStatus.UNKNOWN), None
    return UnitStatus.UNKNOWN, None


# ---------------------------------------------------------------------------
# formatting


def format_poly(p: Poly, names: Iterable[str] | None = None) -> str:
    """Canonical string form; re-parses to an equal polynomial."""
    if p.is_zero():
        return "0"
    names = list(names) if names is not None else [f"x{i + 1}" for i in range(p.nvars)]
    parts: list[str] = []
    for m, c in p.items():
        factors = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(m) if e]
        cs = str(c)
        sign = ""
        if "+" in cs[1:] or "-" in cs[1:]:
            cs = f"({cs})"
        elif cs.startswith("-"):
            sign, cs = "-", cs[1:]
        body = "*".join(([] if factors and cs == "1" else [cs]) + factors)
        parts.append(sign + body if not parts else f" {sign or '+'} {body}")
    return "".join(parts)
