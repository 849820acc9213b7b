"""Exact scalar arithmetic over the supported ground rings.

Three kinds of ground ring are available: the rationals, prime fields F_p,
and quadratic extensions K0[al] with al^2 = s for s in {+1, -1} (the split
and Gaussian flavours).  Split extensions contain zero divisors, e.g.
(1 + al)(1 - al) = 0 when s = +1, so unit tests are by the norm a^2 - s*b^2
rather than by nonzeroness.

A scalar has the form of a polynomial term (see `poly`): a numerator over a
positive int denominator, with gcd(den, numerator) = 1 and zero stored as
(0, 1).  Over Q the numerator is an int and over Q(i) and Q(j) an int pair,
so every operation runs on `int`s; over F_p and its extensions it is a
residue or a residue pair over the denominator 1.  Canonical forms make
equality and hashing structural.  A descriptor supplies the numerator
arithmetic that scalars and polynomials share (`add`, `mul`, `neg`,
`reduce`, `times`, `content`, `exquo`, `monic`) and `make`, the one place a
scalar is made canonical.
"""

from __future__ import annotations

import operator
from math import gcd

from .errors import NotAUnit, RingMismatch, spec_object


# Miller-Rabin with the first 13 prime bases is exact below psi_13 =
# 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test for p < PRIME_BOUND."""
    if p >= PRIME_BOUND:
        raise ValueError(f"p = {p} exceeds the largest supported modulus {PRIME_BOUND - 1}")
    if p < 2 or any(p % q == 0 for q in _MR_BASES):
        return p in _MR_BASES
    r = ((p - 1) & (1 - p)).bit_length() - 1  # 2**r exactly divides p - 1
    for a in _MR_BASES:
        x = pow(a, (p - 1) >> r, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


set_field = object.__setattr__


class lazy:
    """A field of a `Value` built on first read and stored on the instance through
    `set_field`, where later reads find it before this descriptor.

    `functools.cached_property` writes the instance `__dict__` instead, which turns
    the attribute values kept inline in the instance into a plain dict and makes
    every later attribute read slower.  A `__getattr__` hook would build lazily
    too, but a class that defines one gets no specialised attribute reads at all.
    """

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.build(obj)
        set_field(obj, self.name, value)
        return value


class Value:
    """Value semantics over the field names in `_fields`: equality between objects
    of one class, field by field after an identity shortcut, with a hash and a repr
    of the same fields, and no assignment, so `lazy` fields may memoise on the
    instance.

    Fields are set once, in `__init__`, through `set_field` (`object.__setattr__`),
    which keeps attribute values inline in the instance: writing `__dict__` directly
    would turn them into a plain dict and make every later attribute read slower.
    """

    _fields: tuple = ()

    def __init_subclass__(cls):
        # a class without fields has one value, so its class is its key
        cls._key = operator.attrgetter(*cls._fields) if cls._fields else type

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values")
        for name, value in zip(self._fields, values):
            set_field(self, name, value)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __ne__(self, other):
        if self is other:
            return False
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) != key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


def sub_by_negation(self, other):
    """self - other as self + (-other), for operands coerced by `_coerce`: used by
    `GroundScalar` alone, and `rsub_by_negation` also by `QuotientElem`."""
    other = self._coerce(other)
    return NotImplemented if other is None else self + (-other)


def rsub_by_negation(self, other):
    other = self._coerce(other)
    return NotImplemented if other is None else other + (-self)


class RingDescriptor(Value):
    """Common interface of the ground-ring descriptors: the arithmetic of numerators.

    Scalars and polynomial terms both hold numerators over a positive int
    denominator, which stays 1 in positive characteristic.  `add`, `mul` and
    `neg` may return unreduced results (an F_p residue outside [0, p), say);
    `reduce` makes a numerator canonical, or None for zero.  `monic(lc)` is
    the one inverse: (u, d) with lc * u = d, a positive int, so dividing by
    lc is multiplying by u over d; it raises NotAUnit when lc is not a unit,
    which makes it the unit test too (`GroundScalar.is_unit`).
    """

    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    _zero, _one = 0, 1  # the numerators of 0 and 1

    def nonzero(self, items) -> list:
        """The (key, numerator) pairs of `items` with nonzero numerators, made canonical."""
        reduce = self.reduce
        return [(k, c) for k, v in items if (c := reduce(v)) is not None]

    # -- numerators over a common denominator, other than 1 only in characteristic 0 --

    times = staticmethod(operator.mul)  # numerator times an int

    @staticmethod
    def content(den: int, nums) -> int:
        """gcd of den and every integer in the numerators `nums`."""
        return gcd(den, *nums)

    exquo = staticmethod(operator.floordiv)  # numerator divided exactly by an int

    def make(self, num, den: int = 1) -> "GroundScalar":
        """The scalar num / den in canonical form, for an unreduced numerator num and
        a positive int den."""
        num = self.reduce(num)
        if num is None:
            return GroundScalar(self, self._zero, 1)
        if den != 1 and (g := self.content(den, (num,))) != 1:
            num, den = self.exquo(num, g), den // g
        return GroundScalar(self, num, den)

    def scalar(self, value) -> "GroundScalar":
        """The scalar of a Python number with `as_integer_ratio` (an int, a float or a
        `fractions` rational) by the parser's rule for a literal a/b: a times the inverse
        of b, so NotAUnit when b is not a unit."""
        num, den = value.as_integer_ratio()
        return self.from_int(num) * self.from_int(den).inverse()

    def from_int(self, k: int) -> "GroundScalar":
        return self.make(self.times(self._one, k))

    def zero(self) -> "GroundScalar":
        return self.from_int(0)

    def one(self) -> "GroundScalar":
        return self.from_int(1)

    def _fmt(self, num, den: int) -> str:
        return str(num) if den == 1 else f"{num}/{den}"

    def characteristic(self) -> int:
        raise NotImplementedError

    def is_field(self) -> bool:
        return True

    def has_nilpotents(self) -> bool:
        return False


class Rationals(RingDescriptor):
    """The field of rational numbers: numerators are ints."""

    @staticmethod
    def reduce(v):
        return v or None

    @staticmethod
    def nonzero(items) -> list:
        return [(k, v) for k, v in items if v]

    @staticmethod
    def monic(lc: int) -> tuple:
        if lc == 0:
            raise NotAUnit("0 has no inverse in Q")
        return (1, lc) if lc > 0 else (-1, -lc)

    def characteristic(self) -> int:
        return 0


class PrimeField(RingDescriptor):
    """The prime field F_p, with residues stored in [0, p)."""

    _fields = ("p",)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        Value.__init__(self, p)

    def reduce(self, v):
        return v % self.p or None

    def nonzero(self, items) -> list:
        p = self.p
        return [(k, c) for k, v in items if (c := v % p)]

    def monic(self, lc: int) -> tuple:
        if lc % self.p == 0:
            raise NotAUnit(f"0 has no inverse in F_{self.p}")
        return pow(lc, -1, self.p), 1

    def characteristic(self) -> int:
        return self.p


class QuadExt(RingDescriptor):
    """Quadratic extension base[al] with al^2 = s: numerators are pairs (a, b) of
    base numerators, a + b*al.

    Nesting is limited to depth one: the base must be Q or a prime field,
    whose numerators take Python's arithmetic operators directly.
    """

    _fields = ("base", "s")
    _zero, _one = (0, 0), (1, 0)

    def __init__(self, base: RingDescriptor, s: int):
        if not isinstance(base, (Rationals, PrimeField)):
            raise ValueError("quadratic extensions may only sit over Q or F_p")
        if type(s) is not int or s not in (1, -1):
            raise ValueError("s must be +1 or -1")
        Value.__init__(self, base, s)

    def scalar(self, value) -> "GroundScalar":
        """The scalar a + b*al of a pair (a, b) of base-ring values, or of one value a."""
        return self.pair(*map(self.base.scalar, value if isinstance(value, tuple) else (value, 0)))

    def pair(self, a: "GroundScalar", b: "GroundScalar") -> "GroundScalar":
        """The scalar a + b*al of two base-ring scalars."""
        return self.make((a.num * b.den, b.num * a.den), a.den * b.den)

    @staticmethod
    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    @staticmethod
    def neg(x):
        return (-x[0], -x[1])

    @staticmethod
    def times(x, k: int):
        return (x[0] * k, x[1] * k)

    @staticmethod
    def content(den: int, nums) -> int:
        return gcd(den, *[c for pair in nums for c in pair])

    @staticmethod
    def exquo(x, k: int):
        return (x[0] // k, x[1] // k)

    def monic(self, lc) -> tuple:
        # lc * conj(lc) is the norm a^2 - s*b^2, a base numerator
        a, b = lc
        norm = a * a - self.s * b * b
        if self.base.reduce(norm) is None:
            raise NotAUnit("norm a^2 - s*b^2 is not a unit")
        u, d = self.base.monic(norm)
        return (a * u, -b * u), d

    def mul(self, x, y):
        # (a + b*al)(c + d*al) = ac + s*bd + (ad + bc)*al
        a, b = x
        c, d = y
        bd = b * d
        return (a * c + bd if self.s == 1 else a * c - bd, a * d + b * c)

    def reduce(self, v):
        reduce = self.base.reduce
        a, b = reduce(v[0]), reduce(v[1])
        if b is None:
            return None if a is None else (a, 0)
        return (0 if a is None else a, b)

    def _fmt(self, x, den: int) -> str:
        a, b = (self.base.make(c, den) for c in x)
        if b.is_zero():
            return str(a)
        neg = isinstance(self.base, Rationals) and b.num < 0
        mag = -b if neg else b
        al = "al" if mag.is_one() else f"{mag}*al"
        if a.is_zero():
            return f"-{al}" if neg else al
        return f"{a}{'-' if neg else '+'}{al}"

    def characteristic(self) -> int:
        return self.base.characteristic()

    def is_field(self) -> bool:
        # a field exactly when s has no square root in the base field; over
        # F_p, s = 1 always has one and s = -1 has one unless p = 3 mod 4
        if isinstance(self.base, Rationals):
            return self.s == -1
        return self.s == -1 and self.base.p % 4 == 3

    def has_nilpotents(self) -> bool:
        # in characteristic 2 both al^2 = 1 and al^2 = -1 make al + 1 nilpotent
        return self.characteristic() == 2


class GroundScalar(Value):
    """An exact element of a ground ring: the numerator `num` over the positive int
    `den`, as a polynomial term holds it, made canonical by `RingDescriptor.make`."""

    _fields = ("ring", "num", "den")

    def __init__(self, ring: RingDescriptor, num, den: int):
        set_field(self, "ring", ring)
        set_field(self, "num", num)
        set_field(self, "den", den)

    def _check(self, other: "GroundScalar"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def _coerce(self, other):
        if isinstance(other, GroundScalar):
            self._check(other)
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        if (other := self._coerce(other)) is None:
            return NotImplemented
        ring, times = self.ring, self.ring.times
        return ring.make(ring.add(times(self.num, other.den), times(other.num, self.den)),
                         self.den * other.den)

    __radd__ = __add__
    __sub__ = sub_by_negation
    __rsub__ = rsub_by_negation

    def __neg__(self):
        return self.ring.make(self.ring.neg(self.num), self.den)

    def __mul__(self, other):
        if (other := self._coerce(other)) is None:
            return NotImplemented
        ring = self.ring
        return ring.make(ring.mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "GroundScalar":
        ring = self.ring
        u, d = ring.monic(self.num)  # 1 / (num / den) = den * u / d
        return ring.make(ring.times(u, self.den), d)

    def is_unit(self) -> bool:
        """Whether the ring's one inverse, `monic`, exists for this scalar."""
        try:
            self.ring.monic(self.num)
        except NotAUnit:
            return False
        return True

    def is_zero(self) -> bool:
        return self.num == self.ring._zero

    def is_one(self) -> bool:
        return self.den == 1 and self.num == self.ring._one

    def __str__(self) -> str:
        return self.ring._fmt(self.num, self.den)


def ring_from_json(obj, field: str = "ring") -> RingDescriptor:
    """Build a ring descriptor from its serialized form.

    Accepts {"kind": "Q"}, {"kind": "Fp", "p": 5} and
    {"kind": "quad", "base": ..., "s": +-1}; raises ValueError otherwise, and a
    ValidationError of `field` (`ring.base` for a base) on a key its kind does not hold.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("ring descriptor must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "Q":
        spec_object(field, obj, ("kind",))
        return Rationals()
    if kind == "Fp":
        p = spec_object(field, obj, ("kind", "p")).get("p")
        if type(p) is not int:
            raise ValueError("Fp descriptor needs an integer 'p'")
        return PrimeField(p)
    if kind == "quad":
        if "base" not in spec_object(field, obj, ("kind", "base", "s")) or "s" not in obj:
            raise ValueError("quad descriptor needs 'base' and 's'")
        base = ring_from_json(obj["base"], field + ".base")
        s = obj["s"]
        if type(s) is not int or s not in (1, -1):
            raise ValueError("quad 's' must be 1 or -1")
        return QuadExt(base, s)
    raise ValueError(f"unknown ring kind {kind!r}")
