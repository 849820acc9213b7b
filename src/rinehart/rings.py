"""Exact scalar arithmetic over the supported ground rings.

Three kinds of ground ring are available: the rationals, prime fields F_p,
and quadratic extensions K0[al] with al^2 = s for s in {+1, -1} (the split
and Gaussian flavours).  Split extensions contain zero divisors, e.g.
(1 + al)(1 - al) = 0 when s = +1, so unit tests are by the norm a^2 - s*b^2
rather than by nonzeroness.

Scalars are immutable and canonical: equal scalars have identical stored
values (over Q an `int` when integral and a `Fraction` in lowest terms
otherwise, residues in [0, p), component pairs for extensions), so equality
and hashing are structural.

Polynomials keep no such values.  Over Q, Q(i) and Q(j) a polynomial is
integer numerators over one positive denominator, so every kernel
operation runs on `int`s; a descriptor supplies the numerator arithmetic
(`add`, `mul`, `neg`, `reduce`, `times`, `content`, `exquo`, `monic`) and
the two conversions `split` and `join` between a scalar value and a
(numerator, denominator) pair.  Over F_p and its extensions the
denominator is always 1 and the numerators are the residues themselves.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

from .errors import NotAUnit, RingMismatch


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
    """Common interface of the ground-ring descriptors.

    Scalar values are the canonical forms `GroundScalar` wraps for the public
    API; `canon` makes an unreduced one canonical.  Numerators are what
    polynomial terms hold: integers (or integer pairs) over a polynomial's
    common denominator on the rings where `fractional` is set, and the scalar
    values themselves elsewhere.  `add`, `mul` and `neg` serve both and may
    return unreduced results (an F_p residue outside [0, p), say); `reduce`
    makes a numerator canonical, or None for zero.
    """

    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    fractional = False  # whether polynomials over the ring carry a denominator
    _one = 1  # the numerator of 1

    def canon(self, v):
        """Canonical form of an unreduced scalar value, zero included."""
        r = self.reduce(v)
        return self._zero if r is None else r

    def nonzero(self, items) -> list:
        """The (key, numerator) pairs of `items` with nonzero numerators, made canonical."""
        reduce = self.reduce
        return [(k, c) for k, v in items if (c := reduce(v)) is not None]

    # -- numerators over a common denominator; used where `fractional` is set --

    times = staticmethod(operator.mul)  # numerator times an int

    @staticmethod
    def content(den: int, nums) -> int:
        """gcd of den and every integer in the numerators `nums`."""
        return gcd(den, *nums)

    exquo = staticmethod(operator.floordiv)  # numerator divided exactly by an int

    def split(self, value) -> tuple:
        """(numerator, denominator) of a scalar value."""
        return value, 1

    def join(self, num, den: int):
        """The scalar value num / den."""
        return num

    def monic(self, lc) -> tuple:
        """(u, d) with lc * u = d, a positive integer: dividing by lc is multiplying
        by u over the denominator d.  Raises NotAUnit when lc is not a unit."""
        return self._inv(lc), 1

    def scalar(self, value) -> "GroundScalar":
        return GroundScalar(self, self._norm(value))

    def from_int(self, k: int) -> "GroundScalar":
        return GroundScalar(self, self._from_int(k))

    def zero(self) -> "GroundScalar":
        return self.from_int(0)

    def one(self) -> "GroundScalar":
        return self.from_int(1)

    def _is_unit(self, a) -> bool:
        return a != 0

    def _fmt(self, a) -> str:
        return str(a)

    def characteristic(self) -> int:
        raise NotImplementedError

    def is_field(self) -> bool:
        return True

    def has_nilpotents(self) -> bool:
        return False


class Rationals(RingDescriptor):
    """The field of rational numbers: scalar values are ints when integral, else
    `Fraction`s; numerators are ints."""

    _zero = 0
    fractional = True

    def _norm(self, v):
        return self.canon(Fraction(v))

    def _from_int(self, k: int):
        return k

    @staticmethod
    def canon(v):
        return v.numerator if v.denominator == 1 else v

    @staticmethod
    def reduce(v):
        return v or None

    @staticmethod
    def nonzero(items) -> list:
        return [(k, v) for k, v in items if v]

    def split(self, value) -> tuple:
        return value.numerator, value.denominator

    def join(self, num: int, den: int):
        return num if den == 1 else self.canon(Fraction(num, den))

    def monic(self, lc: int) -> tuple:
        return (1, lc) if lc > 0 else (-1, -lc)

    def _inv(self, a):
        if a == 0:
            raise NotAUnit("0 has no inverse in Q")
        return self.canon(1 / Fraction(a))

    def characteristic(self) -> int:
        return 0


class PrimeField(RingDescriptor):
    """The prime field F_p, with residues stored in [0, p)."""

    _fields = ("p",)
    _zero = 0

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        Value.__init__(self, p)

    def _norm(self, v):
        return int(v) % self.p

    def _from_int(self, k: int):
        return k % self.p

    def reduce(self, v):
        return v % self.p or None

    def nonzero(self, items) -> list:
        p = self.p
        return [(k, c) for k, v in items if (c := v % p)]

    def _inv(self, a):
        if a == 0:
            raise NotAUnit(f"0 has no inverse in F_{self.p}")
        return pow(a, -1, self.p)

    def characteristic(self) -> int:
        return self.p


class QuadExt(RingDescriptor):
    """Quadratic extension base[al] with al^2 = s, stored as pairs (a, b).

    Nesting is limited to depth one: the base must be Q or a prime field,
    whose raw values take Python's arithmetic operators directly.
    """

    _fields = ("base", "s")

    def __init__(self, base: RingDescriptor, s: int):
        if not isinstance(base, (Rationals, PrimeField)):
            raise ValueError("quadratic extensions may only sit over Q or F_p")
        if type(s) is not int or s not in (1, -1):
            raise ValueError("s must be +1 or -1")
        Value.__init__(self, base, s)
        set_field(self, "fractional", base.fractional)

    @lazy
    def _zero(self):
        return (self.base._zero, self.base._zero)

    @lazy
    def _one(self):
        return (self.base._one, self.base._zero)

    def canon(self, v):
        canon = self.base.canon
        return (canon(v[0]), canon(v[1]))

    def _norm(self, v):
        if isinstance(v, tuple):
            a, b = v
            return (self.base._norm(a), self.base._norm(b))
        return (self.base._norm(v), self.base._zero)

    def _from_int(self, k: int):
        return (self.base._from_int(k), self.base._zero)

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

    def split(self, value) -> tuple:
        (a, da), (b, db) = map(self.base.split, value)
        den = lcm(da, db)
        return (a * (den // da), b * (den // db)), den

    def join(self, num, den: int):
        if den == 1:
            return num
        join = self.base.join
        return (join(num[0], den), join(num[1], den))

    def monic(self, lc) -> tuple:
        if not self.fractional:
            return self._inv(lc), 1
        # lc * conj(lc) is the norm a^2 - s*b^2, an integer
        a, b = lc
        norm = self._norm_form(lc)
        if norm == 0:
            raise NotAUnit("norm a^2 - s*b^2 is not a unit")
        return ((a, -b), norm) if norm > 0 else ((-a, b), -norm)

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
            return None if a is None else (a, self.base._zero)
        return (self.base._zero if a is None else a, b)

    def _norm_form(self, x):
        # a^2 - s*b^2, the multiplicative norm into the base ring
        a, b = x
        return self.base.canon(a * a - self.s * b * b)

    def _inv(self, x):
        n = self._norm_form(x)
        if not self.base._is_unit(n):
            raise NotAUnit("norm a^2 - s*b^2 is not a unit")
        ninv = self.base._inv(n)
        a, b = x
        return self.canon((a * ninv, -b * ninv))

    def _is_unit(self, x) -> bool:
        return self.base._is_unit(self._norm_form(x))

    def _fmt(self, x) -> str:
        a, b = x
        base = self.base
        if b == base._zero:
            return base._fmt(a)
        neg = isinstance(base, Rationals) and b < 0
        mag = -b if neg else b
        al = "al" if mag == base._from_int(1) else f"{base._fmt(mag)}*al"
        if a == base._zero:
            return f"-{al}" if neg else al
        return f"{base._fmt(a)}{'-' if neg else '+'}{al}"

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
    """An exact element of a ground ring, in canonical form."""

    _fields = ("ring", "value")

    def __init__(self, ring: RingDescriptor, value):
        set_field(self, "ring", ring)
        set_field(self, "value", value)

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
        ring = self.ring
        return GroundScalar(ring, ring.canon(ring.add(self.value, other.value)))

    __radd__ = __add__
    __sub__ = sub_by_negation
    __rsub__ = rsub_by_negation

    def __neg__(self):
        ring = self.ring
        return GroundScalar(ring, ring.canon(ring.neg(self.value)))

    def __mul__(self, other):
        if (other := self._coerce(other)) is None:
            return NotImplemented
        ring = self.ring
        return GroundScalar(ring, ring.canon(ring.mul(self.value, other.value)))

    __rmul__ = __mul__

    def inverse(self) -> "GroundScalar":
        return GroundScalar(self.ring, self.ring._inv(self.value))

    def is_unit(self) -> bool:
        return self.ring._is_unit(self.value)

    def is_zero(self) -> bool:
        return self.value == self.ring._zero

    def is_one(self) -> bool:
        return self.value == self.ring._from_int(1)

    def __str__(self) -> str:
        return self.ring._fmt(self.value)


def ring_from_json(obj) -> RingDescriptor:
    """Build a ring descriptor from its serialized form.

    Accepts {"kind": "Q"}, {"kind": "Fp", "p": 5} and
    {"kind": "quad", "base": ..., "s": +-1}; raises ValueError otherwise.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("ring descriptor must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "Q":
        return Rationals()
    if kind == "Fp":
        p = obj.get("p")
        if not isinstance(p, int):
            raise ValueError("Fp descriptor needs an integer 'p'")
        return PrimeField(p)
    if kind == "quad":
        if "base" not in obj or "s" not in obj:
            raise ValueError("quad descriptor needs 'base' and 's'")
        base = ring_from_json(obj["base"])
        s = obj["s"]
        if type(s) is not int or s not in (1, -1):
            raise ValueError("quad 's' must be 1 or -1")
        return QuadExt(base, s)
    raise ValueError(f"unknown ring kind {kind!r}")
