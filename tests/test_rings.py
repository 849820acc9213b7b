"""Ground ring arithmetic: exactness, units, canonical string forms.

Frozen values in this file were computed by hand first (conjugate/norm
inverses, characteristic tables) and the engine is checked against them.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart import (GroundScalar, NotAUnit, PrimeField, QuadExt, Rationals,
                      RinehartSpace, parse_scalar, ring_from_json)
from conftest import sample_scalar, seeded


def test_rationals_basics():
    ring = Rationals()
    a = ring.scalar(Fraction(3, 2))
    b = ring.from_int(-2)
    assert str(a + b) == "-1/2"
    assert str(a * b) == "-3"
    assert (a - a).is_zero()
    assert a.inverse() * a == ring.one()
    assert ring.characteristic() == 0
    assert ring.is_field()
    assert not ring.has_nilpotents()
    with pytest.raises(NotAUnit, match="0 has no inverse in Q"):
        ring.zero().inverse()


def test_prime_field_basics():
    ring = PrimeField(7)
    a = ring.from_int(10)          # wraps to 3
    assert str(a) == "3"
    assert str(a + ring.from_int(5)) == "1"
    assert a.inverse() == ring.from_int(5)   # 3 * 5 = 15 = 1 mod 7
    assert ring.characteristic() == 7
    assert ring.is_field()


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    PrimeField(2)                  # smallest prime is fine


def test_prime_field_zero_has_no_inverse():
    ring = PrimeField(5)
    with pytest.raises(NotAUnit):
        ring.zero().inverse()


def test_quad_ext_multiplication_table():
    ring = QuadExt(Rationals(), -1)
    al = ring.scalar((Fraction(0), Fraction(1)))
    assert str(al * al) == "-1"
    u = ring.scalar((Fraction(1), Fraction(2)))
    v = ring.scalar((Fraction(3), Fraction(-1)))
    # (1+2al)(3-al) = 3 - al + 6al - 2al^2 = 5 + 5al  when al^2 = -1
    assert str(u * v) == "5+5*al"


def test_quad_ext_inverse_by_norm():
    ring = QuadExt(Rationals(), 1)
    u = ring.scalar((Fraction(1), Fraction(2)))
    # norm = 1 - 1*4 = -3, inverse = (1 - 2al)/(-3)
    inv = u.inverse()
    assert inv * u == ring.one()
    assert str(inv) == "-1/3+2/3*al"


def test_quad_ext_zero_divisors():
    ring = QuadExt(Rationals(), 1)
    u = ring.scalar((Fraction(1), Fraction(1)))
    v = ring.scalar((Fraction(1), Fraction(-1)))
    assert (u * v).is_zero()       # (1+al)(1-al) = 1 - al^2 = 0 when al^2 = 1
    assert not u.is_unit()
    with pytest.raises(NotAUnit):
        u.inverse()
    assert not ring.is_field()
    assert not ring.has_nilpotents()


def test_quad_ext_field_detection():
    assert QuadExt(Rationals(), -1).is_field()
    assert QuadExt(PrimeField(3), -1).is_field()     # -1 = 2 is not a square mod 3
    assert QuadExt(PrimeField(7), -1).is_field()     # squares mod 7 are {0,1,2,4}
    assert not QuadExt(PrimeField(5), -1).is_field() # -1 = 4 = 2^2 mod 5
    assert not QuadExt(PrimeField(5), 1).is_field()
    with pytest.raises(ValueError):
        QuadExt(Rationals(), 2)                      # only s = +-1 is supported


def test_quad_ext_char_two_nilpotents():
    ring = QuadExt(PrimeField(2), 1)
    u = ring.scalar((1, 1))
    assert (u * u).is_zero()       # (1+al)^2 = 1 + al^2 = 0 in char 2
    assert ring.has_nilpotents()
    assert not ring.is_field()


def test_quad_ext_nesting_capped():
    inner = QuadExt(Rationals(), -1)
    with pytest.raises(ValueError):
        QuadExt(inner, 1)


def test_scalar_string_forms():
    qi = QuadExt(Rationals(), -1)
    cases = [
        ((Fraction(0), Fraction(0)), "0"),
        ((Fraction(2), Fraction(0)), "2"),
        ((Fraction(0), Fraction(1)), "al"),
        ((Fraction(0), Fraction(-2)), "-2*al"),
        ((Fraction(1), Fraction(2)), "1+2*al"),
        ((Fraction(1), Fraction(-2)), "1-2*al"),
        ((Fraction(-1, 2), Fraction(1)), "-1/2+al"),
        ((Fraction(0), Fraction(-1)), "-al"),
        ((Fraction(2), Fraction(-1)), "2-al"),
    ]
    for value, text in cases:
        assert str(qi.scalar(value)) == text


def test_ring_laws_seeded(any_ring):
    ring = any_ring
    rng = seeded(f"ring-laws:{ring}")
    for _ in range(1000):
        a = sample_scalar(rng, ring)
        b = sample_scalar(rng, ring)
        c = sample_scalar(rng, ring)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ring.zero() == a
        assert a * ring.one() == a
        assert (a - a).is_zero()


def test_unit_inverses_roundtrip(any_ring):
    # a scalar is a unit exactly when its inverse exists: a unit's inverse roundtrips,
    # and a non-unit's inverse raises NotAUnit
    ring = any_ring
    rng = seeded(f"ring-units:{ring}")
    draws = [sample_scalar(rng, ring) for _ in range(400)]
    if isinstance(ring, QuadExt) and ring.s == 1:
        divisors = [ring.scalar((1, 1)), ring.scalar((1, -1))]  # (1 + al)(1 - al) = 0
        assert not any(z.is_unit() for z in divisors)
        draws += divisors
    for a in draws:
        if a.is_unit():
            assert a.inverse() * a == ring.one()
        else:
            with pytest.raises(NotAUnit):
                a.inverse()
    assert 100 < sum(a.is_unit() for a in draws) < len(draws)


@given(n=st.integers(-10**6, 10**6), d=st.integers(1, 10**3),
       m=st.integers(-10**6, 10**6))
@settings(max_examples=200, deadline=None)
def test_rationals_match_fraction_oracle(n, d, m):
    ring = Rationals()
    a = ring.scalar(Fraction(n, d))
    b = ring.from_int(m)
    prod, total = a * b, a + b
    assert Fraction(prod.num, prod.den) == Fraction(n, d) * m
    assert Fraction(total.num, total.den) == Fraction(n, d) + m


@given(a=st.integers(0, 6), b=st.integers(0, 6), c=st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_prime_field_matches_int_oracle(a, b, c):
    ring = PrimeField(7)
    x, y, z = (ring.from_int(v) for v in (a, b, c))
    assert (x * y + z).num == (a * b + c) % 7


def test_ring_from_json_roundtrip():
    for spec, ring in (({"kind": "Q"}, Rationals()),
                       ({"kind": "Fp", "p": 5}, PrimeField(5)),
                       ({"kind": "quad", "base": {"kind": "Q"}, "s": -1}, QuadExt(Rationals(), -1)),
                       ({"kind": "quad", "base": {"kind": "Fp", "p": 3}, "s": 1},
                        QuadExt(PrimeField(3), 1))):
        assert ring_from_json(spec) == ring
    with pytest.raises(ValueError):
        ring_from_json({"kind": "Fp", "p": 9})
    with pytest.raises(ValueError):
        ring_from_json({"kind": "quad", "base": {"kind": "Q"}, "s": 2})
    with pytest.raises(ValueError):
        ring_from_json({"kind": "Z"})


def test_ground_scalar_ring_mismatch():
    from rinehart import RingMismatch
    a = Rationals().one()
    b = PrimeField(5).one()
    with pytest.raises(RingMismatch):
        a + b


def test_ground_scalar_int_coercion():
    ring = PrimeField(5)
    a = ring.from_int(3)
    assert a + 4 == ring.from_int(2)
    assert 2 * a == ring.from_int(1)
    assert isinstance(2 * a, GroundScalar)


def test_primality_is_deterministic_miller_rabin():
    from rinehart.rings import PRIME_BOUND, _is_prime

    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    for n in (1000000000000000003, 2 ** 61 - 1, 3317044064679887385961813):
        assert _is_prime(n)
    assert PrimeField(1000000000000000003).from_int(-1).num == 1000000000000000002
    with pytest.raises(ValueError, match="exceeds"):
        PrimeField(PRIME_BOUND)


@pytest.mark.parametrize("s", [1.0, -1.0, True])
def test_quad_ext_requires_an_int_s(s):
    with pytest.raises(ValueError):
        QuadExt(Rationals(), s)


def test_an_int_minus_a_scalar_or_a_function(any_ring):
    # int - value reaches __rsub__, which adds the negation
    assert 1 - any_ring.from_int(3) == any_ring.from_int(-2)
    space = RinehartSpace.euclidean(any_ring, ("x", "y"))
    assert 1 - space.fn("x + 2") == space.fn("-x - 1")


# ---------------------------------------------------------------------------
# one scalar form: a numerator over a positive denominator, as a polynomial term holds it


def test_scalars_are_reduced_numerators_over_positive_denominators(any_ring):
    ring, rng = any_ring, seeded("scalar form")
    assert GroundScalar._fields == ("ring", "num", "den")
    assert (ring.zero().num, ring.zero().den) == (ring._zero, 1)
    if ring.characteristic() == 0:  # elsewhere the denominator is always 1
        assert ring.make(ring.times(ring._one, 6), 6) == ring.one()
    for _ in range(150):
        a, b = sample_scalar(rng, ring), sample_scalar(rng, ring)
        out = [a, b, a + b, a * b, -a, a - b, a - a] + ([a.inverse()] if a.is_unit() else [])
        for x in out:
            parts = x.num if isinstance(ring, QuadExt) else (x.num,)
            assert x.den > 0 and gcd(x.den, *parts) == 1, x
            assert x.den == 1 or ring.characteristic() == 0, x
            assert x.num == (ring.reduce(x.num) or ring._zero), x
            assert x.den == 1 or not x.is_zero(), x
            assert parse_scalar(str(x), ring) == x, x


def _pair(x):
    """x as a pair of Fractions (a, b), a + b*al, read from its numerator and denominator."""
    num = x.num if isinstance(x.num, tuple) else (x.num, 0)
    return tuple(Fraction(c, x.den) for c in num)


@pytest.mark.parametrize("ring", [Rationals(), QuadExt(Rationals(), -1)], ids=["Q", "Qi"])
def test_scalar_arithmetic_matches_a_fraction_reference(ring):
    # over Q(i), (a + b*i)(c + d*i) = ac - bd + (ad + bc)*i and 1/(a + b*i) = (a - b*i)/(a^2 + b^2);
    # over Q every b and d is 0
    rng = seeded("scalar oracle")
    for _ in range(300):
        x, y = sample_scalar(rng, ring), sample_scalar(rng, ring)
        (a, b), (c, d) = _pair(x), _pair(y)
        assert _pair(x + y) == (a + c, b + d)
        assert _pair(x * y) == (a * c - b * d, a * d + b * c)
        if x.is_zero():
            continue
        norm = a * a + b * b
        assert _pair(x.inverse()) == (a / norm, -b / norm)


def test_every_inverse_refuses_a_non_unit_with_its_message():
    with pytest.raises(NotAUnit, match=r"^0 has no inverse in Q$"):
        Rationals().monic(0)
    with pytest.raises(NotAUnit, match=r"^0 has no inverse in Q$"):
        Rationals().zero().inverse()
    with pytest.raises(NotAUnit, match=r"^0 has no inverse in F_5$"):
        PrimeField(5).monic(10)
    with pytest.raises(NotAUnit, match=r"^0 has no inverse in F_5$"):
        PrimeField(5).zero().inverse()
    for ring in (QuadExt(Rationals(), 1), QuadExt(PrimeField(3), 1)):
        with pytest.raises(NotAUnit, match=r"^norm a\^2 - s\*b\^2 is not a unit$"):
            ring.monic((1, 1))
        with pytest.raises(NotAUnit, match=r"^norm a\^2 - s\*b\^2 is not a unit$"):
            ring.scalar((1, -1)).inverse()


def test_a_number_is_the_scalar_the_parser_reads(any_ring):
    # a/b is a times the inverse of b in every ring, from a Python number as from a literal;
    # a Fraction is in lowest terms, so only a p in its reduced denominator refuses
    ring, p = any_ring, any_ring.characteristic()
    for a in range(-8, 9):
        for b in range(1, 8):
            x = Fraction(a, b)
            if p and x.denominator % p == 0:
                with pytest.raises(NotAUnit):
                    ring.scalar(x)
                continue
            text = f"{a}/{b}" if not p or b % p else f"{x.numerator}/{x.denominator}"
            assert ring.scalar(x) == parse_scalar(text, ring), (a, b)
    if not isinstance(ring, QuadExt):
        return
    for a, b, c, d in [(1, 2, -3, 4), (-5, 7, 2, 5), (3, 1, 1, 2), (0, 4, -7, 1), (6, 5, 0, 7)]:
        want = parse_scalar(f"{a}/{b} + ({c}/{d})*al", ring)
        assert ring.scalar((Fraction(a, b), Fraction(c, d))) == want, (a, b, c, d)
    if p:
        with pytest.raises(NotAUnit):
            ring.scalar((Fraction(1), Fraction(1, p)))
