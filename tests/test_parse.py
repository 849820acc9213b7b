"""Grammar round trips and parse errors with positions."""

from fractions import Fraction

import pytest

from rinehart import (ParseError, Poly, PrimeField, QuadExt, Rationals,
                      format_poly, parse_poly, parse_scalar, parse_vector)
from conftest import seeded
from test_poly import random_small_poly

Q = Rationals()
F7 = PrimeField(7)
QI = QuadExt(Q, -1)


def test_basic_expressions():
    x = Poly.variable(Q, 2, 0)
    y = Poly.variable(Q, 2, 1)
    names = ("x", "y")
    assert parse_poly("x + 2*y", Q, names) == x + 2 * y
    assert parse_poly("x^2 - y^3", Q, names) == x * x - y * y * y
    assert parse_poly("-x", Q, names) == -x
    assert parse_poly("(x + y)^2", Q, names) == x * x + 2 * (x * y) + y * y
    assert parse_poly("x + x", Q, names) == 2 * x
    assert parse_poly("0", Q, names) == Poly.zero(Q, 2)
    assert parse_poly("2^3", Q, names) == Poly.constant(Q, 2, Q.from_int(8))
    assert parse_poly("x*-1", Q, names) == -x


def test_a_minus_sign_may_lead_any_factor():
    x = Poly.variable(Q, 2, 0)
    y = Poly.variable(Q, 2, 1)
    names = ("x", "y")
    assert parse_scalar("1/2 + -3/4*al", QI) == parse_scalar("1/2 - 3/4*al", QI)
    assert parse_poly("x*-y", Q, names) == -(x * y)
    assert parse_poly("x - -y", Q, names) == x + y
    assert parse_poly("x + -y^2*-x", Q, names) == x + y * y * x
    assert parse_poly("-x^2", Q, names) == -(x * x)      # a power binds tighter
    assert parse_poly("--x", Q, names) == x
    # a long run of signs is read in a loop, not by recursion
    assert parse_poly("-" * 100001 + "x", Q, names) == -x
    with pytest.raises(ParseError, match="position 2"):
        parse_poly("x^-1", Q, names)                      # an exponent takes no sign
    with pytest.raises(ParseError, match="end of input"):
        parse_poly("x * -", Q, names)


def test_whitespace_and_implicit_association():
    names = ("x", "y")
    a = parse_poly("  x ^ 2*y + 1 ", Q, names)
    b = parse_poly("x^2*y+1", Q, names)
    assert a == b


def test_fraction_coefficients_over_q():
    x = Poly.variable(Q, 1, 0)
    p = parse_poly("1/2*x - 3/4", Q, ("x",))
    assert p == x.scale(Q.scalar(Fraction(1, 2))) - Poly.constant(Q, 1, Q.scalar(Fraction(3, 4)))


def test_fraction_coefficients_over_fp():
    # 1/2 = 4 mod 7, 3/6 = 3*6^{-1} = 3*6 = 18 = 4 mod 7
    names = ("x",)
    assert parse_poly("1/2", F7, names) == Poly.constant(F7, 1, F7.from_int(4))
    assert parse_poly("3/6", F7, names) == Poly.constant(F7, 1, F7.from_int(4))
    with pytest.raises(ParseError):
        parse_poly("1/7", F7, names)       # denominator is 0 mod 7


def test_a_literal_fraction_is_a_times_the_inverse_of_b(any_ring):
    ring = any_ring
    p = ring.characteristic()
    for a in range(9):
        for b in range(1, 8):
            if p and b % p == 0:
                with pytest.raises(ParseError, match=f"denominator {b} is zero in F_{p}"):
                    parse_scalar(f"{a}/{b}", ring)
                continue
            got = parse_scalar(f"{a}/{b}", ring)
            want = ring.from_int(a) * ring.from_int(b).inverse()
            # equal canonical forms: the same numerator over the same denominator
            assert (got, got.num, got.den) == (want, want.num, want.den), (a, b)


@pytest.mark.parametrize("ring", [F7, QuadExt(F7, -1)], ids=["F7", "F7(al)"])
def test_a_denominator_divisible_by_p_names_the_prime(ring):
    with pytest.raises(ParseError, match="denominator 7 is zero in F_7"):
        parse_poly("1/7", ring, ("x",))


def test_al_token():
    x = Poly.variable(QI, 1, 0)
    al = QI.scalar((Fraction(0), Fraction(1)))
    assert parse_poly("al*x + al^2", QI, ("x",)) == x.scale(al) - 1
    with pytest.raises(ParseError):
        parse_poly("al", Q, ("x",))        # no quadratic generator over Q


def test_parse_errors_carry_positions():
    cases = [
        ("x +", Q),
        ("(x", Q),
        ("x ** 2", Q),
        ("x^0", Q),                        # exponents must be positive
        ("x^-1", Q),
        ("z", Q),                          # undeclared variable
        ("x 2", Q),                        # trailing input
        ("", Q),
        ("1/0", Q),
    ]
    for text, ring in cases:
        with pytest.raises(ParseError) as err:
            parse_poly(text, ring, ("x", "y"))
        assert "position" in str(err.value)


def test_parse_vector():
    polys = parse_vector("x, y^2, 0", Q, ("x", "y"))
    assert len(polys) == 3
    assert polys[1] == Poly.variable(Q, 2, 1) ** 2
    with pytest.raises(ParseError):
        parse_vector("x,", Q, ("x", "y"))


def test_parse_scalar():
    assert parse_scalar("3/2", Q) == Q.scalar(Fraction(3, 2))
    assert parse_scalar("-2", F7) == F7.from_int(5)
    assert parse_scalar("(1/2)^2", Q) == Q.scalar(Fraction(1, 4))
    with pytest.raises(ParseError):
        parse_scalar("x", Q)


def test_format_parse_roundtrip(any_ring):
    ring = any_ring
    rng = seeded(f"parse-roundtrip:{ring}")
    names = ("x", "y", "z")
    for _ in range(200):
        p = random_small_poly(rng, ring, 3, max_degree=4, max_terms=5)
        text = format_poly(p, names)
        assert parse_poly(text, ring, names) == p, text


def test_parse_format_canonicalizes():
    names = ("x", "y")
    for text in ("y + x", "x + 0*y", "2*x - x", "x*x", "x*(y + 1) - x*y"):
        p = parse_poly(text, Q, names)
        canon = format_poly(p, names)
        assert parse_poly(canon, Q, names) == p


def test_nesting_depth_is_bounded():
    from rinehart.parse import MAX_NESTING
    names = ("x", "y")
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_poly(deep, Q, names) == Poly.variable(Q, 2, 0)
    for depth in (MAX_NESTING + 1, 5000):
        with pytest.raises(ParseError, match="nest"):
            parse_poly("(" * depth + "x" + ")" * depth, Q, names)


def test_powers_are_capped_by_the_degree_bound_and_term_count():
    from rinehart.parse import MAX_DIGITS, MAX_TERMS
    from rinehart.poly import MAX_DEGREE
    names = ("x", "y")
    x = Poly.variable(Q, 2, 0)
    assert parse_poly(f"x^{MAX_DEGREE}", Q, names) == x ** MAX_DEGREE
    bad = [f"x^{MAX_DEGREE + 1}", "(x+y+1)^3000", f"(x^2)^{MAX_DEGREE // 2 + 1}",
           "2^100000", "(x+y+1)^127", f"x^{MAX_DEGREE}*y", "9" * (MAX_DIGITS + 1),
           " + ".join(f"x^{i}*y^{j}" for i in range(1, 30) for j in range(1, 30))]
    for text in bad:
        with pytest.raises(ParseError):
            parse_poly(text, Q, names)
    assert len(parse_poly("(x+y+1)^30", Q, names).terms) <= MAX_TERMS


def test_products_are_refused_before_they_are_expanded():
    import time
    from rinehart.parse import MAX_TERMS
    big = "1" + "7" * 19                   # a 20-digit literal: the power stays below MAX_DIGITS
    factor = f"({big}*x+{big}*y+1)^30"     # 496 terms with 600-digit coefficients
    start = time.perf_counter()
    with pytest.raises(ParseError, match="product could have more than"):
        parse_poly(f"{factor}*{factor}", Q, ("x", "y"))
    assert time.perf_counter() - start < 5
    # the 200-digit factor that took 38 s when the product was formed first: its power
    # already passes the coefficient bound
    big = "1" + "7" * 199
    factor = f"({big}*x+{big}*y+1)^30"
    start = time.perf_counter()
    with pytest.raises(ParseError, match="could have"):
        parse_poly(f"{factor}*{factor}", Q, ("x", "y"))
    assert time.perf_counter() - start < 5
    # 31 * 31 = 961 term pairs, but only 61 monomials of degree at most 60 in one variable
    assert 31 * 31 > MAX_TERMS
    x = Poly.variable(Q, 1, 0)
    one = Poly.constant(Q, 1, Q.one())
    assert parse_poly("(x+1)^30*(x+1)^30", Q, ("x",)) == (x + one) ** 60


def test_product_bound_counts_only_the_degrees_a_product_can_reach():
    from math import comb
    from rinehart.parse import MAX_TERMS
    names = ("x", "y")
    x, y = Poly.variable(Q, 2, 0), Poly.variable(Q, 2, 1)
    # degrees 50..50 only: C(52, 2) - C(51, 2) = 51 monomials, though C(52, 2) > MAX_TERMS
    assert comb(52, 2) > MAX_TERMS and comb(52, 2) - comb(51, 2) == 51
    got = parse_poly("(x+y)^25*(x+y)^25", Q, names)
    assert got == (x + y) ** 50 and len(got.terms) == 51
    assert parse_poly("x^2*(x+y)^20*y", Q, names) == x * x * (x + y) ** 20 * y
    # a factor with a constant term reaches every degree from 0: still refused
    big = "1" + "7" * 19
    for text in ("(x+y+1)^30*(x+y+1)^30", f"({big}*x+{big}*y+1)^30*({big}*x+{big}*y+1)^30"):
        with pytest.raises(ParseError, match="product could have more than"):
            parse_poly(text, Q, names)
    # zero and constant factors stay cheap, also with no variables at all
    assert parse_poly("0*(x+y+1)^30*(x+y+1)^30", Q, names) == Poly.zero(Q, 2)
    assert parse_scalar("2*3", Q) == Q.from_int(6)


def test_coefficient_bounds_refuse_long_powers_and_products_before_expanding():
    import json
    import time
    from pathlib import Path
    from rinehart.cli import build_workspace
    from rinehart.parse import MAX_DIGITS
    names = ("x", "y")
    big = "1" + "7" * (MAX_DIGITS - 1)     # the longest literal allowed
    start = time.perf_counter()
    long_power = f"power could have coefficients of more than {MAX_DIGITS} digits"
    with pytest.raises(ParseError, match=long_power):
        parse_poly(f"({big}*x+{big}*y+1)^30", Q, names)  # 496 terms: 14 s when expanded
    assert time.perf_counter() - start < 1
    with pytest.raises(ParseError, match="product could have coefficients"):
        parse_poly(f"{big}*{big}", Q, names)
    with pytest.raises(ParseError, match="power could have coefficients"):
        parse_poly(f"(1/{big}*x + 1)^2", Q, names)  # the denominators are bounded too
    with pytest.raises(ParseError, match="power could have coefficients"):
        parse_poly(f"({big}*al + x)^2", QI, ("x",))
    # (sum |c_i|)^k is the bound: 2^127 and (1/3 x + 1/7)^120 are short, and F_p has none
    assert parse_scalar("2^127", Q) == Q.from_int(2 ** 127)
    assert len(parse_poly("(1/3*x + 1/7)^120", Q, ("x",)).terms) == 121
    assert len(parse_poly(f"({big}*x+1)^100", F7, ("x",)).terms) <= 101
    x, y = Poly.variable(Q, 2, 0), Poly.variable(Q, 2, 1)
    assert parse_poly("(x+y)^25*(x+y)^25", Q, names) == (x + y) ** 50
    for path in sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.json")):
        build_workspace(json.loads(path.read_text()))
