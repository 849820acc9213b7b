"""Polynomial kernel: grevlex order, division, normal forms, quotient units.

Oracles:
  * multiplication is cross-checked against a naive dict-convolution
    implemented here, independent of the engine's term representation;
  * division/normal forms over Q are cross-checked against sympy's
    multivariate reduction with the same monomial order;
  * frozen values (inverse of [x] mod x^2 - 2, NF of the sphere ideal)
    were derived by hand via the extended Euclidean algorithm first.
"""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart import (ArityMismatch, Poly, PrimeField, PrincipalIdeal, QuadExt, QuotientElem,
                      Rationals, RingMismatch, UnitStatus, divide_exact, divmod_poly,
                      format_poly, normal_form, parse_poly, unit_status)
from rinehart.poly import _canonical, pack
from conftest import sample_scalar, seeded

Q = Rationals()
F5 = PrimeField(5)


def naive_mul(p: Poly, q: Poly) -> dict:
    """Independent product oracle: plain dict convolution."""
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            cur = out.get(key, p.ring.zero())
            out[key] = cur + ca * cb
    return {e: c for e, c in out.items() if not c.is_zero()}


def as_dict(p: Poly) -> dict:
    return {e: c for e, c in p.items()}


def random_small_poly(rng, ring, nvars, max_degree=3, max_terms=4) -> Poly:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exp = [0] * nvars
        for _ in range(rng.randrange(max_degree + 1)):
            exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = sample_scalar(rng, ring)
    return Poly.from_dict(ring, nvars, terms)


def to_sympy(p: Poly, syms):
    expr = sympy.Integer(0)
    for exp, coeff in p.items():
        term = sympy.Rational(coeff.num, coeff.den)
        for s, e in zip(syms, exp):
            term *= s**e
        expr += term
    return sympy.expand(expr)


# ---------------------------------------------------------------------------
# ordering


def test_grevlex_order_two_vars():
    # degree first, then smaller trailing exponent wins: x^2 > xy > y^2 > x > y > 1
    monos = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    assert sorted(monos, key=pack, reverse=True) == monos


def test_grevlex_order_three_vars():
    # classic grevlex discriminating example: x*z < y^2 in grevlex, x1 > x2 > x3
    assert pack((0, 2, 0)) > pack((1, 0, 1))
    assert pack((1, 1, 0)) > pack((0, 2, 0))


def test_leading_term_and_canonical_sorting():
    x = Poly.variable(Q, 2, 0)
    y = Poly.variable(Q, 2, 1)
    p = y + x * x + Poly.constant(Q, 2, Q.from_int(3)) * (x * y)
    exps = [e for e, _ in p.items()]
    assert exps == sorted(exps, key=pack, reverse=True)
    assert p.leading_term()[0] == (2, 0)


# ---------------------------------------------------------------------------
# arithmetic


def test_multiplication_against_naive_oracle(any_ring):
    rng = seeded(f"poly-mul:{any_ring}")
    for _ in range(300):
        p = random_small_poly(rng, any_ring, 2)
        q = random_small_poly(rng, any_ring, 2)
        assert as_dict(p * q) == naive_mul(p, q)


def test_ring_axioms_for_polynomials(any_ring):
    rng = seeded(f"poly-laws:{any_ring}")
    for _ in range(150):
        a = random_small_poly(rng, any_ring, 2)
        b = random_small_poly(rng, any_ring, 2)
        c = random_small_poly(rng, any_ring, 2)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_poly_laws_hypothesis(data):
    def poly(label):
        terms = data.draw(
            st.dictionaries(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                st.integers(-4, 4).map(F5.from_int),
                max_size=4),
            label=label)
        return Poly.from_dict(F5, 2, terms)
    a, b, c = poly("a"), poly("b"), poly("c")
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_power_matches_repeated_product():
    rng = seeded("poly-pow")
    for _ in range(50):
        p = random_small_poly(rng, Q, 2, max_degree=2, max_terms=3)
        acc = Poly.constant(Q, 2, Q.one())
        for k in range(5):
            assert p**k == acc
            acc = acc * p


def test_derivative_leibniz_and_commutation(any_ring):
    rng = seeded(f"poly-diff:{any_ring}")
    for _ in range(150):
        g = random_small_poly(rng, any_ring, 3)
        h = random_small_poly(rng, any_ring, 3)
        for i in range(3):
            assert (g * h).diff(i) == g.diff(i) * h + g * h.diff(i)
        for i, j in itertools.combinations(range(3), 2):
            assert g.diff(i).diff(j) == g.diff(j).diff(i)


def test_derivative_basics():
    x = Poly.variable(Q, 2, 0)
    y = Poly.variable(Q, 2, 1)
    p = x * x * y + y
    assert p.diff(0) == 2 * (x * y)
    assert p.diff(1) == x * x + Poly.constant(Q, 2, Q.one())
    with pytest.raises(IndexError):
        p.diff(2)
    with pytest.raises(IndexError):
        p.diff(-1)


def reference_partial(p: Poly, i: int) -> Poly:
    """d_i p term by term over exponent tuples: e x^m -> e m_i x^(m - e_i)."""
    out = {}
    for exp, c in p.items():
        if exp[i]:
            lowered = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
            out[lowered] = out.get(lowered, p.ring.zero()) + c * p.ring.from_int(exp[i])
    return Poly.from_dict(p.ring, p.nvars, out)


def test_partials_match_the_term_by_term_derivative(any_ring):
    rng = seeded(f"poly-partials:{any_ring}")
    for nvars in (1, 2, 4):
        for _ in range(60):
            p = random_small_poly(rng, any_ring, nvars, max_degree=6, max_terms=6)
            assert len(p.partials) == nvars
            assert p.partials == tuple(reference_partial(p, i) for i in range(nvars))
            # taken once: diff reads the same objects
            assert all(p.diff(i) is p.partials[i] for i in range(nvars))
    # e = p in characteristic p: the term drops
    x = Poly.variable(PrimeField(5), 1, 0)
    assert (x ** 5).partials == (Poly.zero(PrimeField(5), 1),)


def test_partials_built_canonical_match_the_canonical_pass():
    # over Q with den 1 the parts skip _canonical: the same terms tuple and hash
    rng = seeded("poly-partials-fast-path")
    for ring in (Q, QuadExt(Q, -1)):
        for _ in range(40):
            p = random_small_poly(rng, ring, 3, max_degree=5, max_terms=6)
            p = p.scale(ring.from_int(p.den))  # clear the denominator
            assert p.den == 1
            for i, d in enumerate(p.partials):
                ref = reference_partial(p, i)
                want = _canonical(ring, 3, list(ref.terms), 1)
                assert (d.terms, d.den, hash(d)) == (want.terms, want.den, hash(want))
    # den > 1 over Q: (1/2) x^2 has the partial x over den 1, not 2/2 x
    half = parse_poly("1/2*x^2 + 1/3*y", Q, ("x", "y"))
    assert [(d.terms, d.den) for d in half.partials] == [
        (parse_poly("x", Q, ("x", "y")).terms, 1), (((0, 1),), 3)]
    # F_3: the weight 3 of x^3 y reduces to zero, the weight 2 of y^2 to 2
    f3 = PrimeField(3)
    d = parse_poly("x^3*y + y^2", f3, ("x", "y")).partials
    assert d[0].is_zero() and d[1] == parse_poly("x^3 + 2*y", f3, ("x", "y"))


def test_absent_variables_share_one_zero_partial():
    names = ("x", "y", "z", "w")
    d = parse_poly("x^2*z + 3*z - 1", Q, names).partials
    assert d[1] is d[3] and d[1] == Poly.zero(Q, 4)
    assert d[0] == parse_poly("2*x*z", Q, names) and d[2] == parse_poly("x^2 + 3", Q, names)
    # x^7 over F_7: x occurs, yet its weight 7 reduces to 0
    x, y = Poly.variable(PrimeField(7), 2, 0), Poly.variable(PrimeField(7), 2, 1)
    assert (x ** 7 + y).partials == (Poly.zero(PrimeField(7), 2), y ** 0)


def test_total_degree_and_zero_conventions():
    z = Poly.zero(Q, 2)
    assert z.is_zero() and z.total_degree() == -1
    one = Poly.constant(Q, 2, Q.one())
    assert one.total_degree() == 0
    x = Poly.variable(Q, 2, 0)
    assert (x * x + x).total_degree() == 2


# ---------------------------------------------------------------------------
# division and normal forms


def _sphere_ideal(nvars, ring):
    gen = Poly.zero(ring, nvars)
    for i in range(nvars):
        v = Poly.variable(ring, nvars, i)
        gen = gen + v * v
    gen = gen - Poly.constant(ring, nvars, ring.one())
    return PrincipalIdeal.of(gen)


def test_division_identity_and_remainder_reduced():
    rng = seeded("poly-div")
    ideal = _sphere_ideal(2, Q)
    f = ideal.generator
    for _ in range(200):
        g = random_small_poly(rng, Q, 2, max_degree=5, max_terms=5)
        q, r = divmod_poly(g, f)
        assert q * f + r == g
        lead = f.leading_term()[0]
        for exp, _ in r.items():
            assert any(exp[i] < lead[i] for i in range(2))


def test_division_by_the_zero_polynomial_is_refused():
    with pytest.raises(ZeroDivisionError, match="division by the zero polynomial"):
        divmod_poly(Poly.variable(Q, 2, 0), Poly.zero(Q, 2))


def test_normal_form_against_sympy():
    xs, ys = sympy.symbols("x y")
    ideal = _sphere_ideal(2, Q)
    f = ideal.generator
    rng = seeded("poly-nf-sympy")
    for _ in range(100):
        g = random_small_poly(rng, Q, 2, max_degree=5, max_terms=5)
        r = normal_form(g, ideal)
        _, r_sym = sympy.reduced(to_sympy(g, (xs, ys)), [to_sympy(f, (xs, ys))],
                                 xs, ys, order="grevlex")
        assert to_sympy(r, (xs, ys)) == sympy.expand(r_sym)


def test_normal_form_frozen_sphere_value():
    ideal = _sphere_ideal(2, Q)
    x = Poly.variable(Q, 2, 0)
    y = Poly.variable(Q, 2, 1)
    assert normal_form(x * x + y * y, ideal) == Poly.constant(Q, 2, Q.one())
    assert normal_form((x * x + y * y) - Poly.constant(Q, 2, Q.one()), ideal).is_zero()
    assert not normal_form(x, ideal).is_zero()


def test_normal_form_idempotent_and_homomorphic(any_ring):
    if not any_ring.is_field():
        ideal = None
        try:
            ideal = _sphere_ideal(2, any_ring)
        except ValueError:
            pytest.skip("sphere generator is not monicizable here")
    else:
        ideal = _sphere_ideal(2, any_ring)
    rng = seeded(f"poly-nf:{any_ring}")
    nf = lambda p: normal_form(p, ideal)
    for _ in range(500):
        g = random_small_poly(rng, any_ring, 2, max_degree=4)
        h = random_small_poly(rng, any_ring, 2, max_degree=4)
        assert nf(nf(g)) == nf(g)
        assert nf(g + h) == nf(nf(g) + nf(h))
        assert nf(g * h) == nf(nf(g) * nf(h))


def test_ideal_difference_exactly_divisible():
    rng = seeded("poly-div-exact")
    ideal = _sphere_ideal(3, Q)
    f = ideal.generator
    for _ in range(100):
        g = random_small_poly(rng, Q, 3, max_degree=4)
        r = normal_form(g, ideal)
        h = divide_exact(g - r, f)
        assert h * f == g - r


def test_divide_exact_rejects_nondivisible():
    x = Poly.variable(Q, 2, 0)
    y = Poly.variable(Q, 2, 1)
    assert divide_exact(x * x + y, x + 1) is None
    assert divide_exact((x + 1) * (y - 2), x + 1) == y - 2


def test_principal_ideal_requirements():
    x = Poly.variable(Q, 1, 0)
    with pytest.raises(ValueError):
        PrincipalIdeal.of(Poly.constant(Q, 1, Q.one()))      # constant
    with pytest.raises(ValueError):
        PrincipalIdeal.of(Poly.zero(Q, 1))
    two_x = 2 * (x * x) + x
    ideal = PrincipalIdeal.of(two_x)
    assert ideal.generator.leading_term()[1].is_one()        # stored monic


# ---------------------------------------------------------------------------
# quotient elements and unit detection


def test_quotient_always_reduced():
    ideal = _sphere_ideal(2, Q)
    x = Poly.variable(Q, 2, 0)
    y = Poly.variable(Q, 2, 1)
    u = QuotientElem(x * x + y * y, ideal)
    assert u.rep == Poly.constant(Q, 2, Q.one())
    v = QuotientElem(x, ideal)
    assert (v * v + QuotientElem(y, ideal) ** 2).rep == Poly.constant(Q, 2, Q.one())


def test_quotient_negative_power_rejected():
    ideal = _sphere_ideal(3, Q)
    u = QuotientElem(Poly.variable(Q, 3, 0) + Poly.constant(Q, 3, Q.one()), ideal)
    assert u ** 0 == QuotientElem(Poly.constant(Q, 3, Q.one()), ideal)
    with pytest.raises(ValueError):
        u ** -1


def test_quotient_equality_is_rep_equality():
    ideal = _sphere_ideal(2, Q)
    x = Poly.variable(Q, 2, 0)
    a = QuotientElem(x, ideal)
    b = QuotientElem(x + ideal.generator, ideal)
    assert a == b
    assert hash(a) == hash(b)


def test_unit_status_frozen_sqrt2_example():
    # [x] is a unit in Q[x]/(x^2 - 2) with inverse x/2:
    # extended Euclid gives 1 = (x/2)*x - (1/2)*(x^2 - 2)
    x = Poly.variable(Q, 1, 0)
    ideal = PrincipalIdeal.of(x * x - Poly.constant(Q, 1, Q.from_int(2)))
    u = QuotientElem(x, ideal)
    status, inv = unit_status(u)
    assert status == UnitStatus.UNIT
    half = Q.scalar(Fraction(1, 2))
    assert inv.rep == Poly.from_dict(Q, 1, {(1,): half})
    assert (u * inv).rep == Poly.constant(Q, 1, Q.one())


def test_unit_status_zero_divisor():
    x = Poly.variable(Q, 1, 0)
    ideal = PrincipalIdeal.of(x * x)
    u = QuotientElem(x, ideal)
    assert unit_status(u) == (UnitStatus.NON_UNIT, None)


def test_unit_status_constants():
    ideal = _sphere_ideal(2, Q)
    two = QuotientElem(Poly.constant(Q, 2, Q.from_int(2)), ideal)
    status, inv = unit_status(two)
    assert status == UnitStatus.UNIT
    assert inv.rep == Poly.constant(Q, 2, Q.scalar(Fraction(1, 2)))
    zero = QuotientElem(Poly.zero(Q, 2), ideal)
    assert unit_status(zero)[0] == UnitStatus.NON_UNIT


def test_unit_status_ambient_ring():
    x = Poly.variable(Q, 2, 0)
    u = QuotientElem(x, None)
    assert unit_status(u)[0] == UnitStatus.NON_UNIT   # no nilpotents in Q
    nil = QuadExt(PrimeField(2), 1)
    v = QuotientElem(Poly.variable(nil, 2, 0), None)
    assert unit_status(v)[0] == UnitStatus.UNKNOWN


def test_unit_status_undecided_multivariate():
    ideal = _sphere_ideal(2, Q)
    u = QuotientElem(Poly.variable(Q, 2, 0), ideal)
    assert unit_status(u) == (UnitStatus.UNKNOWN, None)


def test_unit_status_disjoint_variables():
    # x is a non-unit mod (y^2 - 2): the quotient is a free module over Q[x]
    x = Poly.variable(Q, 2, 0)
    y = Poly.variable(Q, 2, 1)
    ideal = PrincipalIdeal.of(y * y - Poly.constant(Q, 2, Q.from_int(2)))
    assert unit_status(QuotientElem(x, ideal))[0] == UnitStatus.NON_UNIT


def test_quotient_random_inverse_roundtrip():
    # every certified inverse must multiply back to 1
    rng = seeded("poly-invert")
    x = Poly.variable(F5, 1, 0)
    ideal = PrincipalIdeal.of(x * x + x + Poly.constant(F5, 1, F5.from_int(2)))
    hits = 0
    for _ in range(200):
        u = QuotientElem(random_small_poly(rng, F5, 1, max_degree=3), ideal)
        status, inv = unit_status(u)
        if status == UnitStatus.UNIT:
            hits += 1
            assert (u * inv).rep == Poly.constant(F5, 1, F5.one())
        elif status == UnitStatus.NON_UNIT and not u.rep.is_zero():
            # a certified non-unit over a field must share a factor with f
            assert not u.rep.is_constant()
    assert hits > 50


# ---------------------------------------------------------------------------
# printing


def test_format_poly_frozen_strings():
    x = Poly.variable(Q, 2, 0)
    y = Poly.variable(Q, 2, 1)
    one = Poly.constant(Q, 2, Q.one())
    cases = [
        (Poly.zero(Q, 2), "0"),
        (one, "1"),
        (x, "x"),
        (-x, "-x"),
        (x * x + 2 * (x * y) - 3 * one, "x^2 + 2*x*y - 3"),
        (x - one, "x - 1"),
        (Q.scalar(Fraction(1, 2)) * x, "1/2*x"),
        (-(x * x) - y, "-x^2 - y"),
    ]
    for poly, text in cases:
        assert format_poly(poly, ("x", "y")) == text


def test_format_poly_quad_ext_parenthesizes():
    qi = QuadExt(Q, -1)
    x = Poly.variable(qi, 1, 0)
    al = Poly.constant(qi, 1, qi.scalar((Fraction(0), Fraction(1))))
    onep = Poly.constant(qi, 1, qi.scalar((Fraction(1), Fraction(1))))
    assert format_poly(al * x, ("x",)) == "al*x"
    assert format_poly(onep * x, ("x",)) == "(1+al)*x"


# ---------------------------------------------------------------------------
# subtraction is one merge, with the sign folded into the subtrahend's weight


def test_subtraction_cancels_to_a_multiple_of_p():
    F7 = PrimeField(7)
    x = Poly.variable(F7, 1, 0)
    three, ten = x.scale(F7.from_int(3)), x.scale(F7.from_int(10))
    diff = three - ten
    assert diff.is_zero() and diff.den == 1 and diff == Poly.zero(F7, 1)
    assert ten - x.scale(F7.from_int(2)) == x  # 10x - 2x = 8x = x


def test_subtraction_over_unequal_denominators():
    x = Poly.variable(Q, 1, 0)
    half, third = x.scale(Q.scalar(Fraction(1, 2))), x.scale(Q.scalar(Fraction(1, 3)))
    diff = half - third
    assert diff == x.scale(Q.scalar(Fraction(1, 6))) and diff.den == 6
    assert (third - half) == -diff and (half - half).is_zero()
    assert (half - half).den == 1


def test_subtraction_refuses_foreign_operands():
    x = Poly.variable(Q, 2, 0)
    with pytest.raises(RingMismatch):
        x - Poly.variable(F5, 2, 0)
    with pytest.raises(ArityMismatch):
        x - Poly.variable(Q, 3, 0)
    with pytest.raises(RingMismatch):
        x - F5.from_int(1)
    with pytest.raises(RingMismatch):
        F5.from_int(1) - x
    assert x.__sub__("x") is NotImplemented and x.__rsub__("x") is NotImplemented


def test_subtraction_with_scalars_on_either_side():
    x = Poly.variable(Q, 1, 0)
    two = Q.from_int(2)
    c2 = Poly.constant(Q, 1, two)
    assert x - 2 == x + Poly.constant(Q, 1, Q.from_int(-2))
    assert 2 - x == c2 + (-x)
    assert x - two == x - c2 and two - x == c2 - x
    assert (2 - Poly.constant(Q, 1, two)).is_zero()
    assert x - 0 is x and 0 - x == -x
