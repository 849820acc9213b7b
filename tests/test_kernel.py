"""The packed-key polynomial kernel against a naive reference.

The reference keeps a polynomial as {exponent tuple: GroundScalar},
multiplies by convolution, differentiates term by term and divides by
rescanning for the grevlex-largest remaining term: the representation and
algorithm the kernel used before packed keys and heap division.  It is
compared over Q, F_2, F_5, Q(i) and the split Q(j), which has zero
divisors; sums of products reduced straight from their accumulator are
compared with it over Q, F_7, Q(i) and Q(j).  A whole check run builds the
division record of its ideal's generator once.
"""

import contextlib
import io
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rinehart import (DegreeOverflow, IdealMismatch, Poly, PrimeField, PrincipalIdeal, QuadExt,
                      QuotientElem, Rationals, divmod_poly, normal_form, sum_products)
from rinehart import cli
from rinehart.poly import MAX_DEGREE, pack, unpack

Q = Rationals()
RINGS = {
    "Q": Q,
    "F2": PrimeField(2),
    "F5": PrimeField(5),
    "Qi": QuadExt(Q, -1),
    "Qj": QuadExt(Q, 1),
}
NVARS = 3
SPECS = Path(__file__).resolve().parent.parent / "specs"


# ---------------------------------------------------------------------------
# the reference


def grevlex(m: tuple):
    return (sum(m), tuple(-e for e in reversed(m)))


def ref(p: Poly) -> dict:
    return dict(p.items())


def ref_clean(acc: dict) -> dict:
    return {m: c for m, c in acc.items() if not c.is_zero()}


def ref_add(a: dict, b: dict, ring) -> dict:
    acc = dict(a)
    for m, c in b.items():
        acc[m] = acc.get(m, ring.zero()) + c
    return ref_clean(acc)


def ref_mul(a: dict, b: dict, ring) -> dict:
    acc: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            acc[m] = acc.get(m, ring.zero()) + ca * cb
    return ref_clean(acc)


def ref_diff(a: dict, i: int, ring) -> dict:
    acc: dict = {}
    for m, c in a.items():
        if m[i]:
            dm = tuple(e - 1 if j == i else e for j, e in enumerate(m))
            acc[dm] = c * ring.from_int(m[i])
    return ref_clean(acc)


def ref_divmod(g: dict, f: dict, ring) -> tuple:
    lm = max(f, key=grevlex)
    lc_inv = f[lm].inverse()
    work, quo, rem = dict(g), {}, {}
    while work:
        m = max(work, key=grevlex)
        c = work.pop(m)
        if all(x <= y for x, y in zip(lm, m)):
            t = tuple(y - x for x, y in zip(lm, m))
            factor = c * lc_inv
            quo[t] = factor
            for fm, fc in f.items():
                if fm != lm:
                    mm = tuple(x + y for x, y in zip(t, fm))
                    work[mm] = work.get(mm, ring.zero()) - factor * fc
                    if work[mm].is_zero():
                        del work[mm]
        else:
            rem[m] = c
    return ref_clean(quo), ref_clean(rem)


# ---------------------------------------------------------------------------
# strategies


def scalars(ring):
    if isinstance(ring, PrimeField):
        return st.integers(0, ring.p - 1).map(ring.from_int)
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if isinstance(ring, QuadExt):
        return st.tuples(small, small).map(ring.scalar)
    return small.map(ring.scalar)


def polys(ring, max_exp=3, max_terms=6):
    monos = st.tuples(*[st.integers(0, max_exp)] * NVARS)
    return st.dictionaries(monos, scalars(ring), max_size=max_terms).map(
        lambda d: Poly.from_dict(ring, NVARS, d))


# ---------------------------------------------------------------------------
# arithmetic and division


@pytest.mark.parametrize("name", RINGS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_add_mul_diff_match_reference(name, data):
    ring = RINGS[name]
    a = data.draw(polys(ring), label="a")
    b = data.draw(polys(ring), label="b")
    assert ref(a + b) == ref_add(ref(a), ref(b), ring)
    assert ref(a - b) == ref_add(ref(a), {m: -c for m, c in ref(b).items()}, ring)
    assert ref(a * b) == ref_mul(ref(a), ref(b), ring)
    for i in range(NVARS):
        assert ref(a.diff(i)) == ref_diff(ref(a), i, ring)
    assert [m for m, _ in a.items()] == sorted(ref(a), key=grevlex, reverse=True)


@pytest.mark.parametrize("name", RINGS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_heap_division_matches_rescan(name, data):
    ring = RINGS[name]
    f = data.draw(polys(ring, max_exp=2, max_terms=4), label="f")
    assume(not f.is_zero() and f.leading_term()[1].is_unit())
    g = data.draw(polys(ring, max_exp=4, max_terms=8), label="g")
    g = g + data.draw(polys(ring, max_exp=2, max_terms=3), label="h") * f
    q, r = divmod_poly(g, f)
    assert q * f + r == g
    want_q, want_r = ref_divmod(ref(g), ref(f), ring)
    assert ref(r) == want_r
    assert ref(q) == want_q
    lead = f.leading_term()[0]
    for m, _ in r.items():
        assert any(e < le for e, le in zip(m, lead))


def test_split_extension_zero_divisors_cancel():
    qj = RINGS["Qj"]
    x = Poly.variable(qj, 2, 0)
    plus = Poly.constant(qj, 2, qj.scalar((1, 1)))
    minus = Poly.constant(qj, 2, qj.scalar((1, -1)))
    assert (plus * (minus * x + 1)).terms == plus.terms  # (1 + al)(1 - al) = 0
    assert ref((plus * x + 1) * (minus * x + 1)) == {
        (1, 0): qj.from_int(2), (0, 0): qj.one()}


def test_a_check_run_builds_the_division_record_once(monkeypatch):
    # normal_form, sum_products and the scan of a new class all read the generator's record
    division = vars(Poly)["division"]
    built, build = [], division.build
    monkeypatch.setattr(division, "build", lambda f: built.append(f) or build(f))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["check", "--json", "--seed", "7", str(SPECS / "sphere_q_n3.json")])
    assert code == 0 and len(built) == 1


# ---------------------------------------------------------------------------
# packed keys


exponents = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(0, MAX_DEGREE), min_size=n, max_size=n)
    .filter(lambda e: sum(e) <= MAX_DEGREE).map(tuple))


@given(a=exponents, data=st.data())
@settings(max_examples=300, deadline=None)
def test_packed_keys_order_add_and_divide(a, data):
    n = len(a)
    b = data.draw(st.lists(st.integers(0, MAX_DEGREE), min_size=n, max_size=n)
                  .filter(lambda e: sum(e) <= MAX_DEGREE).map(tuple))
    ka, kb = pack(a), pack(b)
    assert unpack(ka, n) == a
    assert (ka < kb) == (grevlex(a) < grevlex(b))
    assert (ka == kb) == (a == b)
    if sum(a) + sum(b) <= MAX_DEGREE:
        assert ka + kb == pack(tuple(x + y for x, y in zip(a, b)))
    divides = all(x <= y for x, y in zip(a, b))
    guard = Poly.variable(Q, n, 0).division[3]  # the guard of every divisor in n variables
    assert (not (ka - kb) & guard) == divides


def test_degree_bound_raises_instead_of_misordering():
    x = Poly.variable(Q, 2, 0)
    y = Poly.variable(Q, 2, 1)
    top = x ** MAX_DEGREE
    assert top.total_degree() == MAX_DEGREE
    assert top.leading_term()[0] == (MAX_DEGREE, 0)
    with pytest.raises(DegreeOverflow):
        top * y
    with pytest.raises(DegreeOverflow):
        pack((MAX_DEGREE, 1))
    with pytest.raises(DegreeOverflow):
        Poly.from_dict(Q, 2, {(MAX_DEGREE + 1, 0): Q.one()})
    # the largest representable monomials still order by grevlex
    assert pack((0, MAX_DEGREE)) < pack((1, MAX_DEGREE - 1)) < pack((MAX_DEGREE, 0))


# ---------------------------------------------------------------------------
# sums of products reduced from their accumulator

REDUCE_RINGS = {"Q": Q, "F7": PrimeField(7), "Qi": RINGS["Qi"], "Qj": RINGS["Qj"]}
# the monomials below xy in grevlex: a division by xy + tail adds tail terms that are
# often divisible by xy again, so the divisions cascade
BELOW_XY = [(0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2), (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (0, 0, 0)]


@pytest.mark.parametrize("name", REDUCE_RINGS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reduced_sum_of_products_is_the_normal_form(name, data):
    ring = REDUCE_RINGS[name]
    lc = data.draw(scalars(ring).filter(lambda c: c.is_unit()), label="lc")
    tail = data.draw(st.dictionaries(st.sampled_from(BELOW_XY), scalars(ring), max_size=5),
                     label="tail")
    f = Poly.from_dict(ring, NVARS, {**tail, (1, 1, 0): lc})
    ideal = PrincipalIdeal.of(f)
    pairs = data.draw(st.lists(st.tuples(polys(ring), polys(ring)), max_size=4), label="pairs")
    reduced = sum_products(ring, NVARS, pairs, ideal)
    plain = sum_products(ring, NVARS, pairs)
    assert reduced == normal_form(plain, ideal) == divmod_poly(plain, f)[1]
    assert ref(reduced) == ref_divmod(ref(plain), ref(f), ring)[1]
    if pairs:
        a, b = pairs[0]
        assert (QuotientElem(a, ideal) * QuotientElem(b, ideal)).rep == \
            sum_products(ring, NVARS, [pairs[0]], ideal)


def test_reduced_sum_past_max_degree_overflows():
    x, y = Poly.variable(Q, 2, 0), Poly.variable(Q, 2, 1)
    ideal = PrincipalIdeal.of(x * y - 1)
    top = x ** MAX_DEGREE
    # x^MAX_DEGREE * y reduces to x^(MAX_DEGREE - 1), but the product is formed first
    with pytest.raises(DegreeOverflow):
        sum_products(Q, 2, [(x, x), (top, y)], ideal)
    with pytest.raises(DegreeOverflow):
        QuotientElem(top, ideal) * QuotientElem(y, ideal)
    assert sum_products(Q, 2, [(top, Poly.constant(Q, 2, Q.one()))], ideal) == top


def test_reduced_sum_refuses_an_ideal_of_another_ring():
    x = Poly.variable(Q, 2, 0)
    for f in (Poly.variable(Q, 3, 0), Poly.variable(PrimeField(5), 2, 0)):
        with pytest.raises(IdealMismatch):
            sum_products(Q, 2, [(x, x)], PrincipalIdeal.of(f))
