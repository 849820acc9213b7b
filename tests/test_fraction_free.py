"""Polynomials over Q, Q(i) and Q(j) as integer numerators over one denominator.

The kernel is compared with a plain {exponent tuple: Fraction} reference kept
here (pairs of Fractions over Q(i)), on coefficients with denominators,
including divisors whose monic tails are fractional, as the generators of the
spheres of curvature 2 and 4 are.  Then the hazards of the representation: a
term list alone no longer identifies a polynomial, so 1/2 must not pass for 1
and x/2 must not share a memo entry with x; the kernel builds no `Fraction`;
sums, differences and negations of reduced classes are normal forms built
without a reduction scan; and scalars of another ring are refused where they
enter.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart import (KoszulConnection, Metric, Poly, PrimeField, PrincipalIdeal, QuadExt,
                      QuotientElem, Rationals, RingMismatch, RinehartSpace, divmod_poly,
                      flat, inner, make_sphere, normal_form, project_tangent, sum_products)
from rinehart.hypersurface import InducedConnection
from rinehart.poly import _divide, class_key
from rinehart.randgen import random_poly, rng_for

Q = Rationals()
QI = QuadExt(Q, -1)
F7 = PrimeField(7)
NVARS = 3


# ---------------------------------------------------------------------------
# the reference: {exponent tuple: value}, a value a Fraction or a pair of them


def v_add(a, b):
    return (a[0] + b[0], a[1] + b[1]) if isinstance(a, tuple) else a + b


def v_mul(a, b):
    if isinstance(a, tuple):  # (a0 + a1 i)(b0 + b1 i)
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    return a * b


def v_neg(a):
    return (-a[0], -a[1]) if isinstance(a, tuple) else -a


def v_inv(a):
    if isinstance(a, tuple):
        norm = a[0] * a[0] + a[1] * a[1]
        return (a[0] / norm, -a[1] / norm)
    return 1 / a


def v_zero(a) -> bool:
    return a == (0, 0) if isinstance(a, tuple) else a == 0


def clean(acc: dict) -> dict:
    return {m: c for m, c in acc.items() if not v_zero(c)}


def r_add(a: dict, b: dict) -> dict:
    acc = dict(a)
    for m, c in b.items():
        acc[m] = v_add(acc[m], c) if m in acc else c
    return clean(acc)


def r_mul(a: dict, b: dict) -> dict:
    acc: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            acc[m] = v_add(acc[m], v_mul(ca, cb)) if m in acc else v_mul(ca, cb)
    return clean(acc)


def r_scale(a: dict, c) -> dict:
    return clean({m: v_mul(v, c) for m, v in a.items()})


def r_diff(a: dict, i: int) -> dict:
    return clean({tuple(e - (j == i) for j, e in enumerate(m)): v_mul(c, as_value(c, m[i]))
                  for m, c in a.items() if m[i]})


def as_value(like, k: int):
    return (Fraction(k), Fraction(0)) if isinstance(like, tuple) else Fraction(k)


def grevlex(m: tuple):
    return (sum(m), tuple(-e for e in reversed(m)))


def r_divmod(g: dict, f: dict) -> tuple:
    """Division by rescanning for the grevlex-largest remaining term."""
    lm = max(f, key=grevlex)
    lc_inv = v_inv(f[lm])
    work, quo, rem = dict(g), {}, {}
    while work:
        m = max(work, key=grevlex)
        c = work.pop(m)
        if all(x <= y for x, y in zip(lm, m)):
            t = tuple(y - x for x, y in zip(lm, m))
            q = v_mul(c, lc_inv)
            quo[t] = q
            for fm, fc in f.items():
                if fm != lm:
                    mm = tuple(x + y for x, y in zip(t, fm))
                    work[mm] = v_add(work.get(mm, v_mul(q, as_value(q, 0))), v_neg(v_mul(q, fc)))
                    if v_zero(work[mm]):
                        del work[mm]
        else:
            rem[m] = c
    return clean(quo), clean(rem)


def poly_of(ring, ref: dict) -> Poly:
    return Poly.from_dict(ring, NVARS, {m: ring.scalar(c) for m, c in ref.items()})


def ref_of(p: Poly) -> dict:
    """The reference of a Poly, read through the API boundary `items`."""
    out = {}
    for m, c in p.items():
        v, d = c.num, c.den
        out[m] = (Fraction(v[0], d), Fraction(v[1], d)) if isinstance(v, tuple) else Fraction(v, d)
    return out


# ---------------------------------------------------------------------------
# strategies: coefficients with denominators up to 6, and sphere-like divisors

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
nonzero_fractions = fractions.filter(bool)


def values(ring):
    if ring is F7:
        return st.integers(-6, 6).map(Fraction)
    return st.tuples(fractions, fractions) if isinstance(ring, QuadExt) else fractions


def refs(ring, max_exp=3, max_terms=6):
    monos = st.tuples(*[st.integers(0, max_exp)] * NVARS)
    return st.dictionaries(monos, values(ring), max_size=max_terms).map(clean)


SPHERES = {c: {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1),
               (0, 0, 0): Fraction(-1, c)} for c in (2, 4)}
BELOW_XY = [(0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2), (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (0, 0, 0)]


def divisors(ring):
    """Sphere generators of curvature 2 and 4, and xy + a fractional tail under a leading
    coefficient that is 1 or a random unit, so that divisions cascade."""
    def lift(ref):
        return {m: (c, Fraction(0)) for m, c in ref.items()} if ring is QI else ref
    sphere = st.sampled_from(sorted(SPHERES)).map(lambda c: lift(SPHERES[c]))
    lc = st.one_of(st.just(Fraction(1)), nonzero_fractions).map(lambda c: lift({(): c})[()])
    tail = st.dictionaries(st.sampled_from(BELOW_XY), values(ring), max_size=5)
    xy = st.builds(lambda c, t: clean({**t, (1, 1, 0): c}), lc, tail)
    return st.one_of(sphere, xy)


RINGS = {"Q": Q, "Qi": QI}


@pytest.mark.parametrize("name", RINGS)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_kernel_matches_the_fraction_reference(name, data):
    ring = RINGS[name]
    a, b, c, d = (data.draw(refs(ring), label=label) for label in "abcd")
    pa, pb, pc, pd = (poly_of(ring, r) for r in (a, b, c, d))
    assert ref_of(pa) == a and ref_of(pa + pb) == r_add(a, b)
    assert ref_of(pa - pb) == r_add(a, {m: v_neg(v) for m, v in b.items()})
    assert ref_of(pa * pb) == r_mul(a, b)
    assert ref_of(sum_products(ring, NVARS, [(pa, pb), (pc, pd)])) == \
        r_add(r_mul(a, b), r_mul(c, d))
    assert [ref_of(p) for p in pa.partials] == [r_diff(a, i) for i in range(NVARS)]
    k = data.draw(values(ring), label="k")
    assert ref_of(pa.scale(ring.scalar(k))) == r_scale(a, k)
    for p, r in ((pa, a), (pa + pb, r_add(a, b))):
        assert p.den >= 1 and p == poly_of(ring, r) and hash(p) == hash(poly_of(ring, r))
    const = data.draw(values(ring), label="const")
    cp = Poly.constant(ring, NVARS, ring.scalar(const))
    assert ref_of(Poly.constant(ring, NVARS, cp.constant_value())) == clean({(0,) * NVARS: const})

    f = data.draw(divisors(ring), label="f")
    pf = poly_of(ring, f)
    q, r = divmod_poly(pa, pf)
    want_q, want_r = r_divmod(a, f)
    assert ref_of(q) == want_q and ref_of(r) == want_r
    ideal = PrincipalIdeal.of(pf)
    reduced = sum_products(ring, NVARS, [(pa, pb), (pc, pd)], ideal)
    assert ref_of(reduced) == r_divmod(r_add(r_mul(a, b), r_mul(c, d)), f)[1]


PARTIAL_RINGS = {"Q": Q, "F7": F7, "Qi": QI, "Qj": QuadExt(Q, 1)}


def mod7(ref: dict) -> dict:
    return clean({m: Fraction(int(c) % 7) for m, c in ref.items()})


@pytest.mark.parametrize("name", PARTIAL_RINGS)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_partials_match_the_fraction_reference(name, data):
    # exponents up to 8 reach e = 7, whose weight vanishes over F_7; the reference
    # weights by (e, 0) over Q(al), where i- and j-multiplication agree
    ring = PARTIAL_RINGS[name]
    a = data.draw(refs(ring, max_exp=8), label="a")
    want = mod7 if ring is F7 else (lambda ref: ref)
    pa = poly_of(ring, a)
    assert ref_of(pa) == want(a)
    assert [ref_of(p) for p in pa.partials] == [want(r_diff(a, i)) for i in range(NVARS)]


# ---------------------------------------------------------------------------
# sums, differences and negations of reduced classes skip the reduction scan


def class_ops(a: QuotientElem, b: QuotientElem) -> tuple:
    """(a + b, a - b, -a), failing if any of them calls `QuotientElem.__post_init__`."""
    calls = []
    scan = QuotientElem.__post_init__

    def counting(self):
        calls.append(self)
        scan(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QuotientElem, "__post_init__", counting)
        out = a + b, a - b, -a
    assert calls == []
    return out


@pytest.mark.parametrize("name", RINGS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_class_arithmetic_matches_the_reference_normal_form(name, data):
    ring = RINGS[name]
    a, b = (data.draw(refs(ring), label=label) for label in "ab")
    f = data.draw(divisors(ring), label="f")
    ideal = PrincipalIdeal.of(poly_of(ring, f))
    ca, cb = QuotientElem(poly_of(ring, a), ideal), QuotientElem(poly_of(ring, b), ideal)
    total, diff, neg = class_ops(ca, cb)

    def minus(r):
        return {m: v_neg(v) for m, v in r.items()}

    assert ref_of(total.rep) == r_divmod(r_add(a, b), f)[1]
    assert ref_of(diff.rep) == r_divmod(r_add(a, minus(b)), f)[1]
    assert ref_of(neg.rep) == r_divmod(minus(a), f)[1]
    assert diff == ca + (-cb)


def test_class_arithmetic_on_the_sphere_over_f7():
    ideal = make_sphere(F7, 3, F7.one()).ideal
    rng = rng_for(7, "classes")
    for _ in range(40):
        pa, pb = (random_poly(rng, F7, 3, max_degree=4, max_terms=6) for _ in range(2))
        ca, cb = QuotientElem(pa, ideal), QuotientElem(pb, ideal)
        total, diff, neg = class_ops(ca, cb)
        assert total.rep == normal_form(pa + pb, ideal)
        assert diff.rep == normal_form(pa - pb, ideal)
        assert neg.rep == normal_form(-pa, ideal)
        assert diff == ca + (-cb) and diff.rep.den == 1


def test_a_division_that_needs_a_multiplied_map():
    # x^2 by x^2 - 1/2: the term 1 is not a multiple of the tail's denominator 2
    x = Poly.variable(Q, 1, 0)
    f = x * x - Poly.constant(Q, 1, Q.scalar(Fraction(1, 2)))
    work = {k: c for k, c in (x * x + x).terms}
    quo, den = _divide(Q, work, f.division, 1)
    assert den == 2 and quo == [(0, 2)] and work == {x.terms[0][0]: 2, 0: 1}
    q, r = divmod_poly(x * x + x, f)
    assert q == Poly.constant(Q, 1, Q.one())
    assert r == x + Poly.constant(Q, 1, Q.scalar(Fraction(1, 2)))


# ---------------------------------------------------------------------------
# no Fraction inside the kernel


def test_the_kernel_builds_no_fraction(monkeypatch):
    hyper = make_sphere(Q, 3, Q.from_int(4))
    ideal = hyper.ideal
    xs = [Poly.variable(Q, 3, i) for i in range(3)]
    half = Poly.constant(Q, 3, Q.scalar(Fraction(1, 2)))
    a = (xs[0] * xs[1] + half) * xs[2] + half * xs[0]
    b = sum_products(Q, 3, [(xs[0], xs[0]), (half, xs[2])])
    fresh = [a + b, a * b, b * b]
    gi = make_sphere(QI, 3, QI.from_int(2)).ideal
    ai = Poly.from_dict(QI, 3, {(1, 1, 0): QI.scalar((Fraction(1, 3), Fraction(-1, 2))),
                                (0, 0, 2): QI.scalar((Fraction(2), Fraction(1, 6)))})
    ab, cube = a * b, ai * ai * ai
    work, work_i = dict(ab.terms), dict(cube.terms)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    sum_products(Q, 3, [(a, b), (half, a), (b, b)], ideal)
    sum_products(QI, 3, [(ai, ai), (ai, ai * ai)], gi)
    _divide(Q, work, ideal.generator.division, ab.den)
    _divide(QI, work_i, gi.generator.division, cube.den)
    for p in fresh:
        assert len(p.partials) == 3
    a + b, half + a, ai + ai
    monkeypatch.undo()
    assert built == []
    assert all(type(c) is int for _, c in (a * b).terms)
    assert all(type(v) is int for _, c in (ai * ai).terms for v in c)


# ---------------------------------------------------------------------------
# the hazards of a term list over a denominator


def test_halves_add_to_a_whole():
    x = Poly.variable(Q, 2, 0)
    half_x = x.scale(Q.scalar(Fraction(1, 2)))
    assert half_x.terms == x.terms and half_x.den == 2 and half_x != x
    total = half_x + half_x
    assert total == x and hash(total) == hash(x) and total.den == 1


def test_one_is_not_a_half():
    one = Poly.constant(Q, 2, Q.one())
    half = Poly.constant(Q, 2, Q.scalar(Fraction(1, 2)))
    assert one.is_one() and not half.is_one() and half.terms == one.terms
    assert half.constant_value() == Q.scalar(Fraction(1, 2))


def _sum(refs) -> dict:
    out: dict = {}
    for r in refs:
        out = r_add(out, r)
    return out


@pytest.mark.parametrize("entries", [
    (("1/2", "0"), ("0", "1")),
    (("1/2", "1/2*y"), ("1/2*y", "1 + 1/2*x^2")),
])
def test_metric_with_a_half_against_the_fraction_reference(entries):
    names = ("x", "y")
    plain = RinehartSpace.euclidean(Q, names)
    metric = Metric(tuple(tuple(plain.fn(e) for e in row) for row in entries))
    space = RinehartSpace.with_metric(Q, names, metric)
    g = [[ref_of(e.rep) for e in row] for row in metric.entries]
    X = space.field([space.fn("x + 1/2"), space.fn("1/3*y")])
    Y = space.field([space.fn("1/2*x*y"), space.fn("1/2")])
    xs, ys = [ref_of(c.rep) for c in X.coeffs], [ref_of(c.rep) for c in Y.coeffs]
    d = r_diff
    want_inner = _sum(r_mul(r_mul(xs[i], g[i][j]), ys[j]) for i in range(2) for j in range(2))
    assert ref_of(inner(X, Y, metric).rep) == want_inner
    want_flat = [_sum(r_mul(g[i][j], xs[i]) for i in range(2)) for j in range(2)]
    assert [ref_of(c.rep) for c in flat(X, metric).coeffs] == want_flat
    # <nabla_X Y, X_k> = sum_j G_kj d_X Y^j + sum_ij X^i Y^j Gamma_ij,k
    dxy = [_sum(r_mul(xs[i], d(ys[j], i)) for i in range(2)) for j in range(2)]
    half = Fraction(1, 2)

    def gamma(i, j, k):
        return r_scale(_sum([d(g[j][k], i), d(g[i][k], j),
                             {m: -v for m, v in d(g[i][j], k).items()}]), half)

    want_form = [_sum([*(r_mul(g[k][j], dxy[j]) for j in range(2)),
                       *(r_mul(r_mul(xs[i], ys[j]), gamma(i, j, k))
                         for i in range(2) for j in range(2))]) for k in range(2)]
    conn = KoszulConnection(space)
    assert [ref_of(c.rep) for c in conn.form(X, Y).coeffs] == want_form
    if entries[0][1] == "0":  # constant, with det 1/2 a unit: nabla_X Y = d_X Y
        assert conn.fully_solvable
        assert [ref_of(c.rep) for c in conn(X, Y).coeffs] == dxy


def test_fields_that_differ_by_a_half_get_their_own_memo_entries():
    hyper = make_sphere(Q, 3, Q.one())
    space = hyper.quotient
    whole = space.field([space.fn("x1"), 0, 0])
    half = space.field([space.fn("1/2*x1"), 0, 0])
    assert class_key(whole.coeffs) != class_key(half.coeffs)
    y_whole, y_half = project_tangent(hyper, whole), project_tangent(hyper, half)
    assert class_key(y_whole.coeffs) != class_key(y_half.coeffs)
    conn = InducedConnection(hyper)
    a, b = conn(y_whole, y_whole), conn(y_half, y_half)
    assert len(hyper._induced_memo) == 2 and len(hyper._tangent_keys) == 2
    quarter = space.constant(Q.scalar(Fraction(1, 4)))
    assert b == quarter * a and a != b


# ---------------------------------------------------------------------------
# scalars of another ring are refused where they enter


@pytest.mark.parametrize("scalar", [F7.from_int(3), QI.scalar((1, 2)), QI.one()])
def test_from_dict_and_constant_refuse_a_scalar_of_another_ring(scalar):
    with pytest.raises(RingMismatch):
        Poly.from_dict(Q, 1, {(1,): scalar})
    with pytest.raises(RingMismatch):
        Poly.constant(Q, 1, scalar)
    with pytest.raises(RingMismatch):
        Poly.variable(Q, 1, 0).scale(scalar)
