"""Fused sums of products against a reference that reduces after every product.

`pairing`, `inner`, `apply_matrix`, `derive`, `ambient_derivative` and the
vector values of `KoszulConnection` each accumulate all their products into
one raw sum and take one normal form per result; `inner` first sums each
row of G times Y raw, so a banded metric with a unit and a zero entry checks
its rows form on a plain space and on a sphere quotient.  The reference below is
the earlier code: every product is a reduced `QuotientElem` and the sums
are taken in the quotient.  Reduction modulo (f) is a ring homomorphism
and the remainder is canonical, so both must agree exactly.  They are
compared over Q, F_5, Q(i) and the split Q(j), on plain spaces and on
sphere quotients, with Euclidean, constant diagonal and polynomial
G = L L^T metrics of determinant 1.  Mixed operands must raise the same
error classes in both.
"""

import json
import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart import (ArityMismatch, DegreeOverflow, IdealMismatch, InducedConnection,
                      KoszulConnection, Metric, Poly, PrimeField, QuadExt, Rationals,
                      RingMismatch, RinehartError, RinehartSpace, SpaceMismatch,
                      ambient_derivative, derive, differential, inner, lie_bracket,
                      make_sphere, pairing, parse_poly, second_fundamental_form,
                      spanning_fields, sum_products)
from rinehart import hypersurface, space as space_module
from rinehart.cli import build_workspace
from rinehart.poly import MAX_DEGREE, QuotientElem, quotient_sum
from rinehart.suites import run_checks
from rinehart.tensors import VectorField, apply_matrix

Q = Rationals()
RINGS = {"Q": Q, "F5": PrimeField(5), "Qi": QuadExt(Q, -1), "Qj": QuadExt(Q, 1)}
NAMES = ("x", "y", "z")


# ---------------------------------------------------------------------------
# the reference: one normal form per product


def ref_dot(a, b):
    acc = a[0] * b[0]
    for u, v in zip(a[1:], b[1:]):
        acc = acc + u * v
    return acc


def ref_apply_matrix(rows, vec):
    return tuple(ref_dot(row, vec) for row in rows)


def ref_pairing(x, om):
    if x.space != om.space:
        raise SpaceMismatch("operands belong to different spaces")
    return ref_dot(x.coeffs, om.coeffs)


def ref_inner(x, y, metric):
    if x.space != y.space:
        raise SpaceMismatch("operands belong to different spaces")
    if metric.n != len(x.coeffs):
        raise SpaceMismatch("metric dimension does not match the space")
    return ref_dot(x.coeffs, ref_apply_matrix(metric.entries, y.coeffs))


def ref_derive(space, x, f):
    if x.space != space:
        raise SpaceMismatch("field belongs to a different space")
    return ref_pairing(x, differential(space, f))


def ref_ambient_derivative(space, x, y):
    if x.space != space or y.space != space:
        raise SpaceMismatch("field belongs to a different space")
    return VectorField(space, tuple(ref_derive(space, x, c) for c in y.coeffs))


def ref_koszul(conn, x, y):
    """D_X Y + sum_ij X^i Y^j Gamma^k_ij X_k, with the symbols built here from the metric:
    Gamma_ij,k = (d_i G_jk + d_j G_ik - d_k G_ij) / 2 in class arithmetic, then
    Gamma^k_ij = sum_l (G^-1)_kl Gamma_ij,l through `Metric.inverse`."""
    space = conn.space
    n, metric = space.nvars, space.metric
    half = space.constant(space.ring.from_int(2).inverse())
    d = [[differential(space, e).coeffs for e in row] for row in metric.entries]
    acc = ref_ambient_derivative(space, x, y)
    for i in range(n):
        for j in range(n):
            first = tuple(half * (d[j][k][i] + d[i][k][j] - d[i][j][k]) for k in range(n))
            second = ref_apply_matrix(metric.inverse, first)
            acc = acc + (x.coeffs[i] * y.coeffs[j]) * VectorField(space, second)
    return acc


def outcome(fn, *args):
    """The value of fn(*args), or the class of the RinehartError it raised."""
    try:
        return fn(*args)
    except RinehartError as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# strategies


def scalars(ring):
    if isinstance(ring, PrimeField):
        return st.integers(0, ring.p - 1).map(ring.from_int)
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if isinstance(ring, QuadExt):
        return st.tuples(small, small).map(ring.scalar)
    return small.map(ring.scalar)


def polys(ring, n, max_exp=2, max_terms=4):
    monos = st.tuples(*[st.integers(0, max_exp)] * n)
    return st.dictionaries(monos, scalars(ring), max_size=max_terms).map(
        lambda d: Poly.from_dict(ring, n, d))


def linear(ring, n):
    """A polynomial of degree at most 1."""
    return st.lists(scalars(ring), min_size=n + 1, max_size=n + 1).map(
        lambda cs: Poly.from_dict(ring, n, {tuple(int(i == k) for i in range(n)): c
                                            for k, c in enumerate(cs)}))


def metric_entries(ring, n, kind, lower):
    """Euclidean, a constant unit diagonal, or L L^T for unitriangular L."""
    one, zero = Poly.constant(ring, n, ring.one()), Poly.zero(ring, n)
    if kind == "euclidean":
        return [[one if i == j else zero for j in range(n)] for i in range(n)]
    if kind == "diagonal":
        return [[Poly.constant(ring, n, ring.from_int(lower[i][i])) if i == j else zero
                 for j in range(n)] for i in range(n)]
    low = [[lower[i][j] if j < i else (one if i == j else zero) for j in range(n)]
           for i in range(n)]
    return [[sum((low[i][k] * low[j][k] for k in range(n)), zero) for j in range(n)]
            for i in range(n)]


@st.composite
def setups(draw, ring_name):
    """A plain space or a sphere quotient, with one of the three metric kinds."""
    ring = RINGS[ring_name]
    n = draw(st.integers(2, 3), label="n")
    quotient = draw(st.booleans(), label="sphere")
    kind = draw(st.sampled_from(["euclidean", "diagonal", "polynomial"]), label="metric")
    lower = [[draw(st.sampled_from([1, 2, 3, -1])) if i == j else draw(linear(ring, n))
              for j in range(n)] for i in range(n)]
    entries = metric_entries(ring, n, kind, lower)
    ideal = make_sphere(ring, n, ring.one()).ideal if quotient else None
    metric = Metric(tuple(tuple(QuotientElem(e, None) for e in row) for row in entries))
    return RinehartSpace.with_metric(ring, NAMES[:n], metric, ideal)


def fields(draw, space, count):
    return [space.field([draw(polys(space.ring, space.nvars, max_exp=1, max_terms=3))
                         for _ in range(space.nvars)]) for _ in range(count)]


# ---------------------------------------------------------------------------
# equivalence


@pytest.mark.parametrize("ring_name", RINGS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fused_sums_match_per_product_reduction(ring_name, data):
    space = data.draw(setups(ring_name))
    x, y = fields(data.draw, space, 2)
    om = space.form(list(y.coeffs))
    f = space.poly_fn(data.draw(polys(space.ring, space.nvars, max_exp=3)))
    metric = space.metric
    assert pairing(x, om) == ref_pairing(x, om)
    assert inner(x, y, metric) == ref_inner(x, y, metric)
    assert apply_matrix(metric.entries, y.coeffs) == ref_apply_matrix(metric.entries, y.coeffs)
    assert derive(space, x, f) == ref_derive(space, x, f)
    assert ambient_derivative(space, x, y) == ref_ambient_derivative(space, x, y)
    assert lie_bracket(space, x, y) == (ref_ambient_derivative(space, x, y)
                                        - ref_ambient_derivative(space, y, x))


@pytest.mark.parametrize("ring_name", RINGS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_koszul_values_match_per_product_reduction(ring_name, data):
    space = data.draw(setups(ring_name))
    conn = KoszulConnection(space)
    assert conn.fully_solvable
    x, y = fields(data.draw, space, 2)
    assert conn(x, y) == ref_koszul(conn, x, y)
    basis = space.basis_fields()
    assert conn(basis[0], basis[-1]) == ref_koszul(conn, basis[0], basis[-1])


def banded_entries(ring, n, diagonal, band):
    """A banded symmetric G: G_01 = 1, a zero G_00, the rest of the diagonal and of the
    band from the draws and zeros off the band, so row 0 is (0, 1, 0, ...)."""
    zero = Poly.zero(ring, n)
    entries = [[zero] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = diagonal[i] if i else zero
        if i + 1 < n:
            entries[i][i + 1] = entries[i + 1][i] = (Poly.constant(ring, n, ring.one()) if i == 0
                                                     else band[i])
    return entries


@pytest.mark.parametrize("quotient", [False, True], ids=["plain", "sphere"])
@pytest.mark.parametrize("ring_name", RINGS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_inner_by_rows_matches_the_reference_on_unit_and_zero_entries(ring_name, quotient,
                                                                       data):
    ring = RINGS[ring_name]
    n = data.draw(st.integers(2, 3), label="n")
    diagonal = [data.draw(polys(ring, n, max_exp=1, max_terms=2)) for _ in range(n)]
    band = [data.draw(linear(ring, n)) for _ in range(n)]
    entries = banded_entries(ring, n, diagonal, band)
    metric = Metric(tuple(tuple(QuotientElem(e, None) for e in row) for row in entries))
    ideal = make_sphere(ring, n, ring.one()).ideal if quotient else None
    space = RinehartSpace.with_metric(ring, NAMES[:n], metric, ideal)
    x, y = fields(data.draw, space, 2)
    for a, b in ((x, y), (y, x), (x, x)):
        assert inner(a, b, space.metric) == ref_inner(a, b, space.metric)


# ---------------------------------------------------------------------------
# the one pair builder


def anchor_values() -> dict:
    """derive, the bracket and the ambient derivative on one fixed sphere input and one
    fixed L L^T input, the Koszul value on the second and the induced connection and
    second form on the first.  Every space is built afresh, so no value memo outlives a
    call."""
    hyper = make_sphere(Q, 3, Q.one(), var_names=NAMES)
    sphere = hyper.quotient
    sx, _, sy = spanning_fields(hyper)
    sx = sphere.fn("y + 2") * sx
    lower = [[None] * 3, [parse_poly("x + 1", Q, NAMES)] + [None] * 2,
             [Poly.zero(Q, 3), parse_poly("2*y - 1", Q, NAMES), None]]
    entries = metric_entries(Q, 3, "polynomial", lower)
    metric = Metric(tuple(tuple(QuotientElem(e, None) for e in row) for row in entries))
    plain = RinehartSpace.with_metric(Q, NAMES, metric)
    px, py = fld(plain, "x*y + 1", "z^2", "x - y"), fld(plain, "y*z", "x^2 + z", "y + x*z")
    return {
        "derive": [derive(sphere, sx, sphere.fn("x*y*z + y^2")),
                   derive(plain, px, plain.fn("x^2*z + y*z^2"))],
        "lie_bracket": [lie_bracket(sphere, sx, sy), lie_bracket(plain, px, py)],
        "ambient_derivative": [ambient_derivative(sphere, sx, sy),
                               ambient_derivative(plain, px, py)],
        "KoszulConnection.__call__": [KoszulConnection(plain)(px, py)],
        "InducedConnection.__call__": [InducedConnection(hyper)(sx, sy)],
        "second_fundamental_form": [second_fundamental_form(hyper, sx, sy)],
    }


def test_every_ambient_derivative_reads_the_one_pair_builder(monkeypatch):
    # a planted bug in derivative_pairs, dropping its last pair, changes all six values
    before = anchor_values()
    original = space_module.derivative_pairs
    binders = [module for name, module in sorted(sys.modules.items())
               if name.startswith("rinehart") and vars(module).get("derivative_pairs") is original]
    assert {m.__name__ for m in binders} >= {"rinehart.space", "rinehart.hypersurface"}
    for module in binders:
        monkeypatch.setattr(module, "derivative_pairs", lambda xs, p: original(xs, p)[:-1])
    after = anchor_values()
    for name, values in before.items():
        assert all(a != b for a, b in zip(after[name], values)), name


def test_hypersurface_sums_get_no_zero_factor(monkeypatch):
    # the induced connection and the second form hand their sums nonzero factors only
    path = pathlib.Path(__file__).resolve().parent.parent / "specs" / "sphere_q_n3.json"
    ws, _ = build_workspace(json.loads(path.read_text(encoding="utf-8")))
    seen = []

    def recording(sum_fn):
        def recorded(ring, nvars, pairs, ideal=None):
            pairs = list(pairs)
            seen.extend(pairs)
            return sum_fn(ring, nvars, pairs, ideal)
        return recorded

    monkeypatch.setattr(hypersurface, "sum_products", recording(sum_products))
    monkeypatch.setattr(hypersurface, "quotient_sum", recording(quotient_sum))
    names = ["gauss-split", "second-form-symmetric", "space-form"]
    results = run_checks(ws, names=names, seed=7, cases=5)
    assert [(r.name, r.status) for r in results] == [(name, "pass") for name in names]
    assert len(seen) > 100
    assert all(a.terms and b.terms for a, b in seen)


# ---------------------------------------------------------------------------
# mixed operands


def _spaces(ring, n=2):
    plain = RinehartSpace.euclidean(ring, NAMES[:n])
    return plain, make_sphere(ring, n, ring.one(), var_names=NAMES[:n]).quotient


def fld(space, *texts):
    return space.field([space.fn(t) for t in texts])


def frm(space, *texts):
    return space.form([space.fn(t) for t in texts])


def _foreign(space, coeffs):
    """A field of `space` whose coefficients live elsewhere."""
    return VectorField(space, tuple(coeffs))


@pytest.mark.parametrize("ring_name", RINGS)
def test_mixed_operands_raise_the_same_errors(ring_name):
    ring = RINGS[ring_name]
    plain, sphere = _spaces(ring)
    other_ring = _spaces(PrimeField(7) if ring_name != "F5" else Q)[0]
    wider = RinehartSpace.euclidean(ring, NAMES)
    x = fld(plain, "x + 1", "x*y")
    y = fld(plain, "y^2", "2*x")
    xs = fld(sphere, "y", "x*y")
    f = plain.fn("x^2*y + 1")
    mixed = [
        _foreign(plain, fld(sphere, "x", "y").coeffs),  # other ideal
        _foreign(plain, fld(other_ring, "x", "y").coeffs),  # other ring
        _foreign(plain, fld(wider, "x", "y", "z").coeffs[:2]),  # other arity
    ]
    cases = [
        (pairing, ref_pairing, (x, frm(sphere, "x", "y"))),
        (inner, ref_inner, (x, xs, plain.metric)),
        (inner, ref_inner, (x, y, sphere.metric)),
        (derive, ref_derive, (plain, xs, f)),
        (derive, ref_derive, (plain, x, sphere.fn("x"))),
        (ambient_derivative, ref_ambient_derivative, (plain, x, xs)),
        (apply_matrix, ref_apply_matrix, (sphere.metric.entries, y.coeffs)),
    ]
    for m in mixed:
        cases += [
            (pairing, ref_pairing, (m, frm(plain, "x", "y"))),
            (inner, ref_inner, (m, y, plain.metric)),
            (inner, ref_inner, (y, m, plain.metric)),
            (derive, ref_derive, (plain, m, f)),
            (ambient_derivative, ref_ambient_derivative, (plain, x, m)),
            (apply_matrix, ref_apply_matrix, (plain.metric.entries, m.coeffs)),
        ]
    for new, ref, args in cases:
        got, want = outcome(new, *args), outcome(ref, *args)
        assert isinstance(want, type) and issubclass(want, RinehartError), (new, args)
        assert got is want, (new.__name__, got, want)
    assert {outcome(pairing, m, frm(plain, "x", "y")) for m in mixed} == {IdealMismatch}
    assert outcome(pairing, x, frm(sphere, "x", "y")) is SpaceMismatch


@pytest.mark.parametrize("ring_name", ["Q", "F5"])
def test_mixed_operands_raise_the_same_errors_in_koszul_values(ring_name):
    ring = RINGS[ring_name]
    plain, sphere = _spaces(ring)
    metric = Metric.diagonal([plain.fn("2"), plain.fn("3")])
    space = RinehartSpace.with_metric(ring, NAMES[:2], metric)
    conn = KoszulConnection(space)
    x = fld(space, "x", "y")
    for bad in (fld(sphere, "x", "y"), _foreign(space, fld(sphere, "x", "y").coeffs)):
        assert outcome(conn, x, bad) is outcome(ref_koszul, conn, x, bad)
        assert outcome(conn, bad, x) is outcome(ref_koszul, conn, bad, x)
    assert outcome(conn, x, fld(sphere, "x", "y")) is SpaceMismatch


def test_kernel_checks_every_operand_and_product():
    x = Poly.variable(Q, 2, 0)
    assert sum_products(Q, 2, []) == Poly.zero(Q, 2)
    assert sum_products(Q, 2, [(x, x), (x, -x)]) == Poly.zero(Q, 2)
    assert sum_products(Q, 2, [(x, x), (x, x)]) == x * x + x * x
    with pytest.raises(RingMismatch):
        sum_products(Q, 2, [(x, x), (x, Poly.variable(PrimeField(5), 2, 0))])
    with pytest.raises(ArityMismatch):
        sum_products(Q, 2, [(x, Poly.variable(Q, 3, 0))])
    top = x ** (MAX_DEGREE - 1)
    assert sum_products(Q, 2, [(top, x), (x, top)]).total_degree() == MAX_DEGREE
    with pytest.raises(DegreeOverflow):
        sum_products(Q, 2, [(x, x), (top, x * x)])


def test_overflow_is_caught_when_the_top_products_cancel():
    # the sum is zero, yet x^64 * x^64 has total degree 128
    x = Poly.variable(Q, 2, 0)
    half = x ** 64
    with pytest.raises(DegreeOverflow, match="product exceeds total degree"):
        sum_products(Q, 2, [(half, half), (-half, half)])
    y = Poly.variable(Q, 2, 1)
    at_cap = sum_products(Q, 2, [(half, x ** 63), (half, y ** 63), (-half, y ** 63)])
    assert at_cap == x ** MAX_DEGREE and at_cap.total_degree() == 127
