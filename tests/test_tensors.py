"""Metrics, musical maps, pairings.

The determinant/adjugate code is cross-checked against sympy matrices over Q
and, over every ring kind and a sphere quotient, against the factorial
cofactor expansion kept below as an oracle; the diag(2,3) round-trip values
were computed by hand first (flat(X1) = 2 dx1, sharp(dx1) = X1/2).
"""

from fractions import Fraction

import pytest
import sympy

from rinehart import (IdealMismatch, Metric, MetricNotMusical, PrimeField, QuadExt, Rationals,
                      RinehartSpace, SpaceMismatch, flat, in_maximal_ideal_submodule, inner,
                      pairing, sharp)
from rinehart.hypersurface import make_sphere
from rinehart.randgen import random_field, random_poly
from conftest import seeded
from test_poly import random_small_poly, to_sympy

Q = Rationals()


def _space(names=("x", "y")):
    return RinehartSpace.euclidean(Q, names)


def test_pairing_against_dual_basis():
    sp = _space()
    x_fn = sp.fn("x")
    y_fn = sp.fn("y")
    field = x_fn * sp.basis_field(0) + y_fn * sp.basis_field(1)
    assert pairing(field, sp.basis_form(0)) == x_fn
    assert pairing(field, sp.basis_form(1)) == y_fn


def test_metric_validation():
    sp = _space()
    one = sp.fn("1")
    x = sp.fn("x")
    with pytest.raises(ValueError):
        Metric(((one, x), (one, one)))           # not symmetric
    with pytest.raises(ValueError):
        Metric(((one, x),))                      # not square
    sphere = make_sphere(Q, 2, Q.one(), var_names=("x", "y")).quotient
    with pytest.raises(IdealMismatch):
        Metric(((one, sphere.fn("0")), (sphere.fn("0"), one)))  # entries in two rings


def test_inner_refuses_a_field_of_another_quotient():
    names = ("x", "y")
    unit, other = (make_sphere(Q, 2, Q.from_int(c), var_names=names).quotient for c in (1, 2))
    x = unit.field([unit.fn("x"), unit.fn("y")])
    assert inner(x, x, unit.metric) == unit.fn("1")  # x^2 + y^2 = 1 on the unit circle
    y = other.field([other.fn("x"), other.fn("y")])
    for metric in (unit.metric, _space(names).metric):
        with pytest.raises(IdealMismatch):
            inner(y, y, metric)


@pytest.mark.parametrize("apply", [lambda x, g: inner(x, x, g), flat,
                                   lambda x, g: sharp(x.space.form(x.coeffs), g)],
                         ids=["inner", "flat", "sharp"])
def test_a_metric_of_another_dimension_is_refused(apply):
    sp = _space()
    x = sp.field([sp.fn("x"), sp.fn("1")])
    with pytest.raises(SpaceMismatch, match="metric dimension does not match the space"):
        apply(x, Metric.euclidean(Q, 3, None))


def test_euclidean_metric_predicates():
    g = Metric.euclidean(Q, 3, None)
    assert g.is_euclidean()
    assert g.is_constant()
    sp = _space()
    h = Metric.diagonal((sp.fn("1"), sp.fn("x")))
    assert not h.is_euclidean()
    assert not h.is_constant()


def test_det_and_adjugate_against_sympy():
    rng = seeded("tensors-det")
    syms = sympy.symbols("x y")
    for n in (1, 2, 3):
        for _ in range(40):
            entries = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    p = random_small_poly(rng, Q, 2, max_degree=2, max_terms=2)
                    entries[i][j] = entries[j][i] = p
            g = Metric(tuple(tuple(_space().poly_fn(entries[i][j]) for j in range(n))
                             for i in range(n)))
            m_sym = sympy.Matrix(
                [[to_sympy(entries[i][j], syms) for j in range(n)] for i in range(n)])
            assert to_sympy(g.det().rep, syms) == sympy.expand(m_sym.det())
            adj = g.adjugate()
            adj_sym = m_sym.adjugate()
            for i in range(n):
                for j in range(n):
                    assert to_sympy(adj[i][j].rep, syms) == sympy.expand(adj_sym[i, j])


def cofactor_det(rows):
    """The factorial cofactor expansion along the first row, zero entries included."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for k, entry in enumerate(rows[0]):
        term = entry * cofactor_det([row[:k] + row[k + 1:] for row in rows[1:]])
        term = -term if k % 2 else term
        total = term if total is None else total + term
    return total


def cofactor_adjugate(rows):
    """adj(G)[i][j] = (-1)^(i+j) det(G without row j and column i)."""
    n = len(rows)
    if n == 1:
        return ((rows[0][0] ** 0,),)

    def minor(i, j):
        return cofactor_det([row[:i] + row[i + 1:] for r, row in enumerate(rows) if r != j])

    return tuple(tuple(-minor(i, j) if (i + j) % 2 else minor(i, j) for j in range(n))
                 for i in range(n))


ORACLE_SPACES = {
    "Q": RinehartSpace.euclidean(Q, ("x", "y")),
    "F7": RinehartSpace.euclidean(PrimeField(7), ("x", "y")),
    "Qi": RinehartSpace.euclidean(QuadExt(Q, -1), ("x", "y")),
    "Qj": RinehartSpace.euclidean(QuadExt(Q, 1), ("x", "y")),
    "sphere": make_sphere(Q, 3, Q.one(), var_names=("x", "y", "z")).quotient,
}


def _pattern_rows(kind, n, sp, rng):
    def draw():
        return sp.poly_fn(random_poly(rng, sp.ring, sp.nvars, 2, 2))

    zero = sp.constant(sp.ring.zero())
    if kind == "zero-det":
        # rank one v v^T for n >= 2, and [[0]] for n = 1
        v = [draw() for _ in range(n)]
        return tuple(tuple(v[i] * v[j] if n > 1 else zero for j in range(n)) for i in range(n))
    width = {"diagonal": 0, "tridiagonal": 1}.get(kind, n)   # dense and zero-row: full
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, min(n, i + width + 1)):
            rows[i][j] = rows[j][i] = draw()
    if kind == "zero-row":
        r = rng.randrange(n)
        for k in range(n):
            rows[r][k] = rows[k][r] = zero
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("ring_name", sorted(ORACLE_SPACES))
@pytest.mark.parametrize("kind", ["dense", "diagonal", "tridiagonal", "zero-row", "zero-det"])
def test_minor_table_matches_cofactor_oracle(ring_name, kind):
    sp = ORACLE_SPACES[ring_name]
    rng = seeded(f"tensors-oracle:{ring_name}:{kind}")
    for n in range(1, 6):
        rows = _pattern_rows(kind, n, sp, rng)
        g = Metric(rows)
        assert g.det() == cofactor_det(rows)
        assert g.adjugate() == cofactor_adjugate(rows)
        if kind in ("zero-row", "zero-det"):
            assert g.det().is_zero()
        # at most (n + 1) * 2^n minors, each computed once
        assert len(g._minors) <= (n + 1) * 2 ** n


def test_identity_minor_table_stays_small(monkeypatch):
    calls, misses = [], []
    original = Metric._minor_det

    def counting(self, rows, cols):
        calls.append((rows, cols))
        if (rows, cols) not in self._minors:
            misses.append((rows, cols))
        return original(self, rows, cols)

    monkeypatch.setattr(Metric, "_minor_det", counting)
    n = 8
    g = Metric.euclidean(Q, n, None)
    assert g.det() == g.entries[0][0]
    assert g.adjugate() == g.entries
    assert len(calls) <= n ** 3             # the factorial expansion made ~620,000
    assert len(set(misses)) == len(misses)  # no minor is expanded twice


def test_flat_sharp_roundtrip_diag23():
    sp = RinehartSpace.with_metric(Q, ("x", "y"),
                                   Metric.diagonal((_space().fn("2"), _space().fn("3"))))
    x1 = sp.basis_field(0)
    om = flat(x1, sp.metric)
    assert om.coeffs == (sp.fn("2"), sp.fn("0"))
    back = sharp(om, sp.metric)
    assert back == x1
    half = sharp(sp.basis_form(0), sp.metric)
    assert half.coeffs[0] == sp.constant(Q.scalar(Fraction(1, 2)))


def test_flat_sharp_random_roundtrip():
    rng = seeded("tensors-roundtrip")
    g = Metric(((_space().fn("2"), _space().fn("1")),
                (_space().fn("1"), _space().fn("1"))))   # det = 1
    sp = RinehartSpace.with_metric(Q, ("x", "y"), g)
    for _ in range(100):
        v = random_field(rng, sp, 2)
        assert sharp(flat(v, sp.metric), sp.metric) == v


def test_sharp_requires_certified_unit_determinant():
    sp = _space(("x1", "x2"))
    g = Metric.diagonal((sp.fn("1"), sp.fn("x1^2 + 1")))
    with pytest.raises(MetricNotMusical):
        sharp(sp.basis_form(0), g)
    singular = Metric.diagonal((sp.fn("1"), sp.fn("0")))
    with pytest.raises(MetricNotMusical):
        sharp(sp.basis_form(0), singular)


def test_sharp_reuses_det_and_adjugate(monkeypatch):
    sp = _space()
    g = Metric(((sp.fn("x^2 + 1"), sp.fn("x")), (sp.fn("x"), sp.fn("1"))))
    minors = []
    original = Metric._minor_det

    def counting(self, rows, cols):
        minors.append(rows)
        return original(self, rows, cols)

    monkeypatch.setattr(Metric, "_minor_det", counting)
    first = sharp(sp.basis_form(0), g)
    after_first = len(minors)
    assert after_first > 0
    assert sharp(sp.basis_form(0), g) == first
    assert len(minors) == after_first


def test_inner_is_symmetric_and_bilinear():
    rng = seeded("tensors-inner")
    sp = _space()
    g = Metric(((sp.fn("x^2 + 1"), sp.fn("x*y")), (sp.fn("x*y"), sp.fn("2"))))
    for _ in range(100):
        u = random_field(rng, sp, 2)
        v = random_field(rng, sp, 2)
        w = random_field(rng, sp, 2)
        f = sp.poly_fn(random_poly(rng, Q, 2))
        assert inner(u, v, g) == inner(v, u, g)
        assert inner(u + w, v, g) == inner(u, v, g) + inner(w, v, g)
        assert inner(f * u, v, g) == f * inner(u, v, g)


def test_maximal_ideal_submodule_membership():
    hyper = make_sphere(Q, 2, Q.one(), var_names=("x", "y"))
    ambient = hyper.ambient
    ideal = hyper.ideal
    gen = ambient.poly_fn(hyper.generator)
    rng = seeded("tensors-kernel")
    for _ in range(50):
        w = random_field(rng, ambient, 2)
        assert in_maximal_ideal_submodule(gen * w, ideal, ambient.metric)
    # the normal field pairs to the coordinates, which are not in the ideal
    normal = hyper.to_ambient(hyper.normal)
    assert not in_maximal_ideal_submodule(normal, ideal, ambient.metric)
    # brute equivalence with the definition on random fields
    from rinehart.poly import normal_form
    for _ in range(50):
        w = random_field(rng, ambient, 2)
        member = in_maximal_ideal_submodule(w, ideal, ambient.metric)
        om = flat(w, ambient.metric)
        direct = all(normal_form(c.rep, ideal).is_zero() for c in om.coeffs)
        assert member == direct
