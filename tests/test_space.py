"""Differential calculus, brackets, connections, curvature on plain spaces.

Independent oracles:
  * the six-term Koszul right-hand side is recomputed here from first
    principles (derive/pairing/lie_bracket only) and compared to the
    engine's connection one-forms on random metrics;
  * frozen Koszul values on diag(1, x1^2+1) were derived by hand:
    2<nabla_{X2}X2, X1> = -d_{X1}<X2,X2> = -2*x1, so nabla_{X2}X2 = -x1*X1,
    while <nabla_{X1}X2, X2> = x1 has no vector solution because
    x1/(x1^2+1) is not a polynomial.
"""

import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from rinehart import (EuclideanConnection, IdealMismatch, KoszulConnection, Metric,
                      MetricNotMusical, NotEuclidean, PrimeField, QuadExt,
                      Rationals, RinehartSpace, SpaceMismatch, TwoNotAUnit,
                      ambient_derivative, check_constant_curvature, check_levi_civita,
                      curvature, derive, differential, flat, gradient, inner,
                      lie_bracket, pairing)
from rinehart.poly import class_key
from rinehart.tensors import VectorField
from rinehart.hypersurface import make_sphere
from rinehart.randgen import random_field, random_fn
from rinehart.suites import Workspace, run_checks
from conftest import random_trios, seeded

Q = Rationals()


def _sp(names=("x", "y")):
    return RinehartSpace.euclidean(Q, names)


# ---------------------------------------------------------------------------
# differential structure


def test_differential_of_constants_vanishes():
    sp = _sp()
    assert differential(sp, sp.fn("1")).is_zero()
    assert differential(sp, sp.fn("0")).is_zero()
    assert differential(sp, sp.fn("-7/3")).is_zero()


def test_differential_coordinates():
    sp = _sp()
    d = differential(sp, sp.fn("x^2 + y"))
    assert d.coeffs == (sp.fn("2*x"), sp.fn("1"))


def test_differential_leibniz_random(any_ring):
    sp = RinehartSpace.euclidean(any_ring, ("x", "y", "z"))
    rng = seeded(f"space-leibniz:{any_ring}")
    for _ in range(200):
        f = random_fn(rng, sp, 3)
        g = random_fn(rng, sp, 3)
        lhs = differential(sp, f * g)
        rhs = f * differential(sp, g) + g * differential(sp, f)
        assert lhs == rhs


def test_derive_is_pairing_with_differential():
    sp = _sp()
    rng = seeded("space-derive")
    for _ in range(100):
        x = random_field(rng, sp, 2)
        f = random_fn(rng, sp, 3)
        assert derive(sp, x, f) == pairing(x, differential(sp, f))


def test_gradient_euclidean():
    sp = _sp()
    g = gradient(sp, sp.fn("x^2"))
    assert g.coeffs == (sp.fn("2*x"), sp.fn("0"))
    assert gradient(sp, sp.fn("x*y")).coeffs == (sp.fn("y"), sp.fn("x"))


def test_gradient_diagonal_metric():
    sp = RinehartSpace.with_metric(
        Q, ("x", "y"), Metric.diagonal((_sp().fn("2"), _sp().fn("3"))))
    g = gradient(sp, sp.fn("x"))
    # G(grad f, -) = df: grad x = (1/2) X1
    assert g.coeffs == (sp.fn("1/2"), sp.fn("0"))
    assert flat(g, sp.metric) == differential(sp, sp.fn("x"))


def test_gradient_needs_musical_metric():
    sp = RinehartSpace.with_metric(
        Q, ("x1", "x2"),
        Metric.diagonal((_sp(("x1", "x2")).fn("1"), _sp(("x1", "x2")).fn("x1^2 + 1"))))
    with pytest.raises(MetricNotMusical):
        gradient(sp, sp.fn("x2"))


# ---------------------------------------------------------------------------
# brackets


def test_lie_bracket_hand_expansion():
    # [x*X1, y*X2] = x*(d_{X1}y)*X2 ... expanded by hand: x*0*X2 - y*0*X1 = 0
    sp = _sp()
    a = sp.fn("x") * sp.basis_field(0)
    b = sp.fn("y") * sp.basis_field(1)
    assert lie_bracket(sp, a, b).is_zero()
    # [X1, x*X1] = X1
    c = sp.fn("x") * sp.basis_field(0)
    assert lie_bracket(sp, sp.basis_field(0), c) == sp.basis_field(0)
    # [y*X1, x*X2] = y*X2 - x*X1 componentwise
    d = lie_bracket(sp, sp.fn("y") * sp.basis_field(0), sp.fn("x") * sp.basis_field(1))
    assert d.coeffs == (sp.fn("-x"), sp.fn("y"))


def test_bracket_antisymmetric_and_jacobi(any_ring):
    sp = RinehartSpace.euclidean(any_ring, ("x", "y"))
    rng = seeded(f"space-jacobi:{any_ring}")
    for _ in range(60):
        x = random_field(rng, sp, 2)
        y = random_field(rng, sp, 2)
        z = random_field(rng, sp, 2)
        assert lie_bracket(sp, x, y) == -lie_bracket(sp, y, x)
        total = (lie_bracket(sp, x, lie_bracket(sp, y, z))
                 + lie_bracket(sp, y, lie_bracket(sp, z, x))
                 + lie_bracket(sp, z, lie_bracket(sp, x, y)))
        assert total.is_zero()


def _bracket_spaces(ring):
    euclidean = RinehartSpace.euclidean(ring, ("x", "y", "z"))
    helper = RinehartSpace.euclidean(ring, ("x", "y"))
    koszul = RinehartSpace.with_metric(ring, ("x", "y"), Metric(
        ((helper.fn("x^2 + 1"), helper.fn("x")), (helper.fn("x"), helper.fn("1")))))
    sphere = make_sphere(ring, 3, ring.from_int(2), var_names=("x", "y", "z")).quotient
    return {"euclidean": euclidean, "koszul": koszul, "sphere": sphere}


@pytest.mark.parametrize("ring", [Q, PrimeField(7), QuadExt(Q, -1)], ids=str)
def test_bracket_is_the_difference_of_ambient_derivatives(ring):
    for label, sp in _bracket_spaces(ring).items():
        rng = seeded(f"space-bracket:{ring}:{label}")
        fields = sp.basis_fields() + [random_field(rng, sp, 3) for _ in range(8)]
        for x in fields:
            for y in fields[-4:]:
                want = ambient_derivative(sp, x, y) - ambient_derivative(sp, y, x)
                assert lie_bracket(sp, x, y) == want, label


def test_bracket_keeps_its_space_and_peer_checks():
    plain = _sp()
    sphere = make_sphere(Q, 2, Q.one(), var_names=("x", "y")).quotient
    x = plain.field([plain.fn("x"), plain.fn("y")])
    on_sphere = sphere.field([sphere.fn("y"), sphere.fn("x")])
    foreign = VectorField(plain, on_sphere.coeffs)  # coefficients mod (f)
    with pytest.raises(SpaceMismatch):
        lie_bracket(plain, x, on_sphere)
    with pytest.raises(SpaceMismatch):
        lie_bracket(plain, x, foreign)
    with pytest.raises(IdealMismatch):
        lie_bracket(plain, foreign, x)


def test_anchor_law():
    sp = _sp()
    rng = seeded("space-anchor")
    for _ in range(100):
        x = random_field(rng, sp, 2)
        y = random_field(rng, sp, 2)
        f = random_fn(rng, sp, 2)
        lhs = lie_bracket(sp, x, f * y)
        rhs = derive(sp, x, f) * y + f * lie_bracket(sp, x, y)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# flat connection


def test_flat_connection_componentwise():
    sp = _sp()
    v = EuclideanConnection(sp)(sp.basis_field(0), sp.fn("x^2") * sp.basis_field(1))
    assert v.coeffs == (sp.fn("0"), sp.fn("2*x"))


def test_flat_connection_requires_euclidean():
    sp = RinehartSpace.with_metric(
        Q, ("x", "y"), Metric.diagonal((_sp().fn("2"), _sp().fn("3"))))
    with pytest.raises(NotEuclidean):
        EuclideanConnection(sp)(sp.basis_field(0), sp.basis_field(1))


def test_flat_connection_is_flat_and_levi_civita():
    sp = RinehartSpace.euclidean(Q, ("x", "y", "z"))
    conn = EuclideanConnection(sp)
    rng = seeded("space-flat")
    for _ in range(50):
        x = random_field(rng, sp, 2)
        y = random_field(rng, sp, 2)
        z = random_field(rng, sp, 2)
        assert curvature(sp, conn, x, y, z).is_zero()
    report = check_levi_civita(sp, conn, random_trios(seeded("space-flat-lc"), sp))
    assert report.ok


# ---------------------------------------------------------------------------
# Koszul connection


def test_koszul_equals_flat_on_euclidean():
    sp = RinehartSpace.euclidean(Q, ("x", "y"))
    kz = KoszulConnection(sp)
    fl = EuclideanConnection(sp)
    assert kz.fully_solvable
    rng = seeded("space-koszul-flat")
    for _ in range(60):
        x = random_field(rng, sp, 2)
        y = random_field(rng, sp, 2)
        assert kz(x, y) == fl(x, y)
        assert KoszulConnection(sp)(x, y) == EuclideanConnection(sp)(x, y)


def test_koszul_constant_diagonal_metric_has_zero_gamma():
    sp = RinehartSpace.with_metric(
        Q, ("x", "y"), Metric.diagonal((_sp().fn("1"), _sp().fn("-1"))))
    kz = KoszulConnection(sp)
    assert kz.fully_solvable
    for i in range(2):
        for j in range(2):
            assert kz(sp.basis_field(i), sp.basis_field(j)).is_zero()


@pytest.mark.parametrize("ring", [Q, PrimeField(7), QuadExt(Q, -1)], ids=str)
@pytest.mark.parametrize("entries", [(("1", "0", "0"), ("0", "1", "0"), ("0", "0", "-1")),
                                     (("2", "1"), ("1", "1"))], ids=["diag", "dense"])
def test_koszul_on_a_constant_metric_is_the_ambient_derivative(ring, entries):
    # a constant G, diag(1, 1, -1) or [[2, 1], [1, 1]], has no nonzero symbol column, so
    # nabla_X Y = D_X Y exactly although G is not the identity
    names = ("x", "y", "z")[:len(entries)]
    plain = RinehartSpace.euclidean(ring, names)
    sp = RinehartSpace.with_metric(ring, names, Metric(tuple(tuple(map(plain.fn, row))
                                                             for row in entries)))
    kz = KoszulConnection(sp)
    assert kz.fully_solvable
    rng = seeded(f"space-koszul-constant:{ring}:{len(names)}")
    for _ in range(30):
        x, y = random_field(rng, sp, 2), random_field(rng, sp, 2)
        assert kz(x, y) == ambient_derivative(sp, x, y)


def test_koszul_frozen_nonmusical_example():
    sp = RinehartSpace.with_metric(
        Q, ("x1", "x2"),
        Metric.diagonal((_sp(("x1", "x2")).fn("1"), _sp(("x1", "x2")).fn("x1^2 + 1"))))
    kz = KoszulConnection(sp)
    assert not kz.fully_solvable
    x1, x2 = sp.basis_field(0), sp.basis_field(1)
    # the (2,2) value exists by exact division
    assert kz(x2, x2).coeffs == (sp.fn("-x1"), sp.fn("0"))
    assert kz.form(x2, x2).coeffs == (sp.fn("-x1"), sp.fn("0"))
    # the (1,2) value does not: x1/(x1^2+1) is not a polynomial
    with pytest.raises(MetricNotMusical):
        kz(x1, x2)
    assert kz.form(x1, x2).coeffs == (sp.fn("0"), sp.fn("x1"))
    report = check_levi_civita(sp, kz, random_trios(seeded("space-koszul-frozen"), sp))
    assert report.ok


def test_koszul_rejects_char_two():
    ring = PrimeField(2)
    sp = RinehartSpace.euclidean(ring, ("x", "y"))
    with pytest.raises(TwoNotAUnit):
        KoszulConnection(sp)(sp.basis_field(0), sp.basis_field(1))
    # the componentwise flat connection stays available in characteristic 2
    v = EuclideanConnection(sp)(sp.basis_field(0), sp.fn("x*y") * sp.basis_field(0))
    assert v.coeffs == (sp.fn("y"), sp.fn("0"))


def _koszul_rhs_oracle(sp, conn_form, x, y):
    """Recompute 2*<nabla_x y, Z_k> from the raw Koszul formula."""
    results = []
    for k in range(sp.nvars):
        z = sp.basis_field(k)
        g = sp.metric
        rhs = (derive(sp, x, inner(y, z, g))
               + derive(sp, y, inner(z, x, g))
               - derive(sp, z, inner(x, y, g))
               - inner(x, lie_bracket(sp, y, z), g)
               + inner(y, lie_bracket(sp, z, x), g)
               + inner(z, lie_bracket(sp, x, y), g))
        results.append(rhs)
    return results


ORACLE_METRICS = (
    (("1", "0"), ("0", "1")),
    (("2", "0"), ("0", "3")),
    (("x^2 + 1", "x"), ("x", "1")),          # det = 1, musical
    (("1", "0"), ("0", "x^2 + 1")),          # not musical
)


def test_koszul_form_matches_first_principles_oracle():
    rng = seeded("space-koszul-oracle")
    for ring in (Q, PrimeField(7), QuadExt(Q, -1), QuadExt(Q, 1)):
        helper = RinehartSpace.euclidean(ring, ("x", "y"))
        for rows in ORACLE_METRICS:
            g = Metric(tuple(tuple(helper.fn(t) for t in row) for row in rows))
            sp = RinehartSpace.with_metric(ring, ("x", "y"), g)
            kz = KoszulConnection(sp)
            for _ in range(25):
                x = random_field(rng, sp, 2)
                y = random_field(rng, sp, 2)
                om = kz.form(x, y)
                expected = _koszul_rhs_oracle(sp, kz.form, x, y)
                for k in range(2):
                    # om's k-th coefficient is <nabla_x y, X_k>
                    got = om.coeffs[k]
                    assert got + got == expected[k], (ring, rows, sp.format_fn(got), k)


@pytest.mark.parametrize("ring", [Q, PrimeField(7), QuadExt(Q, -1), QuadExt(Q, 1)],
                         ids=["Q", "F7", "Qi", "Qj"])
def test_koszul_form_is_flat_of_value_on_sphere_quotients(ring):
    # The six-term right side differentiates representatives, which is not
    # well defined mod (f); the first-kind contraction agrees with flat.
    rng = seeded("space-koszul-quotient-flat")
    quotient = make_sphere(ring, 2, ring.one(), var_names=("x", "y")).quotient
    for rows in ORACLE_METRICS[:3]:
        g = Metric(tuple(tuple(quotient.fn(t) for t in row) for row in rows))
        sp = RinehartSpace.with_metric(ring, ("x", "y"), g, quotient.ideal)
        kz = KoszulConnection(sp)
        assert kz.fully_solvable
        for _ in range(20):
            x = random_field(rng, sp, 2)
            y = random_field(rng, sp, 2)
            assert kz.form(x, y).coeffs == flat(kz(x, y), g).coeffs, (ring, rows)


def test_koszul_levi_civita_on_unit_det_metric():
    g = Metric(((_sp().fn("x^2 + 1"), _sp().fn("x")),
                (_sp().fn("x"), _sp().fn("1"))))
    sp = RinehartSpace.with_metric(Q, ("x", "y"), g)
    kz = KoszulConnection(sp)
    assert kz.fully_solvable
    report = check_levi_civita(sp, kz, random_trios(seeded("space-lc-unit"), sp))
    assert report.ok
    # metric compatibility spot check by hand:
    # d_x <y,y> = <nabla_x y, y> + <y, nabla_x y>
    rng = seeded("space-lc-unit-spot")
    for _ in range(25):
        x = random_field(rng, sp, 2)
        y = random_field(rng, sp, 2)
        lhs = derive(sp, x, inner(y, y, g))
        rhs = 2 * inner(kz(x, y), y, g)
        assert lhs == rhs


def counted(monkeypatch, method: str) -> list:
    """The class keys of the (X, Y) arguments of every call of a KoszulConnection method."""
    calls = []
    original = getattr(KoszulConnection, method)

    def counting(self, x, y):
        calls.append(class_key(x.coeffs + y.coeffs))
        return original(self, x, y)

    monkeypatch.setattr(KoszulConnection, method, counting)
    return calls


def test_check_levi_civita_forms_each_value_once(monkeypatch):
    # G = L L^T with L = [[1, 0, 0], [x, 1, 0], [y, z, 1]], so det G = 1
    names = ("x", "y", "z")
    helper = _sp(names)
    rows = (("1", "x", "y"), ("x", "x^2 + 1", "x*y + z"), ("y", "x*y + z", "y^2 + z^2 + 1"))
    sp = RinehartSpace.with_metric(
        Q, names, Metric(tuple(tuple(helper.fn(t) for t in row) for row in rows)))
    kz = KoszulConnection(sp)
    assert kz.fully_solvable
    calls = counted(monkeypatch, "__call__")
    assert check_levi_civita(sp, kz, random_trios(Random(7), sp, 40)).ok
    # the 9 basis pairs, and (x, y), (y, x) and (x, z) of each random trio
    assert len(calls) == len(set(calls)) == 9 + 3 * 40


def test_check_levi_civita_forms_each_one_form_once(monkeypatch):
    sp = RinehartSpace.with_metric(
        Q, ("x", "y"), Metric.diagonal([_sp().fn("1"), _sp().fn("x^2 + 1")]))
    kz = KoszulConnection(sp)
    assert not kz.fully_solvable
    calls = counted(monkeypatch, "form")
    assert check_levi_civita(sp, kz, random_trios(Random(7), sp, 10)).ok
    assert len(calls) == len(set(calls)) == 4 + 3 * 10


def test_functions_of_another_ground_ring_are_refused_at_construction():
    sp = _sp()
    foreign = RinehartSpace.euclidean(PrimeField(7), ("x", "y")).fn("x + 1")
    for build in (lambda: sp.field([foreign, 0]), lambda: sp.form([0, foreign]),
                  lambda: sp.coerce_fn(foreign), lambda: sp.coerce_fn(foreign.rep),
                  lambda: foreign * sp.basis_field(0)):
        with pytest.raises(SpaceMismatch, match="function belongs to a different space"):
            build()


def test_with_metric_refuses_another_dimension():
    with pytest.raises(SpaceMismatch, match="metric dimension does not match variable count"):
        RinehartSpace.with_metric(Q, ("x", "y"), Metric.euclidean(Q, 3, None))


def test_coerce_fn_takes_a_ground_scalar_and_refuses_other_types():
    sp = _sp()
    assert sp.coerce_fn(Q.from_int(3)) == sp.fn("3")
    with pytest.raises(TypeError, match="cannot interpret 'x' as a function"):
        sp.coerce_fn("x")


def test_check_levi_civita_rejects_perturbed_connection():
    sp = RinehartSpace.euclidean(Q, ("x", "y"))
    base = EuclideanConnection(sp)

    class Perturbed:
        def __call__(self, x, y):
            v = base(x, y)
            # torsion-breaking bias toward X1 by <x,X1>*<y,X2>
            bias = pairing(x, sp.basis_form(0)) * pairing(y, sp.basis_form(1))
            return v + bias * sp.basis_field(0)

    report = check_levi_civita(sp, Perturbed(), random_trios(seeded("space-lc-perturbed"), sp))
    assert not report.ok
    assert report.failed == "torsion"
    assert report.counterexample is not None
    assert "x" in report.counterexample and "y" in report.counterexample


def test_a_connection_wrong_only_off_the_basis_fails_on_a_sampled_trio():
    sp = RinehartSpace.euclidean(Q, ("x", "y"))
    base, e1 = EuclideanConnection(sp), sp.basis_field(0)

    def planted(x, y):
        # X^1 d_1(X^1) e_1 is zero on every constant field, the coordinate basis among them
        x1 = x.coeffs[0]
        return base(x, y) + (x1 * derive(sp, e1, x1)) * e1

    assert check_levi_civita(sp, planted).ok
    report = check_levi_civita(sp, planted, random_trios(seeded("space-lc-off-basis"), sp, 1))
    assert report.failed == "torsion"


def test_check_levi_civita_loads_no_random_generator():
    # -S keeps site hooks, which may import modules themselves, out of the count
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import rinehart; "
            "sp = rinehart.RinehartSpace.euclidean(rinehart.Rationals(), ('x', 'y')); "
            "assert rinehart.check_levi_civita(sp, rinehart.EuclideanConnection(sp)).ok; "
            "print('rinehart.randgen' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_curvature_tensorial_in_function_coefficients():
    sp = RinehartSpace.euclidean(Q, ("x", "y"))
    conn = EuclideanConnection(sp)
    rng = seeded("space-tensorial")
    for _ in range(40):
        f = random_fn(rng, sp, 2)
        x = random_field(rng, sp, 1)
        y = random_field(rng, sp, 1)
        z = random_field(rng, sp, 1)
        base = curvature(sp, conn, x, y, z)
        assert curvature(sp, conn, f * x, y, z) == f * base
        assert curvature(sp, conn, x, f * y, z) == f * base
        assert curvature(sp, conn, x, y, f * z) == f * base


def test_check_constant_curvature_flat_space():
    sp = RinehartSpace.euclidean(Q, ("x", "y"))
    conn = EuclideanConnection(sp)
    report = check_constant_curvature(sp, conn, Q.zero(),
                                      [sp.basis_field(0), sp.basis_field(1)])
    assert report.ok
    report = check_constant_curvature(sp, conn, Q.one(),
                                      [sp.basis_field(0), sp.basis_field(1)])
    assert not report.ok
    assert report.counterexample is not None


def test_quad_ext_space_calculus():
    ring = QuadExt(Q, -1)
    sp = RinehartSpace.euclidean(ring, ("x", "y"))
    f = sp.fn("al*x^2")
    g = gradient(sp, f)
    assert g.coeffs == (sp.fn("2*al*x"), sp.fn("0"))


def test_run_checks_builds_one_koszul_connection(monkeypatch):
    helper = _sp()
    metric = Metric(((helper.fn("x^2 + 1"), helper.fn("x")),
                     (helper.fn("x"), helper.fn("1"))))
    ws = Workspace(RinehartSpace.with_metric(Q, ("x", "y"), metric))
    builds = []
    original = KoszulConnection.__init__

    def counting(self, space):
        builds.append(space)
        original(self, space)

    monkeypatch.setattr(KoszulConnection, "__init__", counting)
    results = {r.name: r.status for r in run_checks(ws, cases=3)}
    assert len(builds) == 1
    for name in ("connection-leibniz", "curvature-tensorial", "levi-civita"):
        assert results[name] == "pass"
