"""Hypersurface quotients: projections, induced connection, space forms.

The induced-connection oracle below recomputes everything from raw
polynomial operations (componentwise derivatives, explicit normal-form
reduction, the projection formula X - q<X,N>N written out by hand),
sharing no code path with InducedConnection.

Frozen values, derived by hand for the circle x^2 + y^2 = 1 (c = 1):
  Y1 = (y^2, -x*y), Y2 = (-x*y, 1 - y^2) = (-x*y, x^2),
  nabla_{Y1}Y2 = (-y^3, x*y^2) = -y*Y1, [Y1, Y2] = (-y, x).
"""

import gc
import pathlib
import weakref

import pytest

from rinehart import (EuclideanConnection, HypersurfaceSpace, InducedConnection, Metric,
                      NotAUnit, NotTangent, PrimeField, QuadExt, QuotientElem, Rationals,
                      RinehartSpace, RingMismatch, SpaceMismatch, TwoNotAUnit,
                      ambient_derivative, check_constant_curvature, curvature,
                      derive, inner, is_tangent, lie_bracket, make_sphere,
                      parse_poly, project_normal, project_tangent,
                      quotient_equal, second_fundamental_form, spanning_fields,
                      verify_space_form)
from rinehart.cli import build_workspace, load_spec
from rinehart.hypersurface import induced_metric_gap, sphere_metric_entry
from rinehart.poly import normal_form
from rinehart.randgen import random_field
from rinehart.rings import set_field
from rinehart.suites import Workspace, run_checks
from rinehart.tensors import VectorField, flat, gram_table
from conftest import seeded

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"

Q = Rationals()


def circle():
    return make_sphere(Q, 2, Q.one(), var_names=("x", "y"))


def sphere3(ring=Q, c=None):
    c = ring.one() if c is None else c
    return make_sphere(ring, 3, c, var_names=("x", "y", "z"))


# ---------------------------------------------------------------------------
# construction


def test_sphere_generator_frozen_f5():
    # c = 2 in F_5: 1/2 = 3, 1/c = 3, f = 3*(x1^2+x2^2+x3^2) - 3*3
    ring = PrimeField(5)
    hyper = make_sphere(ring, 3, ring.from_int(2))
    from rinehart import format_poly
    assert format_poly(hyper.generator, hyper.ambient.var_names) == \
        "3*x1^2 + 3*x2^2 + 3*x3^2 + 1"


def test_sphere_rejects_bad_inputs():
    with pytest.raises(NotAUnit):
        make_sphere(Q, 3, Q.zero())
    with pytest.raises(TwoNotAUnit, match="sphere construction divides by 2"):
        make_sphere(PrimeField(2), 3, PrimeField(2).one())
    f2al = QuadExt(PrimeField(2), 1)
    with pytest.raises(TwoNotAUnit, match="sphere construction divides by 2"):
        make_sphere(f2al, 3, f2al.one())
    with pytest.raises(ValueError):
        make_sphere(Q, 1, Q.one())
    with pytest.raises(RingMismatch, match="curvature constant belongs to a different ring"):
        make_sphere(Q, 3, PrimeField(7).one())
    with pytest.raises(ValueError, match="variable name count must match n"):
        make_sphere(Q, 3, Q.one(), var_names=("x", "y"))


def test_build_refuses_an_ambient_with_an_ideal():
    hyper = sphere3()
    with pytest.raises(SpaceMismatch, match="ambient space must be a plain polynomial space"):
        HypersurfaceSpace.build(hyper.quotient, hyper.generator, hyper.quotient.fn("1"))


def test_build_validates_witness():
    ambient = sphere3().ambient
    f = parse_poly("x^2 + y^2 + z^2 - 1", Q, ("x", "y", "z"))
    # N = grad f = (2x, 2y, 2z), so <N,N> = 4 mod (f) and q must be 1/4
    good = HypersurfaceSpace.build(ambient, f, ambient.fn("1/4"))
    assert good.q.rep == ambient.fn("1/4").rep
    with pytest.raises(ValueError):
        HypersurfaceSpace.build(ambient, f, ambient.fn("1"))   # 1 - <N,N> not in (f)


def test_normal_field_is_gradient_of_generator():
    hyper = circle()
    sp = hyper.quotient
    assert hyper.normal.space == sp
    assert hyper.normal.coeffs == (sp.fn("x"), sp.fn("y"))


# ---------------------------------------------------------------------------
# tangency and projections


def test_normal_is_not_tangent_but_projections_are():
    hyper = sphere3()
    assert not is_tangent(hyper, hyper.normal)
    rng = seeded("hyper-tangency")
    for _ in range(50):
        w = random_field(rng, hyper.quotient, 2)
        assert is_tangent(hyper, project_tangent(hyper, w))


def test_projection_of_basis_fields_frozen():
    hyper = circle()
    sp = hyper.quotient
    y1, y2 = spanning_fields(hyper)
    assert y1.coeffs == (sp.fn("y^2"), sp.fn("-x*y"))
    # 1 - y^2 reduces to x^2 modulo x^2 + y^2 - 1 under grevlex
    assert y2.coeffs == (sp.fn("-x*y"), sp.fn("x^2"))


def test_project_normal_of_basis_is_coordinate_times_normal():
    hyper = sphere3()
    sp = hyper.quotient
    nq = hyper.normal
    for i in range(3):
        want = sp.coordinate(i) * nq
        got = project_normal(hyper, sp.basis_field(i))
        assert quotient_equal(hyper, got, want)


def test_tangent_normal_split_is_identity():
    hyper = sphere3()
    rng = seeded("hyper-split")
    for _ in range(50):
        w = random_field(rng, hyper.quotient, 2)
        top = project_tangent(hyper, w)
        bot = project_normal(hyper, w)
        assert quotient_equal(hyper, top + bot, w)


def test_quotient_equal_detects_ideal_differences():
    hyper = circle()
    sp = hyper.quotient
    a = sp.field((parse_poly("x^2 + y^2", Q, ("x", "y")),
                  parse_poly("0", Q, ("x", "y"))))
    b = sp.field((parse_poly("1", Q, ("x", "y")),
                  parse_poly("0", Q, ("x", "y"))))
    assert quotient_equal(hyper, a, b)
    c = sp.field((parse_poly("x", Q, ("x", "y")),
                  parse_poly("0", Q, ("x", "y"))))
    assert not quotient_equal(hyper, a, c)


# ---------------------------------------------------------------------------
# induced connection: frozen circle values and the independent oracle


def test_induced_connection_circle_frozen():
    hyper = circle()
    sp = hyper.quotient
    conn = InducedConnection(hyper)
    y1, y2 = spanning_fields(hyper)
    v = conn(y1, y2)
    assert v.coeffs == (sp.fn("-y^3"), sp.fn("x*y^2"))
    assert quotient_equal(hyper, v, (-sp.fn("y")) * y1)
    b = lie_bracket(sp, y1, y2)
    assert b.coeffs == (sp.fn("-y"), sp.fn("x"))


def test_induced_connection_rejects_non_tangent():
    for hyper in [circle()] + [_sphere(name, 3)[0] for name in sorted(SWEEP_RINGS)]:
        conn = InducedConnection(hyper)
        y1 = spanning_fields(hyper)[0]
        nq = hyper.normal
        with pytest.raises(NotTangent) as err:
            conn(nq, y1)
        assert err.value.argument == "x"
        with pytest.raises(NotTangent) as err:
            conn(y1, nq)
        assert err.value.argument == "y"


def _naive_project(hyper, field):
    """Projection oracle: raw polynomial arithmetic, explicit reduction."""
    amb = hyper.ambient
    f = hyper.ideal
    n = amb.nvars
    coords = [parse_poly(amb.var_names[i], amb.ring, amb.var_names) for i in range(n)]
    reps = [c.rep for c in field.coeffs]
    # <X, N> with the euclidean metric is sum_i X^i * x_i
    xn = normal_form(sum((reps[i] * coords[i] for i in range(n)),
                         start=reps[0].ring.zero() * reps[0]), f)
    qrep = hyper.q.rep
    out = []
    for i in range(n):
        raw = reps[i] - qrep * xn * coords[i]
        out.append(QuotientElem(normal_form(raw, f), f))
    return VectorField(hyper.quotient, tuple(out))


def _naive_induced(hyper, x, y):
    """Connection oracle: componentwise derivatives then naive projection."""
    amb = hyper.ambient
    f = hyper.ideal
    n = amb.nvars
    xreps = [c.rep for c in x.coeffs]
    yreps = [c.rep for c in y.coeffs]
    comps = []
    for i in range(n):
        acc = amb.ring.zero() * xreps[0]
        for j in range(n):
            acc = acc + xreps[j] * yreps[i].diff(j)
        comps.append(QuotientElem(normal_form(acc, f), f))
    return _naive_project(hyper, VectorField(hyper.quotient, tuple(comps)))


def test_induced_connection_matches_naive_oracle():
    for hyper in (circle(), sphere3(), sphere3(PrimeField(7), PrimeField(7).from_int(3))):
        conn = InducedConnection(hyper)
        rng = seeded(f"hyper-oracle:{hyper.ambient.ring}")
        fields = list(spanning_fields(hyper))
        for _ in range(10):
            w = random_field(rng, hyper.quotient, 1)
            fields.append(project_tangent(hyper, w))
        for x in fields:
            for y in fields[:4]:
                assert quotient_equal(hyper, conn(x, y), _naive_induced(hyper, x, y))


def test_projection_matches_naive_oracle():
    hyper = sphere3()
    rng = seeded("hyper-proj-oracle")
    for _ in range(40):
        w = random_field(rng, hyper.quotient, 2)
        assert quotient_equal(hyper, project_tangent(hyper, w), _naive_project(hyper, w))


# ---------------------------------------------------------------------------
# second fundamental form and the Gauss split


def test_second_form_frozen_sphere():
    # h(Y_i, Y_j) = -c*(delta_ij - c*x_i*x_j)*N on the c-sphere
    hyper = sphere3()
    sp = hyper.quotient
    nq = hyper.normal
    ys = spanning_fields(hyper)
    for i in range(3):
        for j in range(3):
            h = second_fundamental_form(hyper, ys[i], ys[j])
            gij = inner(ys[i], ys[j], sp.metric)
            want = (-gij) * nq
            assert quotient_equal(hyper, h, want)


def test_gauss_split_random_tangents():
    hyper = sphere3()
    rng = seeded("hyper-gauss")
    sp = hyper.quotient
    for _ in range(30):
        x = project_tangent(hyper, random_field(rng, hyper.quotient, 2))
        y = project_tangent(hyper, random_field(rng, hyper.quotient, 2))
        whole = VectorField(sp, tuple(
            derive(sp, x, y.coeffs[k]) for k in range(sp.nvars)))
        split = InducedConnection(hyper)(x, y) + second_fundamental_form(hyper, x, y)
        assert quotient_equal(hyper, whole, split)


def test_second_form_symmetric():
    hyper = sphere3()
    rng = seeded("hyper-h-sym")
    for _ in range(30):
        x = project_tangent(hyper, random_field(rng, hyper.quotient, 2))
        y = project_tangent(hyper, random_field(rng, hyper.quotient, 2))
        assert quotient_equal(hyper,
                              second_fundamental_form(hyper, x, y),
                              second_fundamental_form(hyper, y, x))


# ---------------------------------------------------------------------------
# representative independence


def test_representative_independence():
    hyper = sphere3()
    sp = hyper.quotient
    amb = hyper.ambient
    gen = amb.poly_fn(hyper.generator)
    conn = InducedConnection(hyper)
    rng = seeded("hyper-reps")
    ys = spanning_fields(hyper)
    for _ in range(20):
        w = random_field(rng, amb, 1)
        v = random_field(rng, amb, 1)
        x, y = ys[0], ys[1]
        x_lift = hyper.to_ambient(x) + gen * w
        y_lift = hyper.to_ambient(y) + gen * v
        moved = project_tangent(hyper, hyper.to_quotient(
            EuclideanConnection(amb)(x_lift, y_lift)))
        assert quotient_equal(hyper, moved, conn(x, y))


# ---------------------------------------------------------------------------
# space forms


def test_verify_space_form_rational_spheres():
    for c_int in (1, -1, 4):
        c = Q.from_int(c_int)
        hyper = sphere3(Q, c)
        report = verify_space_form(hyper, c)
        assert report.ok, (c_int, report.counterexample)


def test_verify_space_form_c_mismatch_fails():
    hyper = sphere3(Q, Q.one())
    report = verify_space_form(hyper, Q.from_int(2))
    assert not report.ok
    assert report.counterexample is not None
    with pytest.raises(RingMismatch, match="curvature constant belongs to a different ring"):
        verify_space_form(hyper, PrimeField(7).one())


def test_space_form_curvature_against_straight_line_oracle():
    # recompute R(Y1,Y2)Y3 - c(<Y2,Y3>Y1 - <Y1,Y3>Y2) with the naive
    # connection oracle only, then insist the engine agrees it vanishes
    hyper = sphere3()
    sp = hyper.quotient
    ys = spanning_fields(hyper)
    y1, y2, y3 = ys

    def naive_curv(x, y, z):
        a = _naive_induced(hyper, y, z)
        b = _naive_induced(hyper, x, a)
        c2 = _naive_induced(hyper, x, z)
        d = _naive_induced(hyper, y, c2)
        br = lie_bracket(sp, x, y)
        e = _naive_induced(hyper, br, z)
        return b - d - e

    lhs = naive_curv(y1, y2, y3)
    rhs = (inner(y2, y3, sp.metric) * y1) - (inner(y1, y3, sp.metric) * y2)
    assert quotient_equal(hyper, lhs, rhs)
    engine = curvature(sp, InducedConnection(hyper), y1, y2, y3)
    assert quotient_equal(hyper, engine, lhs)


def test_verify_space_form_finite_field():
    ring = PrimeField(7)
    c = ring.from_int(3)
    hyper = sphere3(ring, c)
    assert verify_space_form(hyper, c).ok


def test_verify_space_form_quad_ext():
    ring = QuadExt(Q, 1)
    c = ring.scalar((1, 0))
    hyper = make_sphere(ring, 2, c, var_names=("x", "y"))
    assert verify_space_form(hyper, c).ok


def test_de_sitter_quotient_has_constant_curvature_one():
    # x^2 + y^2 - z^2 = 1 under diag(1, 1, -1): N = G^-1 df = (2x, 2y, 2z), <N, N> = 4
    hyper = _de_sitter()
    conn, fields = InducedConnection(hyper), spanning_fields(hyper)
    assert check_constant_curvature(hyper.quotient, conn, Q.one(), fields).ok
    report = check_constant_curvature(hyper.quotient, conn, Q.from_int(-1), fields)
    assert not report.ok and "triple" in report.counterexample


def test_intermediate_identities_n3():
    # d_{Y_i} x_j = delta_ij - c x_i x_j ; nabla_{Y_i}Y_j = -c x_j Y_i ;
    # [Y_i,Y_j] = c(x_i Y_j - x_j Y_i)
    hyper = sphere3()
    sp = hyper.quotient
    conn = InducedConnection(hyper)
    ys = spanning_fields(hyper)
    for i in range(3):
        for j in range(3):
            xi = sp.coordinate(i)
            xj = sp.coordinate(j)
            delta = sp.fn("1") if i == j else sp.fn("0")
            assert derive(sp, ys[i], xj) == delta - xi * xj
            assert inner(ys[i], ys[j], sp.metric) == delta - xi * xj
            assert quotient_equal(hyper, conn(ys[i], ys[j]), (-xj) * ys[i])
            want = xi * ys[j] - xj * ys[i]
            assert quotient_equal(hyper, lie_bracket(sp, ys[i], ys[j]), want)


def test_induced_connections_of_one_hypersurface_share_their_values():
    hyper = sphere3()
    y1, y2, _ = spanning_fields(hyper)
    value = InducedConnection(hyper)(y1, y2)
    assert verify_space_form(hyper, Q.one()).ok
    assert InducedConnection(hyper)(y1, y2) is value   # read from the shared memo
    ref = weakref.ref(hyper)
    gc.disable()
    try:
        del hyper
        assert ref() is None   # freed without the cycle collector
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the fused induced connection and the i < j curvature loop against references

SWEEP_RINGS = {"Q": Q, "F7": PrimeField(7), "Qi": QuadExt(Q, -1), "Qj": QuadExt(Q, 1)}


def _sphere(ring_name, n):
    ring = SWEEP_RINGS[ring_name]
    c = ring.from_int(3) if ring_name == "F7" else ring.one()
    return make_sphere(ring, n, c), c


def _tangent_samples(hyper, rng):
    """Spanning fields, rotation fields x_j e_i - x_i e_j (with zero components)
    and projected random fields."""
    sp = hyper.quotient
    n = sp.nvars
    fields = list(spanning_fields(hyper))
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = [sp.constant(sp.ring.zero())] * n
            coeffs[i], coeffs[j] = sp.coordinate(j), -sp.coordinate(i)
            fields.append(VectorField(sp, tuple(coeffs)))
    fields += [project_tangent(hyper, random_field(rng, sp, 1)) for _ in range(3)]
    return fields


@pytest.mark.parametrize("ring_name", sorted(SWEEP_RINGS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fused_induced_connection_matches_unfused_projection(ring_name, n):
    hyper, _ = _sphere(ring_name, n)
    sp = hyper.quotient
    conn = InducedConnection(hyper)
    fields = _tangent_samples(hyper, seeded(f"fused:{ring_name}:{n}"))
    for x in fields:
        assert is_tangent(hyper, x)
        for y in fields[:n + 2]:
            whole = ambient_derivative(sp, x, y)
            # the unfused path: a reduced derivative, then X - q<X, N>N
            want = whole - project_normal(hyper, whole)
            assert project_tangent(hyper, whole) == want
            assert conn(x, y) == want


def _full_space_form_reference(hyper, c):
    """verify_space_form as it was: the induced metric, then all n^3 triples,
    each with its own bracket and inner products."""
    ys = spanning_fields(hyper)
    gap = induced_metric_gap(hyper, c, gram_table(ys, hyper.quotient.metric))
    if gap is not None:
        return gap
    return _full_curvature_reference(hyper, c, ys)


def _full_curvature_reference(hyper, c, ys, conn=None):
    sp = hyper.quotient
    conn = InducedConnection(hyper) if conn is None else conn
    c_fn = sp.constant(c)
    for i, x in enumerate(ys):
        for j, y in enumerate(ys):
            for k, z in enumerate(ys):
                lhs = (conn(x, conn(y, z)) - conn(y, conn(x, z))
                       - conn(ambient_derivative(sp, x, y) - ambient_derivative(sp, y, x), z))
                rhs = c_fn * ((inner(y, z, sp.metric) * x) - (inner(x, z, sp.metric) * y))
                if not (lhs - rhs).is_zero():
                    return {"triple": f"({i + 1}, {j + 1}, {k + 1})",
                            "lhs": sp.format_field(lhs), "rhs": sp.format_field(rhs)}
    return None


@pytest.mark.parametrize("ring_name", sorted(SWEEP_RINGS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_curvature_loop_over_i_lt_j_finds_the_full_loops_counterexample(ring_name, n):
    hyper, c = _sphere(ring_name, n)
    ring = hyper.quotient.ring
    assert verify_space_form(hyper, c).ok
    assert _full_space_form_reference(hyper, c) is None
    wrong = c + ring.one()
    assert verify_space_form(hyper, wrong).counterexample == \
        _full_space_form_reference(hyper, wrong)
    # a wrong c fails at the induced metric first; the curvature loop on its own
    # must report the triple the n^3 loop reports (none at n = 2: a curve is flat)
    ys = spanning_fields(hyper)
    for bad in (wrong, ring.zero(), c + c):
        report = check_constant_curvature(hyper.quotient, InducedConnection(hyper), bad, ys)
        want = _full_curvature_reference(hyper, bad, ys)
        assert report.counterexample == want
        assert report.ok == (want is None) == (n == 2)


# ---------------------------------------------------------------------------
# tangency proved once per field, one Gram table, planted bugs in the fused loop


def test_tangency_record_never_admits_a_non_tangent_field():
    hyper = sphere3()
    conn = InducedConnection(hyper)
    y1, y2, y3 = spanning_fields(hyper)
    conn(y1, y2)
    conn(y3, conn(y1, y2))   # the spanning fields and a connection value are now recorded
    nq = hyper.normal
    for bad in (nq, y1 + nq):
        for _ in range(2):   # a field found not tangent is refused on every call
            with pytest.raises(NotTangent) as err:
                conn(bad, y1)
            assert err.value.argument == "x"
            with pytest.raises(NotTangent) as err:
                conn(y2, bad)
            assert err.value.argument == "y"
            with pytest.raises(NotTangent) as err:
                second_fundamental_form(hyper, y3, bad)
            assert err.value.argument == "y"


def test_verify_space_form_proves_each_field_tangent_once(monkeypatch):
    import rinehart.hypersurface as hs
    import rinehart.space as space_module
    import rinehart.tensors as tensors
    hyper = sphere3()
    counts = {"is_tangent": 0, "inner": 0}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    inner_counted = counting("inner", tensors.inner)
    for module in (tensors, space_module):
        monkeypatch.setattr(module, "inner", inner_counted)
    monkeypatch.setattr(hs, "is_tangent", counting("is_tangent", hs.is_tangent))
    assert verify_space_form(hyper, Q.one()).ok
    fields = {key for pair in hyper._induced_memo for key in pair}
    # one proof per distinct argument of the induced connection, each reading df and no
    # inner product, and the n^2 = 9 entries of the one Gram table
    assert counts["is_tangent"] == len(fields) == 15
    assert counts["inner"] == 9
    assert verify_space_form(hyper, Q.one()).ok
    assert counts["is_tangent"] == 15 and counts["inner"] == 2 * 9


def _doubled(hyper):
    induced = InducedConnection(hyper)
    return lambda x, y: induced(x, y) + induced(x, y)


def _unprojected(hyper):
    return lambda x, y: ambient_derivative(hyper.quotient, x, y)


@pytest.mark.parametrize("ring_name", sorted(SWEEP_RINGS))
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("planted", [_doubled, _unprojected])
def test_fused_curvature_comparison_catches_planted_bugs(ring_name, n, planted):
    # a connection off by a factor of 2, or one that skips the projection, keeps the metric;
    # the fused comparison must report the full loop's first triple, lhs and rhs
    hyper, c = _sphere(ring_name, n)
    ys = spanning_fields(hyper)
    conn = planted(hyper)
    report = check_constant_curvature(hyper.quotient, conn, c, ys)
    want = _full_curvature_reference(hyper, c, ys, conn)
    assert want is not None and not report.ok
    assert report.counterexample == want


# ---------------------------------------------------------------------------
# the one-sum second fundamental form and ambient projections, step by step


def _level_set(ring, names, generator, q, rows=None):
    """The quotient generator = 0 with witness q, under the constant metric `rows`
    (Euclidean when None)."""
    ambient = RinehartSpace.euclidean(ring, names)
    if rows is not None:
        metric = Metric(tuple(tuple(ambient.fn(e) for e in row) for row in rows))
        ambient = RinehartSpace.with_metric(ring, names, metric)
    return HypersurfaceSpace.build(ambient, parse_poly(generator, ring, names), ambient.fn(q))


def _de_sitter(ring=Q):
    return _level_set(ring, ("x", "y", "z"), "x^2 + y^2 - z^2 - 1", "1/4",
                      [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]])


def _generator_quotient(ring=Q):
    return _level_set(ring, ("x", "y"), "2*x^2 + 2*x*y + y^2 - 1", "1/4",
                      [["2", "1"], ["1", "1"]])


def _cubic(ring=Q):
    # three parallel lines x = -1, 0, 1 in K^2; Hess f = diag(6x, 0) is not constant
    return _level_set(ring, ("x", "y"), "x^3 - x", "1 - 3/4*x^2")


def _cylinder():
    return _level_set(Q, ("x", "y", "z"), "x^2 + y^2 - 1", "1/4")


STEP_HYPERSURFACES = {
    **{f"sphere-{name}-n{n}": (lambda name=name, n=n: _sphere(name, n)[0])
       for name in ("Q", "F7", "Qi") for n in (3, 4)},
    "generator-quotient": _generator_quotient,
    "de-sitter": _de_sitter,
    # q = 1 - 3/4 x^2 is not constant on the cubic
    "cubic": _cubic,
    "cylinder": _cylinder,
}


@pytest.mark.parametrize("ring", [Q, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("make", [_generator_quotient, _de_sitter, _cubic],
                         ids=["generator-quotient", "de-sitter", "cubic"])
def test_the_normal_meets_the_metric_as_df(make, ring):
    # N = G^-1 df, so G N = df: the covector q df is q G N, and tangency read from df agrees
    # with <X, N> in (f) read through G
    hyper = make(ring)
    sp = hyper.quotient
    assert hyper.normal.space == sp
    gn = flat(hyper.normal, sp.metric)
    assert gn.reps == tuple(sp.poly_fn(d).rep for d in hyper.generator.partials)
    assert hyper.normal_covector == tuple((hyper.q * g).rep for g in gn.coeffs)
    rng = seeded(f"g-n-df:{make.__name__}:{ring}")
    spanning = spanning_fields(hyper)
    fields = spanning + [hyper.normal] + [random_field(rng, hyper.ambient, 2) for _ in range(8)]
    tangent = [is_tangent(hyper, x) for x in fields]
    assert tangent[:len(spanning) + 1] == [True] * len(spanning) + [False]
    assert tangent == [inner(hyper.to_quotient(x), hyper.normal, sp.metric).is_zero()
                       for x in fields]


def _step_normal_part(hyper, v):
    """q<V, N>N the long way: reduce V, one inner product with N, then scale by q."""
    nq = hyper.normal
    return (hyper.q * inner(hyper.to_quotient(v), nq, hyper.quotient.metric)) * nq


@pytest.mark.parametrize("label", sorted(STEP_HYPERSURFACES))
def test_second_form_and_ambient_projections_match_their_step_by_step_forms(label):
    hyper = STEP_HYPERSURFACES[label]()
    sp = hyper.quotient
    rng = seeded(f"one-sum:{label}")
    tangents = list(spanning_fields(hyper))
    tangents += [project_tangent(hyper, random_field(rng, sp, 2)) for _ in range(3)]
    for x in tangents:
        assert is_tangent(hyper, x)
        for y in tangents:
            # n reduced components of D_X Y, an inner product, then the scaling
            want = _step_normal_part(hyper, ambient_derivative(sp, x, y))
            assert second_fundamental_form(hyper, x, y) == want
    for _ in range(8):
        w = random_field(rng, hyper.ambient, 3)   # unreduced representatives
        wq = hyper.to_quotient(w)
        normal = _step_normal_part(hyper, w)
        assert project_normal(hyper, w) == project_normal(hyper, wq) == normal
        assert project_tangent(hyper, w) == project_tangent(hyper, wq) == wq - normal


def _covector_without_q(hyper):
    set_field(hyper, "normal_covector", flat(hyper.normal, hyper.quotient.metric).reps)


def _flipped_covector(hyper):
    set_field(hyper, "normal_covector", tuple(-g for g in hyper.normal_covector))


def _de_sitter_workspace():
    hyper = _de_sitter()
    return Workspace(hyper.ambient, hyper)


PROJECTION_WORKSPACES = {
    "sphere-F7": lambda: build_workspace(load_spec(str(SPECS / "sphere_f7_n3.json")))[0],
    "de-sitter": _de_sitter_workspace,
}


@pytest.mark.parametrize("plant", [_covector_without_q, _flipped_covector])
@pytest.mark.parametrize("label", sorted(PROJECTION_WORKSPACES))
def test_planted_projection_bugs_are_caught(label, plant):
    # q = 3 on the F_7 sphere and 1/4 on de Sitter space, so a dropped q shows; is_tangent
    # reads Xf = sum_k X_k d_k f, not the covector, so it witnesses the projection
    # independently
    ws = PROJECTION_WORKSPACES[label]()
    plant(ws.hyper)
    results = run_checks(ws, names=["projection-retraction", "tangency"], seed=7)
    assert [r.status for r in results] == ["fail", "fail"]


def test_one_sum_forms_keep_their_refusals():
    hyper = sphere3()
    y1 = spanning_fields(hyper)[0]
    nq = hyper.normal
    for args, name in (((nq, y1), "x"), ((y1, nq), "y"), ((nq, nq), "x")):
        with pytest.raises(NotTangent) as err:
            second_fundamental_form(hyper, *args)
        assert err.value.argument == name
    foreign = [make_sphere(Q, 3, Q.from_int(2), var_names=("x", "y", "z")).quotient,
               sphere3(PrimeField(7), PrimeField(7).from_int(3)).ambient,
               circle().ambient]
    for space in foreign:
        field = space.basis_field(0)
        for project in (project_tangent, project_normal):
            with pytest.raises(SpaceMismatch):
                project(hyper, field)
        for args in ((field, y1), (y1, field)):
            with pytest.raises(SpaceMismatch):
                second_fundamental_form(hyper, *args)


def _reference_metric_gap(hyper, c, gram):
    sp = hyper.quotient
    for i, row in enumerate(gram):
        for j, got in enumerate(row):
            want = sphere_metric_entry(sp, c, i, j)
            if got != want:
                return {"pair": f"({i + 1}, {j + 1})", "got": sp.format_fn(got),
                        "want": sp.format_fn(want)}
    return None


@pytest.mark.parametrize("ring_name", sorted(SWEEP_RINGS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_induced_metric_gap_matches_the_entrywise_comparison(ring_name, n):
    hyper, c = _sphere(ring_name, n)
    sp = hyper.quotient
    gram = gram_table(spanning_fields(hyper), sp.metric)
    one = sp.constant(sp.ring.one())
    assert induced_metric_gap(hyper, c, gram) is None
    # a wrong c, and a table off by one at a single diagonal or off-diagonal entry
    for i, j in ((0, 1), (n - 1, n - 1)):
        bad = [list(row) for row in gram]
        bad[i][j] = bad[i][j] + one
        bad = tuple(tuple(row) for row in bad)
        gap = induced_metric_gap(hyper, c, bad)
        assert gap is not None and gap["pair"] == f"({i + 1}, {j + 1})"
        assert gap == _reference_metric_gap(hyper, c, bad)
    wrong = c + sp.ring.one()
    assert induced_metric_gap(hyper, wrong, gram) == _reference_metric_gap(hyper, wrong, gram)


# ---------------------------------------------------------------------------
# the Weingarten form of the induced connection

LEVEL_SETS = {
    "de-sitter-Q": _de_sitter,
    "de-sitter-F7": lambda: _de_sitter(PrimeField(7)),
    "generator-quotient": _generator_quotient,
    "cylinder": _cylinder,
    "cubic": _cubic,
}


@pytest.mark.parametrize("label", sorted(LEVEL_SETS))
def test_weingarten_connection_equals_the_projected_ambient_derivative(label):
    # D_X Y + Hess f(X, Y) qN against P(D_X Y) off the sphere; spheres over Q, F_7, Q(i)
    # and Q(j) at n = 2..4 are compared the same way in the fused-connection test above
    hyper = LEVEL_SETS[label]()
    sp = hyper.quotient
    rng = seeded(f"weingarten:{label}")
    fields = list(spanning_fields(hyper))
    fields += [project_tangent(hyper, random_field(rng, sp, d)) for d in (1, 1, 2, 2)]
    conn = InducedConnection(hyper)
    for x in fields:
        assert is_tangent(hyper, x)
        for y in fields:
            assert conn(x, y) == project_tangent(hyper, ambient_derivative(sp, x, y))


def _dropped_term(hyper):
    set_field(hyper, "hessian", ())


def _flipped_term(hyper):
    set_field(hyper, "scaled_normal", tuple(-v for v in hyper.scaled_normal))


def _doubled_normal(hyper):
    set_field(hyper, "scaled_normal", tuple(v + v for v in hyper.scaled_normal))


def _rejects(hyper, c) -> bool:
    try:
        return not verify_space_form(hyper, c).ok
    except NotTangent:   # a wrong value fed back into the connection as an argument
        return True


@pytest.mark.parametrize("plant", [_dropped_term, _flipped_term, _doubled_normal])
def test_planted_weingarten_term_bugs_are_caught(plant):
    ws, _ = build_workspace(load_spec(str(SPECS / "sphere_q_n3.json")))
    plant(ws.hyper)
    results = run_checks(ws, names=["gauss-split", "induced-identities"], seed=7)
    assert [r.status for r in results] == ["fail", "fail"]
    hyper = sphere3()
    plant(hyper)
    assert _rejects(hyper, Q.one())
    # on x^3 - x the term is zero on tangent fields, so no plant shows: 3x^2 - 1 is a unit
    # modulo (f), so a tangent field's x-component lies in (f), and with it
    # Hess f(X, Y) = 6x X_x Y_x; the three lines are totally geodesic
    cubic = _cubic()
    plant(cubic)
    (result,) = run_checks(Workspace(cubic.ambient, cubic), names=["gauss-split"], seed=7)
    assert result.status == "pass"
