"""Named invariant suites over a built space, shared by the CLI and tests.

Each check runs exhaustively over basis or spanning data where that is
finite and on seeded random samples otherwise, entirely in exact
arithmetic.  Results carry a status, a human-readable detail line and a
counterexample rendered as exact expression strings when something fails.

Random polynomials have degree at most d = max_degree.  The deepest
product any check forms is second-form-symmetric's f * h(X, Y), of degree
d + (2d + 4) with tangent fields of degree d + 2; pairing-duality reaches
3d.  Keeping 3d + 4 <= poly.MAX_DEGREE = 127 gives MAX_RANDOM_DEGREE = 41,
for constant metrics and quotient generators of degree at most 2.

Inputs of higher degree lower the cap of the checks that read them
(`degree_cap`).  A check that reads no metric keeps MAX_RANDOM_DEGREE; any
other gets (127 - a*deg G - b*deg f) // 3, at most 41, with a = b = 2.
deg f is the larger degree of the quotient generator and its witness q, 0
without a quotient.  deg G is the largest degree m of a metric entry, plus,
for the checks that read the connection, the largest degree g of the
second-kind symbols Gamma^k_ij, the components of the basis values
nabla_{X_i} X_j of a connection that gives vectors (`one_form_valued`).
Without them those checks stay at the one-form level, which reaches
3d + m - 1 (G X times d_X(fY)).  With them levi-civita's
<nabla_X Y, Z> multiplies X Y Gamma^k_ij by G and Z, degree 3d + m + g,
and a curvature nabla_X nabla_Y Z reaches 3d + 2g.  musical-roundtrip forms
sharp(flat X) = G^-1 G X with G^-1 = adj(G) / det G (`Metric.inverse`), of
degree d + m + deg G^-1, so it is also capped at 127 - m - deg G^-1.  The
sphere (deg f = 2), Euclidean and constant metrics and [[x^2+1, x], [x, 1]],
whose symbols are constant, keep 41; a dense 3 x 3 G = L L^T with linear L
has symbols of degree 5 and gets 37.
Quotients take only a constant metric, so there deg f alone lowers the cap.

A sampled identity decides each compared component as `check_constant_curvature`
decides its curvature loop: one side, or the gap, is one raw sum of products with
one normal form (`RinehartSpace.quotient_sum`), compared with a canonical class.
"""

from __future__ import annotations

import time
from typing import Optional

from .errors import MetricNotMusical, NotTangent, TwoNotAUnit
from .hypersurface import (HypersurfaceSpace, InducedConnection,
                           induced_metric_gap, is_tangent, project_normal,
                           project_tangent, second_fundamental_form,
                           spanning_fields, sphere_metric_entry, verify_space_form)
from .poly import MAX_DEGREE, sum_products
from .randgen import random_field, random_fn, random_poly, rng_for
from .rings import GroundScalar, Value, lazy
from .space import (EuclideanConnection, KoszulConnection, RinehartSpace, ambient_derivative,
                    bracket_pairs, check_constant_curvature, check_levi_civita, curvature,
                    derive, differential, lie_bracket, one_form_valued)
from .tensors import OneForm, flat, gram_table, inner, pairing, sharp


MAX_RANDOM_DEGREE = 41


class CheckResult(Value):
    """status is "pass", "fail" or "skipped"; counterexample is a dict or None."""

    _fields = ("name", "status", "detail", "counterexample", "seconds")


class Workspace(Value):
    """A built space specification: a plain space plus an optional quotient.

    Its connections are built on first use and shared by the checks and
    commands that run on it.
    """

    _fields = ("space", "hyper", "c")

    def __init__(self, space: RinehartSpace, hyper: Optional[HypersurfaceSpace] = None,
                 c: Optional[GroundScalar] = None):
        Value.__init__(self, space, hyper, c)

    @property
    def working_space(self) -> RinehartSpace:
        """The space fields live in: the quotient when there is one, else the plain space."""
        return self.hyper.quotient if self.hyper is not None else self.space

    @lazy
    def plain_connection(self):
        """The Levi-Civita connection of the plain space.

        Componentwise for the Euclidean metric and Koszul otherwise, which
        raises TwoNotAUnit when 2 is not a unit.
        """
        if self.space.metric.is_euclidean():
            return EuclideanConnection(self.space)
        return KoszulConnection(self.space)

    @lazy
    def connection(self):
        """The induced connection of the quotient, or the plain one without a quotient."""
        if self.hyper is not None:
            return InducedConnection(self.hyper)
        return self.plain_connection


def _fail(space, detail, **values):
    """A failed check; `values`, the counterexample, render through `space.render`."""
    return ("fail", detail, space.render(**values))


def _ok(detail):
    return ("pass", detail, None)


def _skip(detail):
    return ("skipped", detail, None)


def _random_form(rng, space, max_degree):
    return OneForm(space, tuple(random_fn(rng, space, max_degree)
                                for _ in range(space.nvars)))


def _random_tangent(rng, hyper, max_degree):
    return project_tangent(hyper, random_field(rng, hyper.quotient, max_degree))


# ---------------------------------------------------------------------------
# plain-space checks


def _check_pairing_duality(ws, rng, cases, max_degree):
    space = ws.space
    n = space.nvars
    for i in range(n):
        for j in range(n):
            got = pairing(space.basis_field(i), space.basis_form(j))
            want = space.constant(space.ring.from_int(1 if i == j else 0))
            if got != want:
                return _fail(space, "basis pairing is not dual", pair=f"({i + 1}, {j + 1})",
                             got=got)
    for _ in range(cases):
        f = random_fn(rng, space, max_degree)
        x = random_field(rng, space, max_degree)
        y = random_field(rng, space, max_degree)
        om = _random_form(rng, space, max_degree)
        rhs = space.quotient_sum([(f.rep, pairing(x, om).rep), *zip(y.reps, om.reps)])
        if pairing(f * x + y, om) != rhs:
            return _fail(space, "pairing is not O-linear", f=f, x=x)
    return _ok(f"{n * n} basis pairs and {cases} linearity cases")


def _check_differential_leibniz(ws, rng, cases, max_degree):
    space = ws.space
    one = space.constant(space.ring.one())
    if not differential(space, one).is_zero():
        return _fail(space, "d(1) is not zero")
    for _ in range(cases):
        f = random_fn(rng, space, max_degree)
        g = random_fn(rng, space, max_degree)
        lhs = differential(space, f * g)
        dg, df = differential(space, g), differential(space, f)
        if any(l != space.quotient_sum([(f.rep, a), (g.rep, b)])
               for l, a, b in zip(lhs.coeffs, dg.reps, df.reps)):
            return _fail(space, "d(fg) != f dg + g df", f=f, g=g)
    return _ok(f"d(1) = 0 and {cases} product cases")


def _check_anchor(ws, rng, cases, max_degree):
    space = ws.space
    for _ in range(cases):
        f = random_fn(rng, space, max_degree)
        x = random_field(rng, space, max_degree)
        y = random_field(rng, space, max_degree)
        lhs = lie_bracket(space, x, f * y)
        dxf, bracket = derive(space, x, f).rep, lie_bracket(space, x, y)
        if any(l != space.quotient_sum([(dxf, a), (f.rep, b)])
               for l, a, b in zip(lhs.coeffs, y.reps, bracket.reps)):
            return _fail(space, "[X, fY] != (d_X f)Y + f[X, Y]", f=f, x=x, y=y)
    return _ok(f"{cases} cases")


def _check_jacobi(ws, rng, cases, max_degree):
    space = ws.space
    for _ in range(cases):
        x = random_field(rng, space, max_degree)
        y = random_field(rng, space, max_degree)
        z = random_field(rng, space, max_degree)
        # [[X, Y], Z] + [[Y, Z], X] + [[Z, X], Y]: the outer brackets' pairs, summed
        outer = [bracket_pairs(lie_bracket(space, a, b).reps, c.reps)
                 for a, b, c in ((x, y, z), (y, z, x), (z, x, y))]
        if any(not space.quotient_sum(p + q + r).is_zero() for p, q, r in zip(*outer)):
            return _fail(space, "cyclic bracket sum is nonzero", x=x, y=y, z=z)
    return _ok(f"{cases} cases")


def _check_connection_leibniz(ws, rng, cases, max_degree):
    space = ws.space
    conn = ws.plain_connection
    form_level = one_form_valued(conn)
    value = conn.form if form_level else conn
    for _ in range(cases):
        f = random_fn(rng, space, max_degree)
        x = random_field(rng, space, max_degree)
        y = random_field(rng, space, max_degree)
        f_xy = f * value(x, y)
        lhs = value(x, f * y)
        rhs = derive(space, x, f) * (flat(y, space.metric) if form_level else y) + f_xy
        if not (value(f * x, y) == f_xy and lhs == rhs):
            return _fail(space, "connection module laws fail", f=f, x=x, y=y)
    return _ok(f"{cases} cases" + (" at the one-form level" if form_level else ""))


def _check_flat_curvature(ws, rng, cases, max_degree):
    space = ws.space
    if not space.metric.is_euclidean():
        return _skip("metric is not Euclidean")
    conn = ws.plain_connection
    if not check_constant_curvature(space, conn, space.ring.zero(), space.basis_fields()).ok:
        return _fail(space, "basis curvature is nonzero")
    for _ in range(cases):
        x = random_field(rng, space, max_degree)
        y = random_field(rng, space, max_degree)
        z = random_field(rng, space, max_degree)
        val = curvature(space, conn, x, y, z)
        if not val.is_zero():
            return _fail(space, "R(X, Y)Z is nonzero", x=x, y=y, z=z, value=val)
    n = space.nvars
    return _ok(f"{n ** 3} basis triples and {cases} random triples")


def _check_koszul_flat(ws, rng, cases, max_degree):
    space = ws.space
    if not space.metric.is_euclidean():
        return _skip("metric is not Euclidean")
    if not space.ring.from_int(2).is_unit():
        return _skip("2 is not a unit")
    flat_conn = ws.plain_connection
    koszul = KoszulConnection(space)
    basis = space.basis_fields()
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            if koszul(x, y) != flat_conn(x, y):
                return _fail(space, "basis values differ", pair=f"({i + 1}, {j + 1})")
    for _ in range(cases):
        x = random_field(rng, space, max_degree)
        y = random_field(rng, space, max_degree)
        if koszul(x, y) != flat_conn(x, y):
            return _fail(space, "values differ", x=x, y=y)
    n = space.nvars
    return _ok(f"{n * n} basis pairs and {cases} random pairs")


def _check_levi_civita_suite(ws, rng, cases, max_degree):
    space = ws.space
    trios = [tuple(random_field(rng, space, max_degree) for _ in range(3)) for _ in range(cases)]
    report = check_levi_civita(space, ws.plain_connection, trios)
    if not report.ok:
        return _fail(space, f"{report.failed} identity fails", **report.counterexample)
    return _ok(f"basis plus {cases} random samples")


def _check_musical_roundtrip(ws, rng, cases, max_degree):
    space = ws.space
    status, det_inv = space.metric.det_status
    if det_inv is None:
        return _skip(f"metric determinant is {status.value}")
    metric = space.metric
    for _ in range(cases):
        x = random_field(rng, space, max_degree)
        om = _random_form(rng, space, max_degree)
        if sharp(flat(x, metric), metric) != x:
            return _fail(space, "sharp(flat(X)) != X", x=x)
        back = flat(sharp(om, metric), metric)
        if back.coeffs != om.coeffs:
            return _fail(space, "flat(sharp(om)) != om", om=om)
    return _ok(f"{cases} round trips")


def _check_metric_transfer(ws, rng, cases, max_degree):
    space = ws.space
    metric = space.metric
    for _ in range(cases):
        x = random_field(rng, space, max_degree)
        y = random_field(rng, space, max_degree)
        val = inner(x, y, metric)
        if val != pairing(x, flat(y, metric)) or val != pairing(y, flat(x, metric)):
            return _fail(space, "inner product does not match pairing", x=x, y=y)
    return _ok(f"{cases} cases")


def _check_curvature_tensorial(ws, rng, cases, max_degree):
    # The random O-coefficient carries the case variation; the vector slots
    # draw from a small pool, so on a hypersurface the induced connection's memo
    # answers repeated pairs (the Euclidean and Koszul connections keep no memo).
    conn = ws.connection
    space = ws.working_space
    if ws.hyper is not None:
        pool = list(spanning_fields(ws.hyper))
        pool.append(_random_tangent(rng, ws.hyper, 1))
    elif one_form_valued(conn):
        return _skip("connection is not vector valued on this metric")
    else:
        pool = list(space.basis_fields())
        pool.append(random_field(rng, space, 1))
    for case in range(cases):
        f = random_fn(rng, space, max_degree)
        x, y, z = (rng.choice(pool) for _ in range(3))
        base = curvature(space, conn, x, y, z)
        want = f * base
        slot = case % 3
        args = [x, y, z]
        args[slot] = f * args[slot]
        got = curvature(space, conn, *args)
        if got != want:
            return _fail(space, f"slot {slot + 1} is not O-linear", f=f, x=x, y=y, z=z)
    return _ok(f"{cases} cases, rotating the scaled slot")


# ---------------------------------------------------------------------------
# quotient checks


def _check_normal_form_hom(ws, rng, cases, max_degree):
    hyper = ws.hyper
    space = hyper.quotient
    for _ in range(cases):
        g = random_poly(rng, space.ring, space.nvars, max_degree + 2)
        h = random_poly(rng, space.ring, space.nvars, max_degree + 2)
        lhs = space.poly_fn(g * h)
        rhs = space.poly_fn(g) * space.poly_fn(h)
        add_lhs = space.poly_fn(g + h)
        add_rhs = space.poly_fn(g) + space.poly_fn(h)
        redo = space.poly_fn(space.poly_fn(g).rep)
        if lhs != rhs or add_lhs != add_rhs or redo != space.poly_fn(g):
            return _fail(space, "reduction is not a ring morphism", g=space.poly_fn(g),
                         h=space.poly_fn(h))
    return _ok(f"{cases} pairs")


def _check_tangency(ws, rng, cases, max_degree):
    hyper = ws.hyper
    space = hyper.quotient
    fields = spanning_fields(hyper)
    for i, y in enumerate(fields):
        if not is_tangent(hyper, y):
            return _fail(space, "spanning field is not tangent", index=i + 1)
        if not project_normal(hyper, y).is_zero():
            return _fail(space, "tangent field has a normal part", index=i + 1)
    if is_tangent(hyper, hyper.normal):
        return _fail(space, "the normal field reads as tangent")
    for _ in range(cases):
        t = _random_tangent(rng, hyper, max_degree)
        if not is_tangent(hyper, t):
            return _fail(space, "projected field is not tangent", t=t)
    return _ok(f"{len(fields)} spanning fields and {cases} projections")


def _check_projection_retraction(ws, rng, cases, max_degree):
    hyper = ws.hyper
    space = hyper.quotient
    for _ in range(cases):
        x = random_field(rng, space, max_degree)
        px = project_tangent(hyper, x)
        if project_tangent(hyper, px) != px:
            return _fail(space, "projection is not idempotent", x=x)
        t = _random_tangent(rng, hyper, max_degree)
        if project_tangent(hyper, t) != t:
            return _fail(space, "projection moves a tangent field", t=t)
        if not (px + project_normal(hyper, x) == x):
            return _fail(space, "projections do not sum to identity", x=x)
    return _ok(f"{cases} cases")


def _check_projection_orthogonal(ws, rng, cases, max_degree):
    hyper = ws.hyper
    space = hyper.quotient
    for _ in range(cases):
        x = random_field(rng, space, max_degree)
        t = _random_tangent(rng, hyper, max_degree)
        gap = inner(x - project_tangent(hyper, x), t, space.metric)
        if not gap.is_zero():
            return _fail(space, "normal part meets a tangent field", x=x, t=t, inner=gap)
    return _ok(f"{cases} cases")


def _check_gauss_split(ws, rng, cases, max_degree):
    hyper = ws.hyper
    space = hyper.quotient
    conn = ws.connection
    for _ in range(cases):
        x = _random_tangent(rng, hyper, max_degree)
        y = _random_tangent(rng, hyper, max_degree)
        ambient_part = ambient_derivative(space, x, y)
        split = conn(x, y) + second_fundamental_form(hyper, x, y)
        if ambient_part != split:
            return _fail(space, "ambient derivative != tangent + normal parts", x=x, y=y)
    return _ok(f"{cases} cases")


def _check_second_form_symmetric(ws, rng, cases, max_degree):
    hyper = ws.hyper
    space = hyper.quotient
    for _ in range(cases):
        x = _random_tangent(rng, hyper, max_degree)
        y = _random_tangent(rng, hyper, max_degree)
        f = random_fn(rng, space, max_degree)
        if (hxy := second_fundamental_form(hyper, x, y)) != second_fundamental_form(hyper, y, x):
            return _fail(space, "h(X, Y) != h(Y, X)", x=x, y=y)
        if second_fundamental_form(hyper, f * x, y) != f * hxy:
            return _fail(space, "h is not O-bilinear", f=f, x=x, y=y)
    return _ok(f"{cases} cases")


def _check_representative_independence(ws, rng, cases, max_degree):
    hyper = ws.hyper
    ambient = hyper.ambient
    gen = ambient.poly_fn(hyper.generator)
    for _ in range(cases):
        x = _random_tangent(rng, hyper, max_degree)
        y = _random_tangent(rng, hyper, max_degree)
        w = random_field(rng, ambient, max_degree)
        v = random_field(rng, ambient, max_degree)
        x_lift = hyper.to_ambient(x) + gen * w
        y_lift = hyper.to_ambient(y) + gen * v
        moved = project_tangent(hyper, ambient_derivative(ambient, x_lift, y_lift))
        base = project_tangent(hyper, ambient_derivative(
            ambient, hyper.to_ambient(x), hyper.to_ambient(y)))
        if moved != base:
            return _fail(hyper.quotient, "induced value depends on the lift", x=x, y=y)
    return _ok(f"{cases} lifted pairs")


def _check_induced_metric(ws, rng, cases, max_degree):
    space = ws.hyper.quotient
    gap = induced_metric_gap(ws.hyper, ws.c, gram_table(spanning_fields(ws.hyper), space.metric))
    if gap is not None:
        return _fail(space, "<Y_i, Y_j> != delta_ij - c x_i x_j", **gap)
    n = space.nvars
    return _ok(f"{n * n} spanning pairs")


def _check_induced_identities(ws, rng, cases, max_degree):
    hyper = ws.hyper
    c = ws.c
    ambient = hyper.ambient
    space = hyper.quotient
    n = space.nvars
    normal = hyper.to_ambient(hyper.normal)
    # ambient pipeline identities
    for i in range(n):
        if derive(ambient, normal, ambient.coordinate(i)) != ambient.coordinate(i):
            return _fail(ambient, "d_N x_i != x_i", index=i + 1)
        if inner(ambient.basis_field(i), normal, ambient.metric) != ambient.coordinate(i):
            return _fail(ambient, "<X_i, N> != x_i", index=i + 1)
    xs = [ambient.coordinate(i).rep for i in range(n)]
    square_sum = ambient.poly_fn(sum_products(ambient.ring, n, zip(xs, xs)))
    if inner(normal, normal, ambient.metric) != square_sum:
        return _fail(ambient, "<N, N> != sum x_i^2")
    for _ in range(max(1, cases // 10)):
        x = random_field(rng, ambient, max_degree)
        if ambient_derivative(ambient, x, normal) != x:
            return _fail(ambient, "nabla_X N != X", x=x)
    fields = spanning_fields(hyper)
    for i in range(n):
        lift = hyper.to_quotient(ambient.basis_field(i))
        want = lift - hyper.q * hyper.normal.coeffs[i] * hyper.normal
        # project_tangent(X_i) = X_i - c x_i N for the sphere witness q = c
        if fields[i] != want:
            return _fail(space, "Y_i != X_i - c x_i N", index=i + 1)
    conn = ws.connection
    c_fn = space.constant(c)
    for i, yi in enumerate(fields):
        for j, yj in enumerate(fields):
            pair = f"({i + 1}, {j + 1})"
            want_d = sphere_metric_entry(space, c, i, j)  # delta_ij - c x_i x_j
            if derive(space, yi, space.coordinate(j)) != want_d:
                return _fail(space, "d_Yi x_j != delta_ij - c x_i x_j", pair=pair)
            got_conn = conn(yi, yj)
            if got_conn != -(c_fn * space.coordinate(j)) * yi:
                return _fail(space, "nabla_Yi Y_j != -c x_j Y_i", pair=pair, got=got_conn)
            want_b = (c_fn * space.coordinate(i)) * yj - (c_fn * space.coordinate(j)) * yi
            if lie_bracket(space, yi, yj) != want_b:
                return _fail(space, "[Y_i, Y_j] != c(x_i Y_j - x_j Y_i)", pair=pair)
            if second_fundamental_form(hyper, yi, yj) != -(c_fn * want_d) * hyper.normal:
                return _fail(space, "h(Y_i, Y_j) != -c(delta_ij - c x_i x_j)N", pair=pair)
    return _ok(f"ambient pipeline and {n * n} spanning pairs")


def _check_space_form(ws, rng, cases, max_degree):
    report = verify_space_form(ws.hyper, ws.c)
    if not report.ok:
        return _fail(ws.hyper.quotient, f"{report.failed} identity fails",
                     **report.counterexample)
    n = ws.hyper.quotient.nvars
    return _ok(f"all {n ** 3} spanning triples at c = {ws.c}")


# ---------------------------------------------------------------------------
# registry


class CheckSpec(Value):
    """needs is "space", "quotient" or "sphere"."""

    _fields = ("name", "needs", "runner")


REGISTRY = [
    CheckSpec("pairing-duality", "space", _check_pairing_duality),
    CheckSpec("differential-leibniz", "space", _check_differential_leibniz),
    CheckSpec("anchor-compatibility", "space", _check_anchor),
    CheckSpec("jacobi-identity", "space", _check_jacobi),
    CheckSpec("connection-leibniz", "space", _check_connection_leibniz),
    CheckSpec("flat-curvature", "space", _check_flat_curvature),
    CheckSpec("koszul-flat-agreement", "space", _check_koszul_flat),
    CheckSpec("levi-civita", "space", _check_levi_civita_suite),
    CheckSpec("musical-roundtrip", "space", _check_musical_roundtrip),
    CheckSpec("metric-transfer", "space", _check_metric_transfer),
    CheckSpec("curvature-tensorial", "space", _check_curvature_tensorial),
    CheckSpec("normal-form-homomorphism", "quotient", _check_normal_form_hom),
    CheckSpec("tangency", "quotient", _check_tangency),
    CheckSpec("projection-retraction", "quotient", _check_projection_retraction),
    CheckSpec("projection-orthogonal", "quotient", _check_projection_orthogonal),
    CheckSpec("gauss-split", "quotient", _check_gauss_split),
    CheckSpec("second-form-symmetric", "quotient", _check_second_form_symmetric),
    CheckSpec("representative-independence", "quotient", _check_representative_independence),
    CheckSpec("induced-metric", "sphere", _check_induced_metric),
    CheckSpec("induced-identities", "sphere", _check_induced_identities),
    CheckSpec("space-form", "sphere", _check_space_form),
]

CHECK_NAMES = [spec.name for spec in REGISTRY]


def _missing(spec: CheckSpec, ws: Workspace) -> Optional[str]:
    """Why the workspace cannot run a check, or None when it can."""
    if spec.needs == "quotient" and ws.hyper is None:
        return "needs a quotient space"
    if spec.needs == "sphere" and (ws.hyper is None or ws.c is None):
        return "needs a sphere quotient with known c"
    return None


def applicable_checks(ws: Workspace) -> list:
    return [spec.name for spec in REGISTRY if _missing(spec, ws) is None]


def _degree(rows) -> int:
    """The largest total degree of a table of functions, 0 for constants or none."""
    return max([0] + [e.rep.total_degree() for row in rows for e in row])


# What the products of a check read besides its random inputs, for degree_cap: the
# checks not named here read the metric (or the quotient generator) alone.
_READS = {**dict.fromkeys(["pairing-duality", "differential-leibniz", "anchor-compatibility",
                           "jacobi-identity", "normal-form-homomorphism"], "nothing"),
          **dict.fromkeys(["connection-leibniz", "flat-curvature", "koszul-flat-agreement",
                           "levi-civita", "curvature-tensorial"], "connection"),
          "musical-roundtrip": "inverse"}


def degree_cap(ws: Workspace, names: Optional[list] = None) -> int:
    """The largest max_degree at which the named checks (all applicable ones by
    default) stay below total degree 127: see the module docstring."""
    chosen = names if names is not None else applicable_checks(ws)
    reads = {_READS.get(spec.name, "metric") for spec in REGISTRY
             if spec.name in chosen and _missing(spec, ws) is None} - {"nothing"}
    if not reads:
        return MAX_RANDOM_DEGREE
    metric = ws.space.metric
    m = _degree(metric.entries)
    g = 0
    if "connection" in reads:
        try:
            conn = ws.plain_connection
        except TwoNotAUnit:  # the connection checks skip
            conn = None
        if conn is not None and not one_form_valued(conn):
            basis = ws.space.basis_fields()  # nabla_{X_i} X_j = sum_k Gamma^k_ij X_k
            g = _degree(conn(x, y).coeffs for x in basis for y in basis)
    deg_f = 0 if ws.hyper is None else max(ws.hyper.generator.total_degree(),
                                           ws.hyper.q.rep.total_degree())
    cap = min(MAX_RANDOM_DEGREE, (MAX_DEGREE - 2 * (m + g) - 2 * deg_f) // 3)
    if "inverse" in reads and metric.det_status[1] is not None:
        cap = min(cap, MAX_DEGREE - m - _degree(metric.inverse))
    return cap


def run_checks(ws: Workspace, names: Optional[list] = None, seed: int = 0,
               max_degree: int = 2, cases: int = 40) -> list:
    """Run the named checks (all applicable ones by default), sorted by name."""
    chosen = names if names is not None else applicable_checks(ws)
    unknown = [n for n in chosen if n not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(sorted(unknown))}")
    results = []
    by_name = {spec.name: spec for spec in REGISTRY}
    for name in sorted(set(chosen)):
        spec = by_name[name]
        start = time.perf_counter()
        missing = _missing(spec, ws)
        if missing is not None:
            status, detail, ce = _skip(missing)
        else:
            rng = rng_for(seed, name)
            try:
                status, detail, ce = spec.runner(ws, rng, cases, max_degree)
            except MetricNotMusical as exc:
                status, detail, ce = _skip(f"metric is not musical: {exc}")
            except TwoNotAUnit:
                status, detail, ce = _skip("2 is not a unit, no connection available")
            except NotTangent as exc:  # a value of the connection fed back as an argument
                status, detail, ce = _fail(exc.field.space, str(exc), argument=exc.argument,
                                           field=exc.field)
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, status, detail, ce, elapsed))
    return results
