"""Hypersurface quotients of coordinate spaces with a constant metric.

The ambient metric G may be any constant matrix whose determinant is a
unit, so that N = grad f = G^-1 df is a polynomial field, formed once.  A
hypersurface is cut out by f = 0 with a scaling witness q such that
1 - q<N, N> lies in (f).  Tangency, orthogonal projection, the induced
connection and the second fundamental form are computed on canonical
representatives modulo (f), so two quotient fields are equal as classes
exactly when they compare equal with `==`.  None of them reads G, since
G N = df gives <V, N> = sum_k V_k d_k f: both projections read one normal
coefficient q<V, N> = sum_k V_k q d_k f, for the normal part q<V, N>N and
the tangent components V_l - q<V, N> N_l; by the Weingarten formula the
induced connection is D_X Y + Hess f(X, Y) qN.  The covector q df, the
spanning fields, the Hessian table and qN are built once, on first use.
Each component is one raw sum of products with one normal form.
"""

from __future__ import annotations

from typing import Optional

from .errors import (MetricNotMusical, NotAUnit, NotTangent, RingMismatch, SpaceMismatch,
                     TwoNotAUnit)
from .poly import (Poly, PrincipalIdeal, QuotientElem, class_key, quotient_sum,
                   sum_products)
from .rings import GroundScalar, RingDescriptor, Value, lazy
from .space import Report, RinehartSpace, check_constant_curvature, derivative_pairs, gradient
from .tensors import VectorField, gram_table


class HypersurfaceSpace(Value):
    """An ambient coordinate space with a distinguished level set.

    `generator` is kept exactly as given; the ideal it generates stores a
    monic associate.  `normal` is N = G^-1 df as a quotient field, canonical
    as built since deg N_k < deg f, and `q` is the verified witness with
    1 - q<N, N> in (f).  Built on first use, once: the covector q df that the
    projections read, the spanning fields, and the Hessian table of the
    generator and qN that the induced connection reads.
    """

    _fields = ("ambient", "generator", "ideal", "normal", "q", "quotient")

    @staticmethod
    def build(ambient: RinehartSpace, generator: Poly, q) -> "HypersurfaceSpace":
        if ambient.ideal is not None:
            raise SpaceMismatch("the ambient space must be a plain polynomial space")
        if not ambient.metric.is_constant():
            raise MetricNotMusical("the ambient metric must be Euclidean or constant")
        if ambient.metric.det_status[1] is None:
            raise MetricNotMusical("the ambient metric determinant is not a unit")
        ideal = PrincipalIdeal.of(generator)
        quotient = RinehartSpace.with_metric(ambient.ring, ambient.var_names,
                                             ambient.metric, ideal)
        normal = quotient.field(gradient(ambient, ambient.poly_fn(generator)).reps)
        q_fn = QuotientElem(ambient.coerce_fn(q).rep, ideal)
        nn = quotient.quotient_sum(zip(normal.reps, generator.partials))  # <N, N> = N . df
        if not (quotient.constant(ambient.ring.one()) - q_fn * nn).is_zero():
            raise ValueError("1 - q<N, N> does not lie in the ideal (f)")
        return HypersurfaceSpace(ambient, generator, ideal, normal, q_fn, quotient)

    @lazy
    def normal_covector(self) -> tuple:
        """The reps of q d_k f mod (f): q<X, N> = sum_k X_k q d_k f, since G N = df."""
        return tuple(self.quotient.quotient_sum([(self.q.rep, d)]).rep
                     for d in self.generator.partials)

    @lazy
    def scaled_normal(self) -> tuple:
        """The reps of q N_l mod (f), the direction of the connection's Weingarten term."""
        return tuple((self.q * v).rep for v in self.normal.coeffs)

    @lazy
    def hessian(self) -> tuple:
        """(j, k, d_j d_k f) over the nonzero second partials of the generator, from
        `Poly.partials` taken twice; an entry equal to 1 is None, so it costs no product."""
        return tuple((j, k, None if h.is_one() else h)
                     for j, d in enumerate(self.generator.partials)
                     for k, h in enumerate(d.partials) if h.terms)

    @lazy
    def spanning(self) -> tuple:
        """The tangent projections Y_k = P X_k of the coordinate fields; they span."""
        return tuple(_tangent_part(self, e.reps) for e in self.quotient.basis_fields())

    @lazy
    def _induced_memo(self) -> dict:
        # the values of every InducedConnection here; holding no connection avoids a cycle
        return {}

    @lazy
    def _tangent_keys(self) -> set:
        # the class keys of every quotient field proved tangent here
        return set()

    # -- coercion -------------------------------------------------------------

    def to_quotient(self, x: VectorField) -> VectorField:
        """Reduce an ambient or quotient field to quotient coefficients."""
        if x.space == self.quotient:
            return x
        if x.space != self.ambient:
            raise SpaceMismatch("field belongs to neither the ambient nor the quotient space")
        coeffs = tuple(QuotientElem(c.rep, self.ideal) for c in x.coeffs)
        return VectorField(self.quotient, coeffs)

    def to_ambient(self, x: VectorField) -> VectorField:
        """Lift a quotient field along its canonical representatives."""
        if x.space == self.ambient:
            return x
        coeffs = tuple(QuotientElem(c.rep, None) for c in x.coeffs)
        return VectorField(self.ambient, coeffs)


def make_sphere(ring: RingDescriptor, n: int, c: GroundScalar,
                var_names=None) -> HypersurfaceSpace:
    """The level set (x1^2 + ... + xn^2 - 1/c) / 2 = 0 with witness q = c.

    Needs n >= 2, 2 a unit, and c a unit of the ground ring.
    """
    if n < 2:
        raise ValueError("a sphere quotient needs at least two variables")
    if not ring.from_int(2).is_unit():
        raise TwoNotAUnit("sphere construction divides by 2")
    if c.ring != ring:
        raise RingMismatch("curvature constant belongs to a different ring")
    if not c.is_unit():
        raise NotAUnit("curvature constant must be a unit")
    names = tuple(var_names) if var_names is not None else tuple(
        f"x{i + 1}" for i in range(n))
    if len(names) != n:
        raise ValueError("variable name count must match n")
    ambient = RinehartSpace.euclidean(ring, names)
    xs = [Poly.variable(ring, n, i) for i in range(n)]
    shift = Poly.constant(ring, n, c.inverse())
    generator = (sum_products(ring, n, zip(xs, xs)) - shift).scale(ring.from_int(2).inverse())
    return HypersurfaceSpace.build(ambient, generator, ambient.constant(c))


# ---------------------------------------------------------------------------
# tangency and projections


def is_tangent(hyper: HypersurfaceSpace, x: VectorField) -> bool:
    """Whether <X, N> = sum_k X_k d_k f lies in the ideal (f); reads df, not the covector."""
    return hyper.quotient.quotient_sum(zip(hyper.to_quotient(x).reps,
                                           hyper.generator.partials)).is_zero()


def _normal_coefficient(hyper: HypersurfaceSpace, v) -> QuotientElem:
    """q<V, N> = sum_k V_k q d_k f for raw polynomials V_k, one raw sum with one normal form."""
    return hyper.quotient.quotient_sum(zip(v, hyper.normal_covector))


def project_normal(hyper: HypersurfaceSpace, x: VectorField) -> VectorField:
    """The normal part q<X, N>N of X, with coefficients reduced modulo (f)."""
    return _normal_coefficient(hyper, hyper.to_quotient(x).reps) * hyper.normal


def project_tangent(hyper: HypersurfaceSpace, x: VectorField) -> VectorField:
    """The tangent part X - q<X, N>N of X, with coefficients reduced modulo (f)."""
    # an ambient field is reduced before it is projected: its coefficients may hold many
    # multiples of the leading monomial, and projecting them unreduced multiplies more terms
    return _tangent_part(hyper, hyper.to_quotient(x).reps)


def _tangent_part(hyper: HypersurfaceSpace, v) -> VectorField:
    """V_l - q<V, N> N_l for raw polynomials V_k, one raw sum and normal form per component."""
    space = hyper.quotient
    one = Poly.constant(space.ring, space.nvars, space.ring.one())
    minus_b = -_normal_coefficient(hyper, v).rep
    return VectorField(space, tuple(space.quotient_sum([(a, one), (minus_b, w)])
                                    for a, w in zip(v, hyper.normal.reps)))


def quotient_equal(hyper: HypersurfaceSpace, x: VectorField, y: VectorField) -> bool:
    """Equality of quotient classes, for ambient or quotient fields: equal canonical reps."""
    return hyper.to_quotient(x) == hyper.to_quotient(y)


def spanning_fields(hyper: HypersurfaceSpace) -> list:
    """The tangent projections Y_i = P X_i of the coordinate fields, a fresh list; they span."""
    return list(hyper.spanning)


# ---------------------------------------------------------------------------
# induced geometry


class InducedConnection:
    """The Levi-Civita connection of the hypersurface, by the Weingarten formula.

    For tangent X and Y, nabla_X Y = P(D_X Y) = D_X Y - q<D_X Y, N>N, and
    q<D_X Y, N>N == -Hess f(X, Y) qN modulo (f), with
    Hess f(X, Y) = sum_jk X_j (d_j d_k f) Y_k, so

        nabla_X Y == D_X Y + Hess f(X, Y) qN   (mod f).

    Proof, for the constant metric G and N = G^-1 df: <Y, N> lies in (f),
    say <Y, N> = r f on representatives, and so does Xf = <X, N>; hence
    X<Y, N> = (Xr) f + r Xf lies in (f).  G is constant, so
    X<Y, N> = <D_X Y, N> + <Y, D_X N>, and D_X N = G^-1 Hess f X gives
    <Y, D_X N> = Hess f(X, Y).  So <D_X Y, N> + Hess f(X, Y) lies in (f).
    Both arguments are proved tangent before the formula is applied, once
    per distinct field and hypersurface.  Component l is one raw sum of
    the pairs (X_i, d_i Y_l) from `derivative_pairs`, as for every
    derivative along a field, and the one pair (Hess f(X, Y), q N_l), with
    one normal form; Hess f(X, Y) is one raw sum over the nonzero Hessian
    entries with one normal form (sum_j X_j Y_j on a sphere).  The normal
    coefficient q<D_X Y, N> is never formed.  Values are computed on canonical
    representatives; the result is independent of the representatives for
    tangent arguments.  Values are memoised per hypersurface, keyed by
    coefficients, so all connections built on one hypersurface compute each
    once.
    """

    def __init__(self, hyper: HypersurfaceSpace):
        self.hyper = hyper
        self._memo = hyper._induced_memo

    def __call__(self, x: VectorField, y: VectorField) -> VectorField:
        hyper = self.hyper
        xq = hyper.to_quotient(x)
        yq = hyper.to_quotient(y)
        key = (class_key(xq.coeffs), class_key(yq.coeffs))
        hit = self._memo.get(key)
        if hit is None:
            _check_tangent(hyper, xq, yq, key)
            hit = self._memo[key] = _weingarten(hyper, xq, yq)
        return hit


def _weingarten(hyper: HypersurfaceSpace, xq: VectorField, yq: VectorField) -> VectorField:
    """D_X Y + Hess f(X, Y) qN for tangent X, Y, one normal form per component."""
    space, ideal, xs, ys = hyper.quotient, hyper.ideal, xq.reps, yq.reps
    ring, n = space.ring, space.nvars
    hess = sum_products(ring, n, [(xs[j], ys[k] if h is None else h * ys[k])
                                  for j, k, h in hyper.hessian
                                  if xs[j].terms and ys[k].terms], ideal)
    term = [[(hess, v)] if hess.terms and v.terms else [] for v in hyper.scaled_normal]
    return VectorField(space, tuple(quotient_sum(ring, n, derivative_pairs(xs, w) + t, ideal)
                                    for w, t in zip(ys, term)))


def _raw_derivative(hyper: HypersurfaceSpace, xq: VectorField, yq: VectorField) -> list:
    """The unreduced sums sum_i X_i d_i Y_k of tangent X, Y; NotTangent for a field that is not."""
    _check_tangent(hyper, xq, yq, (class_key(xq.coeffs), class_key(yq.coeffs)))
    xs, ring, n = xq.reps, hyper.quotient.ring, hyper.quotient.nvars
    return [sum_products(ring, n, derivative_pairs(xs, w.rep)) for w in yq.coeffs]


def _check_tangent(hyper: HypersurfaceSpace, xq: VectorField, yq: VectorField, keys: tuple):
    """Raise NotTangent for the first of X, Y that is not tangent.  Each field proved
    tangent is recorded by the class key of its coefficients, given in `keys`, and never
    proved again; a field that is not tangent is never recorded, so it raises on every
    call."""
    proved = hyper._tangent_keys
    for name, field, key in zip("xy", (xq, yq), keys):
        if key not in proved:
            if not is_tangent(hyper, field):
                raise NotTangent(name, field)
            proved.add(key)


def second_fundamental_form(hyper: HypersurfaceSpace, x: VectorField,
                            y: VectorField) -> VectorField:
    """h(X, Y) = q<D_X Y, N>N, the normal part of the ambient derivative of tangent
    fields, with q<D_X Y, N> = sum_k (sum_i X_i d_i Y_k) q d_k f one raw sum."""
    v = _raw_derivative(hyper, hyper.to_quotient(x), hyper.to_quotient(y))
    return _normal_coefficient(hyper, v) * hyper.normal


def sphere_metric_entry(space: RinehartSpace, c: GroundScalar, i: int, j: int) -> QuotientElem:
    """delta_ij - c x_i x_j, the induced metric <Y_i, Y_j> of a sphere of curvature c."""
    return (space.constant(space.ring.from_int(1 if i == j else 0))
            - space.constant(c) * space.coordinate(i) * space.coordinate(j))


def induced_metric_gap(hyper: HypersurfaceSpace, c: GroundScalar,
                       gram: tuple) -> Optional[dict]:
    """The first pair with <Y_i, Y_j> != delta_ij - c x_i x_j as a counterexample, or None,
    from the Gram table `gram` of the spanning fields.  Both sides are canonical, so they
    agree exactly when gram_ij + c x_i x_j, one raw sum with one normal form, is delta_ij."""
    space = hyper.quotient
    ring, n = space.ring, space.nvars
    xs = [Poly.variable(ring, n, i) for i in range(n)]
    cxs = [x.scale(c) for x in xs]
    one = Poly.constant(ring, n, ring.one())
    for i, row in enumerate(gram):
        for j, got in enumerate(row):
            sum_ij = sum_products(ring, n, [(got.rep, one), (cxs[i], xs[j])], hyper.ideal)
            if not (sum_ij.is_one() if i == j else sum_ij.is_zero()):
                return space.render(pair=f"({i + 1}, {j + 1})", got=got,
                                    want=sphere_metric_entry(space, c, i, j))
    return None


def verify_space_form(hyper: HypersurfaceSpace, c: GroundScalar) -> Report:
    """Check the sphere identities for curvature constant c.

    The induced metric must satisfy <Y_i, Y_j> = delta_ij - c x_i x_j and
    the curvature of the induced connection must equal
    c(<Y,Z>X - <X,Z>Y) on all triples of the spanning fields.  The Gram
    table <Y_i, Y_j> is computed once and read by both checks.
    """
    space = hyper.quotient
    if c.ring != space.ring:
        raise RingMismatch("curvature constant belongs to a different ring")
    spanning = spanning_fields(hyper)
    gram = gram_table(spanning, space.metric)
    gap = induced_metric_gap(hyper, c, gram)
    if gap is not None:
        return Report("induced metric", gap)
    return check_constant_curvature(space, InducedConnection(hyper), c, spanning, gram)
