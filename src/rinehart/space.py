"""Rinehart spaces: coordinate dual pairs with exact differential calculus.

A space bundles a ground ring, variable names, an optional principal ideal
and a metric.  On top of it live the differential, derivations along
fields, gradients, the Lie bracket of the coordinate module, two
connection constructions (componentwise overwrite for the Euclidean
metric, the Koszul formula otherwise) and the curvature operator, all in
exact arithmetic.  Every derivative along a field forms its pairs
(X_i, d_i p) in `derivative_pairs` and fuses them with its own normal form.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import (MetricNotMusical, NotEuclidean, SpaceMismatch,
                     TwoNotAUnit)
from .parse import parse_poly
from .poly import (Poly, PrincipalIdeal, QuotientElem, class_key, divide_exact,
                   format_poly, quotient_sum)
from .rings import GroundScalar, RingDescriptor, Value
from .tensors import (Metric, OneForm, VectorField, apply_matrix, flat, gram_table,
                      inner, pairing, sharp)


class RinehartSpace(Value):
    """A coordinate Rinehart space over K[x1..xn] or a principal quotient:
    (ring, var_names, ideal or None, metric)."""

    _fields = ("ring", "var_names", "ideal", "metric")

    @staticmethod
    def euclidean(ring: RingDescriptor, var_names) -> "RinehartSpace":
        names = tuple(var_names)
        return RinehartSpace(ring, names, None, Metric.euclidean(ring, len(names), None))

    @staticmethod
    def with_metric(ring: RingDescriptor, var_names, metric: Metric,
                    ideal: Optional[PrincipalIdeal] = None) -> "RinehartSpace":
        names = tuple(var_names)
        if metric.n != len(names):
            raise SpaceMismatch("metric dimension does not match variable count")
        return RinehartSpace(ring, names, ideal, metric.reduce(ideal))

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    # -- function algebra ----------------------------------------------------

    def fn(self, text: str) -> QuotientElem:
        """Parse a polynomial string into a reduced function."""
        return QuotientElem(parse_poly(text, self.ring, self.var_names), self.ideal)

    def poly_fn(self, p: Poly) -> QuotientElem:
        return QuotientElem(p, self.ideal)

    def coerce_fn(self, value) -> QuotientElem:
        if isinstance(value, QuotientElem):
            _check_fn(self, value)
            return value
        if isinstance(value, int):
            return self.constant(self.ring.from_int(value))
        if isinstance(value, GroundScalar):
            return self.constant(value)
        if isinstance(value, Poly):
            return self.coerce_fn(self.poly_fn(value))
        raise TypeError(f"cannot interpret {value!r} as a function")

    def quotient_sum(self, pairs) -> QuotientElem:
        """The class of sum a*b over raw Poly pairs in this space, one normal form."""
        return quotient_sum(self.ring, self.nvars, pairs, self.ideal)

    def constant(self, c: GroundScalar) -> QuotientElem:
        return QuotientElem(Poly.constant(self.ring, self.nvars, c), self.ideal)

    def coordinate(self, i: int) -> QuotientElem:
        return QuotientElem(Poly.variable(self.ring, self.nvars, i), self.ideal)

    # -- module elements -----------------------------------------------------

    def field(self, coeffs) -> VectorField:
        return VectorField(self, tuple(self.coerce_fn(c) for c in coeffs))

    def form(self, coeffs) -> OneForm:
        return OneForm(self, tuple(self.coerce_fn(c) for c in coeffs))

    def _unit_vector(self, i: int) -> tuple:
        one = self.constant(self.ring.one())
        zero = self.constant(self.ring.zero())
        return tuple(one if j == i else zero for j in range(self.nvars))

    def basis_field(self, i: int) -> VectorField:
        return VectorField(self, self._unit_vector(i))

    def basis_form(self, i: int) -> OneForm:
        return OneForm(self, self._unit_vector(i))

    def basis_fields(self) -> list:
        return [self.basis_field(i) for i in range(self.nvars)]

    def format_fn(self, f: QuotientElem) -> str:
        return format_poly(f.rep, self.var_names)

    def format_field(self, x: VectorField | OneForm) -> str:
        """A vector field or one-form as "[c1, ..., cn]"."""
        return "[" + ", ".join(self.format_fn(c) for c in x.coeffs) + "]"

    def render(self, **values) -> dict:
        """A counterexample: each field or form as "[c1, ..., cn]", each function as
        its polynomial and anything else with `str`."""
        return {key: self.format_field(v) if isinstance(v, (VectorField, OneForm))
                else self.format_fn(v) if isinstance(v, QuotientElem) else str(v)
                for key, v in values.items()}


def _check_fn(space: RinehartSpace, *fs: QuotientElem):
    for f in fs:
        if f.ideal != space.ideal or f.nvars != space.nvars or f.ring != space.ring:
            raise SpaceMismatch("function belongs to a different space")


def _check_field(space: RinehartSpace, x: VectorField):
    if x.space != space:
        raise SpaceMismatch("field belongs to a different space")


def _check_pair(space: RinehartSpace, x: VectorField, y: VectorField):
    """x and y are fields of `space`, y's coefficients are its functions and x's their peers."""
    _check_field(space, x)
    _check_field(space, y)
    _check_fn(space, *y.coeffs)
    y.coeffs[0].check_peers(x.coeffs)


def differential(space: RinehartSpace, f: QuotientElem) -> OneForm:
    """df = sum_i (partial f / partial x_i) om_i on the canonical representative."""
    _check_fn(space, f)
    return OneForm(space, tuple(QuotientElem(d, space.ideal) for d in f.rep.partials))


def derivative_pairs(xs: list, p: Poly) -> list:
    """The pairs (X_i, d_i p) of the anchor sum_i X_i d_i p over raw coefficients xs, where
    both factors are nonzero: the one place the ambient derivative's pairs are formed."""
    return [(a, d) for a, d in zip(xs, p.partials) if a.terms and d.terms]


def derive(space: RinehartSpace, x: VectorField, f: QuotientElem) -> QuotientElem:
    """The derivation d_X f = <X, df> = sum_i X^i (partial f / partial x_i), reduced once."""
    _check_field(space, x)
    _check_fn(space, f)
    f.check_peers(x.coeffs)
    return space.quotient_sum(derivative_pairs(x.reps, f.rep))


def gradient(space: RinehartSpace, f: QuotientElem) -> VectorField:
    """grad f = sharp(df); the metric must be musical."""
    df = differential(space, f)
    if space.metric.is_euclidean():
        return VectorField(space, df.coeffs)
    return sharp(df, space.metric)


def ambient_derivative(space: RinehartSpace, x: VectorField, y: VectorField) -> VectorField:
    """The componentwise derivative sum_k (d_X Y^k) X_k, one normal form per component."""
    _check_pair(space, x, y)
    return VectorField(space, tuple(space.quotient_sum(derivative_pairs(x.reps, q))
                                    for q in y.reps))


def bracket_pairs(xs: list, ys: list) -> list:
    """Per component k, the pairs of [X, Y]^k = sum_i X^i d_i Y^k - Y^i d_i X^k over raw
    coefficients xs and ys: the one place the bracket's pairs are formed."""
    negs = [-q for q in ys]
    return [derivative_pairs(xs, q) + derivative_pairs(negs, p) for p, q in zip(xs, ys)]


def lie_bracket(space: RinehartSpace, x: VectorField, y: VectorField) -> VectorField:
    """[X, Y] = D(X, Y) - D(Y, X), one normal form per component."""
    _check_pair(space, x, y)
    return VectorField(space, tuple(map(space.quotient_sum, bracket_pairs(x.reps, y.reps))))


class EuclideanConnection:
    """The componentwise connection nabla_X Y = sum_k (d_X Y^k) X_k.

    This is the Levi-Civita connection of the Euclidean metric: each basis
    field is parallel and the coordinate differentials are flat.
    """

    def __init__(self, space: RinehartSpace):
        if not space.metric.is_euclidean():
            raise NotEuclidean("the componentwise connection needs the Euclidean metric")
        self.space = space

    def __call__(self, x: VectorField, y: VectorField) -> VectorField:
        return ambient_derivative(self.space, x, y)


class KoszulConnection:
    """The Levi-Civita connection of the metric, by the Koszul formula.

    2<nabla_X Y, Z> = d_X<Y,Z> + d_Y<Z,X> - d_Z<X,Y>
                      - <X,[Y,Z]> + <Y,[Z,X]> + <Z,[X,Y]>

    Against the basis fields, whose brackets vanish, this reads
    <nabla_X Y, X_k> = sum_j G_kj d_X Y^j + sum_ij X^i Y^j Gamma_ij,k with
    the first-kind symbols Gamma_ij,k = (d_i G_jk + d_j G_ik - d_k G_ij) / 2
    (do Carmo, Riemannian Geometry, 1992, section 2.3), built in `__init__`,
    the one place the formula lives.  `form(X, Y)` contracts them with the
    rows of G and is always available.  The second-kind symbols Gamma^k_ij
    solve G v = Gamma_ij,. by `Metric.inverse` when det G is a certified unit
    (`Metric.det_status`), else by exact division.  When every column solves
    (`fully_solvable`), component k of nabla_X Y is d_X Y^k +
    sum_ij X^i Y^j Gamma^k_ij, one raw sum with one normal form, so
    `form(X, Y) == flat(nabla_X Y)`, also on a quotient; otherwise each value
    solves G v = form(X, Y) the same way, or raises `MetricNotMusical`.
    """

    def __init__(self, space: RinehartSpace):
        two = space.ring.from_int(2)
        if not two.is_unit():
            raise TwoNotAUnit("the Koszul formula needs 2 invertible")
        self.space = space
        n, g = space.nvars, space.metric.entries
        half = Poly.constant(space.ring, n, two.inverse())
        first: dict = {}
        second: dict = {}
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        for i, j in upper:
            # Gamma_ij,k = (d_i G_jk + d_j G_ik - d_k G_ij) / 2
            first[(i, j)] = first[(j, i)] = tuple(space.quotient_sum(
                [(half, g[j][k].rep.diff(i)), (half, g[i][k].rep.diff(j)),
                 (-half, g[i][j].rep.diff(k))]) for k in range(n))
        for i, j in upper:
            if (value := self._solve(first[(i, j)])) is None:
                break
            second[(i, j)] = second[(j, i)] = value
        self.fully_solvable = len(second) == len(first)
        # (i, j, column) of each kind's nonzero columns: the only X^i Y^j formed
        self._first_live, self._second_live = (
            [(i, j, col) for (i, j), col in table.items() if any(c.rep.terms for c in col)]
            for table in (first, second if self.fully_solvable else {}))

    def _products(self, x: VectorField, y: VectorField, symbols: list) -> tuple:
        """The raw coefficients of the pair x, y and the products (X^i Y^j, column) over
        the live columns `symbols` whose factors are both nonzero."""
        _check_pair(self.space, x, y)
        xs, ys = x.reps, y.reps
        return xs, ys, [(xs[i] * ys[j], col) for i, j, col in symbols
                        if xs[i].terms and ys[j].terms]

    def form(self, x: VectorField, y: VectorField) -> OneForm:
        """The one-form Z |-> <nabla_X Y, Z>: component k is
        sum_j G_kj d_X Y^j + sum_ij X^i Y^j Gamma_ij,k, one normal form."""
        space = self.space
        xs, ys, xy = self._products(x, y, self._first_live)
        dy = [derivative_pairs(xs, q) for q in ys]
        return OneForm(space, tuple(space.quotient_sum(
            [(a if g.rep.is_one() else a * g.rep, b)
             for g, dyj in zip(row, dy) if g.rep.terms for a, b in dyj]
            + [(p, t[k].rep) for p, t in xy]) for k, row in enumerate(space.metric.entries)))

    def _solve(self, beta: tuple) -> Optional[tuple]:
        """Solve G v = beta exactly, or return None."""
        metric = self.space.metric
        if metric.inverse is not None:
            return apply_matrix(metric.inverse, beta)
        det = metric.det()
        if self.space.ideal is not None or not self.space.ring.is_field() or det.is_zero():
            return None
        out = []
        for w in apply_matrix(metric.adjugate(), beta):
            q = divide_exact(w.rep, det.rep)
            if q is None:
                return None
            out.append(QuotientElem(q, None))
        return tuple(out)

    def __call__(self, x: VectorField, y: VectorField) -> VectorField:
        space = self.space
        if not self.fully_solvable:
            if (value := self._solve(self.form(x, y).coeffs)) is None:
                raise MetricNotMusical("Koszul value has no exact solution for this pair")
            return VectorField(space, value)
        xs, ys, xy = self._products(x, y, self._second_live)
        return VectorField(space, tuple(
            space.quotient_sum(derivative_pairs(xs, q) + [(p, t[k].rep) for p, t in xy])
            for k, q in enumerate(ys)))


def one_form_valued(conn) -> bool:
    """Whether a connection gives only one-forms: a Koszul connection with a second-kind
    column that has no exact solution.  Every other connection gives vectors."""
    return isinstance(conn, KoszulConnection) and not conn.fully_solvable


def curvature(space: RinehartSpace, conn: Callable, x: VectorField,
              y: VectorField, z: VectorField) -> VectorField:
    """R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z."""
    return conn(x, conn(y, z)) - conn(y, conn(x, z)) - conn(lie_bracket(space, x, y), z)


# ---------------------------------------------------------------------------
# verification reports


class Report(Value):
    """A verifier's outcome: the first identity that fails, named as the check reports
    print it, and its counterexample; both None when every identity holds."""

    _fields = ("failed", "counterexample")

    @property
    def ok(self) -> bool:
        return self.failed is None


def check_levi_civita(space: RinehartSpace, conn, samples=()) -> Report:
    """Verify torsion-freeness and metric compatibility exactly.

    Both identities are checked exhaustively on the coordinate basis and then
    on each field trio (X, Y, Z) of `samples`, torsion on its (X, Y).  For a
    Koszul connection whose vector values are only partially defined the
    identities are checked at the one-form level, which is equivalent whenever
    the Gram matrix has nonzero determinant over a domain.
    """
    fields = space.basis_fields()
    form_level = one_form_valued(conn)
    metric = space.metric
    connect = conn.form if form_level else conn
    minus = Poly.constant(space.ring, space.nvars, space.ring.from_int(-1))
    values: dict = {}  # each value once in this run: (x, y) of the torsion loop serves (x, y, z)

    def value(x, y):
        key = class_key(x.coeffs + y.coeffs)
        if (v := values.get(key)) is None:
            v = values[key] = connect(x, y)
        return v

    def torsion_gap(x, y):
        bracket = lie_bracket(space, x, y)
        return value(x, y) - value(y, x) - (flat(bracket, metric) if form_level else bracket)

    def compat_gap(x, y, z):
        # d_X<Y, Z> - <nabla_X Y, Z> - <Y, nabla_X Z> as one raw sum with one normal form
        rhs = ((pairing(z, value(x, y)), pairing(y, value(x, z))) if form_level
               else (inner(value(x, y), z, metric), inner(y, value(x, z), metric)))
        return space.quotient_sum(derivative_pairs(x.reps, inner(y, z, metric).rep)
                                  + [(p.rep, minus) for p in rhs])

    samples = list(samples)
    for x, y in [(x, y) for x in fields for y in fields] + [trio[:2] for trio in samples]:
        if not (gap := torsion_gap(x, y)).is_zero():
            return Report("torsion", space.render(x=x, y=y, gap=gap))
    for x, y, z in [(x, y, z) for x in fields for y in fields for z in fields] + samples:
        if not (gap := compat_gap(x, y, z)).is_zero():
            return Report("compatibility", space.render(x=x, y=y, z=z, gap=gap))
    return Report(None, None)


def check_constant_curvature(space: RinehartSpace, conn, c: GroundScalar,
                             spanning: list, gram: Optional[tuple] = None) -> Report:
    """Check R(X, Y)Z = c(<Y,Z>X - <X,Z>Y) on all triples of spanning fields.

    Only i < j is evaluated, yet every triple is proved, with no Bianchi identity
    (it needs torsion-freeness): [Y, X] = -[X, Y] exactly on reduced parts and conn
    is additive in its first slot, so the gap at (j, i, k) is exactly minus that at
    (i, j, k), and zero at i = j.  So the full loop's first failure has i < j and is
    the one reported here.  `gram` is the table <Y_a, Y_b> when the caller has it;
    it is scaled by c once, and each bracket is computed once per pair.  With
    A = nabla_X nabla_Y Z, B = nabla_Y nabla_X Z and D = nabla_[X,Y] Z, component l
    is proved as A_l == B_l + D_l + (c g_jk) X_l - (c g_ik) Y_l, one raw sum of
    products with one normal form; A_l is canonical, so `==` decides the class.
    lhs = A - B - D and rhs are formed only for the counterexample."""
    if gram is None:
        gram = gram_table(spanning, space.metric)
    c_fn = space.constant(c)
    scaled = [[(c_fn * g).rep for g in row] for row in gram]
    one = space.constant(space.ring.one()).rep
    reps = [f.reps for f in spanning]
    negs = [[-a for a in f] for f in reps]
    for i, x in enumerate(spanning):
        for j, y in enumerate(spanning[i + 1:], i + 1):
            bracket = lie_bracket(space, x, y)
            for k, z in enumerate(spanning):
                a, b, d = conn(x, conn(y, z)), conn(y, conn(x, z)), conn(bracket, z)
                if all(al == space.quotient_sum([
                        (bl.rep, one), (dl.rep, one), (scaled[j][k], xl), (scaled[i][k], nyl)])
                       for al, bl, dl, xl, nyl
                       in zip(a.coeffs, b.coeffs, d.coeffs, reps[i], negs[j])):
                    continue
                return Report("curvature", space.render(
                    triple=f"({i + 1}, {j + 1}, {k + 1})", lhs=a - b - d,
                    rhs=c_fn * ((gram[j][k] * x) - (gram[i][k] * y))))
    return Report(None, None)
