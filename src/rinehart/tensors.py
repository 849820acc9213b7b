"""Free-module tensors over a function algebra: fields, forms, metrics.

Vector fields and one-forms are coefficient vectors in the coordinate
bases X_i and om_i; the pairing <X_i, om_j> = delta_ij extends
O-bilinearly.  A metric is a symmetric Gram matrix; lowering an index is
always possible, raising one goes through det(G)^-1 adj(G) and needs a
certified unit determinant.  A metric keeps one memoised table of minors,
read by det and adjugate, and decides once whether its det is a unit.
Each sum of products (pairing, inner product, matrix row, minor expansion)
is one raw `poly.sum_products` with one normal form per result; an inner
product goes by rows, sum_i X^i (sum_j G_ij Y^j), each row a raw sum:
reduction mod (f) is a ring homomorphism with canonical remainders.
"""

from __future__ import annotations

from .errors import MetricNotMusical, SpaceMismatch
from .poly import Poly, PrincipalIdeal, QuotientElem, quotient_sum, sum_products, unit_status
from .rings import Value, lazy, set_field


def _check_same_space(a, b):
    if a.space != b.space:
        raise SpaceMismatch("operands belong to different spaces")


def _check_dimension(metric, x):
    if metric.n != len(x.coeffs):
        raise SpaceMismatch("metric dimension does not match the space")


class _Coefficients(Value):
    """A coefficient vector over a space, with its module operations."""

    _fields = ("space", "coeffs")

    def __init__(self, space, coeffs: tuple):
        set_field(self, "space", space)
        set_field(self, "coeffs", coeffs)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _check_same_space(self, other)
        return type(self)(self.space, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _check_same_space(self, other)
        return type(self)(self.space, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return type(self)(self.space, tuple(-a for a in self.coeffs))

    def __rmul__(self, fn):
        # module action f * X of the function algebra
        coerced = self.space.coerce_fn(fn)
        return type(self)(self.space, tuple(coerced * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.coeffs)

    @lazy
    def reps(self) -> tuple:
        """The coefficients' representatives, raw `Poly` values."""
        return tuple(c.rep for c in self.coeffs)


class VectorField(_Coefficients):
    """A vector field sum_i coeffs[i] * X_i over its space."""


class OneForm(_Coefficients):
    """A one-form sum_i coeffs[i] * om_i over its space."""


class Metric(Value):
    """A symmetric matrix of function-algebra entries."""

    _fields = ("entries",)

    def __init__(self, entries: tuple):  # a tuple of row tuples of QuotientElem
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("metric matrix must be square")
        if any(entries[i][j] != entries[j][i] for i in range(n) for j in range(i)):
            raise ValueError("metric matrix must be symmetric")
        if n:
            # once per metric: every entry in one quotient ring, so `inner` checks only fields
            entries[0][0].check_peers(sum(entries, ()))
        Value.__init__(self, entries)

    @staticmethod
    def euclidean(ring, nvars: int, ideal: PrincipalIdeal | None) -> "Metric":
        one = QuotientElem(Poly.constant(ring, nvars, ring.one()), ideal)
        return Metric.diagonal([one] * nvars)

    @staticmethod
    def diagonal(diag: list) -> "Metric":
        n = len(diag)
        zero = QuotientElem(Poly.zero(diag[0].ring, diag[0].nvars), diag[0].ideal)
        rows = tuple(tuple(diag[i] if i == j else zero for j in range(n)) for i in range(n))
        return Metric(rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def is_euclidean(self) -> bool:
        return all((e.is_constant() and e.constant_value().is_one()) if i == j else e.is_zero()
                   for i, row in enumerate(self.entries) for j, e in enumerate(row))

    def is_constant(self) -> bool:
        return all(e.is_constant() for row in self.entries for e in row)

    def reduce(self, ideal: PrincipalIdeal | None) -> "Metric":
        return Metric(tuple(tuple(QuotientElem(e.rep, ideal) for e in row) for row in self.entries))

    @lazy
    def _minors(self) -> dict:
        return {((), ()): self.entries[0][0] ** 0}  # (rows, cols) -> minor; the empty one is 1

    def _minor_det(self, rows: tuple, cols: tuple) -> QuotientElem:
        """det of the rows x cols submatrix, expanded once, along its first row over its
        nonzero entries, into the minor table: det and adjugate of a dense n x n metric
        take at most (n + 1) * 2^n minors, where the factorial expansion took ~n! * n^2."""
        key = (rows, cols)
        if key not in self._minors:
            row = self.entries[rows[0]]
            live = [(k, c) for k, c in enumerate(cols) if row[c].rep.terms]
            self._minors[key] = row[cols[0]] if not live else _dot(  # a zero row: minor 0
                tuple(-row[c] if k % 2 else row[c] for k, c in live),
                tuple(self._minor_det(rows[1:], cols[:k] + cols[k + 1:]) for k, _ in live))
        return self._minors[key]

    def det(self) -> QuotientElem:
        idx = tuple(range(self.n))
        return self._minor_det(idx, idx)

    def adjugate(self) -> tuple:
        """Matrix of cofactors transposed; adj(G) * G = det(G) * I."""
        return self._adjugate

    @lazy
    def _adjugate(self) -> tuple:
        idx = tuple(range(self.n))
        drop = [idx[:k] + idx[k + 1:] for k in idx]
        minors = [[self._minor_det(drop[j], drop[i]) for j in idx] for i in idx]
        return tuple(tuple(-m if (i + j) % 2 else m for j, m in enumerate(row))
                     for i, row in enumerate(minors))

    @lazy
    def det_status(self) -> tuple:
        """unit_status(det G), (status, inverse): the metric's one unit decision."""
        return unit_status(self.det())

    @lazy
    def inverse(self):
        """det(G)^-1 adj(G) when det G is a certified unit, else None; built once."""
        if (det_inv := self.det_status[1]) is not None:
            return tuple(tuple(det_inv * a for a in row) for row in self.adjugate())


def _dot(a: tuple, b: tuple) -> QuotientElem:
    """sum_i a_i b_i as one raw sum of products with one normal form."""
    a[0].check_peers(a + b)
    pairs = [(u.rep, v.rep) for u, v in zip(a, b)]
    return quotient_sum(a[0].ring, a[0].nvars, pairs, a[0].ideal)


def apply_matrix(rows: tuple, vec: tuple) -> tuple:
    return tuple(_dot(row, vec) for row in rows)


def pairing(x: VectorField, om: OneForm) -> QuotientElem:
    """<X, om> = sum_i X^i om_i."""
    _check_same_space(x, om)
    return _dot(x.coeffs, om.coeffs)


def inner(x: VectorField, y: VectorField, metric: Metric) -> QuotientElem:
    """<X, Y> by rows over the nonzero G_ij (Y^j itself for a row whose one entry is 1)."""
    _check_same_space(x, y)
    _check_dimension(metric, x)
    like = metric.entries[0][0]
    like.check_peers(x.coeffs + y.coeffs)
    ring, n, pairs = like.ring, like.nvars, []
    for u, row in zip(x.reps, metric.entries):
        if u.terms and (terms := [(g.rep, v) for g, v in zip(row, y.reps)
                                  if g.rep.terms and v.terms]):
            unit = len(terms) == 1 and terms[0][0].is_one()
            pairs.append((u, terms[0][1] if unit else sum_products(ring, n, terms)))
    return quotient_sum(ring, n, pairs, like.ideal)


def gram_table(fields: list, metric: Metric) -> tuple:
    """The Gram table <X_a, X_b> of a list of fields, one inner product per entry."""
    return tuple(tuple(inner(a, b, metric) for b in fields) for a in fields)


def flat(x: VectorField, metric: Metric) -> OneForm:
    """Lower an index: (X^flat)_j = sum_i G_ij X^i.  Always defined."""
    _check_dimension(metric, x)
    return OneForm(x.space, apply_matrix(metric.entries, x.coeffs))


def sharp(om: OneForm, metric: Metric) -> VectorField:
    """Raise an index through `Metric.inverse`; needs det(G) a certified unit."""
    _check_dimension(metric, om)
    if metric.inverse is None:
        raise MetricNotMusical(f"metric determinant is {metric.det_status[0].value}")
    return VectorField(om.space, apply_matrix(metric.inverse, om.coeffs))


def in_maximal_ideal_submodule(x: VectorField, ideal: PrincipalIdeal,
                               metric: Metric) -> bool:
    """Whether <X, Y> lies in (f) for every Y, i.e. G*X vanishes mod (f)."""
    return all(QuotientElem(c.rep, ideal).is_zero() for c in flat(x, metric).coeffs)
