"""Free-module tensors over a function algebra: fields, forms, metrics.

Vector fields and one-forms are coefficient vectors in the coordinate
bases X_i and om_i; the pairing <X_i, om_j> = delta_ij extends
O-bilinearly.  A metric is a symmetric Gram matrix; lowering an index is
always possible, raising one goes through the adjugate and needs a
certified unit determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import MetricNotMusical, SpaceMismatch
from .poly import (Poly, PrincipalIdeal, QuotientElem, UnitStatus,
                   unit_status)


def _check_same_space(a, b):
    if a.space != b.space:
        raise SpaceMismatch("operands belong to different spaces")


@dataclass(frozen=True)
class _Coefficients:
    """A coefficient vector over a space, with its module operations."""

    space: object
    coeffs: tuple

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


class VectorField(_Coefficients):
    """A vector field sum_i coeffs[i] * X_i over its space."""


class OneForm(_Coefficients):
    """A one-form sum_i coeffs[i] * om_i over its space."""


@dataclass(frozen=True)
class Metric:
    """A symmetric matrix of function-algebra entries."""

    entries: tuple  # tuple of row tuples of QuotientElem

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("metric matrix must be square")
        if any(self.entries[i][j] != self.entries[j][i] for i in range(n) for j in range(i)):
            raise ValueError("metric matrix must be symmetric")

    @staticmethod
    def euclidean(ring, nvars: int, ideal: PrincipalIdeal | None) -> "Metric":
        one = QuotientElem(Poly.constant(ring, nvars, ring.one()), ideal)
        zero = QuotientElem(Poly.zero(ring, nvars), ideal)
        rows = tuple(tuple(one if i == j else zero for j in range(nvars)) for i in range(nvars))
        return Metric(rows)

    @staticmethod
    def diagonal(diag: list) -> "Metric":
        n = len(diag)
        zero = diag[0] - diag[0]
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
        rows = tuple(tuple(QuotientElem(e.rep, ideal) for e in row)
                     for row in self.entries)
        return Metric(rows)

    def _minor_det(self, rows: tuple, cols: tuple) -> QuotientElem:
        if len(rows) == 1:
            return self.entries[rows[0]][cols[0]]
        first = rows[0]
        rest = rows[1:]
        acc = None
        for k, c in enumerate(cols):
            sub = self._minor_det(rest, cols[:k] + cols[k + 1:])
            piece = self.entries[first][c] * sub
            if k % 2 == 1:
                piece = -piece
            acc = piece if acc is None else acc + piece
        return acc

    # The cofactor expansions run at most once per metric: the values are
    # kept on the instance, and det() and adjugate() are their only readers.

    def det(self) -> QuotientElem:
        return self._det

    def adjugate(self) -> tuple:
        """Matrix of cofactors transposed; adj(G) * G = det(G) * I."""
        return self._adjugate

    @cached_property
    def _det(self) -> QuotientElem:
        idx = tuple(range(self.n))
        return self._minor_det(idx, idx)

    @cached_property
    def _adjugate(self) -> tuple:
        idx = range(self.n)
        if self.n == 1:
            e = self.entries[0][0]
            return ((e - e + 1,),)

        def cofactor(i, j):
            minor = self._minor_det(tuple(r for r in idx if r != j),
                                    tuple(c for c in idx if c != i))
            return -minor if (i + j) % 2 else minor

        return tuple(tuple(cofactor(i, j) for j in idx) for i in idx)


def _dot(a: tuple, b: tuple) -> QuotientElem:
    acc = a[0] * b[0]
    for u, v in zip(a[1:], b[1:]):
        acc = acc + u * v
    return acc


def apply_matrix(rows: tuple, vec: tuple) -> tuple:
    return tuple(_dot(row, vec) for row in rows)


def pairing(x: VectorField, om: OneForm) -> QuotientElem:
    """<X, om> = sum_i X^i om_i."""
    _check_same_space(x, om)
    return _dot(x.coeffs, om.coeffs)


def inner(x: VectorField, y: VectorField, metric: Metric) -> QuotientElem:
    """<X, Y> = X^T G Y."""
    _check_same_space(x, y)
    if metric.n != len(x.coeffs):
        raise SpaceMismatch("metric dimension does not match the space")
    return _dot(x.coeffs, apply_matrix(metric.entries, y.coeffs))


def flat(x: VectorField, metric: Metric) -> OneForm:
    """Lower an index: (X^flat)_j = sum_i G_ij X^i.  Always defined."""
    if metric.n != len(x.coeffs):
        raise SpaceMismatch("metric dimension does not match the space")
    return OneForm(x.space, apply_matrix(metric.entries, x.coeffs))


def sharp(om: OneForm, metric: Metric) -> VectorField:
    """Raise an index through the adjugate; needs det(G) a certified unit."""
    if metric.n != len(om.coeffs):
        raise SpaceMismatch("metric dimension does not match the space")
    status, det_inv = unit_status(metric.det())
    if status is not UnitStatus.UNIT:
        raise MetricNotMusical(f"metric determinant is {status.value}")
    adj = metric.adjugate()
    raised = apply_matrix(adj, om.coeffs)
    return VectorField(om.space, tuple(det_inv * v for v in raised))


def in_maximal_ideal_submodule(x: VectorField, ideal: PrincipalIdeal,
                               metric: Metric) -> bool:
    """Whether <X, Y> lies in (f) for every Y, i.e. G*X vanishes mod (f)."""
    lowered = flat(x, metric)
    return all(QuotientElem(c.rep, ideal).is_zero() for c in lowered.coeffs)
