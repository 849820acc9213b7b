"""A fixed reference computation that follows the machine's speed.

The benchmark's host is a shared virtual machine whose speed drifts by a
quarter or more over tens of minutes.  The driving process runs this
computation in the gaps between the children it times, and reports each
child's times at the reference speed: measured seconds times NOMINAL_S
over the reference's time in the gaps on either side of the child.

The computation does not import rinehart, so a change to the program never
moves it.  It mimics the program's hot loops: exact scalars wrapped in a
class with operator methods, over Q (`Fraction`) and F_p, and sparse
polynomials as dicts of exponent tuples, multiplied out and divided in
grevlex order.  Its inputs are fixed; the benchmark seed never reaches it.
The garbage collector is paused while it runs, so the size of the caller's
heap does not change its time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Seconds one `measure(UNITS)` call takes in a typical phase of the two-core
# machine the reference figures in README.md come from.  Time metrics are
# scaled to this speed; the constant only sets their scale.
UNITS = 4
NOMINAL_S = 0.100


class Scalar:
    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p if p else v

    def __add__(self, other):
        return Scalar(self.p, self.v + other.v)

    def __sub__(self, other):
        return Scalar(self.p, self.v - other.v)

    def __mul__(self, other):
        return Scalar(self.p, self.v * other.v)

    def inverse(self):
        return Scalar(self.p, pow(self.v, -1, self.p) if self.p else 1 / self.v)

    def is_zero(self):
        return self.v == 0


def _key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _mul(a, b, zero):
    acc = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            acc[m] = acc.get(m, zero) + c1 * c2
    return {m: c for m, c in acc.items() if not c.is_zero()}


def _rem(g, f, zero):
    """The remainder of g modulo f, by leading-term division in grevlex."""
    lm = max(f, key=_key)
    lc_inv = f[lm].inverse()
    tail = [(m, c) for m, c in f.items() if m != lm]
    work, rem = dict(g), {}
    while work:
        m = max(work, key=_key)
        c = work.pop(m)
        if all(x <= y for x, y in zip(lm, m)):
            t = tuple(y - x for x, y in zip(lm, m))
            factor = c * lc_inv
            for fm, fc in tail:
                mm = tuple(x + y for x, y in zip(t, fm))
                nc = work.get(mm, zero) - factor * fc
                if nc.is_zero():
                    work.pop(mm, None)
                else:
                    work[mm] = nc
        else:
            rem[m] = c
    return rem


def _poly(p, coeffs):
    monos = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (2, 0, 0))
    return {m: Scalar(p, Fraction(k, 1 + i % 3) if p == 0 else k)
            for i, (m, k) in enumerate(zip(monos, coeffs))}


def _unit():
    for p in (0, 7):
        zero = Scalar(p, 0)
        a = _poly(p, (1, -2, 3, 1, -1, 2, 1))
        b = _poly(p, (2, 1, -1, 3, 1, -2, 5))
        sphere = {(2, 0, 0): Scalar(p, 1), (0, 2, 0): Scalar(p, 1),
                  (0, 0, 2): Scalar(p, 1), (0, 0, 0): Scalar(p, -1)}
        acc = a
        for _ in range(3):
            acc = _rem(_mul(acc, b, zero), sphere, zero)


def measure(units: int = UNITS) -> float:
    """Seconds that `units` repetitions of the reference take here."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(units):
            _unit()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
