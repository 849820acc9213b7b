"""Seeded deterministic generators for randomized exact checks.

All sampling goes through `random.Random` instances seeded by the caller,
so identical seeds give identical fields on every run.  Coefficients come
from small fixed pools per ring; exact arithmetic turns every spot check
into a proof for the sampled instance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from random import Random

from .poly import Poly, QuotientElem
from .rings import GroundScalar, PrimeField, QuadExt, Rationals, RingDescriptor
from .tensors import VectorField


@cache
def scalar_pool(ring: RingDescriptor) -> tuple:
    """The coefficients a ring draws from, built once per ring."""
    if isinstance(ring, Rationals):
        values = [0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2)]
        return tuple(ring.scalar(v) for v in values)
    if isinstance(ring, PrimeField):
        # the first residues only; random_scalar draws from all of F_p
        return tuple(ring.scalar(v) for v in range(min(ring.p, 4)))
    if isinstance(ring, QuadExt):
        base_pool = scalar_pool(ring.base)
        return tuple(ring.scalar((a.value, b.value))
                     for a in base_pool[:4] for b in base_pool[:4])
    raise TypeError(f"no sampling pool for {ring!r}")


def random_scalar(rng: Random, ring: RingDescriptor) -> GroundScalar:
    if isinstance(ring, PrimeField):
        # the draw rng.choice makes from all p residues, without listing them
        return ring.scalar(rng.randrange(ring.p))
    return rng.choice(scalar_pool(ring))


class Monomials:
    """The exponent vectors of total degree at most max_degree, in sorted order.

    `len` is C(nvars + max_degree, nvars) and item i is unranked on demand, so
    `Random.choice` draws what it would from the full list, never built.
    """

    def __init__(self, nvars: int, max_degree: int):
        self.nvars, self.max_degree = nvars, max_degree

    def __len__(self) -> int:
        return comb(self.nvars + self.max_degree, self.nvars)

    def __getitem__(self, i: int) -> tuple:
        if not 0 <= i < len(self):
            raise IndexError("monomial index out of range")
        out, budget = [], self.max_degree
        for rest in range(self.nvars - 1, -1, -1):
            # C(rest + budget - e, rest) vectors continue a prefix ending in e
            e = 0
            while i >= (count := comb(rest + budget - e, rest)):
                i -= count
                e += 1
            out.append(e)
            budget -= e
        return tuple(out)


def monomials_up_to(nvars: int, max_degree: int) -> Monomials:
    return Monomials(nvars, max_degree)


def random_poly(rng: Random, ring: RingDescriptor, nvars: int,
                max_degree: int = 2, max_terms: int = 3) -> Poly:
    monos = monomials_up_to(nvars, max_degree)
    acc: dict = {}
    zero = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(monos)
        acc[m] = acc.get(m, zero) + random_scalar(rng, ring)
    return Poly.from_dict(ring, nvars, acc)


def random_fn(rng: Random, space, max_degree: int = 2) -> QuotientElem:
    return space.poly_fn(random_poly(rng, space.ring, space.nvars, max_degree))


def random_field(rng: Random, space, max_degree: int = 2) -> VectorField:
    return VectorField(space, tuple(random_fn(rng, space, max_degree)
                                    for _ in range(space.nvars)))


def rng_for(seed: int, label: str) -> Random:
    """A generator tied to (seed, label), stable across runs."""
    return Random(f"{seed}:{label}")
