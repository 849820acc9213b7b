"""Seeded deterministic generators for randomized exact checks.

All sampling goes through `random.Random` instances seeded by the caller,
so identical seeds give identical fields on every run.  Coefficients come
from small fixed pools per ring; exact arithmetic turns every spot check
into a proof for the sampled instance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from random import Random

from .poly import Poly, QuotientElem
from .rings import GroundScalar, PrimeField, QuadExt, Rationals, RingDescriptor
from .tensors import VectorField


def scalar_pool(ring: RingDescriptor) -> list:
    if isinstance(ring, Rationals):
        values = [0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2)]
        return [ring.scalar(v) for v in values]
    if isinstance(ring, PrimeField):
        return [ring.scalar(v) for v in range(ring.p)]
    if isinstance(ring, QuadExt):
        base_pool = scalar_pool(ring.base)
        pool = [ring.scalar((a.value, b.value))
                for a in base_pool[:4] for b in base_pool[:4]]
        return pool
    raise TypeError(f"no sampling pool for {ring!r}")


def random_scalar(rng: Random, ring: RingDescriptor) -> GroundScalar:
    return rng.choice(scalar_pool(ring))


@lru_cache(maxsize=None)
def monomials_up_to(nvars: int, max_degree: int) -> tuple:
    """All exponent vectors with total degree at most max_degree, sorted.

    Enumerated once per (nvars, max_degree) and shared as an immutable tuple.
    """
    return tuple(sorted(m for m in product(range(max_degree + 1), repeat=nvars)
                        if sum(m) <= max_degree))


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
