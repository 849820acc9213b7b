"""Seeded deterministic generators for randomized exact checks.

All sampling goes through `random.Random` instances seeded by the caller,
so identical seeds give identical fields on every run.  Coefficients come
from small fixed pools per ring; exact arithmetic turns every spot check
into a proof for the sampled instance.
"""

from __future__ import annotations

from functools import cache
from math import comb
from random import Random

from .poly import Poly, QuotientElem, _canonical, over_common_den, pack, unpack
from .rings import GroundScalar, PrimeField, QuadExt, Rationals, RingDescriptor
from .tensors import VectorField


@cache
def scalar_pool(ring: RingDescriptor) -> tuple:
    """The scalars a ring draws from, built once per ring."""
    if isinstance(ring, Rationals):
        return tuple(ring.make(*v) for v in ((0,), (1,), (-1,), (2,), (-2,), (3,), (1, 2), (-3, 2)))
    if isinstance(ring, PrimeField):
        # the first residues only; random_scalar draws from all of F_p
        return tuple(ring.from_int(v) for v in range(min(ring.p, 4)))
    if isinstance(ring, QuadExt):
        base_pool = scalar_pool(ring.base)[:4]
        return tuple(ring.pair(a, b) for a in base_pool for b in base_pool)
    raise TypeError(f"no sampling pool for {ring!r}")


@cache
def numerator_pool(ring: RingDescriptor) -> tuple:
    """(numerators, den): the scalar pool over its common denominator, as terms hold it."""
    nums, den = over_common_den(ring, scalar_pool(ring))
    return tuple(nums), den


def _draw(rng: Random, ring: RingDescriptor, pool: tuple):
    """One entry, a residue of all of F_p or else an entry of `pool`, a tuple as long as
    the ring's pool."""
    if isinstance(ring, PrimeField):
        # the draw rng.choice makes from all p residues, without listing them
        return rng.randrange(ring.p)
    return rng.choice(pool)


def random_scalar(rng: Random, ring: RingDescriptor) -> GroundScalar:
    drawn = _draw(rng, ring, scalar_pool(ring))
    return ring.from_int(drawn) if isinstance(ring, PrimeField) else drawn


class Monomials:
    """The exponent vectors of total degree at most max_degree, in sorted order.

    `len` is C(nvars + max_degree, nvars) and item i is unranked on demand, so
    `Random.choice` draws what it would from the full list, never built; keys are memoised.
    """

    def __init__(self, nvars: int, max_degree: int):
        pack((max_degree,))  # DegreeOverflow past MAX_DEGREE, where keys would overflow
        self.nvars, self.max_degree = nvars, max_degree
        self.size = comb(nvars + max_degree, nvars)  # len() fails past sys.maxsize
        self._memo: dict = {}

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> tuple:
        return unpack(self.key(i), self.nvars)

    def key(self, i: int) -> int:
        """The packed key of item i: its exponents, unranked, packed by `poly.pack`."""
        if (key := self._memo.get(i)) is not None:
            return key
        if not 0 <= i < self.size:
            raise IndexError("monomial index out of range")
        exps, budget, rank = [], self.max_degree, i
        for at in range(self.nvars):
            # C(rest + budget - e, rest) vectors continue a prefix ending in e
            rest, e = self.nvars - 1 - at, 0
            while rank >= (count := comb(rest + budget - e, rest)):
                rank -= count
                e += 1
            exps.append(e)
            budget -= e
        key = self._memo[i] = pack(tuple(exps))
        return key


@cache
def monomials_up_to(nvars: int, max_degree: int) -> Monomials:
    return Monomials(nvars, max_degree)


def random_poly(rng: Random, ring: RingDescriptor, nvars: int,
                max_degree: int = 2, max_terms: int = 3) -> Poly:
    """A sum of 1..max_terms random terms.  The rng sees the calls choosing from Monomials and
    then random_scalar would make; numerators over the pool's denominator add under packed
    keys, made canonical once."""
    monos = monomials_up_to(nvars, max_degree)
    pool, den = ((), 1) if isinstance(ring, PrimeField) else numerator_pool(ring)
    add, zero, acc = ring.add, ring._zero, {}
    for _ in range(rng.randint(1, max_terms)):
        k = monos.key(rng.randrange(monos.size))  # the index rng.choice(monos) draws
        acc[k] = add(acc.get(k, zero), _draw(rng, ring, pool))
    return _canonical(ring, nvars, sorted(acc.items(), reverse=True), den)


def random_fn(rng: Random, space, max_degree: int = 2) -> QuotientElem:
    return space.poly_fn(random_poly(rng, space.ring, space.nvars, max_degree))


def random_field(rng: Random, space, max_degree: int = 2) -> VectorField:
    return VectorField(space, tuple(random_fn(rng, space, max_degree)
                                    for _ in range(space.nvars)))


def rng_for(seed: int, label: str) -> Random:
    """A generator tied to (seed, label), stable across runs."""
    return Random(f"{seed}:{label}")
