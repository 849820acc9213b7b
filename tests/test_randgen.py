"""Seeded generators: lazy monomial lists, residue draws, and raw-value sampling
against the GroundScalar sampler it replaced."""

import random
import sys
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from rinehart import DegreeOverflow, Poly, PrimeField, QuadExt, Rationals
from rinehart.poly import MAX_DEGREE, pack
from rinehart.randgen import Monomials, monomials_up_to, random_poly, random_scalar


def enumerated(nvars, max_degree):
    """The list the generators drew from before it became lazy."""
    return sorted(m for m in product(range(max_degree + 1), repeat=nvars)
                  if sum(m) <= max_degree)


def test_monomials_unrank_the_sorted_enumeration():
    for nvars in range(5):
        for max_degree in range(5):
            monos = monomials_up_to(nvars, max_degree)
            old = enumerated(nvars, max_degree)
            assert len(monos) == len(old) == comb(nvars + max_degree, nvars)
            assert [monos[i] for i in range(len(monos))] == old
            with pytest.raises(IndexError):
                monos[len(monos)]


def test_draws_match_choice_over_the_full_lists():
    ring = PrimeField(7)
    for seed in range(20):
        rng, old = random.Random(seed), random.Random(seed)
        assert rng.choice(monomials_up_to(3, 4)) == old.choice(enumerated(3, 4))
        assert random_scalar(rng, ring) == old.choice([ring.from_int(v) for v in range(7)])


def test_large_degrees_and_primes_draw_without_enumerating():
    monos = monomials_up_to(8, 40)
    assert len(monos) == comb(48, 8)
    assert monos[0] == (0,) * 8 and monos[len(monos) - 1] == (40,) + (0,) * 7
    rng = random.Random(1)
    p = random_poly(rng, Rationals(), 8, max_degree=40)
    assert 0 <= p.total_degree() <= 40
    big = PrimeField(1000000000000000003)
    assert 0 <= random_scalar(rng, big).num < big.p
    # C(82, 41) monomials: more than sys.maxsize, where len() and rng.choice raise
    assert comb(82, 41) > sys.maxsize
    assert 0 <= random_poly(rng, Rationals(), 41, max_degree=41).total_degree() <= 41


# ---------------------------------------------------------------------------
# the sampler before raw-value draws, kept as the oracle


class TupleMonomials:
    """The lazy monomial list before packed keys: item i unranked into an exponent tuple."""

    def __init__(self, nvars, max_degree):
        self.nvars, self.max_degree = nvars, max_degree

    def __len__(self):
        return comb(self.nvars + self.max_degree, self.nvars)

    def __getitem__(self, i):
        out, budget = [], self.max_degree
        for rest in range(self.nvars - 1, -1, -1):
            e = 0
            while i >= (count := comb(rest + budget - e, rest)):
                i -= count
                e += 1
            out.append(e)
            budget -= e
        return tuple(out)


def scalar_pool_oracle(ring):
    if isinstance(ring, Rationals):
        values = [0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2)]
        return tuple(ring.scalar(v) for v in values)
    if isinstance(ring, PrimeField):
        return tuple(ring.scalar(v) for v in range(min(ring.p, 4)))
    base_pool = scalar_pool_oracle(ring.base)
    return tuple(ring.scalar((Fraction(a.num, a.den), Fraction(b.num, b.den)))
                 for a in base_pool[:4] for b in base_pool[:4])


def random_poly_oracle(rng, ring, nvars, max_degree=2, max_terms=3):
    """GroundScalar sums keyed by exponent tuples, packed by Poly.from_dict."""
    monos = TupleMonomials(nvars, max_degree)
    acc = {}
    zero = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(monos)
        if isinstance(ring, PrimeField):
            c = ring.scalar(rng.randrange(ring.p))
        else:
            c = rng.choice(scalar_pool_oracle(ring))
        acc[m] = acc.get(m, zero) + c
    return Poly.from_dict(ring, nvars, acc)


RINGS = [Rationals(), PrimeField(7), PrimeField(1000000000000000003),
         QuadExt(Rationals(), -1), QuadExt(Rationals(), 1)]


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_raw_draws_match_the_ground_scalar_sampler(ring):
    for nvars in range(1, 6):
        for max_degree in (0, 1, 2, 3, 4, 41):
            # one monomial at degree 0 makes every draw collide, cancellations included
            max_terms = 6 if max_degree == 0 else 3
            for seed in range(200):
                rng, old = random.Random(seed), random.Random(seed)
                got = random_poly(rng, ring, nvars, max_degree, max_terms)
                want = random_poly_oracle(old, ring, nvars, max_degree, max_terms)
                assert got == want, (nvars, max_degree, seed)
                assert rng.getstate() == old.getstate(), (nvars, max_degree, seed)


def test_scalars_are_drawn_as_before():
    for ring in RINGS:
        rng, old = random.Random(3), random.Random(3)
        for _ in range(50):
            want = (ring.scalar(old.randrange(ring.p)) if isinstance(ring, PrimeField)
                    else old.choice(scalar_pool_oracle(ring)))
            assert random_scalar(rng, ring) == want
        assert rng.getstate() == old.getstate()


def test_monomial_keys_are_the_packed_items():
    monos = monomials_up_to(3, 5)
    assert [monos.key(i) for i in range(len(monos))] == [pack(m) for m in enumerated(3, 5)]
    with pytest.raises(DegreeOverflow):
        monomials_up_to(2, MAX_DEGREE + 1)


def test_monomials_are_built_once_and_their_keys_kept():
    assert monomials_up_to(3, 4) is monomials_up_to(3, 4)
    assert monomials_up_to(3, 4) is not monomials_up_to(4, 3)
    warm = monomials_up_to(3, 4)
    for _ in range(2):  # the second pass reads every key from the memo
        assert [warm.key(i) for i in range(len(warm))] == \
            [Monomials(3, 4).key(i) for i in range(len(warm))]
    big = monomials_up_to(8, 40)
    rng = random.Random(5)
    picks = [rng.randrange(len(big)) for _ in range(200)] + [0, len(big) - 1]
    for i in picks + picks:
        assert big.key(i) == Monomials(8, 40).key(i)
    for bad in (-1, len(warm), len(warm) + 7):
        with pytest.raises(IndexError):
            warm.key(bad)
        with pytest.raises(IndexError):
            warm[bad]
