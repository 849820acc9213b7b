"""Seeded generators: lazy monomial lists and residue draws."""

import random
from itertools import product
from math import comb

import pytest

from rinehart import PrimeField, Rationals
from rinehart.randgen import monomials_up_to, random_poly, random_scalar


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
    assert 0 <= random_scalar(rng, big).value < big.p
