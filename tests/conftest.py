import random
from fractions import Fraction

import pytest

from rinehart import PrimeField, QuadExt, Rationals


def seeded(label: str) -> random.Random:
    return random.Random(f"test:{label}")


@pytest.fixture(params=["Q", "F5", "F7", "Qi", "F3al"])
def any_ring(request):
    return {
        "Q": Rationals(),
        "F5": PrimeField(5),
        "F7": PrimeField(7),
        "Qi": QuadExt(Rationals(), -1),
        "F3al": QuadExt(PrimeField(3), 1),
    }[request.param]


def sample_scalar(rng: random.Random, ring):
    """Uniform-ish scalar draws for law checks, covering negatives and zero."""
    if isinstance(ring, Rationals):
        return ring.scalar(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
    if isinstance(ring, PrimeField):
        return ring.from_int(rng.randrange(ring.p))
    a = sample_scalar(rng, ring.base)
    b = sample_scalar(rng, ring.base)
    return ring.scalar((Fraction(a.num, a.den), Fraction(b.num, b.den)))
