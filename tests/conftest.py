import random
from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from rinehart import PrimeField, QuadExt, Rationals
from rinehart.randgen import random_field

# A failing property reports its first failing example unshrunk: shrinking an exact
# identity over large random polynomials could run for minutes before the failure showed.
# `pytest --hypothesis-profile default` shrinks again.
settings.register_profile(
    "unshrunk", phases=tuple(p for p in settings.default.phases if p is not Phase.shrink))
settings.load_profile("unshrunk")


def seeded(label: str) -> random.Random:
    return random.Random(f"test:{label}")


def random_trios(rng: random.Random, space, cases: int = 10, max_degree: int = 2) -> list:
    """`cases` field trios (X, Y, Z) for `check_levi_civita`, drawn X, Y, Z in turn, as
    the levi-civita check draws them."""
    return [tuple(random_field(rng, space, max_degree) for _ in range(3)) for _ in range(cases)]


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
