"""Seeded input generation for the three workloads.

Every input of a run comes from `--seed` (and the round number) through
`random.Random`, so the same seed gives byte-identical spec files and
sweep lists.  The program only ever sees these generated inputs.  The
seed draws the random-case seeds, coefficients and names; the structure
that sets the cost of a round (rings, dimensions, checks, metric shape)
is fixed, so that seeds differ in data and not in the amount of work.
"""

from __future__ import annotations

import random

# The CLI runs every random-case check with this many cases.
CHECK_CASES = 40

RING_Q = {"kind": "Q"}
RING_F7 = {"kind": "Fp", "p": 7}
RING_QI = {"kind": "quad", "base": {"kind": "Q"}, "s": -1}

NAME_POOLS = (("x", "y", "z", "w"), ("u", "v", "s", "t"), ("x1", "x2", "x3", "x4"),
              ("p", "q", "r", "h"))

# quotient-check: the 21 checks split over five specs of one round.
# The four heavy quotient checks all run over F_7, where they cost least per
# case and vary least between seeds, and they are split over three specs so
# that no child runs much longer than two seconds: the reference speed is
# measured between children and follows the machine better across short
# ones.  A round takes about 12 s, where all 21 checks on all three rings
# would take about 70 s.  The flagship space-form check runs on the
# pseudosphere.
# (label, ring, curvature constants to draw from, checks)
F7_UNITS = ("1", "2", "3", "4", "5", "6")
QUOTIENT_GROUPS = (
    ("Q sphere", RING_Q, ("1", "-1"), (
        "normal-form-homomorphism", "pairing-duality", "metric-transfer",
        "musical-roundtrip", "differential-leibniz", "anchor-compatibility",
        "jacobi-identity", "connection-leibniz", "projection-retraction",
        "projection-orthogonal")),
    ("F7 sphere 1", RING_F7, F7_UNITS, ("second-form-symmetric",)),
    ("F7 sphere 2", RING_F7, F7_UNITS, ("representative-independence", "gauss-split")),
    ("F7 sphere 3", RING_F7, F7_UNITS, ("curvature-tensorial",)),
    ("Q(i) pseudosphere", RING_QI, ("-1",), (
        "space-form", "induced-metric", "induced-identities", "tangency",
        "flat-curvature", "koszul-flat-agreement", "levi-civita")),
)

# koszul-metric: plain spaces whose Gram matrix is L L^T.
KOSZUL_SPACES = (("Q", RING_Q, 3), ("F7", RING_F7, 3), ("F7", RING_F7, 4))
KOSZUL_EXPECTED_SKIPS = ("flat-curvature", "koszul-flat-agreement")

# space-form-sweep: (label, ring, constants; None means every unit c of F_p).
# Every listed c runs at n = 2 and 3, the first one also at n = 4.
SWEEP_RINGS = (
    ("Q", RING_Q, ("1", "-1", "2", "4")),
    ("F3", {"kind": "Fp", "p": 3}, None),
    ("F5", {"kind": "Fp", "p": 5}, None),
    ("F7", RING_F7, None),
    ("Qi", RING_QI, ("-1",)),
    ("Qj", {"kind": "quad", "base": {"kind": "Q"}, "s": 1}, ("1", "al")),
)
SWEEP_EVERY_C = (2, 3)
SWEEP_FIRST_C = (4,)


def _spec(ring, names, metric="euclidean", quotient=None, checks=None, seed=0):
    spec = {"schema_version": 1, "ring": ring, "vars": list(names), "metric": metric,
            "seed": seed, "max_degree": 2}
    if quotient is not None:
        spec["quotient"] = quotient
    if checks is not None:
        spec["checks"] = list(checks)
    return spec


def quotient_inputs(seed: int, round_no: int) -> list:
    """Five sphere/pseudosphere specs at n = 3 covering all 21 checks."""
    rng = random.Random(f"quotient-check:{seed}:{round_no}")
    names = rng.choice(NAME_POOLS)[:3]
    out = []
    for label, ring, c_pool, checks in QUOTIENT_GROUPS:
        c = rng.choice(c_pool)
        spec = _spec(ring, names, quotient={"sphere": {"c": c}}, checks=checks,
                     seed=rng.randrange(1 << 30))
        out.append({"label": f"round {round_no} {label} c={c}", "spec": spec, "n": 3,
                    "c": c, "checks": list(checks), "skips": []})
    return out


def _linear(rng, var) -> str:
    """A linear entry k*var + e with seeded k in {+-1, +-2} and e in {+-1}."""
    k = rng.choice((1, -1, 2, -2))
    e = rng.choice((1, -1))
    text = ("-" if k < 0 else "") + (var if abs(k) == 1 else f"{abs(k)}*{var}")
    return text + (" + 1" if e > 0 else " - 1")


def unit_lower_gram(rng, names) -> list:
    """Entries of G = L L^T, L unit lower bidiagonal with L[i][i-1] linear in x_i.

    det L = 1, so det G = 1 exactly over every ring.  Entries are written as
    unexpanded products for the program's parser to multiply out.
    """
    n = len(names)
    sub = [None] + [_linear(rng, names[i]) for i in range(1, n)]
    # row i of L is e_i + sub[i] e_{i-1}
    def row(i):
        return {i: "1"} if i == 0 else {i: "1", i - 1: f"({sub[i]})"}

    def product(a, b):
        parts = []
        for k in sorted(set(a) & set(b)):
            factors = [f for f in (a[k], b[k]) if f != "1"]
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts) if parts else "0"

    return [[product(row(i), row(j)) for j in range(n)] for i in range(n)]


def koszul_inputs(seed: int, round_no: int) -> list:
    """Plain spaces with det G = 1; every applicable check but the two skips."""
    rng = random.Random(f"koszul-metric:{seed}:{round_no}")
    out = []
    for label, ring, n in KOSZUL_SPACES:
        names = rng.choice(NAME_POOLS)[:n]
        gram = unit_lower_gram(rng, names)
        spec = _spec(ring, names, metric={"matrix": gram}, seed=rng.randrange(1 << 30))
        out.append({"label": f"round {round_no} {label} n={n}", "spec": spec, "n": n,
                    "gram": gram,
                    "checks": [
                        "anchor-compatibility", "connection-leibniz", "curvature-tensorial",
                        "differential-leibniz", "flat-curvature", "jacobi-identity",
                        "koszul-flat-agreement", "levi-civita", "metric-transfer",
                        "musical-roundtrip", "pairing-duality"],
                    "skips": list(KOSZUL_EXPECTED_SKIPS)})
    return out


def sweep_inputs(seed: int) -> list:
    """(ring label, items) per ring; n rises within a ring, as in the survey.

    Each ring runs in its own interpreter, as `space_form_survey.py --rings R`
    would.  The seed draws the variable names of each n and the order of
    the constants within one n.
    """
    rng = random.Random(f"space-form-sweep:{seed}")
    names = {n: list(rng.choice(NAME_POOLS)[:n]) for n in SWEEP_EVERY_C + SWEEP_FIRST_C}
    groups = []
    for label, ring, cs in SWEEP_RINGS:
        if cs is None:
            cs = [str(c) for c in range(1, ring["p"])]
        items = []
        for n in SWEEP_EVERY_C + SWEEP_FIRST_C:
            batch = [{"label": f"{label} n={n} c={c}", "ring": ring, "n": n, "c": c,
                      "names": names[n]} for c in (cs[:1] if n in SWEEP_FIRST_C else cs)]
            rng.shuffle(batch)
            items += batch
        groups.append((label, items))
    return groups


def check_instances(name: str, n: int, cases: int = CHECK_CASES):
    """Identity instances a check evaluates, and the integers its detail shows."""
    table = {
        "pairing-duality": (n * n + cases, [n * n, cases]),
        "differential-leibniz": (1 + cases, [1, 0, cases]),
        "anchor-compatibility": (cases, [cases]),
        "jacobi-identity": (cases, [cases]),
        "connection-leibniz": (cases, [cases]),
        "flat-curvature": (n ** 3 + cases, [n ** 3, cases]),
        "koszul-flat-agreement": (n * n + cases, [n * n, cases]),
        # basis pairs and triples plus the random samples
        "levi-civita": (n * n + n ** 3 + cases, [cases]),
        "musical-roundtrip": (cases, [cases]),
        "metric-transfer": (cases, [cases]),
        "curvature-tensorial": (cases, [cases]),
        "normal-form-homomorphism": (cases, [cases]),
        "tangency": (n + cases, [n, cases]),
        "projection-retraction": (cases, [cases]),
        "projection-orthogonal": (cases, [cases]),
        "gauss-split": (cases, [cases]),
        "second-form-symmetric": (cases, [cases]),
        "representative-independence": (cases, [cases]),
        "induced-metric": (n * n, [n * n]),
        # the ambient pipeline counts as one instance
        "induced-identities": (n * n + 1, [n * n]),
        # the induced-metric pairs and every spanning triple
        "space-form": (space_form_instances(n), [n ** 3]),
    }
    return table[name]


def space_form_instances(n: int) -> int:
    """verify_space_form checks n^2 metric pairs and n^3 curvature triples."""
    return n * n + n ** 3
