#!/usr/bin/env python3
"""Gallery of Koszul connections: solvable, constant, and non-musical metrics.

For each metric the script reports whether the full Christoffel table has
exact polynomial solutions, shows a few connection values, and runs the
torsion-freeness/compatibility verification.

    python3 scripts/koszul_gallery.py
"""

import sys
from dataclasses import dataclass

from rinehart import (KoszulConnection, Metric, MetricNotMusical, Rationals,
                      RinehartSpace, check_levi_civita)
from rinehart.randgen import random_field, rng_for

Q = Rationals()


@dataclass(frozen=True)
class GalleryEntry:
    label: str
    diag: tuple = ()
    full: tuple = ()

    def metric(self, helper):
        if self.diag:
            return Metric.diagonal(tuple(helper.fn(t) for t in self.diag))
        return Metric(tuple(tuple(helper.fn(t) for t in row) for row in self.full))


ENTRIES = (
    GalleryEntry("euclidean", diag=("1", "1")),
    GalleryEntry("lorentzian diag(1,-1)", diag=("1", "-1")),
    GalleryEntry("unit-determinant polynomial", full=(("x^2 + 1", "x"), ("x", "1"))),
    GalleryEntry("non-musical diag(1, x^2+1)", diag=("1", "x^2 + 1")),
)


def show(entry: GalleryEntry) -> bool:
    helper = RinehartSpace.euclidean(Q, ("x", "y"))
    sp = RinehartSpace.with_metric(Q, ("x", "y"), entry.metric(helper))
    conn = KoszulConnection(sp)
    print(f"== {entry.label}")
    print(f"   full Christoffel table solvable: {conn.fully_solvable}")
    for i in range(2):
        for j in range(2):
            xi, xj = sp.basis_field(i), sp.basis_field(j)
            try:
                value = conn(xi, xj)
                print(f"   nabla_X{i+1} X{j+1} = {sp.format_field(value)}")
            except MetricNotMusical:
                om = conn.form(xi, xj)
                print(f"   nabla_X{i+1} X{j+1}: no exact vector; one-form "
                      f"{sp.format_field(om)}")
    rng = rng_for(0, entry.label)
    trios = [tuple(random_field(rng, sp, 2) for _ in range(3)) for _ in range(10)]
    report = check_levi_civita(sp, conn, trios)
    print(f"   Levi-Civita: {'verified' if report.ok else report.failed + ' identity fails'}")
    return report.ok


def main() -> int:
    ok = True
    for entry in ENTRIES:
        ok &= show(entry)
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
