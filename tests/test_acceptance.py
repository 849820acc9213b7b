"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Every identity is checked with exact arithmetic; "tolerance" is the zero
polynomial throughout.  Time budgets are asserted with perf_counter.
"""

import json
import pathlib
import time

from rinehart import (EuclideanConnection, KoszulConnection, Metric,
                      PrimeField, Rationals, RinehartSpace, check_levi_civita,
                      curvature, derive, inner, lie_bracket, make_sphere,
                      pairing, spanning_fields, verify_space_form)
from rinehart.cli import main
from rinehart.hypersurface import InducedConnection
from rinehart.randgen import random_field
from rinehart.suites import Workspace, run_checks
from conftest import random_trios, seeded

Q = Rationals()
SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"


def report(number: int, ok: bool, desc: str):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {number} failed: {desc}"


def test_criterion_1_rational_sphere_space_forms():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        for ci in (1, -1, 4):
            c = Q.from_int(ci)
            rep = verify_space_form(make_sphere(Q, n, c), c)
            assert rep.ok, (n, ci, rep.counterexample)
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 10.0,
           f"spheres over Q, n in {{2,3,4}}, c in {{1,-1,4}}, exact, {elapsed:.2f}s < 10s")


def test_criterion_2_intermediate_identities():
    t0 = time.perf_counter()
    hyper = make_sphere(Q, 3, Q.one(), var_names=("x", "y", "z"))
    sp = hyper.quotient
    conn = InducedConnection(hyper)
    ys = spanning_fields(hyper)
    ok = True
    for i in range(3):
        for j in range(3):
            xi, xj = sp.coordinate(i), sp.coordinate(j)
            delta = sp.constant(Q.one()) if i == j else sp.constant(Q.zero())
            ok &= inner(ys[i], ys[j], sp.metric) == delta - xi * xj
            ok &= derive(sp, ys[i], xj) == delta - xi * xj
            ok &= conn(ys[i], ys[j]) == (-xj) * ys[i]
            want = xi * ys[j] - xj * ys[i]
            ok &= lie_bracket(sp, ys[i], ys[j]) == want
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 2.0,
           f"inner products, derivatives, connection, brackets at n=3, c=1, {elapsed:.2f}s < 2s")


def test_criterion_3_finite_field_space_forms():
    t0 = time.perf_counter()
    for p in (3, 5, 7):
        ring = PrimeField(p)
        for ci in range(1, p):
            c = ring.from_int(ci)
            rep = verify_space_form(make_sphere(ring, 3, c), c)
            assert rep.ok, (p, ci, rep.counterexample)
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 30.0,
           f"all unit c over F_3, F_5, F_7 at n=3, exact, {elapsed:.2f}s < 30s")


def test_criterion_4_negative_curvature():
    c = Q.from_int(-1)
    rep = verify_space_form(make_sphere(Q, 3, c), c)
    report(4, rep.ok, "c = -1 over Q at n=3: proper ideal with no real points")


def test_criterion_5_euclidean_flatness():
    t0 = time.perf_counter()
    sp = RinehartSpace.euclidean(Q, ("x", "y", "z"))
    conn = EuclideanConnection(sp)
    ok = True
    basis = [sp.basis_field(i) for i in range(3)]
    for x in basis:
        for y in basis:
            for z in basis:
                ok &= curvature(sp, conn, x, y, z).is_zero()
    rng = seeded("acceptance-flatness")
    for _ in range(100):
        x = random_field(rng, sp, 2)
        y = random_field(rng, sp, 2)
        z = random_field(rng, sp, 2)
        ok &= curvature(sp, conn, x, y, z).is_zero()
    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed < 5.0,
           f"R = 0 on 27 basis and 100 random degree<=2 triples, {elapsed:.2f}s < 5s")


def test_criterion_6_fundamental_theorem_consistency():
    t0 = time.perf_counter()
    ok = True
    sp = RinehartSpace.euclidean(Q, ("x", "y"))
    for i in range(2):
        for j in range(2):
            xi, xj = sp.basis_field(i), sp.basis_field(j)
            ok &= KoszulConnection(sp)(xi, xj) == EuclideanConnection(sp)(xi, xj)
    helper = RinehartSpace.euclidean(Q, ("x1", "x2"))
    metric = Metric.diagonal((helper.fn("1"), helper.fn("x1^2 + 1")))
    sp2 = RinehartSpace.with_metric(Q, ("x1", "x2"), metric)
    kz = KoszulConnection(sp2)
    lc = check_levi_civita(sp2, kz, random_trios(seeded("acceptance-koszul"), sp2))
    ok &= lc.ok
    elapsed = time.perf_counter() - t0
    report(6, ok and elapsed < 5.0,
           "koszul = flat on basis pairs; diag(1, x1^2+1) is torsion-free and "
           f"metric-compatible, {elapsed:.2f}s < 5s")


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    hyper = make_sphere(Q, 3, Q.one(), var_names=("x", "y", "z"))
    sphere_ws = Workspace(space=hyper.ambient, hyper=hyper, c=Q.one())
    helper = RinehartSpace.euclidean(Q, ("x", "y"))
    const_metric = Metric(((helper.fn("2"), helper.fn("1")),
                           (helper.fn("1"), helper.fn("1"))))   # det = 1
    const_ws = Workspace(space=RinehartSpace.with_metric(Q, ("x", "y"), const_metric))
    on_sphere = ["differential-leibniz", "anchor-compatibility", "jacobi-identity",
                 "curvature-tensorial", "gauss-split", "second-form-symmetric",
                 "projection-retraction"]
    results = run_checks(sphere_ws, names=on_sphere, seed=11, cases=200)
    results += run_checks(const_ws, names=["musical-roundtrip"], seed=11, cases=200)
    ok = all(r.status == "pass" for r in results)
    assert len(results) == 8
    for r in results:
        assert "200" in r.detail, r
    elapsed = time.perf_counter() - t0
    report(7, ok and elapsed < 60.0,
           f"eight property suites at 200 seeded cases each, {elapsed:.2f}s < 60s")


def test_criterion_8_negative_controls(tmp_path, capsys):
    sp = RinehartSpace.euclidean(Q, ("x", "y"))
    base = EuclideanConnection(sp)

    def perturbed(x, y):
        bias = pairing(x, sp.basis_form(0)) * pairing(y, sp.basis_form(1))
        return base(x, y) + bias * sp.basis_field(0)

    first = check_levi_civita(sp, perturbed, random_trios(seeded("acceptance-neg"), sp))
    second = check_levi_civita(sp, perturbed, random_trios(seeded("acceptance-neg"), sp))
    ok = not first.ok and first.failed == "torsion"
    ok &= first.counterexample is not None
    print(f"perturbed-connection counterexample: {first.counterexample}")
    ok &= first.counterexample == second.counterexample   # deterministic

    hyper = make_sphere(Q, 3, Q.one())
    mism = verify_space_form(hyper, Q.from_int(2))
    ok &= not mism.ok and mism.counterexample is not None

    bad_c = tmp_path / "bad_c.json"
    bad_c.write_text(json.dumps({
        "schema_version": 1, "ring": {"kind": "Q"}, "vars": ["x", "y", "z"],
        "metric": "euclidean", "quotient": {"sphere": {"c": "0"}}}))
    code = main(["check", str(bad_c)])
    err = capsys.readouterr().err
    ok &= code == 2 and err.startswith("error[ValidationError]")

    bad_p = tmp_path / "bad_p.json"
    bad_p.write_text(json.dumps({
        "schema_version": 1, "ring": {"kind": "Fp", "p": 15}, "vars": ["x"],
        "metric": "euclidean"}))
    code = main(["check", str(bad_p)])
    err = capsys.readouterr().err
    ok &= code == 2 and err.startswith("error[ValidationError]")

    report(8, ok, "perturbed connection, c mismatch, non-unit c, composite p all rejected")


def test_criterion_9_cli_determinism(capsys):
    argv = ["check", str(SPECS / "sphere_q_n3.json"), "--json", "--seed", "7"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2 and len(out1) > 0
    report(9, ok, "two seeded runs on the bundled n=3 sphere spec are byte-identical")
