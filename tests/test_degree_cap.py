"""The max_degree cap: rejected above it, and no DegreeOverflow at it.

At the cap every random polynomial gets a term of full degree, which is
the worst case for the degree of every product a check forms.
"""

import json

import pytest

import rinehart.hypersurface as hypersurface
import rinehart.poly as poly_module
import rinehart.randgen as randgen
import rinehart.suites as suites
from rinehart import DegreeOverflow, KoszulConnection, MetricNotMusical, Poly
from rinehart.cli import build_workspace, main
from rinehart.poly import MAX_DEGREE
from rinehart.space import one_form_valued
from rinehart.suites import MAX_RANDOM_DEGREE, applicable_checks, degree_cap, run_checks

SPECS = {
    "euclidean": {"ring": {"kind": "Q"}, "vars": ["x", "y"]},
    "koszul": {"ring": {"kind": "Q"}, "vars": ["x", "y"],
               "metric": {"matrix": [["x^2+1", "x"], ["x", "1"]]}},
    "sphere": {"ring": {"kind": "Q"}, "vars": ["x", "y"],
               "quotient": {"sphere": {"c": "-2"}}},
}


def write(tmp_path, body):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(body))
    return str(path)


@pytest.mark.parametrize("value", [MAX_RANDOM_DEGREE + 1, 200, 0])
def test_spec_max_degree_outside_the_cap_is_a_validation_error(tmp_path, capsys, value):
    spec = dict(SPECS["euclidean"], max_degree=value,
                checks=["pairing-duality", "jacobi-identity"])
    assert main(["check", write(tmp_path, spec)]) == 2
    assert capsys.readouterr().err.startswith("error[ValidationError]: max_degree:")


def test_flag_max_degree_outside_the_cap_is_a_validation_error(tmp_path, capsys):
    path = write(tmp_path, dict(SPECS["euclidean"], checks=["jacobi-identity"]))
    assert main(["check", path, "--max-degree", str(MAX_RANDOM_DEGREE + 1)]) == 2
    assert capsys.readouterr().err.startswith("error[ValidationError]: max_degree:")


def test_cap_follows_from_the_deepest_product():
    # second-form-symmetric forms products of degree 3d + 4
    assert 3 * MAX_RANDOM_DEGREE + 4 <= MAX_DEGREE < 3 * (MAX_RANDOM_DEGREE + 1) + 4
    _, meta = build_workspace(dict(SPECS["euclidean"], max_degree=MAX_RANDOM_DEGREE))
    assert meta.max_degree == MAX_RANDOM_DEGREE


@pytest.fixture
def full_degree(monkeypatch):
    """Give every random polynomial a full-degree term, and record product degrees."""
    original = randgen.random_poly
    peak = [0]

    def worst(rng, ring, nvars, max_degree=2, max_terms=3):
        exps = (max_degree - max_degree // 2, max_degree // 2) + (0,) * (nvars - 2)
        top = Poly.from_dict(ring, nvars, {exps: ring.one()})
        return original(rng, ring, nvars, max_degree, max_terms) + top

    kernel = poly_module.sum_products

    def recording(ring, nvars, pairs, ideal=None):
        pairs = list(pairs)
        for a, b in pairs:
            if a.terms and b.terms:
                peak[0] = max(peak[0], a.total_degree() + b.total_degree())
        return kernel(ring, nvars, pairs, ideal)

    monkeypatch.setattr(randgen, "random_poly", worst)
    monkeypatch.setattr(suites, "random_poly", worst)
    # tensors and space reach sum_products through poly.quotient_sum, which reads poly's binding
    for module in (poly_module, hypersurface, suites):
        monkeypatch.setattr(module, "sum_products", recording)
    return peak


@pytest.mark.parametrize("label", sorted(SPECS))
def test_every_check_runs_at_the_cap(full_degree, label):
    ws, _ = build_workspace(SPECS[label])
    for name in applicable_checks(ws):
        [result] = run_checks(ws, [name], seed=5, max_degree=MAX_RANDOM_DEGREE, cases=2)
        assert result.status in ("pass", "skipped"), (name, result.detail)
    assert full_degree[0] <= MAX_DEGREE


def test_one_past_the_cap_overflows(full_degree):
    ws, _ = build_workspace(SPECS["sphere"])
    run_checks(ws, ["second-form-symmetric"], seed=5, max_degree=MAX_RANDOM_DEGREE, cases=2)
    # one full-degree monomial reaches 3d + 3; a dense top form reaches 3d + 4
    assert 3 * MAX_RANDOM_DEGREE + 3 <= full_degree[0] <= MAX_DEGREE
    with pytest.raises(DegreeOverflow):
        run_checks(ws, ["second-form-symmetric"], seed=5, max_degree=MAX_RANDOM_DEGREE + 1,
                   cases=2)


# specs whose metric or generator has degree above 2, with their derived caps
DERIVED = {
    # one-form Koszul checks reach 3d + 9; at 41 they overflowed inside a check
    "diag_x10": ({"ring": {"kind": "Q"}, "vars": ["x", "y"],
                  "metric": {"diag": ["x^10+1", "1"]}}, 35),
    # a diagonal metric counts its entry degree once, however many variables
    "diag_n6": ({"ring": {"kind": "Q"}, "vars": ["a", "b", "c", "d", "e", "f"],
                 "metric": {"diag": ["a^4+1", "b^4+2", "c^3+1", "1", "e^2+f^2+1", "2"]}}, 39),
    # G = L L^T with linear L, det G = 1: the second-kind symbols reach degree 5
    "dense_llt_n3": ({"ring": {"kind": "Q"}, "vars": ["x", "y", "z"],
                      "metric": {"matrix": [["1", "x", "y"], ["x", "x^2+1", "x*y+z"],
                                            ["y", "x*y+z", "y^2+z^2+1"]]}}, 37),
    # f = x^3 - x with witness q = 1 - 3/4 x^2: 1 - q<N, N> lies in (f)
    "cubic": ({"ring": {"kind": "Q"}, "vars": ["x", "y"],
               "quotient": {"generator": "x^3 - x", "q": "1 - 3/4*x^2"}}, 40),
}


def test_derived_caps():
    for label, (spec, cap) in DERIVED.items():
        assert degree_cap(build_workspace(spec)[0]) == cap, label
    # the specs above whose inputs have degree at most 2 keep MAX_RANDOM_DEGREE: the Koszul
    # metric [[x^2+1, x], [x, 1]] has det 1 and constant second-kind symbols
    for spec in SPECS.values():
        assert degree_cap(build_workspace(spec)[0]) == MAX_RANDOM_DEGREE


def test_cap_survives_a_registry_rebuilt_from_name_needs_and_runner(monkeypatch):
    # perfbench/tracing.install() rebuilds every row as type(spec)(name, needs, wrapped runner)
    spec = DERIVED["dense_llt_n3"][0]
    before = degree_cap(build_workspace(spec)[0])
    monkeypatch.setattr(suites, "REGISTRY", [type(row)(row.name, row.needs, row.runner)
                                             for row in suites.REGISTRY])
    assert degree_cap(build_workspace(spec)[0]) == before == 37


def test_cap_reads_the_connection_values_not_its_tables(monkeypatch):
    # Gamma^k_ij are the components of nabla_{X_i} X_j, so the cap asks the connection for
    # its n^2 basis values, one each, and for nothing else
    ws, _ = build_workspace(DERIVED["dense_llt_n3"][0])
    conn = ws.plain_connection
    calls = []
    value = KoszulConnection.__call__
    monkeypatch.setattr(KoszulConnection, "__call__",
                        lambda self, x, y: calls.append((x, y)) or value(self, x, y))
    assert degree_cap(ws) == 37
    assert ws.plain_connection is conn
    basis = ws.space.basis_fields()
    assert calls == [(x, y) for x in basis for y in basis]


def test_one_form_level_cap_comes_from_the_metric_alone():
    # diag(1, x^2 + 1): nabla_{X_1} X_2 = x/(x^2 + 1) X_2 is no polynomial field, so the
    # connection gives one-forms only, degree_cap asks it for no vector and g = 0
    ws, _ = build_workspace({"ring": {"kind": "Q"}, "vars": ["x", "y"],
                             "metric": {"diag": ["1", "x^2 + 1"]}})
    conn = ws.plain_connection
    assert one_form_valued(conn)
    basis = ws.space.basis_fields()
    with pytest.raises(MetricNotMusical):
        conn(basis[0], basis[1])
    for names in (["levi-civita"], ["connection-leibniz", "curvature-tensorial"], None):
        assert degree_cap(ws, names) == (MAX_DEGREE - 2 * 2) // 3 == MAX_RANDOM_DEGREE


def test_checks_that_read_no_metric_keep_the_cap():
    ws, _ = build_workspace(DERIVED["diag_x10"][0])
    free = ["anchor-compatibility", "differential-leibniz", "jacobi-identity", "pairing-duality"]
    assert degree_cap(ws, free) == MAX_RANDOM_DEGREE
    assert degree_cap(ws, free + ["metric-transfer"]) == 35
    # a 16-variable metric that is the identity but for x0^4+1 at (1, 1) and x1 at (1, 2)
    # and (2, 1): degree 4 costs the metric checks 3 degrees, whatever n is
    names = [f"x{i}" for i in range(16)]
    rows = [["1" if i == j else "0" for j in range(16)] for i in range(16)]
    rows[0][0], rows[0][1], rows[1][0] = "x0^4+1", "x1", "x1"
    ws, meta = build_workspace({"ring": {"kind": "Q"}, "vars": names,
                                "metric": {"matrix": rows}})
    assert meta.max_degree == 2
    assert degree_cap(ws, ["jacobi-identity"]) == MAX_RANDOM_DEGREE
    assert degree_cap(ws, ["levi-civita", "metric-transfer"]) == 39


def test_high_degree_metric_refuses_max_degree_past_its_cap(tmp_path, capsys):
    spec = dict(DERIVED["diag_x10"][0], max_degree=MAX_RANDOM_DEGREE,
                checks=["levi-civita", "connection-leibniz", "metric-transfer"])
    assert main(["check", write(tmp_path, spec)]) == 2
    assert capsys.readouterr().err.startswith("error[ValidationError]: max_degree: "
                                              "must be an integer in 1..35")
    assert main(["check", write(tmp_path, dict(spec, max_degree=35))]) == 0
    assert main(["check", write(tmp_path, spec), "--max-degree", "36"]) == 2
    assert capsys.readouterr().err.startswith("error[ValidationError]: max_degree: "
                                              "must be an integer in 1..35")
    # checks that read no metric run at 41 on the same spec
    free = dict(spec, checks=["jacobi-identity", "pairing-duality"])
    assert main(["check", write(tmp_path, free)]) == 0
    huge = dict(spec, metric={"matrix": [["x^64+1", "x"], ["x", "1"]]}, max_degree=1)
    assert main(["check", write(tmp_path, huge)]) == 2
    assert capsys.readouterr().err.startswith("error[ValidationError]: max_degree:")
    # the cap belongs to `check`: the spec itself builds for the other commands
    assert build_workspace(spec)[1].max_degree == MAX_RANDOM_DEGREE


@pytest.mark.parametrize("label", sorted(DERIVED))
def test_every_check_runs_at_the_derived_cap(full_degree, label):
    ws, _ = build_workspace(DERIVED[label][0])
    for name in applicable_checks(ws):
        [result] = run_checks(ws, [name], seed=5, max_degree=degree_cap(ws), cases=2)
        assert result.status in ("pass", "skipped"), (name, result.detail)
    assert full_degree[0] <= MAX_DEGREE


def test_musical_roundtrip_is_capped_by_the_adjugate(full_degree):
    # G = U U^T with U = I + sum_i x_i^3 E_(i, i+1) on 16 variables: det G = 1, entries of
    # degree 6 and adj(G) of degree 90, so sharp(flat X) reaches d + 96
    n = 16
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = f"1+x{i}^6" if i < n - 1 else "1"
        if i < n - 1:
            rows[i][i + 1] = rows[i + 1][i] = f"x{i}^3"
    ws, _ = build_workspace({"ring": {"kind": "Q"}, "vars": [f"x{i}" for i in range(n)],
                             "metric": {"matrix": rows}})
    assert degree_cap(ws, ["metric-transfer"]) == 38
    assert degree_cap(ws, ["musical-roundtrip"]) == MAX_DEGREE - 6 - 90 == 31
    [result] = run_checks(ws, ["musical-roundtrip"], seed=5, max_degree=31, cases=2)
    assert result.status == "pass" and full_degree[0] <= MAX_DEGREE
    with pytest.raises(DegreeOverflow):
        run_checks(ws, ["musical-roundtrip"], seed=5, max_degree=MAX_RANDOM_DEGREE, cases=2)
