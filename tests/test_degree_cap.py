"""The max_degree cap: rejected above it, and no DegreeOverflow at it.

At the cap every random polynomial gets a term of full degree, which is
the worst case for the degree of every product a check forms.
"""

import json

import pytest

import rinehart.hypersurface as hypersurface
import rinehart.poly as poly_module
import rinehart.randgen as randgen
import rinehart.space as space
import rinehart.suites as suites
import rinehart.tensors as tensors
from rinehart import DegreeOverflow, Poly
from rinehart.cli import build_workspace, main
from rinehart.poly import MAX_DEGREE
from rinehart.suites import MAX_RANDOM_DEGREE, applicable_checks, run_checks

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

    def recording(ring, nvars, pairs):
        pairs = list(pairs)
        for a, b in pairs:
            if a.terms and b.terms:
                peak[0] = max(peak[0], a.total_degree() + b.total_degree())
        return kernel(ring, nvars, pairs)

    monkeypatch.setattr(randgen, "random_poly", worst)
    monkeypatch.setattr(suites, "random_poly", worst)
    for module in (poly_module, tensors, space, hypersurface, suites):
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
