"""`rinehart check` on arbitrary JSON and on spec-shaped JSON.

Whatever the file holds, `main(["check", path])` must return 0, 1 or 2,
write no traceback, and finish within TIME_BOUND seconds.  Spec-shaped
inputs keep at most 3 variables and max_degree at most 3: larger values
wait for a cap on `vars` in the spec schema (ROADMAP item 5), without
which a valid spec can ask for arbitrarily much work.
"""

import contextlib
import io
import json
import time
import traceback

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rinehart.cli import main
from rinehart.suites import CHECK_NAMES

TIME_BOUND = 30.0  # seconds per input

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)

valid_texts = st.sampled_from([
    "0", "1", "2", "-1", "1/2", "3/4", "x", "y", "z", "al", "x+1", "x^2+1", "x*y", "1+al",
    "x^2+y^2-1", "x^2 + y^2 + z^2 - 1", "3*x^2 - y", "y^2+1", "x*z - 2"])
poly_texts = valid_texts | valid_texts | st.sampled_from(
    ["(x", "x^", "1/0", "x^200", "w", "", "x**2"]) | st.text(alphabet="xyz0123456789+-*^()/ al",
                                                           max_size=10)

rings = st.sampled_from([
    {"kind": "Q"}, {"kind": "Fp", "p": 2}, {"kind": "Fp", "p": 3}, {"kind": "Fp", "p": 7},
    {"kind": "quad", "base": {"kind": "Q"}, "s": -1},
    {"kind": "quad", "base": {"kind": "Q"}, "s": 1},
    {"kind": "quad", "base": {"kind": "Fp", "p": 3}, "s": -1},
    {"kind": "quad", "base": {"kind": "Q"}, "s": 1.0},
    {"kind": "quad", "base": {"kind": "Fp", "p": 7}, "s": -1.0},
    {"kind": "quad", "base": {"kind": "Q"}, "s": True},
    {"kind": "Fp", "p": 4}, {"kind": "R"}])

var_lists = st.sampled_from([["x"], ["x", "y"], ["x", "y", "z"], ["y", "x"], ["u", "v"],
                             ["x", "x"], ["al"], ["1x"], [""], []])


@st.composite
def matrices(draw, n):
    """n x n entries, symmetric unless a mirrored entry is redrawn."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(poly_texts)
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(poly_texts)
    return rows


def junk_or(draw, values):
    """A draw from values, or arbitrary JSON one time in eight."""
    return draw(json_values) if draw(st.integers(0, 7)) == 5 else draw(values)


@st.composite
def specs(draw):
    """Mostly well-formed specs, with some fields drawn from arbitrary JSON."""
    names = draw(var_lists)
    n = len(names)
    spec = {"ring": junk_or(draw, rings), "vars": junk_or(draw, st.just(names))}
    optional = {
        "schema_version": st.just(1),
        "metric": st.one_of(
            st.just("euclidean"),
            st.fixed_dictionaries({"diag": st.lists(poly_texts, min_size=n, max_size=n)}),
            st.fixed_dictionaries({"matrix": matrices(n)})),
        "quotient": st.one_of(
            st.fixed_dictionaries({"sphere": st.fixed_dictionaries({"c": st.sampled_from(
                ["1", "2", "-1", "1/2", "al"]) | poly_texts})}),
            st.fixed_dictionaries({"generator": poly_texts, "q": poly_texts})),
        "checks": st.lists(st.sampled_from(CHECK_NAMES + ["bogus"]), min_size=1, max_size=3),
        "seed": st.integers(-1, 10 ** 20) | st.booleans(),
        "max_degree": st.integers(-1, 3) | st.booleans(),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            spec[key] = junk_or(draw, values)
    return spec


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


def check_file(path, text):
    """Run `check` on a file holding text; return (exit code, stderr, seconds)."""
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["check", str(path)])
        except Exception:  # an escaped exception is a traceback on the console
            traceback.print_exc()
            code = None
    return code, err.getvalue(), time.perf_counter() - start


def assert_contract(code, err, seconds):
    assert "Traceback" not in err, err
    assert code in (0, 1, 2), err
    assert code != 2 or err.startswith("error["), err
    assert seconds < TIME_BOUND


@given(value=json_values)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_arbitrary_json(spec_path, value):
    assert_contract(*check_file(spec_path, json.dumps(value)))


@given(spec=specs())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_spec_shaped_json(spec_path, spec):
    assert_contract(*check_file(spec_path, json.dumps(spec)))


@pytest.mark.parametrize("text", ["", "{", "[1, 2", "\x00", "{\"ring\": NaN}", "1e999999"])
def test_malformed_files(spec_path, text):
    assert_contract(*check_file(spec_path, text))
