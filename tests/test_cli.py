"""CLI: spec validation, command output, exit codes, determinism."""

import hashlib
import json
import pathlib
import time

import pytest

from rinehart import InducedConnection, is_tangent, parse_poly
from rinehart import cli
from rinehart.cli import main
from rinehart.parse import parse_vector
from rinehart.rings import Rationals, set_field
from rinehart.suites import CHECK_NAMES

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"


def write_spec(tmp_path, body, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


BASE = {
    "schema_version": 1,
    "ring": {"kind": "Q"},
    "vars": ["x", "y"],
    "metric": "euclidean",
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validation


def test_rejects_composite_prime(tmp_path, capsys):
    spec = dict(BASE, ring={"kind": "Fp", "p": 6})
    code, out, err = run(capsys, ["check", write_spec(tmp_path, spec)])
    assert code == 2
    assert err.startswith("error[ValidationError]: ring:")


def test_rejects_non_unit_sphere_constant(tmp_path, capsys):
    spec = dict(BASE, vars=["x", "y", "z"], quotient={"sphere": {"c": "0"}})
    code, out, err = run(capsys, ["check", write_spec(tmp_path, spec)])
    assert code == 2
    assert err.startswith("error[ValidationError]: quotient.sphere.c:")


def test_rejects_char_two_sphere(tmp_path, capsys):
    spec = dict(BASE, ring={"kind": "Fp", "p": 2},
                quotient={"sphere": {"c": "1"}})
    code, _, err = run(capsys, ["check", write_spec(tmp_path, spec)])
    assert code == 2
    assert err.startswith("error[ValidationError]: ring: sphere construction divides by 2")


def test_rejects_a_sphere_over_a_char_two_extension(tmp_path, capsys):
    # F_2(al) is not F_2, but 2 = 0 there too: make_sphere raises TwoNotAUnit, read as `ring`
    spec = dict(BASE, ring={"kind": "quad", "base": {"kind": "Fp", "p": 2}, "s": 1},
                vars=["x", "y", "z"], quotient={"sphere": {"c": "1"}})
    code, out, err = run(capsys, ["check", write_spec(tmp_path, spec)])
    assert (code, out) == (2, "")
    assert err.startswith("error[ValidationError]: ring: sphere construction divides by 2")


@pytest.mark.parametrize("c, message", [
    ("1", "vars: a sphere quotient needs at least two variables"),
    ("1/", "quotient.sphere.c:"),              # c is parsed before the variable count is read
])
def test_rejects_one_variable_sphere(tmp_path, capsys, c, message):
    spec = dict(BASE, vars=["x"], quotient={"sphere": {"c": c}})
    code, out, err = run(capsys, ["check", write_spec(tmp_path, spec)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error[ValidationError]: {message}")


def test_rejects_bad_vars(tmp_path, capsys):
    for vars_ in (["x", "x"], ["al"], ["2x"], []):
        spec = dict(BASE, vars=vars_)
        code, _, err = run(capsys, ["check", write_spec(tmp_path, spec)])
        assert code == 2
        assert err.startswith("error[ValidationError]: vars:")


def test_rejects_unknown_check_names(tmp_path, capsys):
    spec = dict(BASE, checks=["no-such-check"])
    code, _, err = run(capsys, ["check", write_spec(tmp_path, spec)])
    assert code == 2
    assert "unknown checks" in err


# keys outside their object's known keys, each with the field its message names
UNKNOWN_KEYS = [
    ({"metirc": {"diag": ["1", "-1"]}}, "spec"),
    ({"quotient": {"sphere": {"c": "1"}, "q": "5"}}, "quotient"),
    ({"quotient": {"sphere": {"c": "1", "q": "5"}}}, "quotient.sphere"),
    ({"ring": {"kind": "Fp", "p": 7, "s": -1}}, "ring"),
    ({"ring": {"kind": "Q", "p": 5}}, "ring"),
    ({"ring": {"kind": "quad", "base": {"kind": "Q", "s": 1}, "s": -1}}, "ring.base"),
    ({"metric": {"diag": ["1", "1"], "scale": "2"}}, "metric"),
]


@pytest.mark.parametrize("fields", [
    {"metric": {"diag": 3}},
    {"metric": {"diag": [1, 2]}},
    {"metric": {"matrix": 3}},
    {"metric": {"matrix": [1, 2]}},
    {"metric": {"matrix": [[1, 0], [0, 1]]}},
    {"quotient": {"generator": 5, "q": "1"}},
    {"quotient": {"generator": "x^2 + y^2 - 1", "q": 1}},
    {"seed": True},
    {"max_degree": True},
    {"ring": {"kind": "quad", "base": {"kind": "Q"}, "s": 1.0}},
    {"ring": {"kind": "quad", "base": {"kind": "Fp", "p": 7}, "s": -1.0}},
    {"ring": {"kind": "quad", "base": {"kind": "Q"}, "s": True}},
    {"metric": {"diag": ["1", "1"], "matrix": [["1", "0"], ["0", "1"]]}},
    {"quotient": {"sphere": {"c": "1"}, "generator": "x^2 + y^2 - 1", "q": "1/4"}},
] + [fields for fields, _ in UNKNOWN_KEYS])
def test_rejects_malformed_field_types(tmp_path, capsys, fields):
    code, _, err = run(capsys, ["check", write_spec(tmp_path, dict(BASE, **fields))])
    assert code == 2
    assert err.startswith("error[ValidationError]")
    assert "Traceback" not in err
    named = next((name for case, name in UNKNOWN_KEYS if case == fields), None)
    assert named is None or err.startswith(f"error[ValidationError]: {named}: unknown key ")


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}", b"[" * 200_000 + b"]" * 200_000,
    # past the interpreter's int-string limit of 4,300 digits, which json.load refuses
    b'{"ring": {"kind": "Q"}, "vars": ["x"], "seed": ' + b"9" * 5000 + b"}",
], ids=["not-utf8", "nested-200000-deep", "seed-5000-digits"])
def test_an_unreadable_spec_file_exits_two(tmp_path, capsys, content):
    path = tmp_path / "space.json"
    path.write_bytes(content)
    code, out, err = run(capsys, ["check", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error[ValidationError]: spec: ")
    assert "Traceback" not in err


def test_zero_determinant_metric_skips_instead_of_dividing_by_zero(tmp_path, capsys):
    path = write_spec(tmp_path, dict(BASE, vars=["x"], metric={"diag": ["0"]}))
    code, out, err = run(capsys, ["check", path])
    assert code == 0 and "Traceback" not in err
    assert "SKIP  musical-roundtrip" in out
    code, _, err = run(capsys, ["connection", path, "--x", "x", "--y", "x"])
    assert code == 2 and err.startswith("error[MetricNotMusical]")


def test_checks_without_a_connection_or_a_sphere_skip(tmp_path, capsys):
    path = write_spec(tmp_path, dict(BASE, ring={"kind": "Fp", "p": 2},
                                     metric={"diag": ["1", "x"]}))
    code, out, err = run(capsys, ["check", path, "--json"])
    assert (code, err) == (0, "")
    skipped = {c["name"] for c in json.loads(out)["checks"]
               if c["detail"] == "2 is not a unit, no connection available"}
    assert skipped == {"connection-leibniz", "curvature-tensorial", "levi-civita"}
    code, out, err = run(capsys, ["connection", path, "--x", "1, 0", "--y", "0, 1"])
    assert (code, out) == (2, "")
    assert err.startswith("error[TwoNotAUnit]:")
    # the Euclidean metric has its componentwise connection, but no Koszul one to compare
    path = write_spec(tmp_path, dict(BASE, ring={"kind": "Fp", "p": 2},
                                     checks=["koszul-flat-agreement", "space-form"]))
    code, out, err = run(capsys, ["check", path, "--json"])
    assert (code, err) == (0, "")
    assert [(c["status"], c["detail"]) for c in json.loads(out)["checks"]] == [
        ("skipped", "2 is not a unit"), ("skipped", "needs a sphere quotient with known c")]


def test_rejects_asymmetric_matrix(tmp_path, capsys):
    spec = dict(BASE, metric={"matrix": [["1", "x"], ["0", "1"]]})
    code, _, err = run(capsys, ["check", write_spec(tmp_path, spec)])
    assert code == 2
    assert err.startswith("error[ValidationError]: metric:")


def test_rejects_bad_witness(tmp_path, capsys):
    spec = dict(BASE, quotient={"generator": "x^2 + y^2 - 1", "q": "2"})
    code, _, err = run(capsys, ["check", write_spec(tmp_path, spec)])
    assert code == 2
    assert err.startswith("error[ValidationError]: quotient:")


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, ["check", "/nonexistent/spec.json"])
    assert code == 2
    assert err.startswith("error[ValidationError]: spec:")


def test_parse_error_in_vector_argument(capsys):
    code, _, err = run(capsys, ["gradient", str(SPECS / "euclidean_q_n2.json"),
                                "--f", "x +"])
    assert code == 2
    assert err.startswith("error[ParseError]:")


# ---------------------------------------------------------------------------
# computations


def test_gradient_command(capsys):
    code, out, _ = run(capsys, ["gradient", str(SPECS / "euclidean_q_n2.json"),
                                "--f", "x^2"])
    assert code == 0
    assert out == "[2*x, 0]\n"


def test_gradient_command_json(capsys):
    code, out, _ = run(capsys, ["gradient", str(SPECS / "euclidean_q_n2.json"),
                                "--f", "x*y", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == ["y", "x"]
    assert payload["schema_version"] == 1
    assert payload["command"] == "gradient"


def test_connection_command_flat(capsys):
    code, out, _ = run(capsys, ["connection", str(SPECS / "euclidean_q_n2.json"),
                                "--x", "1, 0", "--y", "x^2, 0"])
    assert code == 0
    assert out == "[2*x, 0]\n"


def test_connection_command_sphere(capsys):
    # nabla_{Y1}Y2 = -y*Y1 = (-y^3, x*y^2) on the circle... here n=3 sphere
    code, out, _ = run(capsys, ["connection", str(SPECS / "sphere_q_n3.json"),
                                "--x", "1 - x^2, -x*y, -x*z",
                                "--y", "-x*y, 1 - y^2, -y*z"])
    assert code == 0
    sp_out = out.strip()
    assert sp_out.startswith("[") and sp_out.endswith("]")


def test_connection_command_koszul_non_musical(tmp_path, capsys):
    # diag(1, x^2 + 1) is not musical, but this value solves exactly:
    # form = (-x^3*y, (x^2 + 1)*x^2) from Gamma_22,1 = -x and X(Y^2) = x^2
    spec = dict(BASE, metric={"diag": ["1", "x^2 + 1"]})
    code, out, err = run(capsys, ["connection", write_spec(tmp_path, spec), "--json",
                                  "--x", "0, x", "--y", "0, x*y"])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == ["-x^3*y", "x^2"]


def test_connection_rejects_non_tangent_on_sphere(capsys):
    code, _, err = run(capsys, ["connection", str(SPECS / "sphere_q_n3.json"),
                                "--x", "x, y, z", "--y", "1 - x^2, -x*y, -x*z"])
    assert code == 2
    assert err.startswith("error[NotTangent]:")


def test_a_non_tangent_connection_value_fails_its_check_and_the_report_is_printed(
        monkeypatch, capsys):
    # with the Weingarten term dropped, values of the induced connection leave the tangent
    # bundle; the checks that feed them back into the connection fail, and every check
    # still reports
    build = cli.build_workspace

    def planted(spec):
        ws, meta = build(spec)
        set_field(ws.hyper, "hessian", ())
        return ws, meta

    monkeypatch.setattr(cli, "build_workspace", planted)
    sphere = str(SPECS / "sphere_q_n3.json")
    code, out, err = run(capsys, ["check", sphere, "--json", "--seed", "7"])
    assert (code, err) == (1, "")
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == sorted(CHECK_NAMES)
    raised = [c for c in checks if c["detail"].endswith("is not tangent to the hypersurface")]
    assert {c["name"] for c in raised} >= {"curvature-tensorial", "space-form"}
    ws, _ = planted(cli.load_spec(sphere))
    space = ws.hyper.quotient
    for c in raised:
        ce = c["counterexample"]
        assert c["status"] == "fail" and set(ce) == {"argument", "field"}
        assert c["detail"].startswith(f"field {ce['argument']!r} ")
        field = space.field(parse_vector(ce["field"][1:-1], space.ring, space.var_names))
        assert not is_tangent(ws.hyper, field)
    # a non-tangent field given by the user is still bad input
    code, _, err = run(capsys, ["curvature", sphere, "--x", "x, y, z",
                                "--y", "1 - x^2, -x*y, -x*z", "--z", "1 - x^2, -x*y, -x*z"])
    assert code == 2 and err.startswith("error[NotTangent]:")


def test_curvature_command(capsys):
    code, out, _ = run(capsys, ["curvature", str(SPECS / "euclidean_q_n2.json"),
                                "--x", "x, y", "--y", "y^2, 0", "--z", "0, x"])
    assert code == 0
    assert out == "[0, 0]\n"


def test_project_command(capsys):
    code, out, _ = run(capsys, ["project", str(SPECS / "sphere_q_n3.json"),
                                "--x", "1, 0, 0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("tangent = [")
    assert lines[1].startswith("normal  = [")
    # projection of X1: tangent part (1 - x^2, -x*y, -x*z)
    assert "-x*y" in lines[0]


def test_project_requires_quotient(capsys):
    code, _, err = run(capsys, ["project", str(SPECS / "euclidean_q_n2.json"),
                                "--x", "1, 0"])
    assert code == 2
    assert err.startswith("error[ValidationError]: quotient:")


def test_space_form_command(capsys):
    code, out, _ = run(capsys, ["space-form", str(SPECS / "sphere_q_n3.json")])
    assert code == 0
    assert "PASS" in out


def test_space_form_mismatched_c_fails(capsys):
    code, out, _ = run(capsys, ["space-form", str(SPECS / "sphere_q_n3.json"),
                                "--c", "2"])
    assert code == 1
    assert "FAIL" in out


# x^2 + y^2 - z^2 = 1 under diag(1, 1, -1): de Sitter space, a generator quotient of curvature 1
DE_SITTER = dict(BASE, vars=["x", "y", "z"], metric={"diag": ["1", "1", "-1"]},
                 quotient={"generator": "x^2 + y^2 - z^2 - 1", "q": "1/4"})


@pytest.mark.parametrize("spec, flags", [
    (DE_SITTER, ["--c", "1"]),
    (DE_SITTER, ["--c", "-1"]),
    (str(SPECS / "euclidean_q_n2.json"), []),
])
def test_space_form_refuses_non_sphere_specs(tmp_path, capsys, spec, flags):
    # the sphere identities delta_ij - c x_i x_j hold on spheres only, whatever --c says
    path = spec if isinstance(spec, str) else write_spec(tmp_path, spec)
    code, out, err = run(capsys, ["space-form", path, "--json"] + flags)
    assert (code, out) == (2, "")
    assert err.startswith("error[ValidationError]: quotient:")


def test_space_form_reports_a_planted_curvature_bug(capsys, monkeypatch):
    # a connection off by a factor of 2 keeps the induced metric, so only curvature fails
    original = InducedConnection.__call__
    monkeypatch.setattr(InducedConnection, "__call__",
                        lambda self, x, y: original(self, x, y) + original(self, x, y))
    code, out, _ = run(capsys, ["space-form", str(SPECS / "sphere_q_n3.json"), "--json"])
    assert code == 1
    (entry,) = json.loads(out)["checks"]
    assert entry["detail"] == "constant curvature identity fails"
    assert entry["counterexample"]["triple"] == "(1, 2, 1)"


def test_spanning_flag(capsys):
    code, out, _ = run(capsys, ["space-form", str(SPECS / "sphere_q_n3.json"),
                                "--spanning"])
    assert code == 0
    assert out.splitlines()[0].startswith("Y1 = [")


# ---------------------------------------------------------------------------
# check command and reports


def test_check_selected_checks_json(tmp_path, capsys):
    spec = dict(BASE, checks=["pairing-duality", "jacobi-identity"])
    code, out, _ = run(capsys, ["check", write_spec(tmp_path, spec), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"schema_version", "checks", "engine_version"}
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)
    assert all(c["status"] == "pass" for c in payload["checks"])
    for entry in payload["checks"]:
        assert set(entry) == {"name", "status", "detail", "counterexample"}


def test_check_runs_all_applicable_by_default(tmp_path, capsys):
    spec = dict(BASE)
    code, out, _ = run(capsys, ["check", write_spec(tmp_path, spec), "--json"])
    assert code == 0
    payload = json.loads(out)
    names = {c["name"] for c in payload["checks"]}
    assert "pairing-duality" in names
    assert "space-form" not in names          # no quotient in this spec
    assert names <= set(CHECK_NAMES)


def test_check_json_byte_determinism(capsys):
    argv = ["check", str(SPECS / "sphere_q_n3.json"), "--json", "--seed", "7"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert '"schema_version": 1' in out1


def test_check_human_output_has_timing(tmp_path, capsys):
    spec = dict(BASE, checks=["pairing-duality"])
    code, out, _ = run(capsys, ["check", write_spec(tmp_path, spec)])
    assert code == 0
    assert "PASS" in out and "s)" in out
    assert out.rstrip().endswith("1 passed, 0 failed, 0 skipped")


def test_printed_polynomials_reparse(capsys):
    code, out, _ = run(capsys, ["project", str(SPECS / "sphere_q_n3.json"),
                                "--x", "x^2, -y, 1/2", "--json"])
    assert code == 0
    payload = json.loads(out)
    ring = Rationals()
    for part in ("tangent", "normal"):
        for text in payload["result"][part]:
            parse_poly(text, ring, ("x", "y", "z"))


def test_seed_changes_nothing_on_pass_fail_but_is_respected(tmp_path, capsys):
    spec = dict(BASE, checks=["jacobi-identity"])
    path = write_spec(tmp_path, spec)
    _, out5, _ = run(capsys, ["check", path, "--json", "--seed", "5"])
    _, out6, _ = run(capsys, ["check", path, "--json", "--seed", "6"])
    assert json.loads(out5)["checks"][0]["status"] == "pass"
    assert json.loads(out6)["checks"][0]["status"] == "pass"


def test_check_flags_go_through_the_spec_validation(tmp_path, capsys):
    path = write_spec(tmp_path, dict(BASE, checks=["jacobi-identity"]))
    code, out, err = run(capsys, ["check", path, "--seed", "-3"])
    assert (code, out) == (2, "")
    assert err.startswith("error[ValidationError]: seed:")


@pytest.mark.parametrize("argv", [
    ["gradient", "--f", "x", "--max-degree", "999"],
    ["connection", "--x", "1, 0", "--y", "0, 1", "--seed", "3"],
    ["project", "--x", "1, 0", "--spanning"],
    ["space-form", "--max-degree", "2"],
])
def test_commands_take_only_the_flags_they_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + [write_spec(tmp_path, BASE)] + argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# the expected exit code of a golden report, where it is not 0
GOLDEN_EXIT = {"34659018c4266e1753d032f148cc236a5e56cf83731a12a12bb137062542bd2b": 1}


@pytest.mark.parametrize("argv, digest", [
    (["check", str(SPECS / "euclidean_q_n2.json"), "--json", "--seed", "7"],
     "ff1b8b2288ccce024eb9ea47cca0f4f90d9f90ce4d58c018c289b21db196c8c5"),
    (["space-form", str(SPECS / "sphere_q_n3.json"), "--json", "--spanning"],
     "44d871376edf9d9a1df92073115a4f2350318088a4798e4aef64fd8d0b7334ac"),
    (["check", str(SPECS / "sphere_q_n3.json"), "--json", "--seed", "7"],
     "2854897acc529b93bea6a1f5f8f2bb248e0a103f2ee686b80bdeebf7703c8fef"),
    (["check", str(SPECS / "sphere_f7_n3.json"), "--json", "--seed", "7"],
     "378c4e8d4b2cd4e0adeee4396dbd834a16bdf64f4e40cc923a7df52223c9d479"),
    (["check", str(SPECS / "pseudosphere_quad.json"), "--json", "--seed", "7"],
     "6f83e42cf121bac11e5ac70a09244c777115a8fb7cf45382843b4c42d64d1724"),
    (["space-form", str(SPECS / "sphere_q_n3.json"), "--c", "2"],
     "34659018c4266e1753d032f148cc236a5e56cf83731a12a12bb137062542bd2b"),
])
def test_reports_match_golden_digests(capsys, argv, digest):
    # sha256 of the reports of the kernel before packed keys; the failing space-form --c 2
    # report as it prints since its counterexample names the failed identity only in the detail
    code, out, err = run(capsys, argv)
    assert (code, err) == (GOLDEN_EXIT.get(digest, 0), "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


GENERATOR_OVER_G = dict(BASE, metric={"matrix": [["2", "1"], ["1", "1"]]},
                        quotient={"generator": "2*x^2 + 2*x*y + y^2 - 1", "q": "1/4"})


@pytest.mark.parametrize("argv, digest", [
    (["check", "--json", "--seed", "7"],
     "1b86f931c900e13a5d0b78c7ef2a3951265f9365bb77b8ac37a1e928d35f22cc"),
    (["project", "--json", "--x", "1, 0"],
     "0bdb60d788a0a2183c268287f52f49b98aa7286c1b16296856371773d84dd475"),
])
def test_generator_quotient_over_a_constant_metric_matches_golden_digests(
        tmp_path, capsys, argv, digest):
    # N = G^-1 df = (2x, 2y) here, so the normal part pairs with G != I; 16 checks pass, 2 skip
    path = write_spec(tmp_path, GENERATOR_OVER_G)
    code, out, err = run(capsys, argv[:1] + [path] + argv[1:])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the Koszul metric of CI's pinned `connection` lines: G = L L^T with L = [[1, x], [0, 1]]
KOSZUL_METRIC = dict(BASE, metric={"matrix": [["x^2 + 1", "x"], ["x", "1"]]})
# the field commands' operands on each spec; T = (2x + 2y, -4x - 2y) is tangent to
# 2x^2 + 2xy + y^2 = 1, and the rotations -y X1 + x X2, ... to the sphere
TANGENT = "2*x + 2*y, -4*x - 2*y"
FIELD_ARGS = {
    "sphere": {"connection": ["--x", "-y, x, 0", "--y", "0, -z, y"],
               "curvature": ["--x", "-y, x, 0", "--y", "0, -z, y", "--z", "z, 0, -x"],
               "gradient": ["--f", "x*y + z"], "project": ["--x", "1, 0, 0"]},
    "generator": {"connection": ["--x", TANGENT, "--y", "x*y*(2*x + 2*y), -x*y*(4*x + 2*y)"],
                  "curvature": ["--x", TANGENT, "--y", TANGENT, "--z", TANGENT],
                  "gradient": ["--f", "x*y"], "project": ["--x", "1, y"]},
    "koszul": {"connection": ["--x", "x, y", "--y", "y, x^2"],
               "curvature": ["--x", "1, 0", "--y", "0, 1", "--z", "x, 1"],
               "gradient": ["--f", "x*y"]},
}


@pytest.mark.parametrize("spec, command, as_json, digest", [
    ("sphere", "connection", False,
     "10e15312117342bff54f9b9205615baffdc12a5458d31163a027211b90cbcfa6"),
    ("sphere", "connection", True,
     "ef8cd60807279f42e59f0e76e0ef55955dd6083f7a26dca0f205c62cd62a6b8f"),
    ("sphere", "curvature", False,
     "4e8d038d3359400322c9cb380114edbc38a2eb33f69058ae0ef0fb2cccdef02a"),
    ("sphere", "curvature", True,
     "a29e048772a7200a2de9adfc4f48a392f6c65c3f1605801556c8d8d0658b3e8a"),
    ("sphere", "gradient", False,
     "2919e2f36ad4064e1e232cf1135da077fd8c3db5fe9b0fc70a14c303465d2ee0"),
    ("sphere", "gradient", True,
     "1375eef084bbeb9292986ab0c3ea904f0c9e2a91f869fff9d65ff2a4505b2c9f"),
    ("sphere", "project", False,
     "148608bd3395baaed7ba0fc7b276908130de7c79816a33d0c1ad2da1d4423442"),
    ("sphere", "project", True, "d52c6f5268ea9463e137b64dd361ef5228f820c388f4b412841f7dfd9a5dc798"),
    ("generator", "connection", False,
     "9194857a7beeb32d31d29de30a36e8da25686c8108770293408d38296e645b6c"),
    ("generator", "connection", True,
     "7a9ef8974ca95e33421229a96d9992cf8311dd7bb255109a58816141c24d11e1"),
    ("generator", "curvature", False,
     "7211ad359c55dcd75c38c53c5da3fe7c80724fec884b8ac9042a261f3e14caa4"),
    ("generator", "curvature", True,
     "0ba6ea23a3a9a59773b6b24e40ce97c8d1a9c9a29a204ac6407440ca06e5ff4f"),
    ("generator", "gradient", False,
     "76f58736014054c85310a06d3b4b1cf772693bed400c025713d4fe24aeb4693b"),
    ("generator", "gradient", True,
     "e8cee5c48416428e03b4c27dece7d2b7d5b369ae87a660282d966f2c58ceb0f8"),
    ("generator", "project", False,
     "d50f1fc6f994a7a1c7402f971e04b8f194b126acca3204dc9512224a1a5fdf4f"),
    ("generator", "project", True,
     "6f70c5745063c6c1f1167683ef6bffc6841da5de45db3d9c1043a526e70c04c2"),
    ("koszul", "connection", False,
     "6fc0515a061870d7209645b9f5e3f656fc8b819a5a00dae76f95a1be482876f6"),
    ("koszul", "connection", True,
     "91b9cb96350b3f85e7a5ac55567ff704819fa3a36e92a1d2778edb2ee3ebd1c1"),
    ("koszul", "curvature", False,
     "7211ad359c55dcd75c38c53c5da3fe7c80724fec884b8ac9042a261f3e14caa4"),
    ("koszul", "curvature", True,
     "0ba6ea23a3a9a59773b6b24e40ce97c8d1a9c9a29a204ac6407440ca06e5ff4f"),
    ("koszul", "gradient", False,
     "33a3236ef703635ddfbaae16c2199672ea59f7f73b401d071f6b09fd6f274c3a"),
    ("koszul", "gradient", True,
     "e4127062ba5eac7c799857f43d3ef572f2d51368d2068efec33a10fd79807130"),
])
def test_field_commands_match_golden_digests(tmp_path, capsys, spec, command, as_json, digest):
    # sha256 of the exact stdout of each field command, text and JSON, before the commands
    # shared one operand parser and one field writer
    path = {"sphere": str(SPECS / "sphere_q_n3.json"),
            "generator": write_spec(tmp_path, GENERATOR_OVER_G),
            "koszul": write_spec(tmp_path, KOSZUL_METRIC, "koszul.json")}[spec]
    argv = [command, path] + ["--json"] * as_json + FIELD_ARGS[spec][command]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_de_sitter_check_matches_golden_digest(tmp_path, capsys):
    # the first pinned generator quotient over an indefinite metric; 16 checks pass, 2 skip
    code, out, err = run(capsys, ["check", write_spec(tmp_path, DE_SITTER), "--json",
                                  "--seed", "7"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "359899c772dc916fed13cea1fd8449b939155435b552d6908211382fd9aeaa3b"


# three lines x = -1, 0, 1 in K^2: 1 - q<N, N> lies in (x^3 - x) with q = 1 - 3/4 x^2
CUBIC = dict(BASE, quotient={"generator": "x^3 - x", "q": "1 - 3/4*x^2"})


def test_cubic_generator_check_matches_golden_digest(tmp_path, capsys):
    # the first pinned report whose Hessian is not constant, Hess f = diag(6x, 0); 18 checks
    code, out, err = run(capsys, ["check", write_spec(tmp_path, CUBIC), "--json", "--seed", "7"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b4869625b65c3cce50d3abf9097c8afee4530dddc14c590b8d8143ab51164274"


# G = L L^T with L unit lower bidiagonal, linear below the diagonal (the koszul-metric
# shape): det G = 1 and Koszul symbols that are not constant
LOWER_GRAM = dict(BASE, vars=["x", "y", "z"], metric={"matrix": [
    ["1", "(2*y - 1)", "0"],
    ["(2*y - 1)", "(2*y - 1)*(2*y - 1) + 1", "(-z + 1)"],
    ["0", "(-z + 1)", "(-z + 1)*(-z + 1) + 1"]]})
# det = x^2 + 1 is no unit: connection-leibniz and levi-civita run at the one-form level
FORM_LEVEL = dict(BASE, metric={"diag": ["1", "x^2 + 1"]})


@pytest.mark.parametrize("spec, digest", [
    (LOWER_GRAM, "e71014da40b2c8469883784e3ed2b7acbe9b8f70820f1c82e75ca805bcf91f69"),
    (FORM_LEVEL, "ba725f11838a8ac56a04447cfd32106ec20f12bbc8d1bffa67244f47756f4f88"),
], ids=["lower-gram", "form-level"])
def test_non_constant_metric_reports_match_golden_digests(tmp_path, capsys, spec, digest):
    code, out, err = run(capsys, ["check", write_spec(tmp_path, spec), "--json", "--seed", "7"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    details = {c["name"]: c["detail"] for c in json.loads(out)["checks"]}
    assert details["connection-leibniz"].endswith(" at the one-form level") == (spec is FORM_LEVEL)


@pytest.mark.parametrize("argv, fields, message", [
    (["check"], {"metric": "hyperbolic"}, "metric: must be 'euclidean'"),
    (["check"], {"quotient": "sphere"}, "quotient: must be an object"),
    (["check"], {"quotient": {"sphere": {}}}, "quotient.sphere: needs a 'c'"),
    (["check"], {"metric": {"diag": ["1", "2"]}, "quotient": {"sphere": {"c": "1"}}},
     "metric: sphere quotients need the euclidean metric"),
    (["check"], {"quotient": {"generator": "x^2 + y^2 - 1"}}, "quotient.q: "),
    (["check"], {"quotient": {"torus": {}}}, "quotient: must contain 'sphere' or 'generator'"),
    (["check"], {"checks": "jacobi-identity"}, "checks: must be a list"),
    (["connection", "--x", "1", "--y", "0, 1"], {}, "field: expected 2 components"),
    # the three refusals of HypersurfaceSpace.build
    (["check"], {"metric": {"diag": ["x^2 + 1", "1"]},
                 "quotient": {"generator": "x^2 + y^2 - 1", "q": "1/4"}},
     "quotient: the ambient metric must be Euclidean or constant"),
    (["check"], {"metric": {"diag": ["1", "0"]}, "quotient": {"generator": "x", "q": "1"}},
     "quotient: the ambient metric determinant is not a unit"),
    (["check"], {"quotient": {"generator": "x^2 + y^2 - 1", "q": "1"}},
     "quotient: 1 - q<N, N> does not lie in the ideal (f)"),
])
def test_refusals_exit_two_with_the_field(tmp_path, capsys, argv, fields, message):
    code, out, err = run(capsys, argv[:1] + [write_spec(tmp_path, dict(BASE, **fields))]
                         + argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"error[ValidationError]: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("spec, message", [
    (dict(BASE, ring={"kind": "Fp", "p": 3317044064679887385961981}), "ring: p ="),
    (dict(BASE, metric={"diag": ["(x+y+1)^3000", "1"]}), "metric: power exceeds"),
    (dict(BASE, quotient={"generator": "(" * 5000 + "x" + ")" * 5000, "q": "1"}),
     "quotient: parentheses nest"),
])
def test_resource_bounds_exit_two(tmp_path, capsys, spec, message):
    code, out, err = run(capsys, ["check", write_spec(tmp_path, spec)])
    assert code == 2 and out == ""
    assert err.startswith(f"error[ValidationError]: {message}")


def test_large_prime_field_runs(tmp_path, capsys):
    spec = dict(BASE, ring={"kind": "Fp", "p": 1000000000000000003},
                checks=["pairing-duality", "jacobi-identity"])
    code, out, _ = run(capsys, ["check", write_spec(tmp_path, spec), "--json"])
    assert code == 0
    assert [c["status"] for c in json.loads(out)["checks"]] == ["pass", "pass"]


def test_nine_variable_euclidean_koszul_finishes(tmp_path, capsys):
    # det and adjugate of the identity read a few hundred minors, not 9! terms
    spec = dict(BASE, vars=[f"x{i}" for i in range(1, 10)],
                checks=["koszul-flat-agreement", "musical-roundtrip"])
    start = time.perf_counter()
    code, out, err = run(capsys, ["check", write_spec(tmp_path, spec), "--json"])
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    assert [c["status"] for c in json.loads(out)["checks"]] == ["pass", "pass"]
