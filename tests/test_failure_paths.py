"""Every failing branch of the check suites, reached by a planted bug.

Each case monkeypatches one name a check reads (or a stateful wrapper of
it, where an earlier branch of the same check must still pass, or every
binding of one shared builder) and runs
that check alone.  It pins the detail line and the sha256 of the
counterexample as sorted JSON, so a change to how reports render shows
here, on the branches no passing spec reaches.
"""

import hashlib
import itertools
import json
import pathlib

import pytest

import rinehart.hypersurface
import rinehart.space
import rinehart.suites as suites
from rinehart import MetricNotMusical, Rationals, make_sphere, verify_space_form
from rinehart.cli import build_workspace, main
from rinehart.suites import run_checks

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"

WORKSPACES = {
    "euclidean": {"ring": {"kind": "Q"}, "vars": ["x", "y"], "metric": "euclidean"},
    # not musical: connection-leibniz and levi-civita run at the one-form level
    "form-level": {"ring": {"kind": "Q"}, "vars": ["x", "y"],
                   "metric": {"diag": ["1", "x^2 + 1"]}},
    "sphere": {"ring": {"kind": "Q"}, "vars": ["x", "y", "z"], "metric": "euclidean",
               "quotient": {"sphere": {"c": "1"}}},
}


def on_calls(real, bad, calls):
    """`real`, except on the call numbers in `calls` (counted from 1), which `bad` answers."""
    count = itertools.count(1)

    def planted(*args):
        return bad(*args) if next(count) in calls else real(*args)
    return planted


FROM_2, FROM_4, FROM_5 = range(2, 1 << 20), range(4, 1 << 20), range(5, 1 << 20)


def doubled(real):
    def planted(*args):
        value = real(*args)
        return value + value
    return planted


def patch(name, make):
    """Replace the attribute `name` ("module.attr" or "module.Class.attr") by
    make(original), with a fresh planted bug for each test."""
    def apply(monkeypatch):
        module, *path, attr = name.split(".")
        target = {"suites": suites, "space": rinehart.space,
                  "hypersurface": rinehart.hypersurface}[module]
        for step in path:
            target = getattr(target, step)
        monkeypatch.setattr(target, attr, make(getattr(target, attr)))
    return apply


def swap_class(name, make_call):
    """Replace a connection class, as `name` binds it, by a subclass whose __call__
    is make_call(original __call__)."""
    return patch(name, lambda base: type("Planted", (base,), {"__call__": make_call(base.__call__)}))


def in_bracket_pairs(make):
    """Plant make(original) in the bracket-pair builder where both of its readers bind it:
    `space`, where `lie_bracket` reads it, and `suites`, where the Jacobi check's outer
    brackets do."""
    def apply(monkeypatch):
        patch("space.bracket_pairs", make)(monkeypatch)
        patch("suites.bracket_pairs", make)(monkeypatch)
    return apply


def dropped_first_pair(real):
    return lambda xs, ys: [pairs[1:] for pairs in real(xs, ys)]


def plus_x(real):
    return lambda self, x, y: real(self, x, y) + x


# (id, workspace, check, planted bug)
CASES = [
    ("pairing-basis", "euclidean", "pairing-duality",
     patch("suites.pairing", lambda real: lambda x, om: real(x, om) + 1)),
    ("pairing-linear", "euclidean", "pairing-duality",
     patch("suites.pairing", lambda real: lambda x, om: real(x, om) * real(x, om))),
    ("d-one", "euclidean", "differential-leibniz",
     patch("suites.differential", lambda real: lambda s, f: real(s, f + s.coordinate(0)))),
    ("d-product", "euclidean", "differential-leibniz",
     patch("suites.differential", lambda real: lambda s, f: real(s, f * f))),
    ("anchor", "euclidean", "anchor-compatibility", patch("suites.lie_bracket", doubled)),
    ("jacobi", "euclidean", "jacobi-identity",
     patch("suites.lie_bracket", lambda real: lambda s, x, y: real(s, x, y) + x)),
    ("anchor-pairs", "euclidean", "anchor-compatibility", in_bracket_pairs(dropped_first_pair)),
    ("jacobi-pairs", "euclidean", "jacobi-identity", in_bracket_pairs(dropped_first_pair)),
    ("leibniz-vector", "euclidean", "connection-leibniz", patch("suites.derive", doubled)),
    ("leibniz-form", "form-level", "connection-leibniz", patch("suites.derive", doubled)),
    ("flat-basis", "euclidean", "flat-curvature",
     swap_class("suites.EuclideanConnection", plus_x)),
    ("flat-random", "euclidean", "flat-curvature",
     patch("suites.curvature", lambda real: lambda s, c, x, y, z: real(s, c, x, y, z) + z)),
    ("koszul-flat-basis", "euclidean", "koszul-flat-agreement",
     swap_class("suites.KoszulConnection", plus_x)),
    ("koszul-flat-random", "euclidean", "koszul-flat-agreement",
     swap_class("suites.KoszulConnection",
                lambda real: on_calls(real, plus_x(real), FROM_5))),
    ("torsion-vector", "euclidean", "levi-civita", patch("space.lie_bracket", doubled)),
    ("torsion-form", "form-level", "levi-civita", patch("space.lie_bracket", doubled)),
    ("compatibility-vector", "euclidean", "levi-civita",
     patch("space.inner", lambda real: lambda x, y, g: real(x, y, g) + 1)),
    ("compatibility-form", "form-level", "levi-civita",
     patch("space.pairing", lambda real: lambda x, om: real(x, om) + 1)),
    ("sharp-flat", "euclidean", "musical-roundtrip", patch("suites.sharp", doubled)),
    ("flat-sharp", "euclidean", "musical-roundtrip",
     patch("suites.sharp", lambda real: on_calls(real, doubled(real), FROM_2))),
    ("metric-transfer", "euclidean", "metric-transfer",
     patch("suites.pairing", lambda real: lambda x, om: real(x, om) + 1)),
    ("curvature-tensorial", "euclidean", "curvature-tensorial",
     patch("suites.curvature", lambda real: lambda s, c, x, y, z: real(s, c, x, y, z) + z)),
    ("normal-form-homomorphism", "sphere", "normal-form-homomorphism",
     patch("suites.RinehartSpace.poly_fn", lambda real: lambda self, p: real(self, p) + 1)),
    ("tangency-spanning", "sphere", "tangency",
     patch("suites.is_tangent", lambda real: lambda h, x: False)),
    ("tangency-normal-part", "sphere", "tangency",
     patch("suites.project_normal", lambda real: lambda h, x: x)),
    ("tangency-normal", "sphere", "tangency",
     patch("suites.is_tangent", lambda real: lambda h, x: True)),
    ("tangency-projected", "sphere", "tangency",
     patch("suites.is_tangent", lambda real: on_calls(real, lambda h, x: False, FROM_5))),
    ("retraction-idempotent", "sphere", "projection-retraction",
     patch("suites.project_tangent", lambda real: lambda h, x: real(h, x) + x)),
    ("retraction-tangent", "sphere", "projection-retraction",
     patch("suites.project_tangent",
           lambda real: on_calls(real, lambda h, x: real(h, x) + x, FROM_4))),
    ("retraction-sum", "sphere", "projection-retraction", patch("suites.project_normal", doubled)),
    ("projection-orthogonal", "sphere", "projection-orthogonal",
     patch("suites.inner", lambda real: lambda x, y, g: real(x, y, g) + 1)),
    ("gauss-split", "sphere", "gauss-split", patch("suites.second_fundamental_form", doubled)),
    ("second-form-symmetric", "sphere", "second-form-symmetric",
     patch("suites.second_fundamental_form",
           lambda real: lambda h, x, y: real(h, x, y) + real(h, x, x))),
    ("second-form-bilinear", "sphere", "second-form-symmetric",
     patch("suites.second_fundamental_form",
           lambda real: lambda h, x, y: real(h, x, y) + h.normal)),
    ("representative-independence", "sphere", "representative-independence",
     patch("suites.ambient_derivative",
           lambda real: on_calls(real, lambda s, x, y: real(s, x, y) + x, {1}))),
    ("induced-metric", "sphere", "induced-metric",
     patch("suites.gram_table", lambda real: lambda fs, g: tuple(
         tuple(e + e for e in row) for row in real(fs, g)))),
    ("identities-d-normal", "sphere", "induced-identities", patch("suites.derive", doubled)),
    ("identities-normal-pairing", "sphere", "induced-identities",
     patch("suites.inner", doubled)),
    ("identities-normal-length", "sphere", "induced-identities",
     patch("suites.sum_products", doubled)),
    ("identities-ambient-normal", "sphere", "induced-identities",
     patch("suites.ambient_derivative", doubled)),
    ("identities-spanning", "sphere", "induced-identities",
     patch("suites.spanning_fields", lambda real: lambda h: [f + f for f in real(h)])),
    ("identities-d-spanning", "sphere", "induced-identities",
     patch("suites.sphere_metric_entry", lambda real: lambda s, c, i, j: real(s, c, i, j) + 1)),
    ("identities-connection", "sphere", "induced-identities",
     swap_class("suites.InducedConnection", doubled)),
    ("identities-bracket", "sphere", "induced-identities", patch("suites.lie_bracket", doubled)),
    ("identities-second-form", "sphere", "induced-identities",
     patch("suites.second_fundamental_form", doubled)),
    ("space-form-metric", "sphere", "space-form",
     patch("hypersurface.gram_table", lambda real: lambda fs, g: tuple(
         tuple(e + e for e in row) for row in real(fs, g)))),
    ("space-form-curvature", "sphere", "space-form",
     swap_class("hypersurface.InducedConnection", doubled)),
]

# id -> (detail, sha256 of the counterexample as sorted JSON)
EXPECTED = {
    "pairing-basis": ("basis pairing is not dual",
        "9e0722466aeaf0ce511a3ccb9d3311af9d3ad84b4b173649057402467754b416"),
    "pairing-linear": ("pairing is not O-linear",
        "a2c8c050f2e2d1846d83723a19876335985b31726136bf2033aa0343d2459b10"),
    "d-one": ("d(1) is not zero",
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    "d-product": ("d(fg) != f dg + g df",
        "cddb40b801f91e9a4967a4b4c654acb51b2b3cdebabc1d2e31e7549f200f4dbe"),
    "anchor": ("[X, fY] != (d_X f)Y + f[X, Y]",
        "75b1fffbddfeb9a9ecc52745868e158bfbb3144dc5b207e9731f14780ce88af6"),
    "jacobi": ("cyclic bracket sum is nonzero",
        "37c73979b4d2b15999446c09ce908c8f8a1ff1d76f796971ddc619f554684684"),
    "anchor-pairs": ("[X, fY] != (d_X f)Y + f[X, Y]",
        "75b1fffbddfeb9a9ecc52745868e158bfbb3144dc5b207e9731f14780ce88af6"),
    "jacobi-pairs": ("cyclic bracket sum is nonzero",
        "37c73979b4d2b15999446c09ce908c8f8a1ff1d76f796971ddc619f554684684"),
    "leibniz-vector": ("connection module laws fail",
        "bb2bd1ef956016fd5f386ccf5758735bb5b9664d676d6303eae3c9d393ae0069"),
    "leibniz-form": ("connection module laws fail",
        "bb2bd1ef956016fd5f386ccf5758735bb5b9664d676d6303eae3c9d393ae0069"),
    "flat-basis": ("basis curvature is nonzero",
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    "flat-random": ("R(X, Y)Z is nonzero",
        "3021564f4717d02478d124afb4d260ad50449f55cf3064ad276f9b1a61a0e5b7"),
    "koszul-flat-basis": ("basis values differ",
        "117f1e1cd5ac64f1844155d9e42319b55b30b2d4cb862a2aa05b807273289ec1"),
    "koszul-flat-random": ("values differ",
        "3b700215dc89b2b1f7d209b558ece4e2be60375b7b5cd5bb96bf8bc73756bcd7"),
    "torsion-vector": ("torsion identity fails",
        "fa60a59b9bd05521fa12ef267cca05317ffbbc6a243a70be9a9f8d0f964e9830"),
    "torsion-form": ("torsion identity fails",
        "5c74bf902da3b90b1052f60cdc7c84d3b9fc6fc02bb30559c67e075d076d7a3b"),
    "compatibility-vector": ("compatibility identity fails",
        "4b2feaab6268b76619c5ef4ba1941753cce7af7bb1b2efc437a62ebabdb9f427"),
    "compatibility-form": ("compatibility identity fails",
        "4b2feaab6268b76619c5ef4ba1941753cce7af7bb1b2efc437a62ebabdb9f427"),
    "sharp-flat": ("sharp(flat(X)) != X",
        "0b621f9503869343319d387ff1f793fa0170f9a7056ca5a922ae6567d9efc85d"),
    "flat-sharp": ("flat(sharp(om)) != om",
        "ecedc14759d542314e62706ebdcefddf0c790fef50c0459e8efcad27a660780a"),
    "metric-transfer": ("inner product does not match pairing",
        "0b5bea47fe10b5e8c99f3bad8220b87f95402a74061ed49499c5c548a996ef7d"),
    "curvature-tensorial": ("slot 1 is not O-linear",
        "5f8a79a46aa475b013e16fe8fc96507c2af8b295c0bc76e61c17bf52cff30948"),
    "normal-form-homomorphism": ("reduction is not a ring morphism",
        "27af2a661d5648a8b03a3047ae18fd652ee4a5a9432025056a787aea7eb09729"),
    "tangency-spanning": ("spanning field is not tangent",
        "309110bff4b0a8f910121cb312eaae4cb4eab8c8d1cab3e63bbbb4c5d054f134"),
    "tangency-normal-part": ("tangent field has a normal part",
        "309110bff4b0a8f910121cb312eaae4cb4eab8c8d1cab3e63bbbb4c5d054f134"),
    "tangency-normal": ("the normal field reads as tangent",
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    "tangency-projected": ("projected field is not tangent",
        "06d25100b4b47937a9f70f5e33a773b1585c4c449f2b4dce32abcb347b77d669"),
    "retraction-idempotent": ("projection is not idempotent",
        "655882347df5324cd180ca0ee0dbeb5f9760241aa1643493ff37b8f756ac7927"),
    "retraction-tangent": ("projection moves a tangent field",
        "3bbe9bae15753f0e15789d0371b1679a4a1655488d047f9de178f7b400150177"),
    "retraction-sum": ("projections do not sum to identity",
        "655882347df5324cd180ca0ee0dbeb5f9760241aa1643493ff37b8f756ac7927"),
    "projection-orthogonal": ("normal part meets a tangent field",
        "1702c1a59c2113503338171ad965976084b36dc9c30864164c746224ce790c56"),
    "gauss-split": ("ambient derivative != tangent + normal parts",
        "84ee584bb6455381151ca221e4760edfca0334e79bda74fadf05d8176d957ae0"),
    "second-form-symmetric": ("h(X, Y) != h(Y, X)",
        "99d5e80372fa80a7dc22b80407bd37291124abb6a0cc1648a7fe7880ede0f1e0"),
    "second-form-bilinear": ("h is not O-bilinear",
        "15a0e43952ca2de27c7755d816d2eed3a7e659edf9a30b64d5d679bddeedc4b2"),
    "representative-independence": ("induced value depends on the lift",
        "a200e81c657d833cbb419f0970413bbbd7249d4631dc9cfa34cb689c93cb6e9c"),
    "induced-metric": ("<Y_i, Y_j> != delta_ij - c x_i x_j",
        "f1d0f8c7572a441c9d30e76d66a54bc66c18c6e9e54adb1a1deaddcef17ec7ff"),
    "identities-d-normal": ("d_N x_i != x_i",
        "309110bff4b0a8f910121cb312eaae4cb4eab8c8d1cab3e63bbbb4c5d054f134"),
    "identities-normal-pairing": ("<X_i, N> != x_i",
        "309110bff4b0a8f910121cb312eaae4cb4eab8c8d1cab3e63bbbb4c5d054f134"),
    "identities-normal-length": ("<N, N> != sum x_i^2",
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    "identities-ambient-normal": ("nabla_X N != X",
        "5ede850f9dbc4cc083b9c9617b39c3914d0c74c3ada954297b3e251552ca14ca"),
    "identities-spanning": ("Y_i != X_i - c x_i N",
        "309110bff4b0a8f910121cb312eaae4cb4eab8c8d1cab3e63bbbb4c5d054f134"),
    "identities-d-spanning": ("d_Yi x_j != delta_ij - c x_i x_j",
        "117f1e1cd5ac64f1844155d9e42319b55b30b2d4cb862a2aa05b807273289ec1"),
    "identities-connection": ("nabla_Yi Y_j != -c x_j Y_i",
        "c6098785a646c14ffe4a62767806449d21fb966939b0ecb705302129abb3abf2"),
    "identities-bracket": ("[Y_i, Y_j] != c(x_i Y_j - x_j Y_i)",
        "5359da96f49d561f8c54a4ba7be7d07167e3889245a50920b8234c2d82e1a722"),
    "identities-second-form": ("h(Y_i, Y_j) != -c(delta_ij - c x_i x_j)N",
        "117f1e1cd5ac64f1844155d9e42319b55b30b2d4cb862a2aa05b807273289ec1"),
    "space-form-metric": ("induced metric identity fails",
        "f1d0f8c7572a441c9d30e76d66a54bc66c18c6e9e54adb1a1deaddcef17ec7ff"),
    "space-form-curvature": ("curvature identity fails",
        "e1cb3fb056c4bc488ad5cb5e9a7f7d1137f8db1c319c43b2b29dceb225e5eee6"),
}


def counterexample_digest(ce) -> str:
    return hashlib.sha256(json.dumps(ce, sort_keys=True).encode()).hexdigest()


def planted_result(monkeypatch, workspace, check, plant):
    ws, _ = build_workspace(WORKSPACES[workspace])
    plant(monkeypatch)
    (result,) = run_checks(ws, names=[check], seed=7, max_degree=2, cases=5)
    return result


@pytest.mark.parametrize("case_id, workspace, check, plant", CASES, ids=[c[0] for c in CASES])
def test_planted_bug_fails_with_its_report(monkeypatch, case_id, workspace, check, plant):
    result = planted_result(monkeypatch, workspace, check, plant)
    assert result.status == "fail"
    detail, digest = EXPECTED[case_id]
    assert result.detail == detail
    assert counterexample_digest(result.counterexample) == digest


def recording(reports):
    """A make() for `patch` whose wrapper keeps every return value of the real function."""
    def make(real):
        def recorded(*args, **kwargs):
            reports.append(real(*args, **kwargs))
            return reports[-1]
        return recorded
    return make


# case id -> the identity that the verifier's Report names as failed
FAILED = {"torsion-vector": "torsion", "torsion-form": "torsion",
          "compatibility-vector": "compatibility", "compatibility-form": "compatibility",
          "space-form-metric": "induced metric", "space-form-curvature": "curvature"}
VERIFIERS = {"levi-civita": "suites.check_levi_civita", "space-form": "suites.verify_space_form"}


@pytest.mark.parametrize("case_id", FAILED)
def test_the_verifier_report_names_the_failed_identity(monkeypatch, case_id):
    (_, workspace, check, plant), = [c for c in CASES if c[0] == case_id]
    reports = []
    patch(VERIFIERS[check], recording(reports))(monkeypatch)
    result = planted_result(monkeypatch, workspace, check, plant)
    (report,) = reports
    assert (report.ok, report.failed) == (False, FAILED[case_id])
    assert result.detail == f"{report.failed} identity fails"
    assert result.counterexample == report.counterexample


def test_a_curvature_failure_returns_the_curvature_report_itself(monkeypatch):
    reports = []
    patch("hypersurface.check_constant_curvature", recording(reports))(monkeypatch)
    swap_class("hypersurface.InducedConnection", doubled)(monkeypatch)
    q = Rationals()
    report = verify_space_form(make_sphere(q, 3, q.one()), q.one())
    (recorded,) = reports
    assert report is recorded and report.failed == "curvature"


def test_every_case_has_its_own_id():
    assert len({c[0] for c in CASES}) == len(CASES) == len(EXPECTED)


def test_unknown_check_names_are_refused():
    ws, _ = build_workspace(WORKSPACES["euclidean"])
    with pytest.raises(ValueError, match="unknown checks: no-such-check, other"):
        run_checks(ws, names=["other", "jacobi-identity", "no-such-check"])


def test_a_runner_that_finds_no_musical_metric_skips(monkeypatch):
    # no check raises MetricNotMusical through run_checks today; the handler reports it
    def planted(ws, rng, cases, max_degree):
        raise MetricNotMusical("planted refusal")

    monkeypatch.setattr(suites, "REGISTRY", [
        type(row)(row.name, row.needs, planted) if row.name == "metric-transfer" else row
        for row in suites.REGISTRY])
    ws, _ = build_workspace(WORKSPACES["euclidean"])
    (result,) = run_checks(ws, names=["metric-transfer"], seed=7, cases=5)
    assert (result.status, result.detail, result.counterexample) == (
        "skipped", "metric is not musical: planted refusal", None)


def test_planted_bug_exits_one_with_a_json_report(monkeypatch, capsys):
    patch("suites.lie_bracket", doubled)(monkeypatch)
    code = main(["check", str(SPECS / "euclidean_q_n2.json"), "--json", "--seed", "7"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    failed = [c for c in json.loads(captured.out)["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["anchor-compatibility"]
    assert failed[0]["detail"] == "[X, fY] != (d_X f)Y + f[X, Y]"
