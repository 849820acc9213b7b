"""The benchmark's tooling against the package: traced names, the pair summary and
the bytecode count; and the output of the example script `koszul_gallery.py`.

`perfbench/tracing.py` wraps functions and methods by name,
`scripts/bench_pairs.py` summarises alternating parent/change runs and
`scripts/opcount.py` counts executed bytecodes.  `scripts/koszul_gallery.py`
draws the field trios its Levi-Civita checks sample; its stdout and its draws
are pinned by sha256, so a change to either shows.  All four are loaded from
their files; none is a package.
"""

import hashlib
import importlib
import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load(relative: str):
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("perfbench/tracing.py")
bench_pairs = load("scripts/bench_pairs.py")
opcount = load("scripts/opcount.py")


@pytest.mark.parametrize("entry", tracing.FUNCTIONS, ids=lambda e: f"{e[1]}.{e[2]}")
def test_every_traced_function_exists(entry):
    _, module_name, name = entry
    assert callable(getattr(importlib.import_module(module_name), name))


@pytest.mark.parametrize("entry", tracing.METHODS, ids=lambda e: f"{e[1]}.{e[2]}")
def test_every_traced_method_is_defined_on_its_class(entry):
    _, module_name, class_name, methods = entry
    cls = getattr(importlib.import_module(module_name), class_name)
    for method in methods:
        assert method in vars(cls), (class_name, method)  # install() reads vars(cls)


def test_traced_check_names_are_the_registry():
    from rinehart.suites import CHECK_NAMES
    assert sorted(tracing.CHECK_NAMES) == sorted(CHECK_NAMES)


DECLARED = [{"name": "identities_per_s", "better": "higher", "bound": 0.25},
            {"name": "wall_s", "better": "lower", "bound": 0.25}]


def synthetic_result(value: float, failed=0, correct=True) -> dict:
    metrics = {"identities_per_s": {"value": value}, "wall_s": {"value": 100 / value}}
    return {"metrics": metrics, "failed": failed, "attempted": 10, "correct": correct}


def synthetic_runs(parent: list, change: list, failed=(0, 0)) -> list:
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, value, fails in (("parent", p, failed[0]), ("change", c, failed[1])):
            runs.append({"pair": pair, "side": side, "result": synthetic_result(value, fails)})
    return runs


def test_summary_medians_quartiles_and_pairs_won():
    parent = [10.0, 12.0, 11.0, 9.0, 13.0]
    change = [11.0, 11.5, 12.0, 10.0, 14.0]
    summary = bench_pairs.summarise(synthetic_runs(parent, change, failed=(1, 2)), DECLARED)
    ips = summary["identities_per_s"]
    q1, median, q3 = statistics.quantiles(parent, n=4)
    assert ips["parent"] == {"median": median, "q1": q1, "q3": q3}
    assert ips["parent"]["median"] == 11.0 and ips["change"]["median"] == 11.5
    # pair 1 is the one the change loses: 11.5 < 12
    assert ips["change_won_pairs"] == 4 and ips["pairs"] == 5 and ips["better"] == "higher"
    # wall time is lower exactly where the rate is higher
    assert summary["wall_s"]["change_won_pairs"] == 4 and summary["wall_s"]["better"] == "lower"
    assert summary["wall_s"]["change"]["median"] == pytest.approx(100 / 11.5)
    assert summary["failed"] == {"parent": 5, "change": 10}
    assert summary["attempted"] == {"parent": 50, "change": 50}


def test_summary_counts_ties_for_neither_side():
    summary = bench_pairs.summarise(synthetic_runs([5.0, 5.0], [5.0, 6.0]), DECLARED)
    assert summary["identities_per_s"]["change_won_pairs"] == 1
    assert summary["wall_s"]["change_won_pairs"] == 1


def test_gain_needs_nine_in_ten_pairs_and_a_median_past_the_parent_spread():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert q3 - q1 == 2.5
    cases = (([p + 3 for p in parent], True),  # 10/10 won, medians 3 apart
             ([p + 2 for p in parent], False),  # 10/10 won, but only 2 apart
             ([p + 3 for p in parent[:9]] + [90.0], True),  # 9/10 won
             ([p + 3 for p in parent[:8]] + [90.0, 90.0], False))  # 8/10 won
    for change, gain in cases:
        ips, wall = (bench_pairs.summarise(synthetic_runs(parent, change), DECLARED)[name]
                     for name in ("identities_per_s", "wall_s"))
        assert ips["gain"] is gain, change
        # wall_s = 100 / rate is lower exactly where the rate is higher
        assert wall["change_won_pairs"] == ips["change_won_pairs"]
        assert ips["within_bound"] and wall["within_bound"]
    # a change that loses every pair gains nothing, however far its median moves
    assert not bench_pairs.summarise(synthetic_runs(parent, [p - 30 for p in parent]),
                                     DECLARED)["identities_per_s"]["gain"]


@pytest.mark.parametrize("factor, within", [(0.76, True), (0.74, False)])
def test_within_bound_allows_the_declared_fraction_of_the_parent_median(factor, within):
    parent = [100.0, 100.0, 100.0]
    summary = bench_pairs.summarise(synthetic_runs(parent, [p * factor for p in parent]),
                                    DECLARED)
    # a rate 0.76x is 24 % worse; its wall time 1/0.76x is 31.6 % worse, past 25 %
    assert summary["identities_per_s"]["within_bound"] is within
    assert summary["wall_s"]["within_bound"] is False
    assert not summary["identities_per_s"]["gain"] and not summary["wall_s"]["gain"]


@pytest.mark.parametrize("bad, code", [({}, 0), ({"failed": 1}, 1), ({"correct": False}, 1)])
def test_pairs_write_the_file_then_exit_1_on_a_failed_run(tmp_path, monkeypatch, bad, code):
    roots = {name: tmp_path / name for name in ("parent", "change")}
    for root in roots.values():
        root.mkdir()
    (roots["change"] / "BENCHMARK.json").write_text(
        bench_pairs.json.dumps({"end_to_end": DECLARED}))

    def run_once(root, workload, seed, seconds):
        result = synthetic_result(10.0 + seed)
        return {**result, **bad} if root.name == "change" and seed == 2 else result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(roots["parent"]), str(roots["change"]), "--workload", "w",
                             "--pairs", "2", "--seed", "1", "--out", str(out)]) == code
    written = bench_pairs.json.loads(out.read_text())["workloads"]["w"]
    assert len(written["runs"]) == 4
    assert written["summary"]["failed"] == {"parent": 0, "change": bad.get("failed", 0)}


def test_pairs_end_with_one_summary_line_per_metric(tmp_path, monkeypatch, capsys):
    roots = {name: tmp_path / name for name in ("parent", "change")}
    for root in roots.values():
        root.mkdir()
    (roots["change"] / "BENCHMARK.json").write_text(
        bench_pairs.json.dumps({"end_to_end": DECLARED}))
    rates = {("parent", 1): 10.0, ("parent", 2): 12.0, ("change", 1): 11.0, ("change", 2): 11.5}
    monkeypatch.setattr(bench_pairs, "run_once", lambda root, workload, seed, seconds:
                        synthetic_result(rates[root.name, seed]))
    assert bench_pairs.main([str(roots["parent"]), str(roots["change"]), "--workload", "w",
                             "--pairs", "2", "--seed", "1",
                             "--out", str(tmp_path / "bench.json")]) == 0
    # the change wins pair 1 (11 > 10) and loses pair 2 (11.5 < 12): medians 11 and 11.25
    assert capsys.readouterr().err.splitlines()[-2:] == [
        "identities_per_s: parent 11, change 11.25, won 1/2, gain False, within_bound True",
        "wall_s: parent 9.167, change 8.893, won 1/2, gain False, within_bound True"]


@pytest.mark.parametrize("side", ["parent", "change"])
def test_pairs_refuse_one_compiled_checkout(tmp_path, capsys, side):
    roots = {name: tmp_path / name for name in ("parent", "change")}
    (roots[side] / "src" / "rinehart" / "__pycache__").mkdir(parents=True)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(roots["parent"]), str(roots["change"]), "--workload", "w",
                          "--seed", "1", "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"only the {side} checkout holds src/rinehart/__pycache__" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("compiled", [(), ("parent", "change")])
def test_pairs_pass_the_bytecode_gate_when_both_sides_agree(tmp_path, compiled):
    roots = {name: tmp_path / name for name in ("parent", "change")}
    for root in roots.values():
        root.mkdir()
    for side in compiled:
        (roots[side] / "src" / "rinehart" / "__pycache__").mkdir(parents=True)
    # past the gate, the next step reads BENCHMARK.json, which these checkouts lack
    with pytest.raises(FileNotFoundError):
        bench_pairs.main([str(roots["parent"]), str(roots["change"]), "--workload", "w",
                          "--seed", "1", "--out", str(tmp_path / "bench.json")])


def test_opcount_is_the_same_in_two_fresh_interpreters(tmp_path):
    spec = {"schema_version": 1, "ring": {"kind": "Q"}, "vars": ["x", "y"],
            "metric": "euclidean", "checks": ["pairing-duality"], "seed": 1, "max_degree": 1}
    job = {"mode": "check", "specs": opcount.write_specs([spec], tmp_path)}
    first, second = opcount.count(ROOT, job), opcount.count(ROOT, job)
    assert first["opcodes"] == second["opcodes"] > 0


def test_opcount_prints_each_side_peak_memory(monkeypatch, capsys, tmp_path):
    spec = {"schema_version": 1, "ring": {"kind": "Q"}, "vars": ["x"],
            "metric": "euclidean", "checks": ["pairing-duality"], "seed": 1, "max_degree": 1}
    job = {"mode": "check", "specs": opcount.write_specs([spec], tmp_path)}
    monkeypatch.setattr(opcount, "round_zero", lambda workload, seed, folder: job)
    assert opcount.main([str(ROOT), str(ROOT), "--workload", "koszul-metric", "--seed", "3"]) == 0
    line = json.loads(capsys.readouterr().out)
    assert line["parent"] == line["change"] > 0
    assert line["parent_rss_kib"] > 0 and line["change_rss_kib"] > 0


def test_opcount_round_zero_is_the_benchmark_round(tmp_path):
    inputs = opcount.load_inputs()
    job = opcount.round_zero("koszul-metric", 3, tmp_path)
    specs = [json.loads(Path(path).read_text(encoding="utf-8")) for path in job["specs"]]
    assert specs == [op["spec"] for op in inputs.koszul_inputs(3, 0)]
    sweep = opcount.round_zero("space-form-sweep", 3, tmp_path)
    assert sweep["items"] == [item for _, items in inputs.sweep_inputs(3) for item in items]


def test_koszul_gallery_prints_and_draws_as_pinned(monkeypatch, capsys):
    gallery = load("scripts/koszul_gallery.py")
    drawn, check = [], gallery.check_levi_civita

    def recording(space, conn, samples):
        drawn.append([[space.format_field(f) for f in trio] for trio in samples])
        return check(space, conn, samples)

    monkeypatch.setattr(gallery, "check_levi_civita", recording)
    assert gallery.main() == 0
    assert [len(trios) for trios in drawn] == [10] * len(gallery.ENTRIES)
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in (capsys.readouterr().out, json.dumps(drawn))]
    assert digests == ["8bb4ec229a2ed89a8e989ba30085d69bd97339b2d7c03363260cd59d22641860",
                       "44526cd55df60aca5b6706616d04e043611bf0b4c44c58b7cc0532dd58fc5e4e"]
