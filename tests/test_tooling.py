"""The benchmark's tooling against the package: traced names and the pair summary.

`perfbench/tracing.py` wraps functions and methods by name, and
`scripts/bench_pairs.py` summarises alternating parent/change runs.  Both
are loaded from their files; neither is a package.
"""

import importlib
import importlib.util
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


def synthetic_runs(parent: list, change: list, failed=(0, 0)) -> list:
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, value, fails in (("parent", p, failed[0]), ("change", c, failed[1])):
            metrics = {"identities_per_s": {"value": value}, "wall_s": {"value": 100 / value}}
            runs.append({"pair": pair, "side": side,
                         "result": {"metrics": metrics, "failed": fails, "attempted": 10}})
    return runs


def test_summary_medians_quartiles_and_pairs_won():
    parent = [10.0, 12.0, 11.0, 9.0, 13.0]
    change = [11.0, 11.5, 12.0, 10.0, 14.0]
    better = {"identities_per_s": "higher", "wall_s": "lower"}
    summary = bench_pairs.summarise(synthetic_runs(parent, change, failed=(1, 2)), better)
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
    summary = bench_pairs.summarise(synthetic_runs([5.0, 5.0], [5.0, 6.0]),
                                    {"identities_per_s": "higher", "wall_s": "lower"})
    assert summary["identities_per_s"]["change_won_pairs"] == 1
    assert summary["wall_s"]["change_won_pairs"] == 1


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
