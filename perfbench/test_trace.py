"""Self-test of the benchmark: traced counts repeat and the layers separate.

    python3 -m pytest perfbench/test_trace.py -q

Run from the repository root; it makes two traced runs of every workload at
one seed and one plain run, about 3 minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("quotient-check", "space-form-sweep", "koszul-metric")
SEED = 3
DETERMINISTIC_UNITS = ("count", "ratio")


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: (bench(w, 1), bench(w, 1)) for w in WORKLOADS}


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(traced, workload):
    first, second = traced[workload]
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    assert first["attempted"] == second["attempted"]
    counts = {name: m["value"] for name, m in first["metrics"].items()
              if m["unit"] in DETERMINISTIC_UNITS}
    again = {name: second["metrics"][name]["value"] for name in counts}
    assert counts == again


def test_every_per_layer_metric_is_reported(traced, declared):
    want = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for workload in WORKLOADS:
        got = {name: m["unit"] for name, m in traced[workload][0]["metrics"].items()}
        assert got == want, workload


def test_every_end_to_end_metric_is_reported(declared):
    result = bench("koszul-metric", 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_separate_the_layers(traced):
    def value(workload, name):
        return traced[workload][0]["metrics"][name]["value"]

    # nothing is divided and no hypersurface exists on the Koszul metrics
    for name in ("poly.divmod.calls", "hypersurface.project_tangent.calls",
                 "hypersurface.induced.calls", "hypersurface.second_form.calls"):
        assert value("koszul-metric", name) == 0, name
    assert value("koszul-metric", "tensors.det.calls") > 0
    assert value("koszul-metric", "space.koszul.builds") > 0
    # the sweep has no random inputs
    assert value("space-form-sweep", "randgen.random_poly.calls") == 0
    assert value("space-form-sweep", "hypersurface.induced.calls") > 0
    for name in ("poly.divmod.calls", "randgen.random_poly.calls",
                 "hypersurface.second_form.calls", "suites.space-form.s"):
        assert value("quotient-check", name) > 0, name
